import numpy as np
import pytest

from mssvdd import (
    FeatureMatrix,
    KernelError,
    KernelParams,
    center_kernel,
    kernel_matrix,
    npt_embed_test,
    npt_fit,
)
from mssvdd.kernels import _BLOCK_BYTES, KERNEL_KINDS, kernel_cross

from oracles import (
    center_formula,
    centered_test_kernel_formula,
    kernel_formula,
    traced_peak,
)

# Shapes at the edges of kernel_cross's row blocks, as (d, n, m); a square
# case uses n x n. One row per block, with m filling the block budget or
# overflowing it; a single full block (n = m = 128); and n = 181, whose
# square kernel runs in blocks of 90, 90 and 1 rows.
_ROW_BUDGET = _BLOCK_BYTES // 8
BLOCK_EDGE_SHAPES = [
    (3, 5, _ROW_BUDGET), (2, 3, _ROW_BUDGET + 1000), (4, 128, 128), (4, 181, 90)
]


def _random_features(rng, d, n):
    return FeatureMatrix(rng.standard_normal((d, n)))


class TestKernelParams:
    def test_gamma_range(self):
        with pytest.raises(KernelError):
            KernelParams(gamma=1.5)

    def test_sigma_positive(self):
        with pytest.raises(KernelError):
            KernelParams(sigma=0.0)

    def test_unknown_kind(self):
        with pytest.raises(KernelError):
            KernelParams(kind="cubic")

    @pytest.mark.parametrize(
        "field, value",
        [
            ("kind", 3), ("gamma", None), ("sigma", "abc"), ("kappa", "1"), ("theta", True),
            ("gamma", float("nan")), ("sigma", float("nan")), ("sigma", float("inf")),
            ("kappa", float("nan")), ("kappa", float("inf")), ("kappa", float("-inf")),
            ("theta", float("nan")), ("theta", float("inf")),
        ],
    )
    def test_wrong_type_rejected(self, field, value):
        with pytest.raises(KernelError, match=rf"^{field} must be"):
            KernelParams(**{field: value})

    def test_unresolved_kappa_rejected_at_evaluation(self):
        f = FeatureMatrix(np.ones((2, 2)))
        with pytest.raises(KernelError, match="kappa"):
            kernel_matrix(f, KernelParams(kind="composite", kappa=None))


class TestKernelMatrix:
    def test_zero_vectors_composite(self):
        f = FeatureMatrix(np.zeros((3, 2)))
        params = KernelParams(kind="composite", gamma=0.5, kappa=1.0, theta=0.0)
        k = kernel_matrix(f, params)
        np.testing.assert_allclose(k, 0.5)

    def test_unit_axes_scalar_value(self):
        f = FeatureMatrix(np.array([[1.0, 0.0], [0.0, 1.0]]))
        params = KernelParams(
            kind="composite", gamma=0.5, sigma=1.0, kappa=1.0, theta=0.0
        )
        k = kernel_matrix(f, params)
        assert k[0, 1] == pytest.approx(0.5 * np.exp(-1.0), abs=1e-12)
        assert k[0, 1] == pytest.approx(0.18394, abs=1e-5)

    def test_gamma_one_is_gaussian(self):
        rng = np.random.default_rng(0)
        f = _random_features(rng, 4, 7)
        comp = kernel_matrix(
            f, KernelParams(kind="composite", gamma=1.0, sigma=2.0, kappa=0.5)
        )
        gauss = kernel_matrix(f, KernelParams(kind="gaussian", sigma=2.0, kappa=0.5))
        np.testing.assert_array_equal(comp, gauss)

    def test_gamma_zero_is_sigmoid(self):
        rng = np.random.default_rng(1)
        f = _random_features(rng, 3, 6)
        comp = kernel_matrix(
            f, KernelParams(kind="composite", gamma=0.0, sigma=1.0, kappa=0.7, theta=0.2)
        )
        expected = np.tanh(0.7 * (f.values.T @ f.values) + 0.2)
        sym = np.triu(expected) + np.triu(expected, 1).T
        np.testing.assert_array_equal(comp, sym)

    # kernel_matrix does not mirror its result, so this fails if numpy
    # ever stops returning x.T @ x exactly symmetric.
    @pytest.mark.parametrize("kind", KERNEL_KINDS)
    @pytest.mark.parametrize("n", [2, 9, 257, 700])
    @pytest.mark.parametrize("d", [1, 5, 40])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_exactly_symmetric(self, order, d, n, kind):
        rng = np.random.default_rng(2)
        x = np.asarray(rng.standard_normal((d, n)), order=order)
        params = KernelParams(kind=kind, sigma=1.3, kappa=0.4)
        cross = kernel_cross(x, x, params)
        assert np.array_equal(cross, cross.T)
        k = kernel_matrix(FeatureMatrix(x), params)
        assert np.array_equal(k, k.T)

    # kernel_cross computes a.T @ b once and reuses it for the distances;
    # pin it bit for bit against the formula that computes it twice.
    @pytest.mark.parametrize("kind", ["composite", "gaussian"])
    @pytest.mark.parametrize("square", [False, True])
    @pytest.mark.parametrize(
        "d,n,m",
        [(20, 200, 1000), (20, 1500, 1500), (5, 64, 16), (1, 9, 9), (40, 257, 700)]
        + BLOCK_EDGE_SHAPES,
    )
    def test_matches_two_gemm_formula(self, d, n, m, square, kind):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((d, n))
        b = a if square else rng.standard_normal((d, m))
        params = KernelParams(kind=kind, gamma=0.5, sigma=3.0, kappa=0.2, theta=0.1)
        sq = (
            np.sum(a * a, axis=0)[:, None]
            + np.sum(b * b, axis=0)[None, :]
            - 2.0 * (a.T @ b)
        )
        want = np.exp(-np.maximum(sq, 0.0) / (2.0 * params.sigma**2))
        if kind == "composite":
            sigm = np.tanh(params.kappa * (a.T @ b) + params.theta)
            want = params.gamma * want + (1.0 - params.gamma) * sigm
        got = kernel_cross(a, b, params)
        assert got.tobytes() == want.tobytes()

    def test_linear_is_gram(self):
        rng = np.random.default_rng(3)
        f = _random_features(rng, 3, 5)
        k = kernel_matrix(f, KernelParams(kind="linear"))
        np.testing.assert_allclose(k, f.values.T @ f.values, atol=1e-12)


# kernel_cross and the test-kernel centering work in place; pin them bit
# for bit against the same formulas written out of place.
class TestInPlaceKernel:
    SHAPES = [(20, 200, 1000), (5, 64, 16), (1, 9, 9), (40, 257, 700)] + BLOCK_EDGE_SHAPES

    @pytest.mark.parametrize("kind", KERNEL_KINDS)
    @pytest.mark.parametrize("square", [False, True])
    @pytest.mark.parametrize("d,n,m", SHAPES)
    def test_kernel_matches_formula(self, d, n, m, square, kind):
        rng = np.random.default_rng(14)
        a = rng.standard_normal((d, n))
        b = a if square else rng.standard_normal((d, m))
        params = KernelParams(kind=kind, gamma=0.3, sigma=2.0, kappa=0.2, theta=0.1)
        got = kernel_cross(a, b, params)
        assert got.tobytes() == kernel_formula(a, b, params).tobytes()
        if square:
            k = kernel_matrix(FeatureMatrix(a), params)
            assert k.tobytes() == got.tobytes()
            assert np.array_equal(k, k.T)

    @pytest.mark.parametrize("kind", KERNEL_KINDS)
    @pytest.mark.parametrize("square", [False, True])
    @pytest.mark.parametrize("d,n,m", SHAPES)
    def test_centering_matches_formula(self, d, n, m, square, kind):
        rng = np.random.default_rng(15)
        f = FeatureMatrix(rng.standard_normal((d, n)))
        test = f.values if square else rng.standard_normal((d, m))
        params = KernelParams(kind=kind, gamma=0.3, sigma=2.0, kappa=0.2, theta=0.1)
        raw = kernel_formula(f.values, f.values, params)
        want_centered = center_formula(raw)
        centered, row_means, _ = center_kernel(raw)
        assert centered.tobytes() == want_centered.tobytes()
        assert row_means.tobytes() == raw.mean(axis=1).tobytes()
        state = npt_fit(f, params)
        assert state.kernel.row_means.tobytes() == row_means.tobytes()
        want = centered_test_kernel_formula(f.values, row_means, test, params)
        assert npt_embed_test(state.kernel, test).tobytes() == want.tobytes()
        embedded = (1.0 / np.sqrt(state.eigvals))[:, None] * (state.eigvecs.T @ want)
        assert npt_embed_test(state, test).tobytes() == embedded.tobytes()

    @pytest.mark.parametrize("kind", KERNEL_KINDS)
    @pytest.mark.parametrize("layout", ["fortran", "column_step", "row_slice"])
    def test_strided_b_matches_formula(self, layout, kind):
        rng = np.random.default_rng(16)
        a = rng.standard_normal((6, 181))
        wide = rng.standard_normal((8, 2 * 300))
        b = {
            "fortran": np.asfortranarray(wide[:6, :300]),
            "column_step": wide[:6, ::2],
            "row_slice": wide[2:, :300],
        }[layout]
        assert not b.flags.c_contiguous
        params = KernelParams(kind=kind, gamma=0.3, sigma=2.0, kappa=0.2, theta=0.1)
        got = kernel_cross(a, b, params)
        assert got.tobytes() == kernel_formula(a, b, params).tobytes()

    @pytest.mark.parametrize("kind", KERNEL_KINDS)
    def test_empty_test_set(self, kind):
        rng = np.random.default_rng(17)
        f = FeatureMatrix(rng.standard_normal((4, 30)))
        test = np.empty((4, 0))
        params = KernelParams(kind=kind, gamma=0.3, sigma=2.0, kappa=0.2, theta=0.1)
        state = npt_fit(f, params)
        want = centered_test_kernel_formula(f.values, state.kernel.row_means, test, params)
        got = npt_embed_test(state.kernel, test)
        assert got.shape == (30, 0)
        assert got.tobytes() == want.tobytes()
        assert npt_embed_test(state, test).shape == (state.rank, 0)


class TestKernelMemory:
    def test_composite_holds_one_kernel_array(self):
        n = 1500
        a = np.random.default_rng(18).standard_normal((40, n))
        params = KernelParams(kind="composite", gamma=0.5, sigma=3.0, kappa=0.2, theta=0.1)
        # The N x N result is the only kernel-sized array; the elementwise
        # chain runs in two row-block buffers of _BLOCK_BYTES each.
        assert traced_peak(lambda: kernel_cross(a, a, params)) < 1.2 * n * n * 8


class TestCenterKernel:
    def test_identity_example(self):
        centered, row_means, grand_mean = center_kernel(np.eye(2))
        np.testing.assert_allclose(
            centered, np.array([[0.5, -0.5], [-0.5, 0.5]]), atol=1e-15
        )
        np.testing.assert_allclose(row_means, [0.5, 0.5])
        assert grand_mean == pytest.approx(0.5)

    def test_rows_sum_to_zero(self):
        rng = np.random.default_rng(4)
        f = _random_features(rng, 4, 11)
        k = kernel_matrix(f, KernelParams(kind="gaussian", sigma=1.5, kappa=1.0))
        centered, _, _ = center_kernel(k)
        assert np.max(np.abs(centered.sum(axis=1))) < 1e-10
        assert np.max(np.abs(centered.sum(axis=0))) < 1e-10

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        f = _random_features(rng, 3, 8)
        k = kernel_matrix(f, KernelParams(kind="composite", sigma=1.0, kappa=0.5))
        once, _, _ = center_kernel(k)
        twice, _, _ = center_kernel(once)
        assert np.max(np.abs(twice - once)) < 1e-12

    def test_fixed_point_when_already_centered(self):
        rng = np.random.default_rng(6)
        f = _random_features(rng, 3, 6)
        k = kernel_matrix(f, KernelParams(kind="gaussian", sigma=2.0, kappa=1.0))
        centered, _, _ = center_kernel(k)
        again, _, _ = center_kernel(centered)
        np.testing.assert_allclose(again, centered, atol=1e-13)

    def test_requires_symmetry(self):
        with pytest.raises(KernelError):
            center_kernel(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestNptFit:
    def test_two_point_hand_example(self):
        # K = [[0,0],[0,1]] centers to [[.25,-.25],[-.25,.25]], one positive
        # eigenvalue 0.5 with eigenvector (1,-1)/sqrt(2).
        f = FeatureMatrix(np.array([[0.0, 1.0]]))
        state = npt_fit(f, KernelParams(kind="linear"))
        khat, _, _ = center_kernel(state.train_kernel)
        np.testing.assert_allclose(khat, [[0.25, -0.25], [-0.25, 0.25]], atol=1e-15)
        assert state.rank == 1
        np.testing.assert_allclose(state.eigvals, [0.5], atol=1e-12)
        np.testing.assert_allclose(np.abs(state.embedded), [[0.5, 0.5]], atol=1e-12)
        np.testing.assert_allclose(state.embedded.T @ state.embedded, khat, atol=1e-12)

    def test_unit_eigval_case(self):
        # Features chosen so the centered linear kernel is [[.5,-.5],[-.5,.5]].
        f = FeatureMatrix(np.array([[-0.5, 0.5], [0.5, -0.5]]))
        state = npt_fit(f, KernelParams(kind="linear"))
        assert state.rank == 1
        np.testing.assert_allclose(state.eigvals, [1.0], atol=1e-12)
        np.testing.assert_allclose(
            np.abs(state.embedded), [[1 / np.sqrt(2), 1 / np.sqrt(2)]], atol=1e-12
        )
        khat, _, _ = center_kernel(state.train_kernel)
        np.testing.assert_allclose(state.embedded.T @ state.embedded, khat, atol=1e-12)

    def test_reconstruction_for_psd_kernels(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            f = _random_features(rng, int(rng.integers(2, 6)), int(rng.integers(3, 15)))
            state = npt_fit(f, KernelParams(kind="gaussian", sigma=1.2, kappa=1.0),
                            eig_rel_tol=0.0)
            khat, _, _ = center_kernel(state.train_kernel)
            err = np.max(np.abs(state.embedded.T @ state.embedded - khat))
            assert err < 1e-8

    def test_composite_drops_negative_spectrum(self):
        rng = np.random.default_rng(8)
        f = _random_features(rng, 4, 12)
        params = KernelParams(kind="composite", gamma=0.5, sigma=1.0, kappa=2.0)
        k = kernel_matrix(f, params)
        khat, _, _ = center_kernel(k)
        eigs = np.linalg.eigvalsh(khat)
        assert eigs.min() < -1e-10, "sigmoid part should make the kernel indefinite"
        state = npt_fit(f, params)
        assert np.all(state.eigvals > 0)
        assert np.all(np.diff(state.eigvals) <= 1e-15)

    def test_degenerate_kernel_raises(self):
        f = FeatureMatrix(np.ones((2, 4)))
        with pytest.raises(KernelError, match="degenerate"):
            npt_fit(f, KernelParams(kind="linear"))

    def test_requires_two_samples(self):
        f = FeatureMatrix(np.ones((2, 1)))
        with pytest.raises(KernelError):
            npt_fit(f, KernelParams(kind="linear"))


class TestNptEmbedTest:
    def test_training_sample_consistency(self):
        rng = np.random.default_rng(9)
        f = _random_features(rng, 4, 10)
        params = KernelParams(kind="composite", gamma=0.5, sigma=1.5, kappa=0.5)
        state = npt_fit(f, params)
        embedded = npt_embed_test(state, f, params)
        assert np.max(np.abs(embedded - state.embedded)) < 1e-8

    def test_empty_input(self):
        rng = np.random.default_rng(10)
        f = _random_features(rng, 3, 5)
        state = npt_fit(f, KernelParams(kind="gaussian", sigma=1.0, kappa=1.0))
        out = npt_embed_test(state, np.zeros((3, 0)), state.kernel.params)
        assert out.shape == (state.rank, 0)

    def test_linear_kernel_preserves_distances(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((4, 9))
        x = x - x.mean(axis=1, keepdims=True)
        f = FeatureMatrix(x)
        state = npt_fit(f, KernelParams(kind="linear"), eig_rel_tol=0.0)
        phi = npt_embed_test(state, f, state.kernel.params)
        for i in range(9):
            for j in range(9):
                orig = np.linalg.norm(x[:, i] - x[:, j])
                emb = np.linalg.norm(phi[:, i] - phi[:, j])
                assert emb == pytest.approx(orig, abs=1e-8)

    def test_kernel_induced_distance_identity(self):
        rng = np.random.default_rng(12)
        f = _random_features(rng, 3, 8)
        state = npt_fit(f, KernelParams(kind="gaussian", sigma=1.0, kappa=1.0),
                        eig_rel_tol=0.0)
        khat, _, _ = center_kernel(state.train_kernel)
        phi = state.embedded
        for i in range(8):
            for j in range(8):
                lhs = np.sum((phi[:, i] - phi[:, j]) ** 2)
                rhs = khat[i, i] + khat[j, j] - 2 * khat[i, j]
                assert lhs == pytest.approx(rhs, abs=1e-8)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(13)
        f = _random_features(rng, 3, 5)
        state = npt_fit(f, KernelParams(kind="gaussian", sigma=1.0, kappa=1.0))
        with pytest.raises(KernelError, match="mismatch"):
            npt_embed_test(state, np.zeros((4, 2)), state.kernel.params)
