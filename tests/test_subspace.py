import warnings
from dataclasses import replace

import numpy as np
import pytest

from mssvdd import (
    ConfigError,
    FeatureMatrix,
    KernelParams,
    MultiModalDataset,
    SolverError,
    TrainConfig,
    fuse_labels,
    lagrangian_gradient,
    orthonormalize,
    pca_init,
    predict,
    project,
    svdd_solve,
    synth_multimodal,
    train,
    update_projection,
)
from mssvdd.subspace import (
    FoldMemo,
    ProjectionMatrix,
    _embed,
    _stage_keys,
    _start,
    strategy_signs,
)
from mssvdd.svdd import _FactorHessian, support_masks

from oracles import (
    fd_gradient,
    kkt_violation,
    random_box_simplex,
    sphere_objective,
    traced_peak,
)

# W1: the kernelized two-modality fit whose 20 warm solves the benchmark times.
W1_CONFIG = TrainConfig(
    d=3,
    eta=1e-3,
    beta=1e-2,
    c_penalty=0.1,
    max_iter=20,
    update_strategy="AD-+",
    regularizer="w4",
    kernelized=True,
    kernel_params=KernelParams(kind="composite", gamma=0.5, sigma=10.0),
)


def w1_data(seed: int) -> MultiModalDataset:
    return synth_multimodal(200, 100, 2, [20, 20], 3.0, seed)


class TestTrainConfig:
    def test_numbers_cast_to_field_types(self):
        config = TrainConfig(
            d=np.int64(3), eta=0, beta=np.float64(1.0), c_penalty=1, nu=1, kkt_tol=1,
            kernel_params=KernelParams(gamma=1, sigma=np.int64(2), kappa=1, theta=0),
        )
        assert type(config.d) is int and config.d == 3
        for owner, names in (
            (config, ("eta", "beta", "c_penalty", "nu", "kkt_tol")),
            (config.kernel_params, ("gamma", "sigma", "kappa", "theta")),
        ):
            assert all(type(getattr(owner, name)) is float for name in names)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("d", 2.9), ("d", True), ("max_iter", "20"), ("eta", True),
            ("c_penalty", None), ("c_penalty", "0.3"), ("kernelized", "false"),
            ("kernelized", 1), ("model_kind", None), ("kernel_params", None),
            ("c_penalty", -1), ("c_penalty", 0), ("nu", 0), ("nu", 1.5),
            ("kkt_tol", 0), ("kkt_tol", float("nan")),
            # Non-finite floats: C = inf too, as C >= 1 already gives the
            # hard margin.
            ("eta", float("nan")), ("eta", float("inf")), ("beta", float("nan")),
            ("beta", float("inf")), ("c_penalty", float("nan")),
            ("c_penalty", float("inf")), ("nu", float("nan")), ("kkt_tol", float("inf")),
            ("kkt_tol", float("-inf")),
            pytest.param("eta", 10**400, id="eta-int-beyond-float"),
        ],
    )
    def test_bad_value_rejected(self, field, value):
        with pytest.raises(ConfigError, match=rf"^{field} must"):
            TrainConfig(**{field: value})


class TestPcaInit:
    def test_line_in_plane(self):
        t = np.linspace(-1, 1, 20)
        direction = np.array([3.0, 4.0]) / 5.0
        x = direction[:, None] * t[None, :]
        q = pca_init(FeatureMatrix(x), 1)
        cos = abs(float(q.q[0] @ direction))
        assert cos == pytest.approx(1.0, abs=1e-8)

    def test_full_basis_is_orthogonal(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4, 30))
        q = pca_init(FeatureMatrix(x), 4)
        np.testing.assert_allclose(q.q @ q.q.T, np.eye(4), atol=1e-10)

    def test_projected_variance_matches_eigenvalues(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((5, 20)) * np.array([[3.0], [2.0], [1.0], [0.5], [0.1]])
        q = pca_init(FeatureMatrix(x), 2)
        centered = x - x.mean(axis=1, keepdims=True)
        cov = centered @ centered.T / (x.shape[1] - 1)
        eigs = np.sort(np.linalg.eigvalsh(cov))[::-1]
        proj = q.q @ centered
        var = np.trace(proj @ proj.T) / (x.shape[1] - 1)
        assert var == pytest.approx(eigs[:2].sum(), abs=1e-8)

    def test_sign_convention(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((3, 10))
        q = pca_init(FeatureMatrix(x), 3)
        for row in q.q:
            assert row[int(np.argmax(np.abs(row)))] > 0

    def test_d_too_large(self):
        with pytest.raises(ConfigError):
            pca_init(FeatureMatrix(np.ones((2, 5))), 3)


class TestProjectionMatrix:
    @pytest.mark.parametrize(
        "q, message",
        [
            (np.ones(3), "must be 2-D"),
            (np.zeros((0, 3)), "has no rows"),
            (np.eye(3, 2), "exceeds feature dim"),
            (np.ones((2, 3)), "not orthonormal"),
        ],
    )
    def test_rejected(self, q, message):
        with pytest.raises(ConfigError, match=message):
            ProjectionMatrix(q)


class TestProject:
    def test_identity(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((3, 6))
        q = ProjectionMatrix(np.eye(3))
        np.testing.assert_array_equal(project(q, FeatureMatrix(x)), x)

    def test_zero_input(self):
        q = ProjectionMatrix(np.eye(2, 3))
        out = project(q, np.zeros((3, 4)))
        np.testing.assert_array_equal(out, np.zeros((2, 4)))

    def test_hand_product(self):
        q_raw = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        q = ProjectionMatrix(q_raw)
        f = np.arange(12.0).reshape(3, 4)
        np.testing.assert_array_equal(project(q, f), q_raw @ f)

    def test_shape_mismatch(self):
        q = ProjectionMatrix(np.eye(2))
        with pytest.raises(ConfigError):
            project(q, np.zeros((3, 4)))


class TestOrthonormalize:
    def test_axis_scaling(self):
        q = orthonormalize(np.array([[2.0, 0.0], [0.0, 3.0]]))
        np.testing.assert_allclose(q.q, np.eye(2), atol=1e-12)

    def test_fixed_point_up_to_signs(self):
        rng = np.random.default_rng(4)
        base = orthonormalize(rng.standard_normal((2, 5)))
        again = orthonormalize(base.q)
        np.testing.assert_allclose(again.q, base.q, atol=1e-12)

    def test_rows_orthonormal(self):
        rng = np.random.default_rng(5)
        q = orthonormalize(rng.standard_normal((3, 7)))
        np.testing.assert_allclose(q.q @ q.q.T, np.eye(3), atol=1e-10)

    def test_ortho_error_is_the_checked_deviation(self):
        q = orthonormalize(np.random.default_rng(6).standard_normal((3, 7)))
        want = float(np.max(np.abs(q.q @ q.q.T - np.eye(3))))
        assert q.ortho_error() == want and q.ortho_error() > 0.0

    def test_rank_deficient(self):
        with pytest.raises(SolverError, match="rank"):
            orthonormalize(np.array([[1.0, 0.0], [2.0, 0.0]]))


class TestUpdateProjection:
    def test_zero_step_returns_input(self):
        rng = np.random.default_rng(6)
        q = orthonormalize(rng.standard_normal((2, 4)))
        out = update_projection(q, rng.standard_normal((2, 4)), eta=0.0, sign=-1)
        assert out is q

    def test_descent_equals_ascent_of_negated_gradient(self):
        rng = np.random.default_rng(7)
        q = orthonormalize(rng.standard_normal((2, 4)))
        g = rng.standard_normal((2, 4))
        a = update_projection(q, g, eta=0.05, sign=-1)
        b = update_projection(q, -g, eta=0.05, sign=1)
        np.testing.assert_array_equal(a.q, b.q)

    def test_result_orthonormal(self):
        rng = np.random.default_rng(8)
        q = orthonormalize(rng.standard_normal((3, 6)))
        out = update_projection(q, rng.standard_normal((3, 6)), eta=0.5, sign=1)
        np.testing.assert_allclose(out.q @ out.q.T, np.eye(3), atol=1e-10)

    def test_strategy_signs(self):
        assert strategy_signs("SD-", 3) == [-1, -1, -1]
        assert strategy_signs("SD+", 2) == [1, 1]
        assert strategy_signs("AD-+", 2) == [-1, 1]
        assert strategy_signs("AD+-", 2) == [1, -1]
        with pytest.raises(ConfigError):
            strategy_signs("AD-+", 3)


def _random_setup(rng, v, d, dims, n):
    qs = [orthonormalize(rng.standard_normal((d, dims[i]))) for i in range(v)]
    data = [rng.standard_normal((dims[i], n)) for i in range(v)]
    index_map = [(i * n, (i + 1) * n) for i in range(v)]
    return qs, data, index_map


class TestLagrangianGradient:
    def test_single_support_cancellation(self):
        rng = np.random.default_rng(9)
        qs, data, index_map = _random_setup(rng, 2, 2, [4, 3], 5)
        alphas = np.zeros(10)
        alphas[1] = 1.0  # the only support vector, in modality 0
        grad = lagrangian_gradient(0, qs, data, alphas, 0.0, "w0", index_map)
        np.testing.assert_allclose(grad, 0.0, atol=1e-12)

    def test_beta_zero_ignores_regularizer(self):
        rng = np.random.default_rng(10)
        qs, data, index_map = _random_setup(rng, 2, 2, [3, 3], 4)
        alphas = random_box_simplex(rng, 8, 0.5)
        grads = [
            lagrangian_gradient(1, qs, data, alphas, 0.0, reg, index_map, 0.5)
            for reg in ("w0", "w1", "w4", "w6")
        ]
        for g in grads[1:]:
            np.testing.assert_array_equal(grads[0], g)

    @pytest.mark.parametrize("reg", ["w0", "w1", "w2", "w3", "w4", "w5", "w6"])
    def test_matches_finite_differences_multimodal(self, reg):
        rng = np.random.default_rng(hash(reg) % 2**32)
        v_count, d, n = 2, 2, 6
        dims = [4, 3]
        qs, data, index_map = _random_setup(rng, v_count, d, dims, n)
        alphas = random_box_simplex(rng, v_count * n, 0.4)
        beta = 0.5
        for v in range(v_count):
            got = lagrangian_gradient(
                v, qs, data, alphas, beta, reg, index_map, 0.4
            )
            want = fd_gradient(
                v, [q.q for q in qs], data, alphas, beta, reg, index_map, 0.4
            )
            mask = np.abs(got) > 1e-6
            rel = np.abs(got - want)[mask] / np.abs(got)[mask]
            assert rel.max() < 1e-4

    @pytest.mark.parametrize("reg", ["psi0", "psi1", "psi2", "psi3"])
    def test_matches_finite_differences_unimodal(self, reg):
        rng = np.random.default_rng(abs(hash(reg)) % 2**32)
        qs, data, index_map = _random_setup(rng, 1, 2, [5], 7)
        alphas = random_box_simplex(rng, 7, 0.3)
        got = lagrangian_gradient(0, qs, data, alphas, 1.2, reg, index_map, 0.3)
        want = fd_gradient(
            0, [qs[0].q], data, alphas, 1.2, reg, index_map, 0.3
        )
        mask = np.abs(got) > 1e-6
        rel = np.abs(got - want)[mask] / np.abs(got)[mask]
        assert rel.max() < 1e-4

    def test_alpha_length_checked(self):
        rng = np.random.default_rng(11)
        qs, data, index_map = _random_setup(rng, 2, 2, [3, 3], 4)
        with pytest.raises(ConfigError):
            lagrangian_gradient(0, qs, data, np.ones(5) / 5, 0.0, "w0", index_map)


class TestFuseLabels:
    @pytest.mark.parametrize(
        "pair,ds1,ds2,ds3,ds4",
        [
            ((1, 1), 1, 1, 1, 1),
            ((1, 0), 0, 1, 1, 0),
            ((0, 1), 0, 1, 0, 1),
            ((0, 0), 0, 0, 0, 0),
        ],
    )
    def test_truth_table(self, pair, ds1, ds2, ds3, ds4):
        labels = np.array([[pair[0]], [pair[1]]])
        assert fuse_labels(labels, "ds1")[0] == ds1
        assert fuse_labels(labels, "ds2")[0] == ds2
        assert fuse_labels(labels, "ds3")[0] == ds3
        assert fuse_labels(labels, "ds4")[0] == ds4

    def test_single_modality_strategies_coincide(self):
        labels = np.array([[1, 0, 1, 0]])
        for ds in ("ds1", "ds2", "ds3"):
            np.testing.assert_array_equal(fuse_labels(labels, ds), labels[0])

    def test_ds4_needs_two_modalities(self):
        with pytest.raises(ConfigError):
            fuse_labels(np.array([[1, 0]]), "ds4")


class TestTrain:
    def test_no_learning_equals_pca_plus_svdd(self):
        data = synth_multimodal(12, 8, 2, [4, 3], 3.0, seed=13)
        config = TrainConfig(d=2, eta=0.0, c_penalty=0.5, max_iter=1)
        model = train(data, config)
        targets = data.target_subset()
        pooled = np.hstack(
            [
                pca_init(mod, 2).q @ mod.values
                for mod in targets.modalities
            ]
        )
        direct = svdd_solve(pooled, 0.5, config.kkt_tol)
        np.testing.assert_array_equal(model.description.alphas, direct.alphas)
        assert model.description.radius_sq == direct.radius_sq

    def test_unimodal_path(self):
        data = synth_multimodal(15, 10, 1, [4], 4.0, seed=14)
        config = TrainConfig(
            d=2, eta=0.01, beta=0.1, c_penalty=0.4, max_iter=5,
            update_strategy="SD-", regularizer="psi1",
        )
        model = train(data, config)
        assert model.n_modalities == 1
        assert model.description.train_points.shape == (2, 15)
        result = predict(model, data)
        assert result.fused.shape == (25,)

    def test_pooled_columns_count(self):
        data = synth_multimodal(9, 6, 2, [3, 5], 3.0, seed=15)
        config = TrainConfig(d=2, eta=0.001, c_penalty=0.6, max_iter=3)
        model = train(data, config)
        assert model.description.train_points.shape == (2, 18)
        # Modality v fills pooled columns v*9 .. v*9+8.
        targets = data.target_subset().modalities
        for v, (proj, mod) in enumerate(zip(model.projections, targets)):
            np.testing.assert_array_equal(
                model.description.train_points[:, 9 * v : 9 * (v + 1)],
                proj.q @ mod.values,
            )

    def test_orthonormal_after_every_iteration(self):
        data = synth_multimodal(10, 5, 2, [4, 4], 2.0, seed=16)
        config = TrainConfig(
            d=2, eta=0.5, beta=1.0, c_penalty=0.5, max_iter=10, regularizer="w4"
        )
        model = train(data, config)
        assert len(model.ortho_errors) == 10
        assert max(model.ortho_errors) <= 1e-10

    def test_deterministic(self):
        data = synth_multimodal(10, 5, 2, [3, 3], 2.0, seed=17)
        config = TrainConfig(d=2, eta=0.01, c_penalty=0.5, max_iter=5)
        a = train(data, config)
        b = train(data, config)
        np.testing.assert_array_equal(a.description.alphas, b.description.alphas)
        for qa, qb in zip(a.projections, b.projections):
            np.testing.assert_array_equal(qa.q, qb.q)

    def test_modalities_step_in_order(self):
        # Modality 1's gradient reads modality 0's already stepped projection.
        data = synth_multimodal(12, 8, 2, [4, 3], 3.0, seed=18)
        config = TrainConfig(
            d=2, eta=0.5, beta=0.5, c_penalty=0.5, max_iter=1,
            update_strategy="AD-+", regularizer="w4",
        )
        model = train(data, config)
        assert model.warning is None
        inputs = [mod.values for mod in data.target_subset().modalities]
        index_map = [(0, 12), (12, 24)]
        start = [pca_init(x, 2) for x in inputs]
        alphas = svdd_solve(
            np.hstack([q.q @ x for q, x in zip(start, inputs)]), 0.5, config.kkt_tol
        ).alphas

        def step(v, projections):
            grad = lagrangian_gradient(
                v, projections, inputs, alphas, 0.5, "w4", index_map, 0.5
            )
            return update_projection(start[v], grad, 0.5, (-1, 1)[v])

        stepped_0 = step(0, start)
        sequential = step(1, [stepped_0, start[1]])
        simultaneous = step(1, start)
        np.testing.assert_array_equal(model.projections[0].q, stepped_0.q)
        np.testing.assert_array_equal(model.projections[1].q, sequential.q)
        assert np.max(np.abs(sequential.q - simultaneous.q)) > 1e-6

    def test_warm_started_solves_converge_on_rank_deficient_pool(self):
        # Pair steps alone cycle among four free coordinates here once each
        # solve starts from the previous one's alphas.
        data = synth_multimodal(10, 5, 2, [3, 3], 3.0, seed=10)
        config = TrainConfig(d=2, eta=0.01, c_penalty=0.5, max_iter=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            train(data, config)

    def test_kernelized_training(self):
        data = synth_multimodal(12, 8, 2, [4, 3], 4.0, seed=18)
        config = TrainConfig(
            d=2,
            eta=0.001,
            c_penalty=0.5,
            max_iter=4,
            kernelized=True,
            kernel_params=KernelParams(kind="composite", sigma=5.0),
        )
        model = train(data, config)
        assert model.kernel_maps is not None
        assert model.kernel_maps[0].state.params.kappa == pytest.approx(0.5)
        assert [km.map.shape for km in model.kernel_maps] == [(2, 12), (2, 12)]
        result = predict(model, data)
        assert result.per_modality.shape == (2, 20)

    def test_fold_memo_shares_stages_without_changing_models(self):
        data = synth_multimodal(12, 8, 2, [4, 3], 3.0, seed=20)
        test_set = synth_multimodal(6, 6, 2, [4, 3], 3.0, seed=21)
        base = TrainConfig(
            d=2,
            eta=0.01,
            c_penalty=0.3,
            max_iter=3,
            kernelized=True,
            kernel_params=KernelParams(sigma=3.0),
        )
        # The second config shares every memoized stage with the first, the
        # third only the embedding.
        configs = [
            base,
            replace(base, update_strategy="AD-+"),
            replace(base, c_penalty=0.5),
        ]
        memo = FoldMemo(data, test_set)
        models = []
        for config in configs:
            shared = train(data, config, memo=memo)
            plain = train(data, config)
            np.testing.assert_array_equal(
                shared.description.alphas, plain.description.alphas
            )
            for qs, qp in zip(shared.projections, plain.projections):
                np.testing.assert_array_equal(qs.q, qp.q)
            assert shared.ortho_errors == plain.ortho_errors
            np.testing.assert_array_equal(
                predict(shared, test_set, memo=memo).distances,
                predict(plain, test_set).distances,
            )
            models.append(shared)
        # Every model's kernel maps hold the kernel states of the one shared
        # embedding, whose arrays are read-only.
        embedding = memo.get(_stage_keys(base)[0], None)
        for v, npt in enumerate(embedding.npt_states):
            assert not (npt.eigvecs.flags.writeable or npt.eigvals.flags.writeable)
            assert not npt.kernel.row_means.flags.writeable
            for model in models:
                assert model.kernel_maps[v].state is npt.kernel
        with pytest.raises(ConfigError, match="another training set"):
            train(test_set, base, memo=memo)
        with pytest.raises(ConfigError, match="another test set"):
            predict(models[0], data, memo=memo)

    def test_linear_fold_memo_computes_pca_once(self, monkeypatch):
        data = synth_multimodal(12, 8, 2, [4, 3], 3.0, seed=20)
        calls = []
        real = pca_init

        def counting(f, d):
            calls.append(d)
            return real(f, d)

        monkeypatch.setattr("mssvdd.subspace.pca_init", counting)
        memo = FoldMemo(data, data)
        for d in (1, 2, 3):
            config = TrainConfig(d=d, eta=0.01, c_penalty=0.3, max_iter=3)
            shared = train(data, config, memo=memo)
            plain = train(data, config)
            for qs, qp in zip(shared.projections, plain.projections):
                np.testing.assert_array_equal(qs.q, qp.q)
            np.testing.assert_array_equal(
                shared.description.alphas, plain.description.alphas
            )
        # The memo's one embedding takes all min(D, N) principal directions
        # of each modality, (4, 3); each plain fit takes them again.
        assert calls == [4, 3] * 4
        embedding = _embed(data, TrainConfig())
        for d in (1, 2, 3):
            for start, mod in zip(_start(embedding, d), data.target_subset().modalities):
                np.testing.assert_array_equal(start.q, real(mod, d).q)

    @pytest.mark.parametrize(
        "dims, n_target, config, message",
        [
            ([4, 2], 12, TrainConfig(d=3), r"modality 1 \(2 dims, 12 samples\)"),
            ([4, 4], 3, TrainConfig(d=4), r"modality 0 \(4 dims, 3 samples\)"),
            (
                [4, 4],
                3,
                TrainConfig(d=3, kernelized=True),
                r"modality 0 \(2 embedded dims, 3 samples\)",
            ),
        ],
        ids=["d>D", "d>N", "d>rank"],
    )
    def test_d_too_large_rejected_before_any_solve(
        self, monkeypatch, dims, n_target, config, message
    ):
        data = synth_multimodal(n_target, 4, 2, dims, 3.0, seed=30)

        def no_solve(*args, **kwargs):
            raise AssertionError("svdd_solve ran before d was rejected")

        monkeypatch.setattr("mssvdd.subspace.svdd_solve", no_solve)
        with pytest.raises(ConfigError, match=f"subspace dim {config.d} too large for {message}"):
            train(data, config)

    def test_ad_strategy_requires_two_modalities(self, monkeypatch):
        data = synth_multimodal(8, 4, 1, [3], 2.0, seed=19)
        config = TrainConfig(
            d=1, update_strategy="AD-+", regularizer="psi0", c_penalty=1.0,
            kernelized=True,
        )

        def no_embedding(*args, **kwargs):
            raise AssertionError("npt_fit ran before the config was rejected")

        monkeypatch.setattr("mssvdd.subspace.npt_fit", no_embedding)
        message = r"AD-\+ requires exactly 2 modalities, got 1"
        with pytest.raises(ConfigError, match=message):
            train(data, config)

    def test_regularizer_family_checked(self):
        uni = synth_multimodal(8, 4, 1, [3], 2.0, seed=20)
        with pytest.raises(ConfigError):
            train(uni, TrainConfig(d=1, regularizer="w2", c_penalty=1.0))
        multi = synth_multimodal(8, 4, 2, [3, 3], 2.0, seed=20)
        with pytest.raises(ConfigError):
            train(multi, TrainConfig(d=1, regularizer="psi1", c_penalty=1.0))

    def test_infeasible_first_solve_raises(self):
        data = synth_multimodal(10, 5, 2, [3, 3], 2.0, seed=22)
        config = TrainConfig(d=2, eta=0.01, c_penalty=0.01, max_iter=3)
        with pytest.raises(
            SolverError, match="training never reached a valid state: stopped early"
        ):
            train(data, config)

    def test_non_finite_step_keeps_last_valid_iterate(self):
        data = synth_multimodal(10, 5, 2, [3, 3], 2.0, seed=23)
        config = TrainConfig(d=2, eta=1e308, c_penalty=0.5, max_iter=3)
        with np.errstate(over="ignore"):
            model = train(data, config)
        assert model.warning.startswith("stopped early: cannot orthonormalize")
        assert model.ortho_errors == []
        targets = data.target_subset().modalities
        initial = [pca_init(mod, 2) for mod in targets]
        pooled = np.hstack([p.q @ mod.values for p, mod in zip(initial, targets)])
        first = svdd_solve(pooled, 0.5, config.kkt_tol)
        for got, want in zip(model.projections, initial):
            np.testing.assert_array_equal(got.q, want.q)
        np.testing.assert_array_equal(model.description.alphas, first.alphas)
        np.testing.assert_array_equal(model.description.train_points, pooled)
        assert model.description.radius_sq == first.radius_sq

    def test_failed_final_solve_keeps_last_iterate(self, monkeypatch):
        data = synth_multimodal(10, 5, 2, [3, 3], 2.0, seed=24)
        config = TrainConfig(d=2, eta=0.01, c_penalty=0.5, max_iter=3)
        solves = []

        def failing_last(points, *args, **kwargs):
            if len(solves) == config.max_iter:
                raise SolverError("forced failure")
            solves.append(svdd_solve(points, *args, **kwargs))
            return solves[-1]

        monkeypatch.setattr("mssvdd.subspace.svdd_solve", failing_last)
        model = train(data, config)
        assert model.warning == (
            "final solve failed, keeping last iterate: forced failure"
        )
        assert len(solves) == config.max_iter
        assert len(model.ortho_errors) == config.max_iter
        last = solves[-1]
        np.testing.assert_array_equal(model.description.alphas, last.alphas)
        np.testing.assert_array_equal(
            model.description.train_points, last.train_points
        )
        assert model.description.radius_sq == last.radius_sq
        targets = data.target_subset().modalities
        pooled = np.hstack(
            [p.q @ mod.values for p, mod in zip(model.projections, targets)]
        )
        np.testing.assert_array_equal(pooled, last.train_points)

    def test_separable_data_accuracy(self):
        data = synth_multimodal(30, 30, 2, [4, 4], 6.0, seed=21)
        config = TrainConfig(d=2, eta=0.01, c_penalty=0.6, max_iter=10)
        model = train(data, config)
        result = predict(model, data)
        acc = float(np.mean(result.fused == data.labels))
        assert acc >= 0.9


class TestW1Fit:
    @pytest.mark.parametrize("seed", [1, 3, 7])
    def test_kernelized_start_is_pca_of_embedding(self, seed):
        embedding = _embed(w1_data(seed), W1_CONFIG)
        for start, x in zip(_start(embedding, W1_CONFIG.d), embedding.inputs):
            np.testing.assert_array_equal(start.q, np.eye(W1_CONFIG.d, x.shape[0]))
            assert np.max(np.abs(start.q - pca_init(x, W1_CONFIG.d).q)) <= 1e-11

    def test_warm_solves_read_few_columns(self, monkeypatch):
        # Without a face step first, seed 7's 20 warm solves read 272 Hessian
        # columns in pair steps; with it, each lands on its optimum at once.
        reads = []
        column = _FactorHessian.column

        def counted(self, i):
            reads.append(i)
            return column(self, i)

        warm = []

        def solve(points, c_penalty, kkt_tol, alpha0=None):
            before = len(reads)
            desc = svdd_solve(points, c_penalty, kkt_tol, alpha0=alpha0)
            if alpha0 is not None:
                warm.append((desc, len(reads) - before))
            return desc

        monkeypatch.setattr(_FactorHessian, "column", counted)
        monkeypatch.setattr("mssvdd.subspace.svdd_solve", solve)
        model = train(w1_data(7), W1_CONFIG)
        assert model.warning is None
        assert len(warm) == W1_CONFIG.max_iter
        assert sum(n for _, n in warm) <= 4
        c, tol = W1_CONFIG.c_penalty, W1_CONFIG.kkt_tol
        for desc, _ in warm:
            g = desc.train_points.T @ desc.train_points
            assert kkt_violation(g, np.diag(g).copy(), 1.0, desc.alphas, c) <= tol
            cold = sphere_objective(g, svdd_solve(desc.train_points, c, tol).alphas)
            assert abs(sphere_objective(g, desc.alphas) - cold) <= 1e-12 * abs(cold)


class TestPredict:
    def test_kernelized_predict_holds_one_test_kernel(self):
        model = train(w1_data(1), W1_CONFIG)
        n = model.kernel_maps[0].state.train_data.n_samples
        m = 1000
        rng = np.random.default_rng(25)
        batch = MultiModalDataset(
            tuple(FeatureMatrix(rng.standard_normal((20, m))) for _ in range(2))
        )
        # One modality's N x M test kernel at a time: each is freed once
        # its map is applied, before the next one is built.
        assert traced_peak(lambda: predict(model, batch)) < 1.5 * n * m * 8

    def test_decision_strategies_change_fusion(self):
        data = synth_multimodal(10, 6, 2, [3, 3], 3.0, seed=22)
        base = TrainConfig(d=2, eta=0.0, c_penalty=0.5, max_iter=1)
        model = train(data, base)
        res = predict(model, data)
        np.testing.assert_array_equal(
            res.fused, np.minimum(res.per_modality[0], res.per_modality[1])
        )

    def test_modality_count_mismatch(self):
        data = synth_multimodal(10, 6, 2, [3, 3], 3.0, seed=23)
        model = train(data, TrainConfig(d=2, eta=0.0, c_penalty=0.5, max_iter=1))
        v1 = MultiModalDataset((data.modalities[0],), data.labels, data.sample_ids)
        with pytest.raises(ConfigError):
            predict(model, v1)

    def test_distances_shape_and_radius(self):
        data = synth_multimodal(8, 4, 2, [3, 4], 3.0, seed=24)
        model = train(data, TrainConfig(d=2, eta=0.001, c_penalty=0.5, max_iter=2))
        res = predict(model, data)
        assert res.distances.shape == (2, 12)
        assert res.radius_sq == model.description.radius_sq
        inside = res.distances[0] <= res.radius_sq
        # Free support vectors lie on the sphere and count as inside whichever
        # way their distances round. Modality 0's pooled columns are the 8
        # targets, which come first in data.
        desc = model.description
        free = np.flatnonzero(support_masks(desc.alphas, desc.c_penalty)[1])
        inside[free[free < 8]] = True
        np.testing.assert_array_equal(inside.astype(int), res.per_modality[0])
