from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mssvdd import (
    FeatureMatrix,
    KernelParams,
    SolverError,
    TrainConfig,
    npt_fit,
    ocsvm_score,
    ocsvm_solve,
    svdd_score,
    svdd_solve,
    synth_multimodal,
    train,
)
from mssvdd import svdd
from mssvdd.svdd import (
    ALPHA_TOL,
    BOUNDARY_RTOL,
    DEFAULT_KKT_TOL,
    LOW_RANK_RATIO,
    _cold_start,
    _DenseHessian,
    _FactorHessian,
    _solve_pairwise,
    _solver_inputs,
    support_masks,
)

from oracles import (
    feasibility_violation,
    hyperplane_objective,
    hyperplane_score_formula,
    kkt_violation,
    random_box_simplex,
    simplex_grid_best,
    sphere_objective,
    sphere_score_formula,
    traced_peak,
)


class TestSvddSolve:
    # One column leaves the pair loop nothing to move, with the box bound
    # active (C = 1) or not, cold or warm started.
    @pytest.mark.parametrize("alpha0", [None, [1.0]], ids=["cold", "warm"])
    @pytest.mark.parametrize("c", [1.0, 2.5])
    def test_single_point(self, c, alpha0):
        desc = svdd_solve(np.array([[3.0], [4.0]]), c_penalty=c, alpha0=alpha0)
        np.testing.assert_array_equal(desc.alphas, [1.0])
        assert desc.radius_sq == 0.0
        assert svdd_score(desc, np.array([[3.0], [4.0]]))[0] == pytest.approx(0.0)

    def test_symmetric_pair(self):
        desc = svdd_solve(np.array([[-1.0, 1.0]]), c_penalty=1.0)
        np.testing.assert_allclose(desc.alphas, [0.5, 0.5], atol=1e-9)
        np.testing.assert_allclose(desc.center, [0.0], atol=1e-12)
        assert desc.radius_sq == pytest.approx(1.0, abs=1e-9)

    def test_five_points_match_grid_oracle(self):
        rng = np.random.default_rng(21)
        pts = rng.standard_normal((2, 5))
        g = pts.T @ pts
        desc = svdd_solve(pts, c_penalty=0.6, kkt_tol=1e-6)
        best_val, best_alpha = simplex_grid_best(g, np.diag(g).copy(), 1.0, 0.6)
        assert abs(sphere_objective(g, desc.alphas) - best_val) <= 1e-3
        assert np.max(np.abs(desc.alphas - best_alpha)) <= 0.02

    def test_kkt_and_feasibility(self):
        rng = np.random.default_rng(22)
        for _ in range(25):
            m = int(rng.integers(2, 8))
            d = int(rng.integers(1, 4))
            c = float(rng.choice([0.3, 0.6, 1.0]))
            if c * m < 1:
                c = 1.0
            pts = rng.standard_normal((d, m))
            g = pts.T @ pts
            desc = svdd_solve(pts, c, kkt_tol=1e-6)
            assert feasibility_violation(desc.alphas, c) <= 1e-8
            assert kkt_violation(g, np.diag(g).copy(), 1.0, desc.alphas, c) <= 1e-6

    def test_infeasible_penalty(self):
        with pytest.raises(SolverError, match="infeasible"):
            svdd_solve(np.zeros((2, 3)), c_penalty=0.2)

    def test_deterministic(self):
        rng = np.random.default_rng(23)
        pts = rng.standard_normal((3, 12))
        a = svdd_solve(pts, 0.4).alphas
        b = svdd_solve(pts, 0.4).alphas
        np.testing.assert_array_equal(a, b)

    def test_duplicate_of_interior_point_keeps_objective(self):
        rng = np.random.default_rng(24)
        pts = np.array(
            [[-2.0, 2.0, 0.0], [0.0, 0.0, 0.1]]
        )  # middle point is interior
        desc = svdd_solve(pts, 1.0, kkt_tol=1e-8)
        interior = np.flatnonzero(desc.alphas <= ALPHA_TOL)
        assert interior.size > 0
        dup = np.hstack([pts, pts[:, interior[:1]]])
        desc2 = svdd_solve(dup, 1.0, kkt_tol=1e-8)
        g1 = pts.T @ pts
        g2 = dup.T @ dup
        assert abs(
            sphere_objective(g1, desc.alphas) - sphere_objective(g2, desc2.alphas)
        ) <= 1e-6

    def test_training_points_inside_radius(self):
        rng = np.random.default_rng(25)
        for c in (0.3, 0.6, 1.0):
            pts = rng.standard_normal((3, 15))
            desc = svdd_solve(pts, c)
            dists = svdd_score(desc, pts)[0]
            unbounded = desc.alphas < c - ALPHA_TOL
            assert np.all(dists[unbounded] <= desc.radius_sq + 1e-6)

    def test_alpha_simplex_invariant(self):
        rng = np.random.default_rng(26)
        pts = rng.standard_normal((2, 9))
        desc = svdd_solve(pts, 0.5)
        assert abs(desc.alphas.sum() - 1.0) <= 1e-8
        assert np.all(desc.alphas >= 0.0)
        assert np.all(desc.alphas <= 0.5)
        assert np.any(support_masks(desc.alphas, 0.5)[0])

    def test_bound_coordinates_exactly_on_bound(self):
        rng = np.random.default_rng(31)
        for c in (0.05, 0.1, 0.2):
            for _ in range(4):
                alphas = svdd_solve(rng.standard_normal((3, 60)), c).alphas
                assert np.any(alphas == c)
                assert not np.any((alphas > c - 1e-12) & (alphas < c))
                assert not np.any((alphas > 0.0) & (alphas < 1e-12))


# Each example is one of three degenerate shapes the solver meets by design:
# duplicated columns, rank d < M, and a box so tight that C*M is barely 1.
@st.composite
def warm_start_problems(draw):
    shape = draw(st.sampled_from(["duplicates", "rank_deficient", "tight_box"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(1, 3))
    m = draw(st.integers(d + 2, 16))
    pts = rng.uniform(-5.0, 5.0, (d, m))
    if shape == "duplicates":
        src = rng.integers(0, m, size=draw(st.integers(1, m - 1)))
        pts[:, rng.choice(m, src.size, replace=False)] = pts[:, src]
    c = draw(st.sampled_from([0.3, 0.6, 1.0]))
    if shape == "tight_box":
        c = (1.0 + draw(st.floats(1e-9, 1e-3))) / m
    c = max(c, 1.0 / m)
    alpha0 = np.minimum(random_box_simplex(rng, m, c), c)
    return pts, c, alpha0


PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


class TestGram:
    # The dense Hessian form does not mirror its Gram and reads column i as
    # row i, so this fails if numpy ever stops returning x.T @ x exactly
    # symmetric, or if scaling H in place breaks the symmetry.
    @pytest.mark.parametrize("m", [2, 9, 257, 800])
    def test_exactly_symmetric(self, m):
        rng = np.random.default_rng(m)
        # Pooled projected columns, C-ordered as subspace.train builds them.
        half = m // 2
        pooled = np.hstack(
            [rng.standard_normal((3, half)), rng.standard_normal((3, m - half))]
        )
        embedded = npt_fit(
            FeatureMatrix(rng.standard_normal((5, m))),
            KernelParams(kind="gaussian", sigma=2.0),
        ).embedded
        for points in (pooled, embedded, np.asfortranarray(embedded)):
            for scale in (1.0, 2.0):
                h = _DenseHessian(points, scale)
                assert np.array_equal(h.h, h.h.T)
                assert all(np.array_equal(h.column(i), h.h[:, i]) for i in range(m))


# Hypersphere (H = 2G) and hyperplane (H = G) problems with d * ratio <= M,
# cold or warm started.
@st.composite
def low_rank_problems(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(1, 5))
    m = draw(st.integers(LOW_RANK_RATIO * d, LOW_RANK_RATIO * d + 80))
    pts = rng.uniform(-5.0, 5.0, (d, m)) + rng.uniform(-3.0, 3.0, (d, 1))
    sphere = draw(st.booleans())
    c = max(draw(st.sampled_from([0.05, 0.1, 0.3, 1.0])), 1.5 / m)
    alpha0 = np.minimum(random_box_simplex(rng, m, c), c) if draw(st.booleans()) else None
    return pts, sphere, c, alpha0


# Forces every solve into one Hessian form.
FORM_RATIOS = pytest.mark.parametrize("ratio", [1, 10**9], ids=["factor", "dense"])


class TestHessianForms:
    @pytest.mark.parametrize(
        "shape, form",
        [
            ((3, 400), _FactorHessian),  # W1: pooled over 2 x 200 targets
            ((3, 64), _DenseHessian),  # select: pooled over 2 x 32 targets
            ((1499, 1500), _DenseHessian),  # kernelized baseline
            ((40, 1500), _DenseHessian),  # linear baseline
        ]
        # Acceptance criterion 2's oracle problems.
        + [((d, m), _DenseHessian) for d in (1, 2, 3) for m in range(2, 7)],
    )
    def test_rule_picks_form(self, shape, form):
        _, h = _solver_inputs(np.zeros(shape), 2.0, 1e-6)
        assert type(h) is form

    @PROPERTY_SETTINGS
    @given(low_rank_problems())
    def test_forms_agree(self, problem):
        pts, sphere, c, alpha0 = problem
        g = pts.T @ pts
        scale, lin = (2.0, np.diag(g).copy()) if sphere else (1.0, np.zeros(pts.shape[1]))
        objective = sphere_objective if sphere else hyperplane_objective
        tol = 1e-8
        values = []
        with mock.patch.object(svdd, "_face_step", wraps=svdd._face_step) as face_step:
            for form in (_DenseHessian, _FactorHessian):
                alpha = _solve_pairwise(form(pts, scale), lin, c, tol, alpha0)
                assert feasibility_violation(alpha, c) <= 1e-8
                assert kkt_violation(g, lin, scale / 2.0, alpha, c) <= tol
                values.append(objective(g, alpha))
        # The hyperplane optimum can be 0, so its gap is taken relative to G.
        size = abs(values[0]) if sphere else float(np.max(np.diag(g)))
        assert abs(values[0] - values[1]) <= 1e-12 * size
        # Count only examples that reached the face step.
        assume(face_step.call_count > 0)

    def test_low_rank_solve_forms_no_gram(self):
        # A warm solve as in training: the previous alphas, slightly moved columns.
        rng = np.random.default_rng(40)
        pts = rng.standard_normal((3, 4000))
        alpha0 = svdd_solve(pts, 0.01).alphas
        moved = pts + 1e-3 * rng.standard_normal(pts.shape)
        peak = traced_peak(lambda: svdd_solve(moved, 0.01, alpha0=alpha0))
        # One 4000 x 4000 float64 array is 128 MB.
        assert peak < 8 * 2**20

    def test_dense_solve_holds_one_hessian(self):
        # 40 x 1,000 points are not low-rank, so the solve builds H densely.
        m = 1000
        pts = np.random.default_rng(42).standard_normal((40, m))
        assert 40 * LOW_RANK_RATIO > m
        peak = traced_peak(lambda: svdd_solve(pts, 0.01))
        # H = 2G is the only M x M array: no separate Gram beside it.
        assert peak < 1.5 * m * m * 8


class TestWarmStart:
    @PROPERTY_SETTINGS
    @given(warm_start_problems())
    def test_matches_cold_start(self, problem):
        pts, c, alpha0 = problem
        g = pts.T @ pts
        tol = 1e-8
        warm = svdd_solve(pts, c, kkt_tol=tol, alpha0=alpha0)
        cold = svdd_solve(pts, c, kkt_tol=tol)
        assert feasibility_violation(warm.alphas, c) <= 1e-8
        assert kkt_violation(g, np.diag(g).copy(), 1.0, warm.alphas, c) <= tol
        scale = float(np.max(np.diag(g)))
        gap = sphere_objective(g, warm.alphas) - sphere_objective(g, cold.alphas)
        assert abs(gap) <= 1e-6 * scale

    @PROPERTY_SETTINGS
    @given(warm_start_problems())
    def test_converged_start_returned_unchanged(self, problem):
        pts, c, _ = problem
        cold = svdd_solve(pts, c)
        again = svdd_solve(pts, c, alpha0=cold.alphas)
        np.testing.assert_array_equal(again.alphas, cold.alphas)

    @pytest.mark.parametrize(
        "alpha0, match",
        [
            (np.full(3, 0.25), "shape"),
            (np.full((4, 1), 0.25), "shape"),
            (np.array([0.25, 0.25, 0.5, np.nan]), "NaN"),
            (np.array([0.25, 0.25, np.inf, 0.5]), "NaN"),
            (np.array([-0.1, 0.35, 0.35, 0.4]), r"\[0, C"),
            (np.array([0.1, 0.1, 0.1, 0.7]), r"\[0, C"),
            (np.array([0.25, 0.25, 0.25, 0.2]), "sum to 1"),
        ],
    )
    def test_rejects_invalid_alpha0(self, alpha0, match):
        pts = np.random.default_rng(32).standard_normal((2, 4))
        with pytest.raises(SolverError, match=match):
            svdd_solve(pts, 0.6, alpha0=alpha0)


def test_every_sweep_limit_hit_warns(monkeypatch):
    # Python shows a warning once per call site by default; a caller that
    # records warnings sees each solve that stopped at the cap.
    monkeypatch.setattr(svdd, "MAX_PAIR_UPDATES", 2)
    pts = np.random.default_rng(33).standard_normal((3, 40))
    with pytest.warns(RuntimeWarning) as record:
        for _ in range(2):
            svdd_solve(pts, 0.1)
    hits = [w for w in record if str(w.message).startswith("dual solver hit the sweep limit")]
    assert len(hits) == 2


class TestColdStart:
    @pytest.mark.parametrize(
        "c, m",
        [
            (0.1, 40), (0.25, 40), (0.5, 40), (1.0, 40),  # 1/C an integer
            (0.3, 40), (0.07, 40),  # 1/C not an integer
            (2.5, 40),  # C > 1: all mass on one column
            (0.025, 40), (0.0025, 400), (1.0 / 3.0, 3),  # C * M = 1
        ],
    )
    def test_feasible(self, c, m):
        pts = np.random.default_rng(m).standard_normal((3, m))
        alpha = _cold_start(pts, c)
        assert abs(alpha.sum() - 1.0) <= 1e-12
        assert np.all(alpha >= 0.0) and np.all(alpha <= c)
        full = min(int(1.0 / c), m)
        assert np.count_nonzero(alpha == c) == full
        if c * m == 1.0:
            assert full == m
        # The mass sits on the columns farthest from the mean.
        spread = pts - pts.mean(axis=1, keepdims=True)
        far = np.argsort(-np.sum(spread * spread, axis=0), kind="stable")
        assert np.all(np.diff(alpha[far]) <= 0.0)
        assert np.count_nonzero(alpha) == min(full + (full * c < 1.0), m)

    def test_reads_far_fewer_columns_than_uniform_start(self, monkeypatch):
        # A pooled W1-sized problem: rank 3, M = 400, C = 0.1.
        pts = np.random.default_rng(41).standard_normal((3, 400))
        g = pts.T @ pts
        reads = []
        column = _FactorHessian.column

        def counted(self, i):
            reads.append(i)
            return column(self, i)

        monkeypatch.setattr(_FactorHessian, "column", counted)
        cold = svdd_solve(pts, 0.1).alphas
        cold_reads = len(reads)
        _, h = _solver_inputs(pts, 2.0, DEFAULT_KKT_TOL)
        uniform = _solve_pairwise(h, h.diag / 2.0, 0.1, DEFAULT_KKT_TOL)
        uniform_reads = len(reads) - cold_reads
        assert 10 * cold_reads <= uniform_reads
        lin = np.diag(g).copy()
        assert kkt_violation(g, lin, 1.0, cold, 0.1) <= DEFAULT_KKT_TOL
        gap = sphere_objective(g, cold) - sphere_objective(g, uniform)
        assert abs(gap) <= DEFAULT_KKT_TOL


class TestSvddDistance:
    def test_center_has_zero_distance(self):
        rng = np.random.default_rng(27)
        pts = rng.standard_normal((3, 8))
        desc = svdd_solve(pts, 0.7)
        assert svdd_score(desc, desc.center[:, None])[0] == pytest.approx(0.0, abs=1e-9)

    def test_pair_example_outside_point(self):
        desc = svdd_solve(np.array([[-1.0, 1.0]]), c_penalty=1.0)
        dist = svdd_score(desc, np.array([[3.0]]))[0]
        assert dist == pytest.approx(9.0, abs=1e-9)
        assert svdd_score(desc, np.array([[3.0]]))[1][0] == 0

    def test_boundary_support_vectors_on_radius(self):
        rng = np.random.default_rng(28)
        pts = rng.standard_normal((2, 20))
        desc = svdd_solve(pts, 0.25, kkt_tol=1e-8)
        boundary = support_masks(desc.alphas, 0.25)[1]
        assert np.any(boundary)
        dists = svdd_score(desc, pts[:, boundary])[0]
        np.testing.assert_allclose(dists, desc.radius_sq, atol=1e-6)

    @FORM_RATIOS
    def test_free_support_vectors_classify_inside(self, monkeypatch, ratio):
        monkeypatch.setattr(svdd, "LOW_RANK_RATIO", ratio)
        # W1: seeds 1, 2 and 7 each put a free support vector a few ulp
        # outside the sphere without the rounding allowance.
        config = TrainConfig(
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
        descs = [
            train(synth_multimodal(200, 100, 2, [20, 20], 3.0, seed), config).description
            for seed in (1, 2, 7)
        ]
        # The linear baseline's fused features, and their first three rows.
        # Seed 3's full solve ends with free support vectors up to 421 ulp out.
        for seed in (3, 5):
            fused = np.vstack(
                [m.values for m in synth_multimodal(400, 1, 2, [20, 20], 3.0, seed).modalities]
            )[:, :400]
            descs += [svdd_solve(fused, 0.01), svdd_solve(fused[:3], 0.01)]
        for desc in descs:
            boundary = support_masks(desc.alphas, desc.c_penalty)[1]
            assert np.any(boundary)
            sv = desc.train_points[:, boundary]
            np.testing.assert_array_equal(svdd_score(desc, sv)[1], 1)

    def test_boundary_inclusive_classification(self):
        desc = svdd_solve(np.array([[-1.0, 1.0]]), c_penalty=1.0)
        labels = svdd_score(desc, np.array([[1.0, -1.0, 0.0, 1.1]]))[1]
        assert labels.tolist() == [1, 1, 1, 0]

    def test_dimension_mismatch(self):
        desc = svdd_solve(np.array([[-1.0, 1.0]]), c_penalty=1.0)
        with pytest.raises(SolverError, match="mismatch"):
            svdd_score(desc, np.array([[1.0], [2.0]]))[0]


@pytest.mark.parametrize("kkt_tol", [0.0, -1e-6])
@pytest.mark.parametrize("solve", [svdd_solve, ocsvm_solve])
def test_nonpositive_kkt_tol_rejected(solve, kkt_tol):
    pts = np.random.default_rng(31).standard_normal((2, 6))
    with pytest.raises(SolverError, match="kkt_tol must be positive"):
        solve(pts, 0.5, kkt_tol)


@pytest.mark.parametrize("kind", ["svdd", "ocsvm"])
def test_score_returns_values_and_labels(kind):
    # One call gives the values and labels that separate passes over y
    # give, bit for bit: for spread columns, and for columns at -3 to 3
    # rounding allowances outside the boundary, which only the allowance
    # sorts.
    rng = np.random.default_rng(21)
    points = rng.standard_normal((3, 80))
    t = np.linspace(-3.0, 3.0, 61)
    u = rng.standard_normal((3, t.size))
    if kind == "svdd":
        desc = svdd_solve(points, 0.1)
        score, formula = svdd_score, sphere_score_formula
        c = desc.center[:, None]
        allowance = BOUNDARY_RTOL * (np.sqrt(desc.radius_sq) + 2.0 * np.linalg.norm(c)) ** 2
        edge = c + np.sqrt(desc.radius_sq + t * allowance) * u / np.linalg.norm(u, axis=0)
    else:
        desc = ocsvm_solve(points, 0.2)
        score, formula = ocsvm_score, hyperplane_score_formula
        w = desc.weight[:, None] / (desc.weight @ desc.weight)
        on_plane = desc.rho * w + u - w * (desc.weight @ u)
        allowance = BOUNDARY_RTOL * (
            np.linalg.norm(desc.weight) * np.linalg.norm(on_plane, axis=0) + abs(desc.rho)
        )
        edge = on_plane - t * allowance * w
    y = np.hstack([1.5 * rng.standard_normal((3, 200)), edge])
    values, labels = score(desc, y)
    want, want_labels = formula(desc, y, BOUNDARY_RTOL)
    assert values.tobytes() == want.tobytes()
    assert labels.tobytes() == want_labels.tobytes()
    # allowance bounds the one the labels use from above.
    edge_labels = labels[200:]
    assert edge_labels[t <= 0.0].all() and not edge_labels[t > 1.1].any()
    assert edge_labels[t > 0.0].any()


class TestOcsvm:
    def test_single_point_boundary_through_it(self):
        pts = np.array([[2.0], [1.0]])
        desc = ocsvm_solve(pts, nu=1.0)
        np.testing.assert_array_equal(desc.alphas, [1.0])
        val = ocsvm_score(desc, pts)[0]
        assert val[0] == pytest.approx(0.0, abs=1e-9)
        assert ocsvm_score(desc, pts)[1][0] == 1

    def test_two_symmetric_points(self):
        desc = ocsvm_solve(np.array([[-1.0, 1.0]]), nu=1.0)
        np.testing.assert_allclose(desc.alphas, [0.5, 0.5], atol=1e-9)

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(29)
        pts = rng.standard_normal((2, 5)) + 2.0
        g = pts.T @ pts
        nu = 0.5  # box bound 0.4 is exactly representable on the 0.01 grid
        desc = ocsvm_solve(pts, nu, kkt_tol=1e-8)
        bound = 1.0 / (nu * 5)
        best_val, best_alpha = simplex_grid_best(g, np.zeros(5), 0.5, bound)
        assert abs(hyperplane_objective(g, desc.alphas) - best_val) <= 1e-3
        assert np.max(np.abs(desc.alphas - best_alpha)) <= 0.02

    def test_kkt(self):
        rng = np.random.default_rng(30)
        for _ in range(15):
            m = int(rng.integers(2, 9))
            pts = rng.standard_normal((3, m)) + 1.0
            nu = float(rng.choice([0.5, 1.0]))
            g = pts.T @ pts
            desc = ocsvm_solve(pts, nu, kkt_tol=1e-6)
            bound = 1.0 / (nu * m)
            assert feasibility_violation(desc.alphas, bound) <= 1e-8
            assert kkt_violation(g, np.zeros(m), 0.5, desc.alphas, bound) <= 1e-6

    @FORM_RATIOS
    def test_boundary_support_vectors_classify_target(self, monkeypatch, ratio):
        monkeypatch.setattr(svdd, "LOW_RANK_RATIO", ratio)
        # Each of these puts a free support vector on the negative side of
        # the hyperplane, by rounding alone, in one form or both.
        cases = [(2, 25, 0.3, 0), (3, 200, 0.1, 1), (4, 160, 0.3, 1), (5, 300, 0.2, 2), (5, 400, 0.1, 2)]
        for d, m, nu, seed in cases:
            pts = np.random.default_rng(seed).standard_normal((d, m)) + 5.0
            desc = ocsvm_solve(pts, nu)
            boundary = support_masks(desc.alphas, 1.0 / (nu * m))[1]
            assert np.any(boundary)
            sv = pts[:, boundary]
            np.testing.assert_array_equal(ocsvm_score(desc, sv)[1], 1)

    def test_infeasible_nu(self):
        with pytest.raises(SolverError):
            ocsvm_solve(np.zeros((2, 3)), nu=0.2)
        with pytest.raises(SolverError):
            ocsvm_solve(np.zeros((2, 3)), nu=1.5)


class TestDescriptionScalars:
    @pytest.mark.parametrize("radius_sq", [float("nan"), float("inf"), -1.0])
    def test_bad_radius_rejected(self, radius_sq):
        with pytest.raises(SolverError, match="^radius_sq must be finite and non-negative"):
            svdd.DataDescription(
                alphas=np.ones(1), c_penalty=1.0, radius_sq=radius_sq,
                train_points=np.ones((2, 1)),
            )

    @pytest.mark.parametrize(
        "rho, nu, message",
        [
            (float("nan"), 0.5, "^rho must be finite"),
            (float("-inf"), 0.5, "^rho must be finite"),
            (0.0, 0.0, r"^nu must lie in \(0, 1\]"),
            (0.0, 1.5, r"^nu must lie in \(0, 1\]"),
            (0.0, float("nan"), r"^nu must lie in \(0, 1\]"),
        ],
    )
    def test_bad_hyperplane_scalars_rejected(self, rho, nu, message):
        with pytest.raises(SolverError, match=message):
            svdd.HyperplaneDescription(
                alphas=np.ones(1), rho=rho, nu=nu, train_points=np.ones((2, 1))
            )

    def test_one_column_scores_as_solved(self):
        # A loaded description is the solved one's center (or weight) as its
        # one column, with weight 1: pts @ [1.0] returns the column exactly.
        rng = np.random.default_rng(31)
        pts = rng.standard_normal((3, 40)) + 2.0
        y = rng.standard_normal((3, 25)) + 2.0
        sphere = svdd_solve(pts, 0.1)
        one = svdd.DataDescription(
            alphas=np.ones(1), c_penalty=0.1, radius_sq=sphere.radius_sq,
            train_points=sphere.center[:, None],
        )
        assert one.center.tobytes() == sphere.center.tobytes()
        for a, b in zip(svdd_score(one, y), svdd_score(sphere, y)):
            assert a.tobytes() == b.tobytes()
        plane = ocsvm_solve(pts, 0.2)
        one = svdd.HyperplaneDescription(
            alphas=np.ones(1), rho=plane.rho, nu=0.2, train_points=plane.weight[:, None]
        )
        assert one.weight.tobytes() == plane.weight.tobytes()
        for a, b in zip(ocsvm_score(one, y), ocsvm_score(plane, y)):
            assert a.tobytes() == b.tobytes()
