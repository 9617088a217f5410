"""Hypersphere data description and one-class hyperplane dual solvers.

Both problems are concave quadratic programs over the simplex intersected
with a box:

    maximize  c'a - (1/2) a'Ha   subject to   sum(a) = 1,  0 <= a <= u.

They are solved with pairwise coordinate updates: repeatedly pick the pair
of coordinates that most violates the optimality conditions and move mass
between them along the equality constraint, which keeps the simplex
constraint satisfied at every step. For the hypersphere, H = 2G and
c = diag(G); for the hyperplane, H = G and c = 0, where G is the linear
Gram matrix of the training columns. Kernelization, when wanted, happens
upstream by embedding the data before calling these solvers.

The solver also takes exact steps on the face of the free coordinates
(those strictly inside the box): the Newton step to that face's optimum
when it has one, or else a zero-curvature ascent direction followed to the
nearest bound. H = scale * P'P has rank at most d, the row count of the
d x M points P, so its free block can be singular only when the free count
k exceeds d. There pair steps zig-zag, as on the pooled subspace problems
(d <= 5, M in the hundreds), and a face step follows every pair step that
no bound clips. Where k <= d the pair steps converge on their own, and one
face step, taken when they report convergence, puts the free coordinates
on the face optimum to rounding.

The solvers read H through one small interface: its diagonal, a column,
the block of the free coordinates, H[:, F] @ x, H @ a and, for the
hypersphere's radius, the Gram quadratic form a'Ga. The epilogues take
diag(G) and G a from H's diagonal and H a, which are exactly scale times
them, as the scale is 1 or 2. The interface has two forms, chosen once per solve from the shape of the
d x M points P (_solver_inputs). A problem is low-rank when
d * LOW_RANK_RATIO <= M, as the pooled subspace problems are (d <= 5, M
in the hundreds); its factor form never forms an M x M array and reads
columns and products through P in O(dM) time and memory. Every other
problem, such as a kernelized baseline with d close to M, uses the dense
form, which builds H once with one syrk and holds no other M x M array:
there the pair loop's many column reads cost more through P than the one
Gram does.

A solve can be warm-started from a feasible dual vector (alpha0), such as
the solution of the previous problem in an alternating training loop over
the same columns ("alpha seeding"). Bound coordinates are kept exactly on
their bound, so a warm start sees the same free set the previous solve
ended with. A start that misses the tolerance first gets one face step:
where the columns moved only a little, as between training iterations,
the free set rarely changes and that one Newton step on its face lands
on the optimum, so the pair loop has nothing left to do. A cold
hypersphere solve starts with floor(1/C) coordinates on their bound C
(_cold_start), as LIBSVM's one-class start does (Chang & Lin, 2011),
choosing the points farthest from the uniform-weight center, the likely
bounded support vectors (Tax & Duin, 2004): with C = 0.1 and M = 400 the
optimum has about 10 nonzero coordinates, and from the uniform vector
about 390 pair steps would go to zeroing the rest. That start has at most
one free coordinate, so it has no face to step on.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .datamodel import frozen_array
from .errors import SolverError

ALPHA_TOL = 1e-8
DEFAULT_KKT_TOL = 1e-6
# Pair updates one solve may take before it stops with a "sweep limit"
# warning; callers match that text to count solves that hit the cap.
MAX_PAIR_UPDATES = 10_000
# A step that brings a coordinate this close to the bound it moves toward
# puts it exactly on that bound (alpha sums to 1, so this is absolute).
BOUND_SNAP = 1e-12
# Relative least-squares residual above which the face system is inconsistent.
FACE_CONSISTENCY_TOL = 1e-10
# Classification accepts a point this far outside the boundary, relative to
# the magnitudes of the terms of its distance or decision value. The
# allowance absorbs rounding only. A free support vector lies on the
# boundary only to within the solve's kkt_tol, so it may classify as an
# outlier: a full-rank svdd (200 x 300 Gaussian points, C = 0.01) put 8 of
# its 24 free SVs outside. A kernel-embedded ocsvm (600 targets, composite
# sigma = 3, nu = 0.1) put 297 of its 600 outside, but not because of this
# allowance: its embedded points sum to 0, so its weight is at rounding
# level and every decision value is rounding noise.
BOUNDARY_RTOL = 1024 * np.finfo(np.float64).eps


# A d x M problem is low-rank, and read through its factor, when
# d * LOW_RANK_RATIO <= M. On whole subspace fits (d in {1, 3, 5}) the
# factor form took 1.00-1.02x the dense form's time up to M = 64, 0.94-0.96x
# at M = 128 and 0.58-0.70x from M = 256. On cold solves at M = 1,500 it
# took 0.96x at d = 40, 1.06x at d = 50, 2.3x at d = 200 and 7.9x on the
# kernel-embedded baseline (d = 1,499). See BENCH_8.json.
LOW_RANK_RATIO = 40


class _DenseHessian:
    """H = scale * G from the M x M Gram G = P'P of the d x M points P.

    numpy evaluates P.T @ P as one symmetric rank-k update and copies its
    triangle onto the other: the Gram is exactly symmetric, so column i is
    read as the contiguous row i. Scaled in place, H is the only M x M array.
    """

    def __init__(self, points: np.ndarray, scale: float):
        self.rank_bound = points.shape[0]
        self.scale = scale
        self.h = points.T @ points
        if scale != 1.0:
            self.h *= scale
        self.diag = np.diag(self.h)

    def column(self, i: int) -> np.ndarray:
        return self.h[i]

    def block(self, free: np.ndarray) -> np.ndarray:
        return self.h[np.ix_(free, free)]

    def cols_times(self, free: np.ndarray, x: np.ndarray) -> np.ndarray:
        return self.h[:, free] @ x

    def times(self, a: np.ndarray) -> np.ndarray:
        return self.h @ a

    def gram_quad(self, a: np.ndarray) -> float:
        return float(a @ self.h @ a) / self.scale


class _FactorHessian:
    """H = scale * P'P read through the d x M points P; no M x M array.

    scale is 1 or 2, so scaling P by it, and the diagonal, is exact.
    """

    def __init__(self, points: np.ndarray, scale: float):
        self.rank_bound = points.shape[0]
        self.p = points
        self.ps = points if scale == 1.0 else scale * points
        self.diag = scale * np.einsum("ij,ij->j", points, points)

    def column(self, i: int) -> np.ndarray:
        return self.p.T @ self.ps[:, i]

    def block(self, free: np.ndarray) -> np.ndarray:
        return self.p[:, free].T @ self.ps[:, free]

    def cols_times(self, free: np.ndarray, x: np.ndarray) -> np.ndarray:
        return self.p.T @ (self.ps[:, free] @ x)

    def times(self, a: np.ndarray) -> np.ndarray:
        return self.p.T @ (self.ps @ a)

    def gram_quad(self, a: np.ndarray) -> float:
        center = self.p @ a
        return float(center @ center)


_Hessian = Union[_DenseHessian, _FactorHessian]


def _solver_inputs(
    points: np.ndarray, scale: float, kkt_tol: float
) -> tuple[np.ndarray, _Hessian]:
    """Check the d x M training columns and kkt_tol; return them and H = scale * G.

    G = P'P is the Gram of the columns. A low-rank problem
    (d * LOW_RANK_RATIO <= M) gets the factor form, which reads H through
    P in O(dM) memory; any other gets the dense form, which builds G.
    """
    points = frozen_array(points)
    if points.ndim != 2 or points.shape[1] < 1:
        raise SolverError(f"points must be a d x M matrix, got shape {points.shape}")
    if not np.all(np.isfinite(points)):
        raise SolverError("points contain NaN or Inf")
    if not kkt_tol > 0.0:
        raise SolverError("kkt_tol must be positive")
    d, m = points.shape
    form = _FactorHessian if d * LOW_RANK_RATIO <= m else _DenseHessian
    return points, form(points, scale)


def _tidy(alpha: np.ndarray, upper: float) -> np.ndarray:
    """Remove accumulated drift from sum(alpha) = 1 and the box.

    Only the free coordinates are rescaled, so coordinates on a bound stay
    exactly on it; the change is O(machine eps).
    """
    alpha = np.clip(alpha, 0.0, upper)
    free = (alpha > 0.0) & (alpha < upper)
    free_mass = alpha[free].sum()
    if free_mass > 0.0:
        alpha[free] = alpha[free] / free_mass * (1.0 - (alpha.sum() - free_mass))
        np.clip(alpha, 0.0, upper, out=alpha)
    return alpha


def _cold_start(points: np.ndarray, upper: float) -> np.ndarray:
    """Tidy feasible hypersphere start: floor(1/upper) coordinates on upper.

    They are the columns of the d x M points farthest from the
    uniform-weight center, ties going to the lower index; the remaining
    mass 1 - floor(1/upper) * upper goes on the next farthest column.
    """
    m = points.shape[1]
    center = points.mean(axis=1)
    # |p_i - center|^2 less the constant |center|^2.
    far = np.einsum("ij,ij->j", points, points) - 2.0 * (center @ points)
    order = np.argsort(-far, kind="stable")
    full = min(int(1.0 / upper), m)
    alpha = np.zeros(m)
    alpha[order[:full]] = upper
    if full < m:
        alpha[order[full]] = 1.0 - full * upper
    return _tidy(alpha, upper)


def _face_step(
    h: _Hessian, grad: np.ndarray, alpha: np.ndarray, upper: float
) -> bool:
    """Exact ascent step on the face of the free coordinates, in place;
    return whether it moved alpha.

    With F = {0 < a < upper}, solves [[H_FF, 1], [1', 0]] [p; mu] = [g_F; 0]
    by least squares. A consistent system gives p, the Newton step to the
    face optimum, taken with length at most 1. An inconsistent one means
    H_FF is singular and the face has no interior stationary point; the
    residual's first k entries then span a zero-curvature direction with
    g_F'r_F = |r|^2 > 0, followed until a coordinate reaches its bound.
    The step is clipped at the first bound (ratio test), which it lands on
    exactly, and is taken only if it increases the objective.
    """
    free = np.flatnonzero((alpha > 0.0) & (alpha < upper))
    k = free.size
    if k < 2:
        return False
    h_ff = h.block(free)
    g_f = grad[free]
    system = np.ones((k + 1, k + 1))
    system[:k, :k] = h_ff
    system[k, k] = 0.0
    rhs = np.append(g_f, 0.0)
    sol = np.linalg.lstsq(system, rhs, rcond=None)[0]
    resid = rhs - system @ sol
    if resid @ resid > (FACE_CONSISTENCY_TOL**2) * (rhs @ rhs):
        direction, length = resid[:k], np.inf
    else:
        direction, length = sol[:k], 1.0
    # Keep the step on sum(a) = 1 despite least-squares rounding.
    direction = direction - direction.mean()
    a_f = alpha[free]
    with np.errstate(divide="ignore"):
        ratios = np.where(
            direction > 0.0,
            (upper - a_f) / direction,
            np.where(direction < 0.0, a_f / -direction, np.inf),
        )
    block = int(np.argmin(ratios))
    blocked = ratios[block] < length
    if blocked:
        length = ratios[block]
    if not np.isfinite(length):
        return False
    step = length * direction
    if g_f @ step - 0.5 * (step @ h_ff @ step) <= 0.0:
        return False
    new = a_f + step
    if blocked:
        new[block] = upper if direction[block] > 0.0 else 0.0
    new[(step > 0.0) & (new > upper - BOUND_SNAP)] = upper
    new[(step < 0.0) & (new < BOUND_SNAP)] = 0.0
    alpha[free] = new
    grad -= h.cols_times(free, new - a_f)
    return True


def _solve_pairwise(
    h: _Hessian,
    c: np.ndarray,
    upper: float,
    kkt_tol: float,
    alpha0: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Maximize c'a - 0.5 a'Ha over {sum(a)=1, 0<=a<=upper}.

    Starts from alpha0 when given (assumed feasible and tidy, such as a
    warm start or svdd_solve's _cold_start) and from the uniform vector
    otherwise. Pair selection is second order: i is the steepest
    increasable coordinate and j the decreasable one with the largest
    exact gain of the pair subproblem, which avoids the zig-zagging a
    purely steepest-pair rule suffers on rank-deficient Hessians. A pair
    step that no bound clips is followed by an exact step on the face of
    the free coordinates (_face_step) when their count k exceeds
    h.rank_bound, the only case in which H can be singular on that face;
    pair steps alone can cycle among the free coordinates there.

    An alpha0 that misses kkt_tol first gets one face step, before any
    pair step: a warm start from a nearby problem usually has the free set
    of this problem's optimum, so that step lands on it. When the step
    moves alpha, alpha is tidied and the gradient recomputed before the
    pair loop goes on. A start with fewer than 2 free coordinates, such as
    _cold_start's, has no face to step on and goes straight to the pair
    loop.

    Stopping is decided on a freshly computed gradient: when the
    incrementally updated one says converged, one more face step is taken
    if alpha moved since the last one, alpha is tidied (_tidy), the
    gradient recomputed, and the pair loop resumes if the tolerance is
    missed. An alpha0 that already meets kkt_tol is returned unchanged.
    """
    m = c.size
    diag = h.diag
    alpha = np.full(m, 1.0 / m) if alpha0 is None else np.array(alpha0, dtype=np.float64)
    grad = c - h.times(alpha)
    # A converged check is final only when alpha is tidy and grad was
    # computed from it; a given start is taken to be tidy already.
    settled = alpha0 is not None
    # Whether the first violated check still owes a given start its face step.
    face_first = alpha0 is not None
    # Whether a pair step moved alpha since the last face step.
    moved = False
    violation = np.inf
    for _ in range(MAX_PAIR_UPDATES):
        can_up = alpha < upper
        can_dn = alpha > 0.0
        i = int(np.argmax(np.where(can_up, grad, -np.inf)))
        violation = grad[i] - np.min(np.where(can_dn, grad, np.inf))
        if violation <= kkt_tol:
            if settled:
                break
            if moved:
                _face_step(h, grad, alpha, upper)
                moved = False
            alpha = _tidy(alpha, upper)
            grad = c - h.times(alpha)
            settled = True
            continue
        if face_first:
            face_first = False
            if _face_step(h, grad, alpha, upper):
                alpha = _tidy(alpha, upper)
                grad = c - h.times(alpha)
                continue
        h_i = h.column(i)
        diffs = grad[i] - grad
        denoms = np.maximum(diag[i] + diag - 2.0 * h_i, 1e-12)
        gains = np.where(can_dn & (diffs > 0.0), diffs**2 / denoms, -np.inf)
        j = int(np.argmax(gains))
        t_max = min(upper - alpha[i], alpha[j])
        denom = diag[i] + diag[j] - 2.0 * h_i[j]
        if denom > 1e-300:
            t = min(diffs[j] / denom, t_max)
        else:
            # Flat direction (e.g. duplicate points): take the full step.
            t = t_max
        if t <= 0.0:
            break
        new_i = alpha[i] + t
        if new_i > upper - BOUND_SNAP:
            new_i = upper
        new_j = alpha[j] - t
        if new_j < BOUND_SNAP:
            new_j = 0.0
        grad -= (new_i - alpha[i]) * h_i + (new_j - alpha[j]) * h.column(j)
        alpha[i], alpha[j] = new_i, new_j
        settled = False
        moved = True
        if (
            0.0 < new_j
            and new_i < upper
            and np.count_nonzero((alpha > 0.0) & (alpha < upper)) > h.rank_bound
        ):
            _face_step(h, grad, alpha, upper)
            moved = False
    else:
        warnings.warn(
            f"dual solver hit the sweep limit with violation {violation:.3e}",
            RuntimeWarning,
            stacklevel=3,
        )
    if not settled:
        alpha = _tidy(alpha, upper)
    return alpha


def support_masks(alphas: np.ndarray, upper: float) -> tuple[np.ndarray, np.ndarray]:
    """The support vectors (alpha > 0) and, among them, the boundary ones
    (alpha < upper), each up to ALPHA_TOL, as boolean masks over alphas."""
    support = alphas > ALPHA_TOL
    return support, support & (alphas < upper - ALPHA_TOL)


def _freeze(desc) -> np.ndarray:
    """Set a description's read-only alphas and train_points; return
    train_points @ alphas, read-only."""
    alphas, pts = frozen_array(desc.alphas), frozen_array(desc.train_points)
    if alphas.shape != (pts.shape[1],):
        raise SolverError("alphas length must match the training columns")
    object.__setattr__(desc, "alphas", alphas)
    object.__setattr__(desc, "train_points", pts)
    return frozen_array(pts @ alphas)


def _query(desc, y: np.ndarray) -> np.ndarray:
    """y as a float d x M matrix, d the description's dimension."""
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 2 or y.shape[0] != desc.train_points.shape[0]:
        raise SolverError(
            f"dimension mismatch: description is {desc.train_points.shape[0]}-d, "
            f"query shape {y.shape}"
        )
    return y


@dataclass(frozen=True)
class DataDescription:
    """Solved hypersphere description of a point cloud.

    alphas are the dual weights over the training columns, c_penalty the
    box bound, radius_sq the squared decision radius, finite and
    non-negative. train_points is the d x M matrix the description was
    fit on. center = train_points @ alphas and center_sq are derived
    caches; scoring reads only them and radius_sq. A description loaded
    from a model file has one column, the stored center, with weight 1.
    The arrays are read-only, so models may share a description.
    """

    alphas: np.ndarray
    c_penalty: float
    radius_sq: float
    train_points: np.ndarray
    center: np.ndarray = field(init=False)
    center_sq: float = field(init=False)

    def __post_init__(self):
        if not (math.isfinite(self.radius_sq) and self.radius_sq >= 0.0):
            raise SolverError(
                f"radius_sq must be finite and non-negative, got {self.radius_sq}"
            )
        center = _freeze(self)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "center_sq", float(center @ center))


def svdd_solve(
    points: np.ndarray,
    c_penalty: float,
    kkt_tol: float = DEFAULT_KKT_TOL,
    alpha0: Optional[np.ndarray] = None,
) -> DataDescription:
    """Fit the minimal enclosing soft hypersphere of the columns of points.

    Maximizes sum_i a_i G_ii - a'Ga over the box-bounded simplex. Requires
    c_penalty * M >= 1, otherwise the constraint set is empty. alpha0, when
    given, is a feasible dual vector to start from, typically the solution
    of a nearby problem over the same columns; a start that already meets
    kkt_tol is returned unchanged. Without alpha0 the solve starts from
    _cold_start: C on the floor(1/C) points farthest from their mean.
    """
    points, h = _solver_inputs(points, 2.0, kkt_tol)
    m = points.shape[1]
    if c_penalty * m < 1.0:
        raise SolverError(
            f"infeasible penalty: C*M = {c_penalty * m:.4g} < 1 (C={c_penalty}, M={m})"
        )
    if alpha0 is None:
        alpha0 = _cold_start(points, c_penalty)
    else:
        alpha0 = np.asarray(alpha0, dtype=np.float64)
        if alpha0.shape != (m,):
            raise SolverError(f"alpha0 must have shape ({m},), got {alpha0.shape}")
        if not np.all(np.isfinite(alpha0)):
            raise SolverError("alpha0 contains NaN or Inf")
        if np.any(alpha0 < 0.0) or np.any(alpha0 > c_penalty):
            raise SolverError(f"alpha0 entries must lie in [0, C={c_penalty}]")
        if abs(alpha0.sum() - 1.0) > 1e-9:
            raise SolverError(f"alpha0 must sum to 1, sums to {alpha0.sum():.12g}")
    # H = 2G, so its diagonal and H a are exactly twice diag(G) and G a:
    # dist_sq is diag(G) - 2 G a + a'Ga.
    gram_diag = h.diag / 2.0
    alphas = _solve_pairwise(h, gram_diag, c_penalty, kkt_tol, alpha0)
    dist_sq = gram_diag - h.times(alphas) + h.gram_quad(alphas)
    support, boundary = support_masks(alphas, c_penalty)
    if np.any(boundary):
        radius_sq = float(np.mean(dist_sq[boundary]))
    else:
        radius_sq = float(np.max(dist_sq[support]))
    return DataDescription(
        alphas=alphas,
        c_penalty=c_penalty,
        radius_sq=max(radius_sq, 0.0),
        train_points=points,
    )


def svdd_score(desc: DataDescription, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Squared distances of the columns of y to the center, and their labels:
    1 inside or on the sphere, 0 outside (boundary counts in).

    A column counts as on the sphere when its distance exceeds the radius
    by at most BOUNDARY_RTOL * (|y| + |center|)^2, a bound on the terms of
    |y|^2 - 2 center'y + |center|^2.
    """
    y = _query(desc, y)
    y_sq = np.sum(y * y, axis=0)
    dist_sq = y_sq - 2.0 * (desc.center @ y) + desc.center_sq
    scale = (np.sqrt(y_sq) + np.sqrt(desc.center_sq)) ** 2
    return dist_sq, (dist_sq <= desc.radius_sq + BOUNDARY_RTOL * scale).astype(np.int64)


@dataclass(frozen=True)
class HyperplaneDescription:
    """Solved one-class hyperplane: dual weights, finite offset rho and
    nu in (0, 1].

    A point y is classified target when sum_j a_j <x_j, y> - rho >= 0,
    that is weight'y - rho >= 0 for the derived weight = train_points @
    alphas; scoring reads only weight and rho. A description loaded from a
    model file has one column, the stored weight, with weight 1.
    """

    alphas: np.ndarray
    rho: float
    nu: float
    train_points: np.ndarray
    weight: np.ndarray = field(init=False)

    def __post_init__(self):
        if not math.isfinite(self.rho):
            raise SolverError(f"rho must be finite, got {self.rho}")
        if not 0.0 < self.nu <= 1.0:
            raise SolverError(f"nu must lie in (0, 1], got {self.nu}")
        object.__setattr__(self, "weight", _freeze(self))


def ocsvm_solve(
    points: np.ndarray, nu: float, kkt_tol: float = DEFAULT_KKT_TOL
) -> HyperplaneDescription:
    """Fit the one-class hyperplane over the columns of points.

    Maximizes -0.5 a'Ga over {sum(a)=1, 0 <= a <= 1/(nu*M)}; rho is the
    mean decision value over boundary support vectors (all support vectors
    when none sit strictly inside the box).
    """
    points, h = _solver_inputs(points, 1.0, kkt_tol)
    if not 0.0 < nu <= 1.0:
        raise SolverError(f"nu must lie in (0, 1], got {nu}")
    m = points.shape[1]
    if nu * m < 1.0:
        raise SolverError(f"infeasible nu: nu*M = {nu * m:.4g} < 1")
    bound = 1.0 / (nu * m)
    alphas = _solve_pairwise(h, np.zeros(m), bound, kkt_tol)
    decision = h.times(alphas)
    support, boundary = support_masks(alphas, bound)
    rho = float(np.mean(decision[boundary if np.any(boundary) else support]))
    return HyperplaneDescription(alphas=alphas, rho=rho, nu=nu, train_points=points)


def ocsvm_score(
    desc: HyperplaneDescription, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Decision values of the columns of y, and their labels: 1 on the
    target side of the hyperplane or on it, 0 otherwise.

    A column counts as on the hyperplane when its decision value is at
    least -BOUNDARY_RTOL * (|weight| |y| + |rho|), a bound on the terms of
    weight'y - rho.
    """
    y = _query(desc, y)
    decision = desc.weight @ y - desc.rho
    scale = np.sqrt(desc.weight @ desc.weight) * np.sqrt(np.sum(y * y, axis=0))
    return decision, (decision >= -BOUNDARY_RTOL * (scale + abs(desc.rho))).astype(np.int64)
