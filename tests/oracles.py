"""Independent reference implementations used to verify the library.

Nothing here reuses the library's solver or gradient code paths: the QP
oracle enumerates a discretized feasible set outright, the KKT checker
recomputes optimality conditions from the Gram matrix, and the gradient
oracle differentiates an objective written directly from its definition.
"""

from __future__ import annotations

import tracemalloc
from typing import Any, Callable

import numpy as np

ALPHA_TOL = 1e-8

# Composition tables are cached per (total, parts, cap); only small part
# counts are cached so memory stays bounded for the big enumerations.
_COMP_CACHE: dict[tuple[int, int, int], np.ndarray] = {}
_CACHE_MAX_PARTS = 4


def compositions(total: int, parts: int, cap: int) -> np.ndarray:
    """All int vectors of length `parts`, entries in [0, cap], summing to total."""
    if parts == 1:
        if 0 <= total <= cap:
            return np.array([[total]], dtype=np.int16)
        return np.zeros((0, 1), dtype=np.int16)
    key = (total, parts, cap)
    cached = parts <= _CACHE_MAX_PARTS
    if cached and key in _COMP_CACHE:
        return _COMP_CACHE[key]
    lo = max(0, total - cap * (parts - 1))
    hi = min(cap, total)
    blocks = []
    for first in range(hi, lo - 1, -1):
        rest = compositions(total - first, parts - 1, cap)
        if rest.shape[0]:
            col = np.full((rest.shape[0], 1), first, dtype=np.int16)
            blocks.append(np.hstack([col, rest]))
    out = (
        np.vstack(blocks) if blocks else np.zeros((0, parts), dtype=np.int16)
    )
    if cached:
        _COMP_CACHE[key] = out
    return out


def simplex_grid_best(
    g: np.ndarray,
    lin: np.ndarray,
    quad_coeff: float,
    upper: float,
    step: float = 0.01,
) -> tuple[float, np.ndarray]:
    """Exhaustive maximization of lin'a - quad_coeff * a'Ga on the grid.

    The feasible set is {sum(a)=1, 0 <= a <= upper} discretized at `step`.
    Enumeration is chunked over the first coordinate so even long vectors
    stay within memory. Returns (best objective, best alpha).
    """
    m = g.shape[0]
    total = round(1.0 / step)
    cap = min(int(np.floor(upper / step + 1e-9)), total)
    if cap * m < total:
        raise ValueError(f"infeasible grid: cap {cap} * m {m} < {total}")
    best_val = -np.inf
    best_alpha = None
    lo = max(0, total - cap * (m - 1))
    for first in range(lo, cap + 1):
        if m == 1:
            rest = np.zeros((1, 0), dtype=np.int16)
        else:
            rest = compositions(total - first, m - 1, cap)
        if rest.shape[0] == 0:
            continue
        alpha = np.empty((rest.shape[0], m))
        alpha[:, 0] = first * step
        alpha[:, 1:] = rest * step
        qa = alpha @ g
        vals = alpha @ lin - quad_coeff * np.einsum("ij,ij->i", qa, alpha)
        idx = int(np.argmax(vals))
        if vals[idx] > best_val:
            best_val = float(vals[idx])
            best_alpha = alpha[idx].copy()
    assert best_alpha is not None
    return best_val, best_alpha


def sphere_objective(g: np.ndarray, alpha: np.ndarray) -> float:
    """Hypersphere dual value: sum_i a_i G_ii - a'Ga."""
    return float(alpha @ np.diag(g) - alpha @ g @ alpha)


def hyperplane_objective(g: np.ndarray, alpha: np.ndarray) -> float:
    return float(-0.5 * alpha @ g @ alpha)


def kkt_violation(
    g: np.ndarray,
    lin: np.ndarray,
    quad_coeff: float,
    alpha: np.ndarray,
    upper: float,
    bound_tol: float = 1e-9,
) -> float:
    """Largest optimality violation of alpha for the box-simplex QP.

    At an optimum there is a multiplier mu with gradient_i = mu for free
    coordinates, <= mu at the lower bound and >= mu at the upper bound;
    equivalently max(grad over increasable) - min(grad over decreasable)
    must be non-positive.
    """
    grad = lin - 2.0 * quad_coeff * (g @ alpha)
    can_up = alpha < upper - bound_tol
    can_dn = alpha > bound_tol
    if not np.any(can_up) or not np.any(can_dn):
        return 0.0
    return float(max(grad[can_up].max() - grad[can_dn].min(), 0.0))


def feasibility_violation(alpha: np.ndarray, upper: float) -> float:
    return float(
        max(
            abs(alpha.sum() - 1.0),
            max(-alpha.min(), 0.0),
            max(alpha.max() - upper, 0.0),
        )
    )


# ---------------------------------------------------------------------------
# Subspace objective and finite differences
# ---------------------------------------------------------------------------

def regularizer_weights(
    regularizer: str, alphas: np.ndarray, c_penalty: float
) -> np.ndarray | None:
    if regularizer in ("w0", "psi0"):
        return None
    if regularizer in ("w1", "w4", "psi1"):
        return np.ones_like(alphas)
    if regularizer in ("w2", "w5"):
        return (alphas > ALPHA_TOL).astype(float)
    if regularizer in ("w3", "w6"):
        return alphas.copy()
    if regularizer == "psi2":
        mask = (alphas > ALPHA_TOL) & (alphas < c_penalty - ALPHA_TOL)
        return np.where(mask, alphas, 0.0)
    if regularizer == "psi3":
        return np.where(alphas > ALPHA_TOL, alphas, 0.0)
    raise ValueError(f"unknown regularizer {regularizer!r}")


def regularizer_value(
    qs: list[np.ndarray],
    data: list[np.ndarray],
    alphas: np.ndarray,
    regularizer: str,
    index_map: list[tuple[int, int]],
    c_penalty: float,
) -> float:
    lam = regularizer_weights(regularizer, alphas, c_penalty)
    if lam is None:
        return 0.0
    if regularizer in ("w1", "w2", "w3"):
        total = 0.0
        for v, (q, f) in enumerate(zip(qs, data)):
            lo, hi = index_map[v]
            weighted = f * lam[lo:hi][None, :]
            total += float(np.sum((q @ weighted) ** 2))
        return total
    if regularizer in ("w4", "w5", "w6"):
        acc = None
        for v, (q, f) in enumerate(zip(qs, data)):
            lo, hi = index_map[v]
            term = q @ (f * lam[lo:hi][None, :])
            acc = term if acc is None else acc + term
        return float(np.sum(acc**2))
    # psi family
    q, f = qs[0], data[0]
    lo, hi = index_map[0]
    z = f @ lam[lo:hi]
    return float(np.sum((q @ z) ** 2))


def pooled_objective(
    qs: list[np.ndarray],
    data: list[np.ndarray],
    alphas: np.ndarray,
    beta: float,
    regularizer: str,
    index_map: list[tuple[int, int]],
    c_penalty: float,
) -> float:
    """Dual value at fixed alphas plus the weighted regularization term."""
    total = 0.0
    center = np.zeros(qs[0].shape[0])
    for v, (q, f) in enumerate(zip(qs, data)):
        lo, hi = index_map[v]
        a = alphas[lo:hi]
        y = q @ f
        total += float(np.sum(a * np.sum(y * y, axis=0)))
        center += y @ a
    total -= float(center @ center)
    if beta != 0.0:
        total += beta * regularizer_value(
            qs, data, alphas, regularizer, index_map, c_penalty
        )
    return total


def fd_gradient(
    v: int,
    qs: list[np.ndarray],
    data: list[np.ndarray],
    alphas: np.ndarray,
    beta: float,
    regularizer: str,
    index_map: list[tuple[int, int]],
    c_penalty: float,
    h: float = 1e-5,
) -> np.ndarray:
    """Central finite differences of the pooled objective in Q_v."""
    base = qs[v]
    grad = np.zeros_like(base)
    for i in range(base.shape[0]):
        for j in range(base.shape[1]):
            plus = [q.copy() for q in qs]
            minus = [q.copy() for q in qs]
            plus[v][i, j] += h
            minus[v][i, j] -= h
            f_plus = pooled_objective(
                plus, data, alphas, beta, regularizer, index_map, c_penalty
            )
            f_minus = pooled_objective(
                minus, data, alphas, beta, regularizer, index_map, c_penalty
            )
            grad[i, j] = (f_plus - f_minus) / (2.0 * h)
    return grad


def random_box_simplex(rng: np.random.Generator, m: int, upper: float) -> np.ndarray:
    """A random feasible dual vector with some coordinates at the bounds."""
    alpha = rng.dirichlet(np.ones(m))
    alpha = np.minimum(alpha, upper)
    deficit = 1.0 - alpha.sum()
    while deficit > 1e-12:
        room = upper - alpha
        idx = np.flatnonzero(room > 1e-12)
        share = min(deficit, room[idx].min() * idx.size)
        alpha[idx] += share / idx.size
        deficit = 1.0 - alpha.sum()
    return alpha


def traced_peak(fn: Callable[[], Any]) -> int:
    """Peak bytes that Python and numpy allocations reach while fn() runs,
    counted from the call; fn's result is dropped."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def kernel_formula(a: np.ndarray, b: np.ndarray, params) -> np.ndarray:
    """Kernel values between the columns of a and b, written out of place:
    one a.T @ b, and a new array for every elementwise step."""
    inner = a.T @ b
    if params.kind == "linear":
        return inner
    sq = np.sum(a * a, axis=0)[:, None] + np.sum(b * b, axis=0)[None, :] - 2.0 * inner
    gauss = np.exp(-np.maximum(sq, 0.0) / (2.0 * params.sigma**2))
    if params.kind == "gaussian":
        return gauss
    sigm = np.tanh(params.kappa * inner + params.theta)
    return params.gamma * gauss + (1.0 - params.gamma) * sigm


def centered_test_kernel_formula(
    train: np.ndarray, row_means: np.ndarray, test: np.ndarray, params
) -> np.ndarray:
    """The test kernel centered with the training row means, out of place."""
    centered = kernel_formula(train, test, params) - row_means[:, None]
    return centered - centered.mean(axis=0, keepdims=True)


def center_formula(k: np.ndarray) -> np.ndarray:
    """The doubly centered kernel matrix, out of place."""
    row_means = k.mean(axis=1)
    return k - row_means[:, None] - row_means[None, :] + float(row_means.mean())


def sphere_score_formula(desc, y: np.ndarray, rtol: float) -> tuple[np.ndarray, np.ndarray]:
    """Squared distances of the columns of y to a sphere description's
    center, and their labels: 1 when within the squared radius plus
    rtol * (|y| + |center|)^2. Distances and labels are computed apart, as
    two separate passes over y."""
    dist_sq = np.sum(y * y, axis=0) - 2.0 * (desc.center @ y) + desc.center_sq
    scale = (np.sqrt(np.sum(y * y, axis=0)) + np.sqrt(desc.center_sq)) ** 2
    return dist_sq, (dist_sq <= desc.radius_sq + rtol * scale).astype(np.int64)


def hyperplane_score_formula(desc, y: np.ndarray, rtol: float) -> tuple[np.ndarray, np.ndarray]:
    """Decision values of the columns of y for a hyperplane description,
    and their labels: 1 when the value is at least
    -rtol * (|weight| |y| + |rho|)."""
    decision = desc.weight @ y - desc.rho
    scale = np.sqrt(desc.weight @ desc.weight) * np.sqrt(np.sum(y * y, axis=0))
    return decision, (decision >= -rtol * (scale + abs(desc.rho))).astype(np.int64)
