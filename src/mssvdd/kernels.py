"""Kernel evaluation, centering, and the explicit kernel feature embedding.

The composite kernel mixes a Gaussian kernel with a hyperbolic-tangent
sigmoid kernel through a convex weight gamma. Because the sigmoid part is
indefinite, the kernel may have negative eigenvalues; the embedding keeps
only the strictly positive part of the spectrum, giving a
finite-dimensional representation whose Gram matrix approximates the
kernel. Linear methods applied to that representation then behave like
their kernelized counterparts. The embedding is of the centered kernel by
default, or of the uncentered one for a method that needs the origin of
feature space, such as the one-class hyperplane. A solver on the
embedding can take its Gram from npt_fit, which makes it from the kernel
in place by subtracting the dropped eigenpairs. A fitted model predicts
through the KernelMap its NptState composes (NptState.kernel_map), so no
other module of the package reads the eigenpairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .datamodel import FeatureMatrix, frozen_array
from .errors import KernelError, coerce_fields, field_types

KERNEL_KINDS = ("linear", "gaussian", "composite")

DEFAULT_EIG_REL_TOL = 1e-12


@dataclass(frozen=True)
class KernelParams:
    """Kernel family and its scalar parameters.

    gamma weighs the Gaussian part against the sigmoid part (composite
    kind only); sigma is the Gaussian scale; kappa and theta are the
    sigmoid slope and offset. kappa=None means "derive from the model"
    (TrainConfig.resolved_kernel_params): 1/d for a subspace model, 1/D,
    the fused feature dim, for a baseline; it must be resolved to a
    number before kernel evaluation. kind="linear"
    ignores all scalars.
    """

    kind: str = "composite"
    gamma: float = 0.5
    sigma: float = 1.0
    kappa: Optional[float] = None
    theta: float = 0.0

    def __post_init__(self):
        coerce_fields(self, _KERNEL_FIELD_TYPES, KernelError)
        if self.kind not in KERNEL_KINDS:
            raise KernelError(
                f"unknown kernel kind {self.kind!r}; expected one of {KERNEL_KINDS}"
            )
        if not 0.0 <= self.gamma <= 1.0:
            raise KernelError(f"gamma must lie in [0, 1], got {self.gamma}")
        if self.sigma <= 0.0:
            raise KernelError(f"sigma must be positive, got {self.sigma}")
        # The Gaussian part divides by 2 sigma^2: 1e300 overflows it and
        # 1e-300 rounds it to 0, which makes every kernel diagonal 0 / 0.
        try:
            two_sigma_sq = 2.0 * self.sigma**2
        except OverflowError:
            two_sigma_sq = math.inf
        if not (math.isfinite(two_sigma_sq) and two_sigma_sq > 0.0):
            raise KernelError(
                f"sigma {self.sigma!r} is out of range: 2 sigma^2 = {two_sigma_sq!r} "
                "must be finite and positive"
            )


_KERNEL_FIELD_TYPES = field_types(KernelParams)


# Bytes of kernel values per row block: a block and its two scratch buffers
# stay in L2 while the elementwise chain makes its passes over them.
_BLOCK_BYTES = 128 * 1024
# Rows per block of _gram_in_place. At N = 1,500 with one dropped pair,
# blocks of 32 to 128 rows took 5.3-5.6 ms and blocks of 10 rows 7.3 ms:
# the mirrored copy reads a column strip of the rows above per block.
_GRAM_ROWS = 64


def kernel_cross(a: np.ndarray, b: np.ndarray, params: KernelParams) -> np.ndarray:
    """Kernel values between the columns of a (D x N) and b (D x M).

    The result is the only N x M array: inner = a.T @ b is computed once,
    whole, and the elementwise chain then runs over blocks of its rows,
    each about _BLOCK_BYTES and at least one row, in block-sized scratch
    (one buffer, or two for the composite kernel's sigmoid part), writing
    each finished block back into inner. Each
    element goes through the steps of the plain formula

        gamma * exp(-max(|a_i|^2 + |b_j|^2 - 2 a_i'b_j, 0) / (2 sigma^2))
            + (1 - gamma) * tanh(kappa * a_i'b_j + theta),

    in its order, so the result is bit-identical to it; blocking rows of
    an elementwise chain changes no operation, and dividing by -2 sigma^2
    instead of negating first rounds the same. The gemm and the squared
    norms are not blocked, so numpy's symmetric rank-k update keeps
    kernel_matrix exactly symmetric.
    """
    if a.shape[0] != b.shape[0]:
        raise KernelError(
            f"dimensionality mismatch: {a.shape[0]} vs {b.shape[0]}"
        )
    composite = params.kind == "composite"
    if composite and params.kappa is None:
        raise KernelError("composite kernel needs kappa resolved to a number")
    inner = a.T @ b
    if params.kind == "linear":
        return inner
    a_sq = np.sum(a * a, axis=0)
    b_sq = np.sum(b * b, axis=0)
    n, m = inner.shape
    rows = max(1, _BLOCK_BYTES // (8 * max(m, 1)))
    gauss_buf = np.empty((min(rows, n), m))
    sigm_buf = np.empty_like(gauss_buf) if composite else None
    neg_divisor = -(2.0 * params.sigma**2)
    for lo in range(0, n, rows):
        x = inner[lo:lo + rows]
        k = gauss_buf[: x.shape[0]]
        if composite:
            sigm = sigm_buf[: x.shape[0]]
            np.multiply(params.kappa, x, out=sigm)
            sigm += params.theta
            np.tanh(sigm, out=sigm)
        np.add.outer(a_sq[lo:lo + rows], b_sq, out=k)
        x *= 2.0
        k -= x
        np.maximum(k, 0.0, out=k)
        k /= neg_divisor
        if composite:
            np.exp(k, out=k)
            k *= params.gamma
            sigm *= 1.0 - params.gamma
            np.add(k, sigm, out=x)
        else:
            np.exp(k, out=x)
    return inner


def kernel_matrix(f: FeatureMatrix, params: KernelParams) -> np.ndarray:
    """N x N kernel matrix over the samples of f, exactly symmetric.

    K == K.T holds bit for bit without mirroring: numpy evaluates
    x.T @ x as one symmetric rank-k update and copies its triangle onto
    the other, and the rest of kernel_cross is elementwise on symmetric
    operands.
    """
    return kernel_cross(f.values, f.values, params)


def _center_in_place(k: np.ndarray) -> tuple[np.ndarray, float]:
    """Double-center the square kernel matrix k in place; return the row
    means and grand mean of the raw kernel."""
    row_means = k.mean(axis=1)
    grand_mean = float(row_means.mean())
    k -= row_means[:, None]
    k -= row_means[None, :]
    k += grand_mean
    return row_means, grand_mean


def center_kernel(k: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Double-center a symmetric kernel matrix.

    Returns the centered matrix together with the row means and grand mean
    of the raw kernel, which are needed to center kernel vectors of unseen
    points consistently.
    """
    centered = np.array(k, dtype=np.float64)
    if centered.ndim != 2 or centered.shape[0] != centered.shape[1]:
        raise KernelError(f"kernel matrix must be square, got {centered.shape}")
    if not np.allclose(centered, centered.T, atol=1e-10, rtol=0.0):
        raise KernelError("kernel matrix must be symmetric")
    row_means, grand_mean = _center_in_place(centered)
    return centered, row_means, grand_mean


@dataclass(frozen=True, eq=False)
class KernelState:
    """The training side of a fitted kernel: what the kernel vectors of new
    points are computed, and centered, against.

    Holds the raw training features, the row means of their raw kernel and
    the kernel params. row_means is None for an uncentered kernel, whose
    test kernel vectors are used as they are. row_means is read-only, so
    models may share a state. A state equals and hashes as itself only, so
    it can key a memo.
    """

    row_means: Optional[np.ndarray]
    train_data: FeatureMatrix
    params: KernelParams

    def __post_init__(self):
        if self.row_means is None:
            return
        object.__setattr__(self, "row_means", frozen_array(self.row_means))
        if self.row_means.shape != (self.train_data.n_samples,):
            raise KernelError(
                f"row_means shape {self.row_means.shape} does not match "
                f"{self.train_data.n_samples} training samples"
            )


@dataclass(frozen=True)
class KernelMap:
    """How a kernelized model maps test points: state centers their kernel
    vectors against the training set, and the read-only map takes them to
    the description's space. NptState.kernel_map composes it."""

    state: KernelState
    map: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "map", frozen_array(self.map))


@dataclass(frozen=True)
class NptState:
    """Fitted embedding state for one modality: its kernel state and the
    kept eigenpairs of the kernel, centered or not as the state says.

    The embedded training data and a model's kernel map are derived from
    these on demand. The arrays are read-only, so models may share a state.
    """

    kernel: KernelState
    eigvecs: np.ndarray
    eigvals: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "eigvecs", frozen_array(self.eigvecs))
        object.__setattr__(self, "eigvals", frozen_array(self.eigvals))

    @property
    def train_kernel(self) -> np.ndarray:
        """The raw N x N training kernel, recomputed."""
        return kernel_matrix(self.kernel.train_data, self.kernel.params)

    @property
    def embedded(self) -> np.ndarray:
        """The embedded training data, rank x N, read-only."""
        embedded = np.sqrt(self.eigvals)[:, None] * self.eigvecs.T
        embedded.setflags(write=False)
        return embedded

    def kernel_map(self, rows: Optional[np.ndarray] = None) -> KernelMap:
        """The map A = rows Lambda^-1/2 U', k x N for k x rank rows: a
        projection Q, a hyperplane's weight w' (1 x rank), or None for the
        embedding itself. A applied to the centered test kernel equals rows
        applied to npt_embed_test of this state, up to rounding, with no
        rank x M intermediate. Training and loading compose every map here,
        so theirs agree bit for bit, and each shares this kernel state."""
        inv_sqrt = 1.0 / np.sqrt(self.eigvals)
        if rows is None:
            a = inv_sqrt[:, None] * self.eigvecs.T
        else:
            a = (rows * inv_sqrt) @ self.eigvecs.T
        a.setflags(write=False)
        return KernelMap(self.kernel, a)


def npt_fit(
    f: FeatureMatrix,
    params: KernelParams,
    eig_rel_tol: float = DEFAULT_EIG_REL_TOL,
    *,
    centered: bool = True,
    with_gram: bool = False,
) -> Union[NptState, tuple[NptState, np.ndarray]]:
    """Fit the kernel feature embedding on training data.

    Eigendecomposes the kernel, double-centered unless centered is False,
    and keeps eigenvalues that are strictly positive and above eig_rel_tol
    times the largest one; negative eigenvalues (possible with the
    indefinite sigmoid component) are discarded so the embedded Gram matrix
    stays positive semidefinite. A kernel with a non-finite entry is
    rejected before the eigendecomposition, without numpy's warnings first.
    The kernel is centered in place without center_kernel's symmetry
    check: kernel_matrix returns it exactly symmetric.

    with_gram also returns the Gram of the embedded training data,
    U_k Lambda_k U_k', built in the kernel's own buffer (_gram_in_place),
    so a solver on the embedding need not form it from the points.
    """
    if f.n_samples < 2:
        raise KernelError("embedding requires at least 2 training samples")
    with np.errstate(over="ignore", invalid="ignore"):
        kernel = kernel_matrix(f, params)
    if not np.isfinite(kernel).all():
        raise KernelError(
            f"{params.kind} kernel has non-finite entries at sigma={params.sigma!r} "
            f"(largest |feature| {np.max(np.abs(f.values)):.3g})"
        )
    row_means = _center_in_place(kernel)[0] if centered else None
    w, u = np.linalg.eigh(kernel)
    order = np.argsort(w)[::-1]
    top = w[order[0]]
    if top <= 0.0:
        raise KernelError(
            f"degenerate kernel: {'centered ' if centered else ''}kernel has no "
            "positive eigenvalue"
        )
    keep = w > max(eig_rel_tol * top, 0.0)
    # eigh's columns of the kept eigenpairs, by descending eigenvalue.
    kept = order[keep[order]]
    # Frozen here, so NptState keeps it in eigh's column-major layout.
    eigvecs = u[:, kept]
    eigvecs.setflags(write=False)
    state = NptState(
        kernel=KernelState(row_means=row_means, train_data=f, params=params),
        eigvecs=eigvecs,
        eigvals=w[kept],
    )
    if not with_gram:
        return state
    _gram_in_place(kernel, u, w, keep)
    return state, kernel


def _gram_in_place(
    k: np.ndarray, u: np.ndarray, w: np.ndarray, keep: np.ndarray
) -> None:
    """Turn the symmetric k = U diag(w) U', eigh's eigenpairs of it, into
    U_k diag(w_k) U_k', the Gram of the embedding that keeps the pairs
    marked by keep.

    The dropped pairs are subtracted from k (2 n_d N^2 flops), in outer
    products over blocks of _GRAM_ROWS rows, so no second N x N array is
    made, and only on and above the diagonal: each block's part below it
    is copied from the rows above, so k stays exactly symmetric.
    """
    n = k.shape[0]
    dropped = ~keep
    if not dropped.any():
        return
    vecs = u[:, dropped]
    scaled = vecs * -w[dropped]
    for lo in range(0, n, _GRAM_ROWS):
        hi = min(lo + _GRAM_ROWS, n)
        # Rows above lo are final, so this block's left part is their mirror.
        k[lo:hi, lo:] += scaled[lo:hi] @ vecs[lo:].T
        k[lo:hi, :lo] = k[:lo, lo:hi].T
        block = k[lo:hi, lo:hi]
        lower = np.tril_indices(hi - lo, -1)
        block[lower] = block.T[lower]


def npt_embed_test(
    state: KernelState | NptState,
    f_test: FeatureMatrix | np.ndarray,
    params: Optional[KernelParams] = None,
) -> np.ndarray:
    """Embed test points through a fitted kernel state.

    Each test point's kernel vector against the training set is centered
    with the training statistics, in place, unless the state is uncentered
    (row_means None). An NptState projects these vectors through its kept
    eigenpairs and returns rank x M; a test point equal to a training
    sample then reproduces that sample's training embedding. A plain
    KernelState returns the vectors themselves, N x M, for a caller that
    applies its own map to them.
    f_test may be a raw D x M array, M = 0 included. The result is
    read-only, so callers may share it.
    """
    kernel = state.kernel if isinstance(state, NptState) else state
    params = kernel.params if params is None else params
    values = f_test.values if isinstance(f_test, FeatureMatrix) else np.asarray(
        f_test, dtype=np.float64
    )
    if values.ndim != 2:
        raise KernelError(f"test points must be a D x M matrix, got shape {values.shape}")
    out = kernel_cross(kernel.train_data.values, values, params)
    if kernel.row_means is not None:
        out -= kernel.row_means[:, None]
        out -= out.mean(axis=0, keepdims=True)
    if state is not kernel:
        out = (1.0 / np.sqrt(state.eigvals))[:, None] * (state.eigvecs.T @ out)
    out.setflags(write=False)
    return out

