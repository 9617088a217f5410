"""Kernel evaluation, centering, and the explicit kernel feature embedding.

The composite kernel mixes a Gaussian kernel with a hyperbolic-tangent
sigmoid kernel through a convex weight gamma. Because the sigmoid part is
indefinite, the centered kernel may have negative eigenvalues; the
embedding keeps only the strictly positive part of the spectrum, giving a
finite-dimensional representation whose Gram matrix approximates the
centered kernel. Linear methods applied to that representation then behave
like their kernelized counterparts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .datamodel import FeatureMatrix
from .errors import KernelError, coerce_fields, field_types

KERNEL_KINDS = ("linear", "gaussian", "composite")

DEFAULT_EIG_REL_TOL = 1e-12


@dataclass(frozen=True)
class KernelParams:
    """Kernel family and its scalar parameters.

    gamma weighs the Gaussian part against the sigmoid part (composite
    kind only); sigma is the Gaussian scale; kappa and theta are the
    sigmoid slope and offset. kappa=None means "derive from the model",
    conventionally 1/d with d the target subspace dimensionality; it must
    be resolved to a number before kernel evaluation. kind="linear"
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


_KERNEL_FIELD_TYPES = field_types(KernelParams)


def _sq_dists(a: np.ndarray, b: np.ndarray, inner: np.ndarray) -> np.ndarray:
    """Squared distances between the columns of a and b, given inner = a.T @ b."""
    sq_a = np.sum(a * a, axis=0)
    sq_b = np.sum(b * b, axis=0)
    d2 = sq_a[:, None] + sq_b[None, :] - 2.0 * inner
    return np.maximum(d2, 0.0)


def kernel_cross(a: np.ndarray, b: np.ndarray, params: KernelParams) -> np.ndarray:
    """Kernel values between the columns of a (D x N) and b (D x M)."""
    if a.shape[0] != b.shape[0]:
        raise KernelError(
            f"dimensionality mismatch: {a.shape[0]} vs {b.shape[0]}"
        )
    inner = a.T @ b
    if params.kind == "linear":
        return inner
    gauss = np.exp(-_sq_dists(a, b, inner) / (2.0 * params.sigma**2))
    if params.kind == "gaussian":
        return gauss
    if params.kappa is None:
        raise KernelError("composite kernel needs kappa resolved to a number")
    sigm = np.tanh(params.kappa * inner + params.theta)
    return params.gamma * gauss + (1.0 - params.gamma) * sigm


def kernel_matrix(f: FeatureMatrix, params: KernelParams) -> np.ndarray:
    """N x N kernel matrix over the samples of f, exactly symmetric.

    K == K.T holds bit for bit without mirroring: numpy evaluates
    x.T @ x as one symmetric rank-k update and copies its triangle onto
    the other, and the rest of kernel_cross is elementwise on symmetric
    operands.
    """
    return kernel_cross(f.values, f.values, params)


def center_kernel(k: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Double-center a symmetric kernel matrix.

    Returns the centered matrix together with the row means and grand mean
    of the raw kernel, which are needed to center kernel vectors of unseen
    points consistently.
    """
    k = np.asarray(k, dtype=np.float64)
    if k.ndim != 2 or k.shape[0] != k.shape[1]:
        raise KernelError(f"kernel matrix must be square, got {k.shape}")
    if not np.allclose(k, k.T, atol=1e-10, rtol=0.0):
        raise KernelError("kernel matrix must be symmetric")
    row_means = k.mean(axis=1)
    grand_mean = float(row_means.mean())
    centered = k - row_means[:, None] - row_means[None, :] + grand_mean
    return centered, row_means, grand_mean


@dataclass(frozen=True)
class NptState:
    """Fitted embedding state for one modality.

    Holds what embedding new points reads: the raw training features, the
    row means of their raw kernel, and the kept eigenpairs of the centered
    kernel. The training kernel and the embedded training data are derived
    from these on demand. The arrays are read-only, so models may share a
    state.
    """

    row_means: np.ndarray
    eigvecs: np.ndarray
    eigvals: np.ndarray
    train_data: FeatureMatrix
    params: KernelParams

    def __post_init__(self):
        for name in ("row_means", "eigvecs", "eigvals"):
            a = np.asarray(getattr(self, name), dtype=np.float64)
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @property
    def rank(self) -> int:
        return int(self.eigvals.size)

    @property
    def embedded(self) -> np.ndarray:
        """The embedded training data, rank x N."""
        return np.sqrt(self.eigvals)[:, None] * self.eigvecs.T

    @property
    def train_kernel(self) -> np.ndarray:
        """The raw N x N training kernel, recomputed."""
        return kernel_matrix(self.train_data, self.params)


def npt_fit(
    f: FeatureMatrix,
    params: KernelParams,
    eig_rel_tol: float = DEFAULT_EIG_REL_TOL,
) -> NptState:
    """Fit the kernel feature embedding on training data.

    Eigendecomposes the centered kernel and keeps eigenvalues that are
    strictly positive and above eig_rel_tol times the largest one;
    negative eigenvalues (possible with the indefinite sigmoid component)
    are discarded so the embedded Gram matrix stays positive semidefinite.
    """
    if f.n_samples < 2:
        raise KernelError("embedding requires at least 2 training samples")
    k = kernel_matrix(f, params)
    centered, row_means, _ = center_kernel(k)
    w, u = np.linalg.eigh(centered)
    order = np.argsort(w)[::-1]
    w = w[order]
    if w[0] <= 0.0:
        raise KernelError(
            "degenerate kernel: centered kernel has no positive eigenvalue"
        )
    keep = w > max(eig_rel_tol * w[0], 0.0)
    return NptState(
        row_means=row_means,
        eigvecs=u[:, order[keep]],
        eigvals=w[keep],
        train_data=f,
        params=params,
    )


def npt_embed_test(
    state: NptState,
    f_test: FeatureMatrix | np.ndarray,
    params: Optional[KernelParams] = None,
) -> np.ndarray:
    """Embed test points into the fitted space; returns rank x M.

    For each test point, its kernel vector against the training set is
    centered with the training statistics and projected through the kept
    eigenpairs. A test point equal to a training sample reproduces that
    sample's training embedding. f_test may be a raw D x M array, M = 0
    included.
    """
    params = state.params if params is None else params
    values = f_test.values if isinstance(f_test, FeatureMatrix) else np.asarray(
        f_test, dtype=np.float64
    )
    if values.ndim != 2 or values.shape[0] != state.train_data.dim:
        raise KernelError(
            f"dimensionality mismatch: train D={state.train_data.dim}, "
            f"test shape {values.shape}"
        )
    if values.shape[1] == 0:
        return np.zeros((state.rank, 0))
    kx = kernel_cross(state.train_data.values, values, params)
    centered = kx - state.row_means[:, None]
    centered = centered - centered.mean(axis=0, keepdims=True)
    return (1.0 / np.sqrt(state.eigvals))[:, None] * (state.eigvecs.T @ centered)
