"""Subspace learning for one-class description of multi-modal data.

Each modality v gets a projection matrix Q_v (d x D_v, orthonormal rows)
mapping its features into a shared d-dimensional space. Training
alternates between solving the hypersphere dual on the pooled projected
samples and taking gradient steps on each Q_v, re-orthonormalizing after
every step. With one modality this is the uni-modal subspace variant; with
a kernel embedding in front it is the kernelized (composite-kernel)
variant. Prediction classifies each modality against the shared sphere and
fuses the per-modality labels with one of four decision strategies.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Hashable, Optional, Sequence, Union

import numpy as np

from .datamodel import FeatureMatrix, MultiModalDataset, apply_scaler, frozen_array
from .errors import ConfigError, SolverError, coerce_fields, field_types
from .kernels import KernelParams, KernelState, NptState, npt_embed_test, npt_fit
from .svdd import (
    DEFAULT_KKT_TOL,
    DataDescription,
    support_masks,
    svdd_score,
    svdd_solve,
)

UPDATE_STRATEGIES = ("SD-", "SD+", "AD-+", "AD+-")
DECISION_STRATEGIES = ("ds1", "ds2", "ds3", "ds4")
MULTI_REGULARIZERS = ("w0", "w1", "w2", "w3", "w4", "w5", "w6")
UNI_REGULARIZERS = ("psi0", "psi1", "psi2", "psi3")
MODEL_KINDS = ("subspace", "svdd", "ocsvm")

RANK_PIVOT_TOL = 1e-12

# Regularizers with no penalty term, so training never reads beta.
_UNPENALIZED_REGULARIZERS = ("w0", "psi0")

ArrayLike = Union[FeatureMatrix, np.ndarray]


def _values(x: ArrayLike) -> np.ndarray:
    return x.values if isinstance(x, FeatureMatrix) else np.asarray(x, dtype=np.float64)


@dataclass(frozen=True)
class ProjectionMatrix:
    """d x D matrix with orthonormal rows."""

    q: np.ndarray
    _ortho_error: float = field(init=False, repr=False)

    def __post_init__(self):
        q = frozen_array(self.q)
        if q.ndim != 2:
            raise ConfigError(f"projection must be 2-D, got shape {q.shape}")
        d, big_d = q.shape
        if d < 1:
            raise ConfigError(f"projection has no rows, shape {q.shape}")
        if d > big_d:
            raise ConfigError(f"subspace dim {d} exceeds feature dim {big_d}")
        err = float(np.max(np.abs(q @ q.T - np.eye(d))))
        if err > 1e-8:
            raise ConfigError(f"rows are not orthonormal (deviation {err:.3e})")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "_ortho_error", err)

    @property
    def d(self) -> int:
        return self.q.shape[0]

    @property
    def input_dim(self) -> int:
        return self.q.shape[1]

    def ortho_error(self) -> float:
        """Largest entry of |q q' - I|, as checked at construction."""
        return self._ortho_error


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters and strategy switches for one model fit."""

    d: int = 2
    eta: float = 0.1
    beta: float = 0.0
    c_penalty: float = 0.3
    max_iter: int = 20
    update_strategy: str = "SD-"
    regularizer: str = "w0"
    kernelized: bool = False
    kernel_params: KernelParams = field(default_factory=KernelParams)
    decision_strategy: str = "ds1"
    model_kind: str = "subspace"
    nu: float = 0.5
    kkt_tol: float = DEFAULT_KKT_TOL

    def __post_init__(self):
        coerce_fields(self, _TRAIN_FIELD_TYPES, ConfigError)
        if self.model_kind not in MODEL_KINDS:
            raise ConfigError(f"unknown model kind {self.model_kind!r}")
        if self.d < 1:
            raise ConfigError(f"subspace dimensionality must be >= 1, got {self.d}")
        if self.eta < 0.0:
            raise ConfigError(f"learning rate must be non-negative, got {self.eta}")
        if self.beta < 0.0:
            raise ConfigError(f"regularization weight must be >= 0, got {self.beta}")
        if self.max_iter < 1:
            raise ConfigError(f"max_iter must be >= 1, got {self.max_iter}")
        if self.update_strategy not in UPDATE_STRATEGIES:
            raise ConfigError(f"unknown update strategy {self.update_strategy!r}")
        if self.decision_strategy not in DECISION_STRATEGIES:
            raise ConfigError(f"unknown decision strategy {self.decision_strategy!r}")
        if self.regularizer not in MULTI_REGULARIZERS + UNI_REGULARIZERS:
            raise ConfigError(f"unknown regularizer {self.regularizer!r}")
        if not self.c_penalty > 0.0:
            raise ConfigError(f"c_penalty must be positive, got {self.c_penalty}")
        if not 0.0 < self.nu <= 1.0:
            raise ConfigError(f"nu must lie in (0, 1], got {self.nu}")
        if not self.kkt_tol > 0.0:
            raise ConfigError(f"kkt_tol must be positive, got {self.kkt_tol}")

    def resolved_kernel_params(self) -> KernelParams:
        """Kernel params with the sigmoid slope defaulted to 1/d."""
        kp = self.kernel_params
        if kp.kappa is None:
            kp = replace(kp, kappa=1.0 / self.d)
        return kp


_TRAIN_FIELD_TYPES = field_types(TrainConfig)


@dataclass(frozen=True)
class KernelMap:
    """How a kernelized model maps test points: state centers their kernel
    vectors against the training set, and the read-only map takes them to
    the description's space: A_v = Q_v Lambda_v^-1/2 U_v' (d x N) per
    modality of a subspace model, Lambda^-1/2 U' (rank x N) for a baseline."""

    state: KernelState
    map: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "map", frozen_array(self.map))


@dataclass
class SubspaceModel:
    """Trained subspace one-class model.

    A kernelized model holds one KernelMap per modality, composed once from
    the projection and the kernel's eigenpairs (compose_kernel_maps). The
    projections are kept for inspection.

    ortho_errors records the largest row-orthonormality deviation observed
    after each update cycle.
    """

    projections: list[ProjectionMatrix]
    description: DataDescription
    config: TrainConfig
    kernel_maps: Optional[list[KernelMap]] = None
    scaler: Optional[list[tuple[np.ndarray, np.ndarray]]] = None
    ortho_errors: list[float] = field(default_factory=list)
    warning: Optional[str] = None

    @property
    def n_modalities(self) -> int:
        return len(self.projections)


@dataclass(frozen=True)
class PredictionResult:
    """Per-sample fused labels plus per-modality labels and distances."""

    fused: np.ndarray
    per_modality: np.ndarray
    distances: np.ndarray
    radius_sq: float


# ---------------------------------------------------------------------------
# Projection construction and maintenance
# ---------------------------------------------------------------------------

def pca_init(f: ArrayLike, d: int) -> ProjectionMatrix:
    """Top-d principal directions of the columns of f, as projection rows.

    Rows are ordered by descending eigenvalue of the column-centered
    sample covariance; each row's largest-magnitude entry is made positive
    so the result is deterministic.
    """
    x = _values(f)
    big_d, n = x.shape
    if d > min(big_d, n):
        raise ConfigError(
            f"subspace dim {d} exceeds min(feature dim {big_d}, samples {n})"
        )
    centered = x - x.mean(axis=1, keepdims=True)
    denom = max(n - 1, 1)
    cov = (centered @ centered.T) / denom
    w, u = np.linalg.eigh(cov)
    order = np.argsort(w)[::-1][:d]
    rows = u[:, order].T
    return ProjectionMatrix(_fix_row_signs(rows))


def _fix_row_signs(rows: np.ndarray) -> np.ndarray:
    rows = np.array(rows, dtype=np.float64)
    pivots = rows[np.arange(rows.shape[0]), np.argmax(np.abs(rows), axis=1)]
    rows[pivots < 0] *= -1.0
    return rows


def project(q: ProjectionMatrix, f: ArrayLike) -> np.ndarray:
    """Map the columns of f into the subspace: returns d x N."""
    x = _values(f)
    if x.shape[0] != q.input_dim:
        raise ConfigError(
            f"projection expects {q.input_dim} input dims, got {x.shape[0]}"
        )
    return q.q @ x


def orthonormalize(q_raw: np.ndarray) -> ProjectionMatrix:
    """Orthonormalize the rows of q_raw via QR of its transpose.

    Raises when the rows are (numerically) rank deficient. Row signs
    follow the same convention as pca_init for determinism.
    """
    q_raw = np.asarray(q_raw, dtype=np.float64)
    if q_raw.ndim != 2:
        raise ConfigError(f"expected a matrix, got shape {q_raw.shape}")
    if not np.all(np.isfinite(q_raw)):
        raise SolverError("cannot orthonormalize a non-finite matrix")
    q_factor, r_factor = np.linalg.qr(q_raw.T)
    pivots = np.abs(np.diag(r_factor))
    if np.any(pivots < RANK_PIVOT_TOL):
        raise SolverError(
            f"rank-deficient projection update (smallest pivot {pivots.min():.3e})"
        )
    return ProjectionMatrix(_fix_row_signs(q_factor.T))


def update_projection(
    q: ProjectionMatrix, grad: np.ndarray, eta: float, sign: int
) -> ProjectionMatrix:
    """One gradient step on a projection followed by re-orthonormalization.

    sign = -1 descends (subtracts eta * grad), sign = +1 ascends. A zero
    step returns the input unchanged.
    """
    if sign not in (1, -1):
        raise ConfigError(f"sign must be +1 or -1, got {sign}")
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != q.q.shape:
        raise ConfigError(
            f"gradient shape {grad.shape} does not match projection {q.q.shape}"
        )
    if eta == 0.0 or not np.any(grad):
        return q
    return orthonormalize(q.q + (sign * eta) * grad)


def strategy_signs(update_strategy: str, n_modalities: int) -> list[int]:
    """Per-modality gradient step signs for an update strategy."""
    if update_strategy == "SD-":
        return [-1] * n_modalities
    if update_strategy == "SD+":
        return [1] * n_modalities
    if n_modalities != 2:
        raise ConfigError(
            f"{update_strategy} requires exactly 2 modalities, got {n_modalities}"
        )
    return [-1, 1] if update_strategy == "AD-+" else [1, -1]


# ---------------------------------------------------------------------------
# Gradient of the pooled hypersphere objective with regularization
# ---------------------------------------------------------------------------

def _pooled_weights(
    regularizer: str,
    alphas: np.ndarray,
    c_penalty: Optional[float],
) -> Optional[np.ndarray]:
    """Sample weight vector lambda used by the regularizer, or None."""
    if regularizer in _UNPENALIZED_REGULARIZERS:
        return None
    if regularizer in ("w1", "w4", "psi1"):
        return np.ones_like(alphas)
    if regularizer in ("w3", "w6"):
        return alphas.astype(np.float64)
    if regularizer == "psi2" and c_penalty is None:
        raise ConfigError("psi2 needs c_penalty to identify boundary vectors")
    # Without c_penalty only the support mask is read.
    support, boundary = support_masks(alphas, np.inf if c_penalty is None else c_penalty)
    if regularizer in ("w2", "w5"):
        return support.astype(np.float64)
    if regularizer == "psi2":
        return np.where(boundary, alphas, 0.0)
    if regularizer == "psi3":
        return np.where(support, alphas, 0.0)
    raise ConfigError(f"unknown regularizer {regularizer!r}")


def lagrangian_gradient(
    v: int,
    projections: Sequence[ProjectionMatrix],
    data: Sequence[ArrayLike],
    alphas: np.ndarray,
    beta: float,
    regularizer: str,
    modality_index_map: Sequence[tuple[int, int]],
    c_penalty: Optional[float] = None,
) -> np.ndarray:
    """Gradient of the pooled dual objective with respect to Q_v.

    alphas is the pooled dual weight vector from the most recent
    hypersphere solve on the projected, pooled samples; its layout must
    match modality_index_map. With Y_n = Q_n F_n, a_n and lambda_n the
    slices of alphas and of the regularizer's sample weights for modality
    n, and c = sum_n Q_n (F_n a_n) the sphere center, the gradient is
    2 R F_v^T for the d x N matrix

        R = (Y_v - c 1^T) diag(a_v) + beta S_v,

    where S_v is Y_v diag(lambda_v^2) for w1-w3,
    (sum_n Y_n diag(lambda_n)) diag(lambda_v) for w4-w6,
    (Y_v lambda_v) lambda_v^T for psi1-psi3, and 0 for w0 and psi0.
    """
    expected = modality_index_map[-1][1]
    alphas = np.asarray(alphas, dtype=np.float64)
    if alphas.shape != (expected,):
        raise ConfigError(
            f"alphas must have length {expected}, got {alphas.shape}"
        )
    feats = [_values(f) for f in data]
    slices = [slice(lo, hi) for lo, hi in modality_index_map]
    y_v = projections[v].q @ feats[v]
    center = sum(
        q.q @ (f @ alphas[s]) for q, f, s in zip(projections, feats, slices)
    )
    r = (y_v - center[:, None]) * alphas[slices[v]]
    lam = None if beta == 0.0 else _pooled_weights(regularizer, alphas, c_penalty)
    if lam is not None:
        lam_v = lam[slices[v]]
        if regularizer in ("w1", "w2", "w3"):
            s_v = y_v * lam_v**2
        elif regularizer in ("w4", "w5", "w6"):
            s_v = sum(
                (q.q @ f) * lam[s] for q, f, s in zip(projections, feats, slices)
            ) * lam_v
        else:
            s_v = np.outer(y_v @ lam_v, lam_v)
        r = r + beta * s_v
    return 2.0 * r @ feats[v].T


# ---------------------------------------------------------------------------
# Training and prediction
# ---------------------------------------------------------------------------

def validate_train_config(config: TrainConfig, n_modalities: int) -> None:
    """Reject a subspace config that cannot be fit on n_modalities modalities.

    The update strategy's modality count is checked by strategy_signs.
    """
    if config.model_kind != "subspace":
        raise ConfigError(
            f"train() handles subspace models only, got {config.model_kind!r}"
        )
    if config.decision_strategy == "ds4" and n_modalities < 2:
        raise ConfigError("ds4 needs a second modality")
    if n_modalities == 1 and config.regularizer in MULTI_REGULARIZERS[1:]:
        raise ConfigError(
            f"regularizer {config.regularizer} is for multi-modal models; "
            "use psi0..psi3 with one modality"
        )
    if n_modalities > 1 and config.regularizer in UNI_REGULARIZERS:
        raise ConfigError(
            f"regularizer {config.regularizer} is for uni-modal models; "
            "use w0..w6 with several modalities"
        )


def training_key(config: TrainConfig) -> TrainConfig:
    """config with the fields that fitting never reads set to fixed values.

    Configs with equal keys fit identical models on the same data: the
    decision strategy only fuses per-modality labels at prediction, and
    beta weighs a penalty that w0 and psi0 do not have.
    """
    key = replace(config, decision_strategy=DECISION_STRATEGIES[0])
    if key.regularizer in _UNPENALIZED_REGULARIZERS:
        key = replace(key, beta=0.0)
    return key


class FoldMemo:
    """Stage outputs shared by the fits and predictions on one train/test split.

    train() keeps its embedding and its cold first solve here under each
    stage's key (see _stage_keys), and predict() the centered test kernel
    of each kernel state, keyed by the state itself (a KernelState hashes
    by identity). These are the stages whose sharing pays across a grid's
    cells; each fit cuts its start from the embedding (_start). A stage
    that raises keeps nothing, so every caller computes it and raises the
    same error. Every kept output is immutable. A memo serves the one
    training set and the one test set it was made for, compared by
    identity, so no key names the data; it lives as long as its owner
    keeps it, one fold of a cross-validation.
    """

    def __init__(
        self, train_data: MultiModalDataset, test_data: MultiModalDataset
    ) -> None:
        self.train_data = train_data
        self.test_data = test_data
        self._outputs: dict[Hashable, Any] = {}

    def get(self, key: Hashable, compute: Callable[[], Any]) -> Any:
        """compute()'s result under key; compute runs on each call until one
        returns."""
        if key not in self._outputs:
            self._outputs[key] = compute()
        return self._outputs[key]


def _stage(memo: Optional[FoldMemo], key: Hashable, compute: Callable[[], Any]) -> Any:
    return compute() if memo is None else memo.get(key, compute)


def _stage_keys(config: TrainConfig) -> tuple[tuple, tuple]:
    """Keys of train()'s embedding and cold first solve.

    Each key holds the config fields its stage reads, and the fields of the
    stage before it: the embedding reads the resolved kernel params when
    kernelized (a linear one, with all its principal directions, reads no
    field), and the first solve adds d, which sets its start projections
    (_start), C and kkt_tol. The update strategy, eta, beta and
    the regularizer enter only after the first solve; the iterations after
    it read the whole training_key.
    """
    embed = ("embed", config.resolved_kernel_params() if config.kernelized else None)
    first_solve = ("first_solve",) + embed[1:] + (
        config.d, config.c_penalty, config.kkt_tol
    )
    return embed, first_solve


@dataclass(frozen=True)
class _Embedding:
    """Per-modality training inputs: the target samples, embedded when
    kernelized, with the kernel states that embedded them. A linear
    embedding also holds each input's min(D, N) principal directions, of
    which every start takes the first d."""

    inputs: tuple[np.ndarray, ...]
    npt_states: Optional[tuple[NptState, ...]]
    principal: Optional[tuple[ProjectionMatrix, ...]] = None


def _embed(data: MultiModalDataset, config: TrainConfig) -> _Embedding:
    train_data = data.target_subset()
    if not config.kernelized:
        inputs = tuple(mod.values for mod in train_data.modalities)
        return _Embedding(inputs, None, tuple(pca_init(x, min(x.shape)) for x in inputs))
    kp = config.resolved_kernel_params()
    states = tuple(npt_fit(mod, kp) for mod in train_data.modalities)
    return _Embedding(tuple(s.embedded for s in states), states)


def _start(embedding: _Embedding, d: int) -> tuple[ProjectionMatrix, ...]:
    """The start projections: the top-d principal directions of each input.

    pca_init orders its rows by eigenvalue, so the first d of a linear
    embedding's principal rows are pca_init(x, d). An NPT embedding is
    already in those coordinates: its rows are sqrt(lambda_i) u_i' for the
    centered kernel's eigenpairs, in descending order of lambda_i, and
    every u_i of a positive lambda_i is orthogonal to the ones vector. So
    its rows have zero mean, its covariance is diag(lambda) / (N - 1), and
    pca_init would return the first d identity rows, up to rounding.
    """
    starts = []
    for v, x in enumerate(embedding.inputs):
        kernelized = embedding.principal is None
        if d > min(x.shape):
            raise ConfigError(
                f"subspace dim {d} too large for modality {v} ({x.shape[0]} "
                f"{'embedded ' if kernelized else ''}dims, {x.shape[1]} samples)"
            )
        starts.append(ProjectionMatrix(
            np.eye(d, x.shape[0]) if kernelized else embedding.principal[v].q[:d].copy()
        ))
    return tuple(starts)


def train(
    data: MultiModalDataset,
    config: TrainConfig,
    *,
    memo: Optional[FoldMemo] = None,
) -> SubspaceModel:
    """Fit a subspace one-class model on the target-class samples of data.

    When labels are present only target samples are used; unlabelled data
    is assumed to be all-target. A linear fit starts from each modality's
    top-d PCA directions. The kernelized variant first embeds every
    modality through its fitted kernel feature map, whose coordinates are
    already principal directions, and starts from their first d. After a
    cold solve at the start, each of max_iter iterations steps every
    modality's projection in turn and solves again, warm-started from the
    previous description's alphas. A failing solve or step ends the loop
    and keeps the last projections and description that were solved
    together, with the reason in the model's warning; a fit whose first
    solve fails raises, and so does a d above a modality's feature count,
    sample count or kernel embedding rank, before any solve. memo, made for
    data, shares the embedding (a linear fit's PCA included) and first
    solve with the other fits on data that use the same memo; the model is
    the same with or without it.
    """
    validate_train_config(config, data.n_modalities)
    signs = strategy_signs(config.update_strategy, data.n_modalities)
    if memo is not None and data is not memo.train_data:
        raise ConfigError("memo was made for another training set")
    embed_key, first_solve_key = _stage_keys(config)
    embedding = _stage(memo, embed_key, lambda: _embed(data, config))
    inputs = embedding.inputs
    n = inputs[0].shape[1]
    index_map = [(v * n, (v + 1) * n) for v in range(len(inputs))]

    def solve(
        projs: Sequence[ProjectionMatrix], alpha0: Optional[np.ndarray]
    ) -> DataDescription:
        pooled = np.hstack([p.q @ x for p, x in zip(projs, inputs)])
        return svdd_solve(pooled, config.c_penalty, config.kkt_tol, alpha0=alpha0)

    def step(
        projs: Sequence[ProjectionMatrix], alphas: np.ndarray
    ) -> list[ProjectionMatrix]:
        # Modality v's gradient reads the already stepped Q_n for n < v.
        stepped = list(projs)
        for v, sign in enumerate(signs):
            grad = lagrangian_gradient(
                v,
                stepped,
                inputs,
                alphas,
                config.beta,
                config.regularizer,
                index_map,
                config.c_penalty,
            )
            stepped[v] = update_projection(stepped[v], grad, config.eta, sign)
        return stepped

    ortho_errors: list[float] = []
    warning: Optional[str] = None
    last_valid: Optional[tuple[Sequence[ProjectionMatrix], DataDescription]] = None
    final = False
    projections = _start(embedding, config.d)
    try:
        desc = _stage(memo, first_solve_key, lambda: solve(projections, None))
        last_valid = (projections, desc)
        for it in range(config.max_iter):
            projections = step(projections, desc.alphas)
            ortho_errors.append(max(p.ortho_error() for p in projections))
            final = it == config.max_iter - 1
            # The pooled columns stay the same and the projections move only
            # a little per iteration, so the last alphas are a close start.
            desc = solve(projections, desc.alphas)
            last_valid = (projections, desc)
    except SolverError as exc:
        warning = (
            "final solve failed, keeping last iterate" if final else "stopped early"
        ) + f": {exc}"
        if last_valid is None:
            raise SolverError(f"training never reached a valid state: {warning}") from exc
    projections, description = last_valid

    return SubspaceModel(
        projections=list(projections),
        description=description,
        config=config,
        ortho_errors=ortho_errors,
        warning=warning,
        kernel_maps=compose_kernel_maps(projections, embedding.npt_states),
    )


def compose_kernel_maps(
    projections: Optional[Sequence[ProjectionMatrix]],
    npt_states: Optional[Sequence[NptState]],
) -> Optional[list[KernelMap]]:
    """A model's kernel maps for its projections (None for a baseline) and
    the fitted kernel states (None for a linear model).

    A_v = (Q_v Lambda_v^-1/2) U_v' applied to the centered test kernel
    equals Q_v applied to the test embedding, npt_embed_test of the
    NptState, up to rounding, without the rank x M intermediate; a
    baseline's Lambda^-1/2 U' gives the embedding itself. Training and the
    loading of files that store eigenpairs compose through this one
    function, so their maps agree bit for bit. Every map holds its
    NptState's kernel state, so the models composed from one NptState
    share it.
    """
    if npt_states is None:
        return None
    maps = []
    for s, p in zip(npt_states, projections or [None] * len(npt_states)):
        inv_sqrt = 1.0 / np.sqrt(s.eigvals)
        a = inv_sqrt[:, None] * s.eigvecs.T if p is None else (p.q * inv_sqrt) @ s.eigvecs.T
        a.setflags(write=False)
        maps.append(KernelMap(s.kernel, a))
    return maps


def fuse_labels(per_modality: np.ndarray, decision_strategy: str) -> np.ndarray:
    """Combine per-modality 0/1 labels (V x N) into fused labels.

    ds1 requires every modality to accept (AND); ds2 any (OR); ds3 and ds4
    defer to the first and second modality respectively.
    """
    labels = np.asarray(per_modality, dtype=np.int64)
    if labels.ndim != 2:
        raise ConfigError(f"per-modality labels must be V x N, got {labels.shape}")
    if decision_strategy == "ds1":
        return labels.min(axis=0)
    if decision_strategy == "ds2":
        return labels.max(axis=0)
    if decision_strategy == "ds3":
        return labels[0].copy()
    if decision_strategy == "ds4":
        if labels.shape[0] < 2:
            raise ConfigError("ds4 needs a second modality")
        return labels[1].copy()
    raise ConfigError(f"unknown decision strategy {decision_strategy!r}")


def model_input(model: Any, data: MultiModalDataset) -> MultiModalDataset:
    """data as a subspace or baseline model reads it, z-scored by the model's
    scaler (apply_scaler); every model's predict checks its data here first."""
    if data.n_modalities != model.n_modalities:
        raise ConfigError(
            f"model has {model.n_modalities} modalities, data has {data.n_modalities}"
        )
    return apply_scaler(data, model.scaler)


def predict(
    model: SubspaceModel,
    data: MultiModalDataset,
    *,
    memo: Optional[FoldMemo] = None,
) -> PredictionResult:
    """Classify every sample of data with a subspace model, after model_input.

    A kernelized model maps each modality's centered test kernel through
    its composed map. memo, made for data as its test set, shares the
    centered test kernel of each kernel state with the other models that
    hold that state.
    """
    data = model_input(model, data)
    if memo is not None and data is not memo.test_data:
        raise ConfigError("memo was made for another test set")
    n = data.n_samples
    v_count = model.n_modalities
    per_modality = np.zeros((v_count, n), dtype=np.int64)
    distances = np.zeros((v_count, n))
    for v in range(v_count):
        feats = data.modalities[v]
        if model.kernel_maps is not None:
            state = model.kernel_maps[v].state
            # The N x M test kernel is not bound to a name, so without a
            # memo it is freed here, before the next modality's is built.
            y = model.kernel_maps[v].map @ _stage(
                memo, state, lambda: npt_embed_test(state, feats)
            )
        else:
            y = project(model.projections[v], feats)
        distances[v], per_modality[v] = svdd_score(model.description, y)
    return PredictionResult(
        fused=fuse_labels(per_modality, model.config.decision_strategy),
        per_modality=per_modality,
        distances=distances,
        radius_sq=model.description.radius_sq,
    )
