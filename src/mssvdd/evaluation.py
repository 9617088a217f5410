"""Metrics, cross-validation, and grid search for one-class models.

The evaluation protocol is stratified k-fold cross-validation: models are
fit on the target-class samples of each training split and scored on all
test samples. Hyperparameters are chosen by exhaustive search maximizing
the mean geometric mean over an inner stratified CV; the default protocol
nests that search inside each outer fold so model selection never sees
outer test data. A non-nested "global" mode (select once on the full
dataset, then cross-validate the winner) is available behind a flag.

Every protocol scores its outer folds with one task, _outer_fold: a
fixed-config run, each global fold and each nested fold (after its inner
search) fit their config on the fold's training split and score it on
the fold's test split. nested_cv runs the outer folds of either selection
mode in parallel when given workers > 1; run_cv runs them in order.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

from .baselines import BaselineModel, fit_baseline, predict_baseline
from .datamodel import (
    FoldPlan,
    MultiModalDataset,
    apply_scaler,
    fit_scaler,
    stratified_folds,
)
from .errors import (
    ConfigError, DataError, SolverError, ToolkitError, coerce_fields, field_types, typed
)
from .subspace import (
    DECISION_STRATEGIES,
    MULTI_REGULARIZERS,
    UNI_REGULARIZERS,
    UPDATE_STRATEGIES,
    FoldMemo,
    PredictionResult,
    SubspaceModel,
    TrainConfig,
    fuse_labels,
    predict as subspace_predict,
    train as subspace_train,
    training_key,
    validate_train_config,
)

Model = Union[SubspaceModel, BaselineModel]

# Hyperparameter grids used for the reference experimental protocol.
DEFAULT_SIGMA_GRID = (1e-2, 1e-1, 1.0, 10.0, 1e2, 1e3)
DEFAULT_ETA_GRID = (1e-4, 1e-3, 1e-2, 1e-1, 1.0)
DEFAULT_BETA_GRID = (1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 1e2, 1e3, 1e4)
DEFAULT_C_GRID = (0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
DEFAULT_D_GRID = (1, 2, 3, 4, 5)


@dataclass(frozen=True)
class ConfusionMatrix:
    """Counts with the target class as positive."""

    tp: int
    fn: int
    fp: int
    tn: int

    def __post_init__(self):
        coerce_fields(self, _COUNT_TYPES, DataError)
        for name in _COUNT_TYPES:
            v = getattr(self, name)
            if v < 0:
                raise DataError(f"{name} must be a non-negative integer, got {v}")

    @property
    def total(self) -> int:
        return self.tp + self.fn + self.fp + self.tn

    def __add__(self, other: "ConfusionMatrix") -> "ConfusionMatrix":
        return ConfusionMatrix(
            self.tp + other.tp,
            self.fn + other.fn,
            self.fp + other.fp,
            self.tn + other.tn,
        )


# Each count of a ConfusionMatrix and the type it takes.
_COUNT_TYPES = field_types(ConfusionMatrix)


@dataclass(frozen=True)
class MetricSet:
    """Sensitivity, specificity, precision, F1, accuracy, geometric mean."""

    sen: float
    spe: float
    pre: float
    f1: float
    acc: float
    gm: float

    def as_dict(self) -> dict[str, float]:
        return {
            "sen": self.sen,
            "spe": self.spe,
            "pre": self.pre,
            "f1": self.f1,
            "acc": self.acc,
            "gm": self.gm,
        }


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def compute_metrics(cm: ConfusionMatrix) -> MetricSet:
    """The six standard metrics; 0/0 denominators yield 0."""
    if cm.total == 0:
        raise DataError("cannot compute metrics of an empty confusion matrix")
    sen = _ratio(cm.tp, cm.tp + cm.fn)
    spe = _ratio(cm.tn, cm.tn + cm.fp)
    pre = _ratio(cm.tp, cm.tp + cm.fp)
    f1 = _ratio(2.0 * pre * sen, pre + sen)
    acc = (cm.tp + cm.tn) / cm.total
    gm = math.sqrt(sen * spe)
    return MetricSet(sen=sen, spe=spe, pre=pre, f1=f1, acc=acc, gm=gm)


def mean_metrics(metric_sets: Sequence[MetricSet]) -> MetricSet:
    """Arithmetic mean of each metric across folds."""
    if not metric_sets:
        raise DataError("no metric sets to average")
    return MetricSet(
        sen=float(np.mean([m.sen for m in metric_sets])),
        spe=float(np.mean([m.spe for m in metric_sets])),
        pre=float(np.mean([m.pre for m in metric_sets])),
        f1=float(np.mean([m.f1 for m in metric_sets])),
        acc=float(np.mean([m.acc for m in metric_sets])),
        gm=float(np.mean([m.gm for m in metric_sets])),
    )


def confusion_from_labels(y_true: np.ndarray, y_pred: np.ndarray) -> ConfusionMatrix:
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    if y_true.shape != y_pred.shape:
        raise DataError("label vectors must have the same length")
    return ConfusionMatrix(
        tp=int(np.sum((y_true == 1) & (y_pred == 1))),
        fn=int(np.sum((y_true == 1) & (y_pred == 0))),
        fp=int(np.sum((y_true == 0) & (y_pred == 1))),
        tn=int(np.sum((y_true == 0) & (y_pred == 0))),
    )


# ---------------------------------------------------------------------------
# Model fitting with optional feature normalization
# ---------------------------------------------------------------------------

def fit_model(
    data: MultiModalDataset,
    config: TrainConfig,
    normalize: bool = False,
    *,
    memo: Optional[FoldMemo] = None,
) -> Model:
    """Fit whichever model kind the config names, with optional z-scoring.

    The scaler, when enabled, is fit on the target-class training samples
    and stored on the model, whose predict applies it (model_input). memo,
    made for data, shares training stages between subspace fits (see
    subspace.train); it cannot be combined with normalize.
    """
    scaler = fit_scaler(data) if normalize else None
    data = apply_scaler(data, scaler)
    if config.model_kind == "subspace":
        model: Model = subspace_train(data, config, memo=memo)
    else:
        model = fit_baseline(data, config)
    model.scaler = scaler
    return model


def predict_model(
    model: Model, data: MultiModalDataset, *, memo: Optional[FoldMemo] = None
) -> PredictionResult:
    """Predict data with a fitted model; memo as in subspace.predict."""
    if isinstance(model, SubspaceModel):
        return subspace_predict(model, data, memo=memo)
    return predict_baseline(model, data)


def _max_known(values: Iterable[Optional[float]]) -> Optional[float]:
    """The largest of values that is not None; None when there is none."""
    return max((v for v in values if v is not None), default=None)


def _model_max_ortho(model: Model) -> Optional[float]:
    return _max_known(model.ortho_errors) if isinstance(model, SubspaceModel) else None


# ---------------------------------------------------------------------------
# Cross-validation
# ---------------------------------------------------------------------------

@dataclass
class EvalReport:
    """Per-fold and aggregate evaluation of one configuration.

    Stores the fold confusion matrices and plan; every metric derives from
    them. mean_metrics averages the per-fold metrics (the headline
    convention); pooled_metrics recomputes them from the pooled confusion
    matrix. The two need not agree and both are reported.
    """

    config: TrainConfig
    fold_confusions: list[ConfusionMatrix]
    fold_plan: FoldPlan
    normalize: bool = False
    max_ortho_error: Optional[float] = None
    fold_configs: Optional[list[TrainConfig]] = None
    selection: Optional[str] = None

    @property
    def k(self) -> int:
        return self.fold_plan.k

    @property
    def seed(self) -> int:
        return self.fold_plan.seed

    @property
    def fold_metrics(self) -> list[MetricSet]:
        return [compute_metrics(cm) for cm in self.fold_confusions]

    @property
    def mean_metrics(self) -> MetricSet:
        return mean_metrics(self.fold_metrics)

    @property
    def pooled_confusion(self) -> ConfusionMatrix:
        return sum(self.fold_confusions[1:], self.fold_confusions[0])

    @property
    def pooled_metrics(self) -> MetricSet:
        return compute_metrics(self.pooled_confusion)


def _cv_plan(data: MultiModalDataset, k: int, seed: int) -> FoldPlan:
    if data.labels is None:
        raise DataError("cross-validation requires labels")
    if not (np.any(data.labels == 1) and np.any(data.labels == 0)):
        raise DataError("cross-validation requires both classes to be present")
    return stratified_folds(data.labels, k, seed)


def _fused_labels(
    result: PredictionResult, fitted: TrainConfig, config: TrainConfig
) -> np.ndarray:
    """result's fused labels under config's decision strategy.

    result.fused already holds the fitted config's fusion. Baselines
    predict a single label row, and their grid cells all share the fitted
    decision strategy, so they never fuse again.
    """
    if config.decision_strategy == fitted.decision_strategy:
        return result.fused
    return fuse_labels(result.per_modality, config.decision_strategy)


def _pmap(fn: Callable, tasks: list, workers: int) -> list:
    if workers <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks))


def _fold_outcomes(
    args: tuple[MultiModalDataset, FoldPlan, int, list[list[TrainConfig]], bool]
) -> list[Union[tuple[list[ConfusionMatrix], Optional[float]], ToolkitError]]:
    """Each group's confusion matrices and max ortho error on one fold.

    The fold subsets the data, and z-scores it when normalize is set, once
    for every group. Each group fits its configs[0] once and predicts once,
    and every config fuses that one prediction with its own decision
    strategy. All fits share one FoldMemo, so a stage that several groups
    need (embedding, cold first solve, test kernel) runs once per fold if
    it succeeds; a failing one fails again, with the same error, in each
    group that needs it. A group whose fit or prediction fails gets the
    error.
    """
    data, plan, fold, groups, normalize = args
    train_set = data.subset(plan.train_indices(fold))
    test_set = data.subset(plan.test_indices(fold))
    scaler = fit_scaler(train_set) if normalize else None
    train_set, test_set = apply_scaler(train_set, scaler), apply_scaler(test_set, scaler)
    memo = FoldMemo(train_set, test_set)
    outcomes: list = []
    for configs in groups:
        try:
            model = fit_model(train_set, configs[0], memo=memo)
            result = predict_model(model, test_set, memo=memo)
        except ToolkitError as exc:
            outcomes.append(exc)
            continue
        confusions = [
            confusion_from_labels(
                test_set.labels, _fused_labels(result, configs[0], config)
            )
            for config in configs
        ]
        outcomes.append((confusions, _model_max_ortho(model)))
    return outcomes


def _outer_fold(
    args: tuple[MultiModalDataset, FoldPlan, int, TrainConfig, Optional[tuple[GridSpec, int]], bool]
) -> tuple[TrainConfig, ConfusionMatrix, Optional[float]]:
    """One outer fold: its config, that config's confusion matrix on the
    fold's test split and the max ortho error of every fit made.

    The fold fits config, or, given search = (grid, inner_k), the winner of
    a grid search from config on the fold's training split, whose inner
    folds use the outer plan's seed.
    """
    data, plan, fold, config, search, normalize = args
    orthos = []
    if search is not None:
        grid, inner_k = search
        result = grid_search(
            data.subset(plan.train_indices(fold)), grid, config,
            inner_k=inner_k, seed=plan.seed, normalize=normalize,
        )
        config, orthos = result.best_config, [c.max_ortho_error for c in result.cells]
    (outcome,) = _fold_outcomes((data, plan, fold, [[config]], normalize))
    if isinstance(outcome, ToolkitError):
        raise outcome
    (cm,), fit_ortho = outcome
    return config, cm, _max_known([*orthos, fit_ortho])


def _outer_cv(
    data: MultiModalDataset,
    plan: FoldPlan,
    config: TrainConfig,
    normalize: bool,
    search: Optional[tuple[GridSpec, int]] = None,
    workers: int = 1,
    selection: Optional[str] = None,
    search_orthos: Sequence[Optional[float]] = (),
) -> EvalReport:
    """The report of config under selection, every fold of plan scored by
    _outer_fold, which searches from config when search is given; workers
    > 1 runs the folds in parallel processes.

    A fixed config (selection None) records no fold configs. search_orthos
    are the max ortho errors of a search made before the folds, which the
    report's max counts too.
    """
    tasks = [(data, plan, fold, config, search, normalize) for fold in range(plan.k)]
    folds = _pmap(_outer_fold, tasks, workers)
    return EvalReport(
        config=config,
        fold_confusions=[cm for _, cm, _ in folds],
        fold_plan=plan,
        normalize=normalize,
        max_ortho_error=_max_known([*search_orthos, *(o for _, _, o in folds)]),
        fold_configs=None if selection is None else [c for c, _, _ in folds],
        selection=selection,
    )


def run_cv(
    data: MultiModalDataset,
    config: TrainConfig,
    k: int = 5,
    seed: int = 0,
    normalize: bool = False,
) -> EvalReport:
    """Stratified k-fold evaluation of a fixed configuration.

    Each fold trains on the target-class samples of its training split and
    predicts every test sample, both classes included.
    """
    return _outer_cv(data, _cv_plan(data, k, seed), config, normalize)


# ---------------------------------------------------------------------------
# Grid search
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridSpec:
    """Hyperparameter value lists and strategy sets to search over."""

    sigma_grid: tuple[float, ...] = DEFAULT_SIGMA_GRID
    eta_grid: tuple[float, ...] = DEFAULT_ETA_GRID
    beta_grid: tuple[float, ...] = DEFAULT_BETA_GRID
    c_grid: tuple[float, ...] = DEFAULT_C_GRID
    d_grid: tuple[int, ...] = DEFAULT_D_GRID
    update_strategies: tuple[str, ...] = UPDATE_STRATEGIES
    regularizers: tuple[str, ...] = MULTI_REGULARIZERS
    decision_strategies: tuple[str, ...] = DECISION_STRATEGIES

    def __post_init__(self):
        for name, types in _GRID_VALUE_TYPES.items():
            values = getattr(self, name)
            values = tuple(typed(name, v, types, ConfigError) for v in values)
            if not values:
                raise ConfigError(f"grid axis {name} must be non-empty")
            object.__setattr__(self, name, values)


# Each grid axis and the type its values take: X of tuple[X, ...].
_GRID_VALUE_TYPES = {name: types[:1] for name, types in field_types(GridSpec).items()}


def default_grid(n_modalities: int, kernelized: bool) -> GridSpec:
    """Reference grids adapted to the modality count.

    A baseline search reads only the C and sigma axes: expand_grid pins
    the rest to its base config.
    """
    return GridSpec(
        sigma_grid=DEFAULT_SIGMA_GRID if kernelized else (1.0,),
        update_strategies=UPDATE_STRATEGIES if n_modalities == 2 else ("SD-", "SD+"),
        regularizers=MULTI_REGULARIZERS if n_modalities >= 2 else UNI_REGULARIZERS,
        decision_strategies=(
            DECISION_STRATEGIES if n_modalities >= 2 else ("ds1",)
        ),
    )


@dataclass(frozen=True)
class GridCell:
    """One scored grid configuration."""

    index: int
    config: TrainConfig
    status: str
    message: str
    mean_gm: float
    fold_gms: tuple[float, ...]
    max_ortho_error: Optional[float]


@dataclass
class GridSearchResult:
    best_config: TrainConfig
    best_index: int
    cells: list[GridCell]
    inner_k: int
    seed: int


def _grid_axes(grid: GridSpec, base: TrainConfig) -> tuple[tuple, ...]:
    """The value lists expand_grid takes the product of, outermost first."""
    subspace = base.model_kind == "subspace"

    def axis(values: tuple, fixed: object) -> tuple:
        return values if subspace else (fixed,)

    searched_sigma = base.kernelized and base.kernel_params.kind != "linear"
    return (
        axis(grid.d_grid, base.d),
        grid.c_grid,
        axis(grid.eta_grid, base.eta),
        axis(grid.beta_grid, base.beta),
        grid.sigma_grid if searched_sigma else (base.kernel_params.sigma,),
        axis(grid.update_strategies, base.update_strategy),
        axis(grid.regularizers, base.regularizer),
        axis(grid.decision_strategies, base.decision_strategy),
    )


def expand_grid(grid: GridSpec, base: TrainConfig) -> list[TrainConfig]:
    """Materialize grid cells in a fixed, documented order.

    Axis nesting (outermost first): d, C, eta, beta, sigma, update
    strategy, regularizer, decision strategy. Axes that cannot influence
    the base model family (sigma for linear kernels; subspace axes for
    baselines) are collapsed to a single placeholder value. The sigmoid
    slope kappa is derived as 1/d per cell, never searched.
    """
    subspace = base.model_kind == "subspace"
    configs = []
    for d, c, eta, beta, sigma, upd, reg, ds in itertools.product(
        *_grid_axes(grid, base)
    ):
        kappa = 1.0 / d if subspace else base.kernel_params.kappa
        kp = replace(base.kernel_params, sigma=sigma, kappa=kappa)
        configs.append(replace(
            base, d=d, c_penalty=c, eta=eta, beta=beta, update_strategy=upd,
            regularizer=reg, decision_strategy=ds, kernel_params=kp, nu=_nu_from_c(c),
        ))
    return configs


def grid_size(grid: GridSpec, base: TrainConfig) -> tuple[int, int]:
    """(cells, distinct fits) of expand_grid(grid, base), without expanding it.

    A grid search fits each distinct training_key once per fold. The key
    merges cells along the beta, regularizer and decision strategy axes
    only, so the distinct fits are the other axes' product times the keys
    of those three axes' combinations.
    """
    d, c, eta, beta, sigma, upd, reg, ds = _grid_axes(grid, base)
    rest = math.prod(len(a) for a in (d, c, eta, sigma, upd))
    keys = {
        training_key(replace(base, beta=b, regularizer=r, decision_strategy=s))
        for b, r, s in itertools.product(beta, reg, ds)
    }
    return rest * len(beta) * len(reg) * len(ds), rest * len(keys)


def _nu_from_c(c: float) -> float:
    """Reuse the C axis as the hyperplane baseline's nu, clipped to (0, 1]."""
    return min(max(c, 1e-4), 1.0)


def grid_search(
    data: MultiModalDataset,
    grid: GridSpec,
    base: TrainConfig,
    inner_k: int = 10,
    seed: int = 0,
    normalize: bool = False,
    workers: int = 1,
) -> GridSearchResult:
    """Exhaustive search maximizing mean inner-CV geometric mean.

    Every cell is scored with the same stratified inner folds. Cells with
    the same training_key share one fit and one prediction per fold. Each
    fold subsets and z-scores the data once, and within a fold the fits
    share what their configs agree on: one kernel embedding and one test
    embedding per kernel (sigma, d), one start per d and one cold first
    solve per (d, C). workers > 1 runs the folds in parallel processes.
    Ties are broken by smaller d, then smaller C, then smaller eta, then
    cell order, so the result is deterministic.
    """
    configs = expand_grid(grid, base)
    # Each cell's fold gms and max ortho error, or the error it failed with.
    outcomes: list = [None] * len(configs)
    try:
        plan = _cv_plan(data, inner_k, seed)
    except DataError as exc:
        outcomes = [exc] * len(configs)
    else:
        groups: dict[TrainConfig, list[int]] = {}
        for i, config in enumerate(configs):
            try:
                if config.model_kind == "subspace":
                    validate_train_config(config, data.n_modalities)
            except ConfigError as exc:
                outcomes[i] = exc
                continue
            groups.setdefault(training_key(config), []).append(i)
        group_configs = [[configs[i] for i in members] for members in groups.values()]
        tasks = [(data, plan, fold, group_configs, normalize) for fold in range(plan.k)]
        by_fold = _pmap(_fold_outcomes, tasks, workers)
        for members, folds in zip(groups.values(), zip(*by_fold)):
            failed = [f for f in folds if isinstance(f, ToolkitError)]
            for j, i in enumerate(members):
                outcomes[i] = failed[0] if failed else (
                    tuple(compute_metrics(f[0][j]).gm for f in folds),
                    _max_known(f[1] for f in folds),
                )
    cells = [
        GridCell(i, config, "failed", str(o), float("-inf"), (), None)
        if isinstance(o, ToolkitError)
        else GridCell(i, config, "ok", "", float(np.mean(o[0])), *o)
        for i, (config, o) in enumerate(zip(configs, outcomes))
    ]
    ok = [c for c in cells if c.status == "ok"]
    if not ok:
        details = "; ".join(
            f"cell {c.index} ({_cell_label(c.config)}): {c.message}" for c in cells[:20]
        )
        raise SolverError(f"every grid cell failed: {details}")
    best = min(
        ok,
        key=lambda c: (
            -c.mean_gm,
            c.config.d,
            c.config.c_penalty,
            c.config.eta,
            c.index,
        ),
    )
    return GridSearchResult(
        best_config=best.config,
        best_index=best.index,
        cells=cells,
        inner_k=inner_k,
        seed=seed,
    )


def _cell_label(config: TrainConfig) -> str:
    return (
        f"d={config.d} C={config.c_penalty} eta={config.eta} beta={config.beta} "
        f"sigma={config.kernel_params.sigma} {config.update_strategy} "
        f"{config.regularizer} {config.decision_strategy}"
    )


# ---------------------------------------------------------------------------
# Nested protocol
# ---------------------------------------------------------------------------

def nested_cv(
    data: MultiModalDataset,
    grid: GridSpec,
    base: TrainConfig,
    outer_k: int = 5,
    inner_k: int = 10,
    seed: int = 0,
    normalize: bool = False,
    selection: str = "nested",
    workers: int = 1,
) -> EvalReport:
    """Full evaluation protocol: outer CV with per-fold or global selection.

    selection="nested" re-runs the grid search inside every outer training
    split; selection="global" selects once on the whole dataset and then
    cross-validates the winning configuration.
    """
    if selection not in ("nested", "global"):
        raise ConfigError(f"selection must be 'nested' or 'global', got {selection!r}")
    plan = _cv_plan(data, outer_k, seed)
    if selection == "nested":
        return _outer_cv(data, plan, base, normalize, (grid, inner_k), workers, selection)
    search = grid_search(
        data, grid, base, inner_k=inner_k, seed=seed, normalize=normalize, workers=workers,
    )
    return _outer_cv(
        data, plan, search.best_config, normalize, workers=workers, selection=selection,
        search_orthos=[c.max_ortho_error for c in search.cells],
    )


# ---------------------------------------------------------------------------
# Report rendering
# ---------------------------------------------------------------------------

_STRATEGY_SYMBOLS = {"SD-": "--", "SD+": "++", "AD-+": "-+", "AD+-": "+-"}


def report_to_csv(report: EvalReport) -> str:
    """One row per fold plus mean and pooled rows; 6-decimal fixed floats."""
    lines = ["row,fold,tp,fn,fp,tn,sen,spe,pre,f1,acc,gm"]

    def metric_cells(m: MetricSet) -> str:
        return ",".join(
            f"{x:.6f}" for x in (m.sen, m.spe, m.pre, m.f1, m.acc, m.gm)
        )

    for fold, (cm, m) in enumerate(zip(report.fold_confusions, report.fold_metrics)):
        lines.append(
            f"fold,{fold},{cm.tp},{cm.fn},{cm.fp},{cm.tn},{metric_cells(m)}"
        )
    mm = report.mean_metrics
    lines.append(f"mean,,,,,,{metric_cells(mm)}")
    pc = report.pooled_confusion
    lines.append(
        f"pooled,,{pc.tp},{pc.fn},{pc.fp},{pc.tn},{metric_cells(report.pooled_metrics)}"
    )
    return "\n".join(lines) + "\n"


def report_to_text(report: EvalReport) -> str:
    """Human-readable table with the conventional column layout.

    The row is labelled by the configs the folds used: a searched field
    shows its value when every fold chose the same one, "*" otherwise.
    """
    cfg = report.config

    def chosen(field: str) -> str:
        values = {getattr(c, field) for c in report.fold_configs or [cfg]}
        return values.pop() if len(values) == 1 else "*"

    if cfg.model_kind == "subspace":
        os_sym = _STRATEGY_SYMBOLS.get(chosen("update_strategy"), "*")
        reg = chosen("regularizer")
        name = f"subspace[{chosen('decision_strategy')}]"
        if cfg.kernelized:
            name += f"+{cfg.kernel_params.kind}"
    else:
        os_sym, reg = "NA", "NA"
        name = cfg.model_kind + ("+npt" if cfg.kernelized else "")
    header = (
        f"{'model':<24}{'OS':>4}{'r':>6}{'Sen':>8}{'Spe':>8}{'Pre':>8}"
        f"{'F1':>8}{'Acc':>8}{'GM':>8}"
    )
    m = report.mean_metrics
    row = (
        f"{name:<24}{os_sym:>4}{reg:>6}"
        + "".join(f"{100 * x:>8.2f}" for x in (m.sen, m.spe, m.pre, m.f1, m.acc, m.gm))
    )
    p = report.pooled_metrics
    pooled_row = (
        f"{'(pooled)':<24}{'':>4}{'':>6}"
        + "".join(f"{100 * x:>8.2f}" for x in (p.sen, p.spe, p.pre, p.f1, p.acc, p.gm))
    )
    pc = report.pooled_confusion
    lines = [
        header,
        row,
        pooled_row,
        "",
        f"pooled confusion (target positive): tp={pc.tp} fn={pc.fn} "
        f"fp={pc.fp} tn={pc.tn} total={pc.total}",
        f"folds={report.k} seed={report.seed} "
        f"selection={report.selection or 'fixed-config'}",
    ]
    if report.max_ortho_error is not None:
        lines.append(f"max projection orthonormality error: {report.max_ortho_error:.3e}")
    return "\n".join(lines) + "\n"


def grid_table_to_csv(result: GridSearchResult) -> str:
    """Score table: one row per cell per inner fold plus a mean row per cell."""
    lines = [
        "cell,fold,d,c,eta,beta,sigma,update,regularizer,decision,status,gm"
    ]
    for cell in result.cells:
        cfg = cell.config
        prefix = (
            f"{cell.index},{{fold}},{cfg.d},{cfg.c_penalty:.6f},{cfg.eta:.6f},"
            f"{cfg.beta:.6f},{cfg.kernel_params.sigma:.6f},{cfg.update_strategy},"
            f"{cfg.regularizer},{cfg.decision_strategy},{cell.status},{{gm}}"
        )
        for fold, gm in enumerate(cell.fold_gms):
            lines.append(prefix.format(fold=fold, gm=f"{gm:.6f}"))
        mean_cell = "" if cell.mean_gm == float("-inf") else f"{cell.mean_gm:.6f}"
        lines.append(prefix.format(fold="mean", gm=mean_cell))
    return "\n".join(lines) + "\n"
