"""Dataset containers, CSV ingestion, stratified folds, and synthetic data.

Feature matrices are stored column-major: one column per sample, so a
modality with N samples of dimensionality D is a D x N array. CSV files on
disk use the transposed layout (one row per sample), which is the common
interchange format.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DataError

TARGET_LABEL = 1
NONTARGET_LABEL = 0


def frozen_array(a, dtype=np.float64) -> np.ndarray:
    """a as a read-only array of dtype: a itself when it already is one,
    else a read-only C-contiguous copy, so a caller's array is never frozen
    or shared. Library code freezes the large arrays it makes, so they are kept."""
    if isinstance(a, np.ndarray) and a.dtype == dtype and not a.flags.writeable:
        return a
    out = np.array(a, dtype=dtype, order="C")
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class FeatureMatrix:
    """Dense D x N matrix holding one modality, one sample per column."""

    values: np.ndarray

    def __post_init__(self):
        v = frozen_array(self.values)
        if v.ndim != 2:
            raise DataError(f"feature matrix must be 2-D, got shape {v.shape}")
        if v.shape[0] < 1 or v.shape[1] < 1:
            raise DataError(f"feature matrix must be at least 1x1, got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise DataError("feature matrix contains NaN or Inf entries")
        object.__setattr__(self, "values", v)

    @property
    def dim(self) -> int:
        return self.values.shape[0]

    @property
    def n_samples(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class MultiModalDataset:
    """Aligned per-modality feature matrices plus optional binary labels.

    Modality order is significant: decision strategies and asymmetric
    update strategies refer to the first and second modality by position.
    Labels use 1 for the target class and 0 for non-target.
    """

    modalities: tuple[FeatureMatrix, ...]
    labels: Optional[np.ndarray] = None
    sample_ids: tuple[str, ...] = ()

    def __post_init__(self):
        mods = tuple(self.modalities)
        if len(mods) < 1:
            raise DataError("dataset needs at least one modality")
        n = mods[0].n_samples
        for v, m in enumerate(mods):
            if m.n_samples != n:
                raise DataError(
                    f"modality {v} has {m.n_samples} samples, expected {n}"
                )
        labels = self.labels
        if labels is not None:
            labels = frozen_array(labels, np.int64)
            if labels.shape != (n,):
                raise DataError(
                    f"labels must have shape ({n},), got {labels.shape}"
                )
            bad = set(np.unique(labels)) - {TARGET_LABEL, NONTARGET_LABEL}
            if bad:
                raise DataError(f"unknown label values {sorted(bad)}; expected 0/1")
        ids = tuple(self.sample_ids) or tuple(f"s{i:06d}" for i in range(n))
        if len(ids) != n:
            raise DataError(f"sample_ids has length {len(ids)}, expected {n}")
        object.__setattr__(self, "modalities", mods)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "sample_ids", ids)

    @property
    def n_modalities(self) -> int:
        return len(self.modalities)

    @property
    def n_samples(self) -> int:
        return self.modalities[0].n_samples

    def subset(self, indices: np.ndarray) -> "MultiModalDataset":
        """Restrict to the given sample indices, keeping modality order."""
        idx = np.asarray(indices, dtype=np.int64)
        mods = tuple(FeatureMatrix(m.values[:, idx]) for m in self.modalities)
        labels = None if self.labels is None else self.labels[idx]
        ids = tuple(self.sample_ids[i] for i in idx)
        return MultiModalDataset(mods, labels, ids)

    def target_subset(self) -> "MultiModalDataset":
        """The samples a model fits on: the target class, or all when unlabelled."""
        if self.labels is None:
            return self
        return self.subset(np.flatnonzero(self.labels == TARGET_LABEL))


def fit_scaler(data: MultiModalDataset) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-feature mean/std per modality, fit on data.target_subset()."""
    scaler = []
    for mod in data.target_subset().modalities:
        mean = mod.values.mean(axis=1)
        std = mod.values.std(axis=1)
        std = np.where(std < 1e-12, 1.0, std)
        scaler.append((mean, std))
    return scaler


def apply_scaler(
    data: MultiModalDataset, scaler: Optional[list[tuple[np.ndarray, np.ndarray]]]
) -> MultiModalDataset:
    """data z-scored per modality by scaler, whose modality dims it must
    have (model_input checks them), or data itself when scaler is None."""
    if scaler is None:
        return data
    mods = tuple(
        FeatureMatrix((m.values - mean[:, None]) / std[:, None])
        for m, (mean, std) in zip(data.modalities, scaler)
    )
    return MultiModalDataset(mods, data.labels, data.sample_ids)


@dataclass(frozen=True)
class FoldPlan:
    """Assignment of each sample to one of k cross-validation folds."""

    k: int
    assignment: np.ndarray
    seed: int

    def __post_init__(self):
        a = frozen_array(self.assignment, np.int64)
        if self.k < 2:
            raise DataError(f"fold count must be >= 2, got {self.k}")
        if a.ndim != 1 or a.size < self.k:
            raise DataError("assignment must be a vector with at least k entries")
        if a.min() < 0 or a.max() >= self.k:
            raise DataError("fold indices must lie in [0, k)")
        counts = np.bincount(a, minlength=self.k)
        if np.any(counts == 0):
            raise DataError("every fold must be non-empty")
        object.__setattr__(self, "assignment", a)

    def test_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignment == fold)

    def train_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignment != fold)


def stratified_folds(labels: np.ndarray, k: int, seed: int) -> FoldPlan:
    """Deterministic stratified fold assignment.

    Each class is shuffled with the given seed and dealt round-robin into
    folds; the dealing cursor continues across classes so overall fold
    sizes are as equal as possible while per-class counts per fold differ
    by at most one.

    Every class must have at least k members, except in the leave-one-out
    case k == N where folds are singletons and stratification is moot.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1:
        raise DataError("labels must be a vector")
    if k < 2:
        raise DataError(f"fold count must be >= 2, got {k}")
    if k > labels.shape[0]:
        raise DataError(f"cannot split {labels.shape[0]} samples into {k} folds")
    leave_one_out = k == labels.shape[0]
    rng = np.random.default_rng(seed)
    assignment = np.empty(labels.shape[0], dtype=np.int64)
    cursor = 0
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        if idx.size < k and not leave_one_out:
            raise DataError(
                f"class {cls} has {idx.size} samples, fewer than k={k} folds"
            )
        perm = rng.permutation(idx)
        offsets = (cursor + np.arange(perm.size)) % k
        assignment[perm] = offsets
        cursor = (cursor + perm.size) % k
    return FoldPlan(k=k, assignment=assignment, seed=seed)


def synth_multimodal(
    n_target: int,
    n_outlier: int,
    v: int,
    dims: Sequence[int],
    separation: float,
    seed: int,
) -> MultiModalDataset:
    """Generate a labelled multi-modal Gaussian dataset.

    Target samples come from a unit-covariance Gaussian per modality;
    outliers from the same Gaussian shifted by `separation` along a seeded
    random unit direction per modality. separation=0 makes the two classes
    indistinguishable.
    """
    if n_target < 1 or n_outlier < 1:
        raise DataError("sample counts must be positive")
    if v < 1:
        raise DataError("modality count must be positive")
    if len(dims) != v:
        raise DataError(f"dims has length {len(dims)}, expected {v}")
    if any(d < 1 for d in dims):
        raise DataError("all modality dimensionalities must be positive")
    if separation < 0:
        raise DataError("separation must be non-negative")
    rng = np.random.default_rng(seed)
    mods = []
    for d in dims:
        direction = rng.standard_normal(d)
        norm = np.linalg.norm(direction)
        direction = direction / norm if norm > 0 else np.eye(d)[0]
        targets = rng.standard_normal((d, n_target))
        outliers = rng.standard_normal((d, n_outlier))
        outliers = outliers + separation * direction[:, None]
        mods.append(FeatureMatrix(np.hstack([targets, outliers])))
    labels = np.concatenate(
        [np.full(n_target, TARGET_LABEL), np.full(n_outlier, NONTARGET_LABEL)]
    )
    ids = tuple(f"t{i:05d}" for i in range(n_target)) + tuple(
        f"o{i:05d}" for i in range(n_outlier)
    )
    return MultiModalDataset(tuple(mods), labels, ids)


# ---------------------------------------------------------------------------
# CSV ingestion and export
# ---------------------------------------------------------------------------

def _parse_cell(text: str, path: str, row: int, col: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise DataError(
            f"{path}: non-numeric cell at row {row + 1}, column {col + 1}: {text!r}"
        ) from None
    if not np.isfinite(value):
        raise DataError(
            f"{path}: non-finite cell at row {row + 1}, column {col + 1}: {text!r}"
        )
    return value


def _read_rows(path: str) -> list[list[str]]:
    """The non-blank rows of a CSV file, possibly none."""
    with open(path, newline="") as fh:
        return [row for row in csv.reader(fh) if row and any(c.strip() for c in row)]


def _is_header_row(row: list[str]) -> bool:
    """True when no cell of row parses as a number."""
    for cell in row:
        try:
            float(cell)
        except ValueError:
            continue
        return False
    return True


def _data_rows(path: str) -> list[list[str]]:
    """The rows of a CSV file after an auto-detected header row, possibly none.

    The first row is a header only when none of its cells is a number; a
    first row with a bad cell among numbers is data, and parsing it fails.
    """
    rows = _read_rows(path)
    if rows and _is_header_row(rows[0]):
        rows = rows[1:]
    return rows


def _load_matrix_csv(path: str) -> np.ndarray:
    """Read one modality CSV (row per sample); header row auto-detected.

    A file without data rows, empty or header only, gives a 0 x 0 matrix.
    """
    rows = _data_rows(path)
    if not rows:
        return np.empty((0, 0))
    width = len(rows[0])
    data = np.empty((len(rows), width), dtype=np.float64)
    for i, row in enumerate(rows):
        if len(row) != width:
            raise DataError(
                f"{path}: row {i + 1} has {len(row)} columns, expected {width}"
            )
        for j, cell in enumerate(row):
            data[i, j] = _parse_cell(cell, path, i, j)
    return data


def _load_labels_csv(path: str) -> np.ndarray:
    rows = _data_rows(path)
    if not rows:
        raise DataError(f"{path}: no data rows")
    labels = np.empty(len(rows), dtype=np.int64)
    for i, row in enumerate(rows):
        if len(row) != 1:
            raise DataError(f"{path}: label row {i + 1} must have exactly one value")
        value = _parse_cell(row[0], path, i, 0)
        if value not in (0.0, 1.0):
            raise DataError(
                f"{path}: unknown label value {row[0]!r} at row {i + 1}; expected 0 or 1"
            )
        labels[i] = int(value)
    return labels


def load_matrices(paths: Sequence[str]) -> list[np.ndarray]:
    """One row-per-sample matrix per modality CSV, all with the same row
    count, which may be zero."""
    matrices = [_load_matrix_csv(str(p)) for p in paths]
    n = matrices[0].shape[0]
    for p, m in zip(paths, matrices):
        if m.shape[0] != n:
            raise DataError(
                f"row-count mismatch: {paths[0]} has {n} rows but {p} has {m.shape[0]}"
            )
    return matrices


def load_dataset(
    paths: Sequence[str], label_path: Optional[str] = None
) -> MultiModalDataset:
    """Load one CSV per modality (plus optional label CSV) into a dataset.

    All modality files must have the same number of rows; rows are aligned
    by position across files and define the sample order.
    """
    if not paths:
        raise DataError("at least one modality file is required")
    matrices = load_matrices(paths)
    n = matrices[0].shape[0]
    if n == 0:
        raise DataError(f"{', '.join(map(str, paths))}: no data rows")
    labels = None
    if label_path is not None:
        labels = _load_labels_csv(str(label_path))
        if labels.shape[0] != n:
            raise DataError(
                f"label file {label_path} has {labels.shape[0]} rows, expected {n}"
            )
    mods = tuple(FeatureMatrix(m.T) for m in matrices)
    return MultiModalDataset(mods, labels)


def save_dataset(
    dataset: MultiModalDataset,
    paths: Sequence[str],
    label_path: Optional[str] = None,
) -> None:
    """Write per-modality CSVs (and labels) that round-trip bit-exactly."""
    if len(paths) != dataset.n_modalities:
        raise DataError(
            f"{len(paths)} paths given for {dataset.n_modalities} modalities"
        )
    for path, mod in zip(paths, dataset.modalities):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            for row in mod.values.T:
                writer.writerow([repr(float(x)) for x in row])
    if label_path is not None:
        if dataset.labels is None:
            raise DataError("dataset has no labels to save")
        with open(label_path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            for label in dataset.labels:
                writer.writerow([int(label)])


def save_fold_plan(plan: FoldPlan, path: str) -> None:
    """Export fold indices as a single-column CSV."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        for f in plan.assignment:
            writer.writerow([int(f)])

