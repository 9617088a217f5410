"""Model and report files: versioned JSON with base64-encoded arrays.

Arrays are serialized as little-endian 64-bit floats so a save/load round
trip reproduces every matrix bit-for-bit, which in turn makes reloaded
models predict identically to the originals. Model files store only what
prediction reads. Files with an unknown format version are rejected
outright.

A kernelized model file stores, for each kernel, the kernel state and the
composed map (subspace.compose_kernel_maps) in place of the kernel's
eigenpairs: subspace files from format 3 on, baseline files from format 4
on. Older files store the eigenpairs; loading composes the maps from them
with the same function training uses, so such a file predicts bit for bit
as the model it was saved from did in process.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import stat
from dataclasses import asdict, fields
from typing import Any, Callable, Optional, Union

import numpy as np

from .baselines import BaselineModel
from .datamodel import FeatureMatrix, FoldPlan, MultiModalDataset, frozen_array
from .errors import ConfigError, KernelError, PersistenceError
from .evaluation import ConfusionMatrix, EvalReport
from .kernels import KernelParams, KernelState, NptState
from .subspace import (
    KernelMap,
    ProjectionMatrix,
    SubspaceModel,
    TrainConfig,
    compose_kernel_maps,
)
from .svdd import DataDescription, HyperplaneDescription

MODEL_FORMAT_VERSION = 4
REPORT_FORMAT_VERSION = 1
# Version 1 model files also hold the training kernels, embedded training
# data and pooled column ranges, which prediction never reads; loading ignores them.
_READABLE_MODEL_VERSIONS = (1, 2, 3, MODEL_FORMAT_VERSION)


def _encode_array(a: np.ndarray) -> dict[str, Any]:
    a = np.ascontiguousarray(a, dtype="<f8")
    return {
        "shape": list(a.shape),
        "data": base64.b64encode(a.tobytes()).decode("ascii"),
    }


def _decode_array(obj: dict[str, Any]) -> np.ndarray:
    """A read-only float64 array over the decoded bytes."""
    raw = base64.b64decode(obj["data"])
    a = frozen_array(np.frombuffer(raw, dtype="<f8"))
    return a.reshape([int(s) for s in obj["shape"]])


def dataset_digest(data: MultiModalDataset) -> str:
    """Stable content hash of the feature matrices and labels."""
    h = hashlib.sha256()
    for mod in data.modalities:
        h.update(np.ascontiguousarray(mod.values, dtype="<f8").tobytes())
    if data.labels is not None:
        h.update(np.ascontiguousarray(data.labels, dtype="<i8").tobytes())
    return h.hexdigest()


def config_to_dict(config: TrainConfig) -> dict[str, Any]:
    return asdict(config)


def _fields_of(cls: type, obj: dict[str, Any]) -> dict[str, Any]:
    """obj, which must name every field of cls and nothing else."""
    names = {f.name for f in fields(cls)}
    if set(obj) != names:
        raise ConfigError(
            f"{cls.__name__} fields missing {sorted(names - set(obj))}, "
            f"unknown {sorted(set(obj) - names)}"
        )
    return obj


def config_from_dict(obj: dict[str, Any]) -> TrainConfig:
    kp = KernelParams(**_fields_of(KernelParams, obj["kernel_params"]))
    return TrainConfig(**{**_fields_of(TrainConfig, obj), "kernel_params": kp})


def _kernel_state_to_dict(state: KernelState) -> dict[str, Any]:
    return {
        "row_means": _encode_array(state.row_means),
        "train_data": _encode_array(state.train_data.values),
        "params": asdict(state.params),
    }


def _kernel_state_fields(obj: dict[str, Any]) -> dict[str, Any]:
    return {
        "row_means": _decode_array(obj["row_means"]),
        "train_data": FeatureMatrix(_decode_array(obj["train_data"])),
        "params": KernelParams(**_fields_of(KernelParams, obj["params"])),
    }


def _npt_state_from_dict(obj: dict[str, Any]) -> NptState:
    return NptState(
        kernel=KernelState(**_kernel_state_fields(obj)),
        eigvecs=_decode_array(obj["eigvecs"]),
        eigvals=_decode_array(obj["eigvals"]),
    )


def _kernel_maps_to_dict(
    kernel_maps: Optional[list[KernelMap]],
) -> Optional[list[dict[str, Any]]]:
    if kernel_maps is None:
        return None
    return [
        {**_kernel_state_to_dict(km.state), "map": _encode_array(km.map)}
        for km in kernel_maps
    ]


def _kernel_maps_from_dict(
    obj: dict[str, Any],
    description: Union[DataDescription, HyperplaneDescription],
    projections: Optional[list[ProjectionMatrix]],
) -> Optional[list[KernelMap]]:
    """A model's kernel maps from its file: one per projection, or one for
    a baseline's fused features (projections None), each dim x N for the
    description's dimension dim and the kernel's N training samples.
    Subspace files before format 3 and baseline files before format 4
    store the kernel's eigenpairs instead, under npt_states (a baseline's
    one entry under npt_state), and the maps are composed from them."""
    if projections is None:
        count, what, old_key, first = 1, "fused feature set", "npt_state", 4
    else:
        count, what, old_key, first = len(projections), "projections", "npt_states", 3
    key = "kernel_maps" if obj["format_version"] >= first else old_key
    entries = obj[key]
    if entries is None:
        return None
    if key == "npt_state":
        entries = [entries]
    if len(entries) != count:
        raise ValueError(f"{len(entries)} {key} entries for {count} {what}")
    if key == "kernel_maps":
        maps = [
            KernelMap(KernelState(**_kernel_state_fields(e)), _decode_array(e["map"]))
            for e in entries
        ]
    else:
        maps = compose_kernel_maps(
            projections, [_npt_state_from_dict(e) for e in entries]
        )
    dim = description.train_points.shape[0]
    for v, km in enumerate(maps):
        want = (dim, km.state.train_data.n_samples)
        if km.map.shape != want:
            raise ValueError(
                f"modality {v} kernel map has shape {km.map.shape}, expected {want}"
            )
    return maps


# A model's kind is config.model_kind. Its file also states the
# model_class and description kind that kind implies (and a baseline's
# baseline_kind); loading checks each against it.
_KIND_TAGS = {
    "subspace": ("subspace", "sphere"),
    "svdd": ("baseline", "sphere"),
    "ocsvm": ("baseline", "hyperplane"),
}
# Description kind -> class and the scalars stored beside its arrays.
_DESCRIPTIONS = {
    "sphere": (DataDescription, ("c_penalty", "radius_sq")),
    "hyperplane": (HyperplaneDescription, ("rho", "nu")),
}


def _description_to_dict(
    desc: Union[DataDescription, HyperplaneDescription], kind: str
) -> dict[str, Any]:
    return {
        "kind": kind,
        "alphas": _encode_array(desc.alphas),
        "train_points": _encode_array(desc.train_points),
        **{name: getattr(desc, name) for name in _DESCRIPTIONS[kind][1]},
    }


def _description_from_dict(
    obj: dict[str, Any], kind: str
) -> Union[DataDescription, HyperplaneDescription]:
    cls, scalars = _DESCRIPTIONS[kind]
    return cls(
        alphas=_decode_array(obj["alphas"]),
        train_points=_decode_array(obj["train_points"]),
        **{name: float(obj[name]) for name in scalars},
    )


def _scaler_to_jsonable(scaler) -> Optional[list]:
    if scaler is None:
        return None
    return [
        {"mean": _encode_array(mean), "std": _encode_array(std)}
        for mean, std in scaler
    ]


def _scaler_from_jsonable(obj) -> Optional[list]:
    if obj is None:
        return None
    return [(_decode_array(s["mean"]), _decode_array(s["std"])) for s in obj]


def model_to_dict(
    model: Union[SubspaceModel, BaselineModel],
    provenance: Optional[dict[str, Any]] = None,
) -> dict[str, Any]:
    model_class, description_kind = _KIND_TAGS[model.config.model_kind]
    common = {
        "format_version": MODEL_FORMAT_VERSION,
        "tool_version": _tool_version(),
        "model_class": model_class,
        "config": config_to_dict(model.config),
        "description": _description_to_dict(model.description, description_kind),
        "scaler": _scaler_to_jsonable(model.scaler),
        "provenance": provenance or {},
        "warning": model.warning,
        "kernel_maps": _kernel_maps_to_dict(model.kernel_maps),
    }
    if isinstance(model, SubspaceModel):
        common.update(
            {
                "projections": [_encode_array(p.q) for p in model.projections],
                "ortho_errors": list(model.ortho_errors),
            }
        )
    else:
        common.update(
            {
                "baseline_kind": model.kind,
                "n_modalities": model.n_modalities,
            }
        )
    return common


def _check_version(obj: dict[str, Any], kind: str, readable: tuple[int, ...]) -> None:
    version = obj.get("format_version")
    if version not in readable:
        expected = " or ".join(str(v) for v in readable)
        raise PersistenceError(
            f"unsupported {kind} format version {version!r}; expected {expected}"
        )


def model_from_dict(obj: dict[str, Any]) -> Union[SubspaceModel, BaselineModel]:
    _check_version(obj, "model", _READABLE_MODEL_VERSIONS)
    config = config_from_dict(obj["config"])
    kind = config.model_kind
    model_class, description_kind = _KIND_TAGS[kind]
    for tag, stated, implied in (
        ("model_class", obj["model_class"], model_class),
        ("baseline_kind", obj.get("baseline_kind"), None if kind == "subspace" else kind),
        ("description kind", obj["description"]["kind"], description_kind),
    ):
        if stated != implied:
            raise PersistenceError(
                f"model file states {tag} {stated!r}, but its config's "
                f"model_kind {kind!r} implies {implied!r}"
            )
    description = _description_from_dict(obj["description"], description_kind)
    projections = None
    if model_class == "subspace":
        projections = [ProjectionMatrix(_decode_array(p)) for p in obj["projections"]]
    common = {
        "description": description,
        "config": config,
        "kernel_maps": _kernel_maps_from_dict(obj, description, projections),
        "scaler": _scaler_from_jsonable(obj.get("scaler")),
        "warning": obj.get("warning"),
    }
    if projections is not None:
        return SubspaceModel(
            projections=projections,
            ortho_errors=[float(e) for e in obj.get("ortho_errors", [])],
            **common,
        )
    return BaselineModel(n_modalities=int(obj["n_modalities"]), **common)


def _dump_json(obj: dict[str, Any]) -> str:
    return json.dumps(obj, sort_keys=True, indent=1) + "\n"


def _write_text(path: str, text: str) -> None:
    """Write text to path, as a new file when path is a plain file.

    Truncating a file whose old contents already reached the disk and
    writing it again makes ext4 (auto_da_alloc) flush the new contents
    when the file is closed: about 90 ms for a 1.6 MB model on a virtio
    disk, against 1 ms for a new file. Removing the old file first leaves
    the write-back to the background. Symlinks and files with several
    names are written through, as before, so every name sees the new
    contents. Nothing here calls fsync, so a saved file is as durable as
    any newly created one.
    """
    try:
        st = os.lstat(path)
    except FileNotFoundError:
        st = None
    if st is not None and stat.S_ISREG(st.st_mode) and st.st_nlink == 1:
        os.unlink(path)
    with open(path, "w") as fh:
        fh.write(text)


def save_model(
    model: Union[SubspaceModel, BaselineModel],
    path: str,
    provenance: Optional[dict[str, Any]] = None,
) -> None:
    _write_text(path, _dump_json(model_to_dict(model, provenance)))


def _load(path: str, kind: str, from_dict: Callable[[Any], Any]) -> Any:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise PersistenceError(f"cannot read {kind} file {path}: {exc}") from exc
    try:
        return from_dict(obj)
    except (
        KeyError, TypeError, AttributeError, ValueError, ConfigError, KernelError,
        PersistenceError,
    ) as exc:
        raise PersistenceError(
            f"malformed {kind} file {path}: {type(exc).__name__}: {exc}"
        ) from exc


def load_model(path: str) -> Union[SubspaceModel, BaselineModel]:
    return _load(path, "model", model_from_dict)


# ---------------------------------------------------------------------------
# Evaluation report files
# ---------------------------------------------------------------------------

def report_to_dict(report: EvalReport) -> dict[str, Any]:
    return {
        "format_version": REPORT_FORMAT_VERSION,
        "tool_version": _tool_version(),
        "k": report.k,
        "seed": report.seed,
        "config": config_to_dict(report.config),
        "fold_confusions": [
            {"tp": c.tp, "fn": c.fn, "fp": c.fp, "tn": c.tn}
            for c in report.fold_confusions
        ],
        "fold_metrics": [m.as_dict() for m in report.fold_metrics],
        "mean_metrics": report.mean_metrics.as_dict(),
        "pooled_confusion": {
            "tp": report.pooled_confusion.tp,
            "fn": report.pooled_confusion.fn,
            "fp": report.pooled_confusion.fp,
            "tn": report.pooled_confusion.tn,
        },
        "pooled_metrics": report.pooled_metrics.as_dict(),
        "fold_assignment": [int(f) for f in report.fold_plan.assignment],
        "normalize": report.normalize,
        "max_ortho_error": report.max_ortho_error,
        "fold_configs": (
            None
            if report.fold_configs is None
            else [config_to_dict(c) for c in report.fold_configs]
        ),
        "selection": report.selection,
    }


def report_from_dict(obj: dict[str, Any]) -> EvalReport:
    _check_version(obj, "report", (REPORT_FORMAT_VERSION,))
    return EvalReport(
        config=config_from_dict(obj["config"]),
        fold_confusions=[
            ConfusionMatrix(c["tp"], c["fn"], c["fp"], c["tn"])
            for c in obj["fold_confusions"]
        ],
        fold_plan=FoldPlan(
            k=int(obj["k"]),
            assignment=np.array(obj["fold_assignment"], dtype=np.int64),
            seed=int(obj["seed"]),
        ),
        normalize=bool(obj.get("normalize", False)),
        max_ortho_error=obj.get("max_ortho_error"),
        fold_configs=(
            None
            if obj.get("fold_configs") is None
            else [config_from_dict(c) for c in obj["fold_configs"]]
        ),
        selection=obj.get("selection"),
    )


def save_report(report: EvalReport, path: str) -> None:
    _write_text(path, _dump_json(report_to_dict(report)))


def load_report(path: str) -> EvalReport:
    return _load(path, "report", report_from_dict)


def _tool_version() -> str:
    from . import __version__

    return __version__
