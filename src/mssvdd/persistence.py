"""Model and report files: versioned JSON with base64-encoded arrays.

Arrays are serialized as little-endian 64-bit floats so a save/load round
trip reproduces every matrix bit-for-bit, which in turn makes reloaded
models predict identically to the originals. A model file states each
fact once and stores only what prediction reads: the config, the
description's center and radius (or weight and offset), the projections,
and for a kernelized model each kernel's state and composed map
(subspace.compose_kernel_maps). The kernel params and the description's
box bound (C or nu) come from the config.

Model files of every earlier format version still load: _upgrade takes a
file one version at a time to the current layout, and only the current
layout is read. The steps that need arrays compose the maps from stored
eigenpairs with the function training uses, and take the description's
center or weight from its stored alphas and training points as the
description does, so an old file predicts bit for bit as it did when it
was saved. Files with an unknown format version are rejected outright.
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

from .baselines import BaselineModel, _resolve_baseline_kernel
from .datamodel import FeatureMatrix, FoldPlan, MultiModalDataset, frozen_array
from .errors import ConfigError, PersistenceError, ToolkitError, typed
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

MODEL_FORMAT_VERSION = 5
REPORT_FORMAT_VERSION = 1


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


def _kernel_params(config: TrainConfig, train_data: FeatureMatrix) -> KernelParams:
    """The params a model of config evaluates its kernel on train_data with."""
    if config.model_kind == "subspace":
        return config.resolved_kernel_params()
    return _resolve_baseline_kernel(config, train_data.dim)


def _kernel_maps_to_dict(
    kernel_maps: Optional[list[KernelMap]],
) -> Optional[list[dict[str, Any]]]:
    if kernel_maps is None:
        return None
    return [
        {
            "row_means": _encode_array(km.state.row_means),
            "train_data": _encode_array(km.state.train_data.values),
            "map": _encode_array(km.map),
        }
        for km in kernel_maps
    ]


def _kernel_maps_from_dict(
    entries: Optional[list[dict[str, Any]]],
    config: TrainConfig,
    projections: Optional[list[ProjectionMatrix]],
    dim: int,
) -> Optional[list[KernelMap]]:
    """A model's kernel maps: one per projection, or one for a baseline's
    fused features (projections None), each dim x N for the description's
    dimension dim and the kernel's N training samples."""
    if projections is None:
        count, what = 1, "fused feature set"
    else:
        count, what = len(projections), "projections"
    if (entries is not None) != config.kernelized:
        raise PersistenceError(
            f"kernel_maps is {'set' if entries is not None else 'null'}, but "
            f"the config's kernelized is {config.kernelized}"
        )
    if entries is None:
        return None
    if len(entries) != count:
        raise ValueError(f"{len(entries)} kernel_maps entries for {count} {what}")
    maps = []
    for v, entry in enumerate(entries):
        train_data = FeatureMatrix(_decode_array(entry["train_data"]))
        state = KernelState(
            row_means=_decode_array(entry["row_means"]),
            train_data=train_data,
            params=_kernel_params(config, train_data),
        )
        km = KernelMap(state, _decode_array(entry["map"]))
        want = (dim, train_data.n_samples)
        if km.map.shape != want:
            raise ValueError(
                f"modality {v} kernel map has shape {km.map.shape}, expected {want}"
            )
        maps.append(km)
    return maps


# A model's kind is config.model_kind. Its file also states the
# model_class and description kind that kind implies (and a baseline's
# baseline_kind); loading checks each against it.
_KIND_TAGS = {
    "subspace": ("subspace", "sphere"),
    "svdd": ("baseline", "sphere"),
    "ocsvm": ("baseline", "hyperplane"),
}
# Description kind -> class, the vector and the scalar its file stores,
# and the config field that gives its box bound.
_DESCRIPTIONS = {
    "sphere": (DataDescription, "center", "radius_sq", "c_penalty"),
    "hyperplane": (HyperplaneDescription, "weight", "rho", "nu"),
}
# The one weight of a loaded description's one column.
_ONE = frozen_array(np.ones(1))


def _description_to_dict(
    desc: Union[DataDescription, HyperplaneDescription], kind: str
) -> dict[str, Any]:
    _, vector, scalar, _ = _DESCRIPTIONS[kind]
    return {
        "kind": kind,
        vector: _encode_array(getattr(desc, vector)),
        scalar: getattr(desc, scalar),
    }


def _description_from_dict(
    obj: dict[str, Any], kind: str, config: TrainConfig
) -> Union[DataDescription, HyperplaneDescription]:
    """The one-column description whose column, with weight 1, is the
    stored center or weight; scoring reads it as the solved one."""
    cls, vector, scalar, bound = _DESCRIPTIONS[kind]
    column = _decode_array(obj[vector])
    if column.ndim != 1:
        raise ValueError(f"description {vector} has shape {column.shape}, expected a vector")
    return cls(
        alphas=_ONE,
        train_points=column[:, None],
        **{
            scalar: typed(f"description.{scalar}", obj[scalar], (float,), PersistenceError),
            bound: getattr(config, bound),
        },
    )


def _scaler_to_jsonable(scaler) -> Optional[list]:
    if scaler is None:
        return None
    return [
        {"mean": _encode_array(mean), "std": _encode_array(std)}
        for mean, std in scaler
    ]


def _scaler_from_jsonable(obj, model: Union[SubspaceModel, BaselineModel]) -> Optional[list]:
    """The scaler obj stores: one (mean, std) per modality of model, each a
    1-D finite pair of one length with every std positive, of the dims the
    model reads (a baseline's fused width is their sum)."""
    if typed("scaler", obj, (list, type(None)), PersistenceError) is None:
        return None
    if len(obj) != model.n_modalities:
        raise PersistenceError(
            f"scaler has {len(obj)} entries, but the model has {model.n_modalities} modalities"
        )
    scaler = []
    for v, entry in enumerate(obj):
        mean, std = _decode_array(entry["mean"]), _decode_array(entry["std"])
        if mean.ndim != 1 or mean.shape != std.shape:
            raise PersistenceError(
                f"scaler[{v}] mean and std must be 1-D of one length, got "
                f"shapes {mean.shape} and {std.shape}"
            )
        if not (np.isfinite(mean).all() and np.isfinite(std).all() and (std > 0).all()):
            raise PersistenceError(
                f"scaler[{v}] must hold finite means and finite, positive stds"
            )
        scaler.append((mean, std))
    dims, subspace = [mean.shape[0] for mean, _ in scaler], isinstance(model, SubspaceModel)
    reads = (
        [km.state.train_data.dim for km in model.kernel_maps] if model.kernel_maps
        else [p.input_dim for p in model.projections] if subspace
        else [model.description.train_points.shape[0]]
    )
    if (dims if subspace else [sum(dims)]) != reads:
        raise PersistenceError(
            f"scaler z-scores modalities of dims {dims}, but the model reads "
            f"{'modality' if subspace else 'fused'} dims {reads}"
        )
    return scaler


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


# ---------------------------------------------------------------------------
# Upgrading older model files, one format version at a time
# ---------------------------------------------------------------------------

def _without(obj: dict[str, Any], key: str) -> dict[str, Any]:
    return {k: v for k, v in obj.items() if k != key}


def _composed(
    projections: Optional[list[ProjectionMatrix]], entries: list[dict[str, Any]]
) -> list[dict[str, Any]]:
    """Format 4 kernel-map entries from eigenpair entries, one per
    projection (projections None: one for a baseline), each map composed
    by compose_kernel_maps as training composes it."""
    states = [
        NptState(
            kernel=KernelState(
                row_means=_decode_array(e["row_means"]),
                train_data=FeatureMatrix(_decode_array(e["train_data"])),
                params=KernelParams(**_fields_of(KernelParams, e["params"])),
            ),
            eigvecs=_decode_array(e["eigvecs"]),
            eigvals=_decode_array(e["eigvals"]),
        )
        for e in entries
    ]
    if projections is not None and len(states) != len(projections):
        raise ValueError(
            f"{len(states)} npt_states entries for {len(projections)} projections"
        )
    return [
        {
            "row_means": e["row_means"],
            "train_data": e["train_data"],
            "params": e["params"],
            "map": _encode_array(km.map),
        }
        for e, km in zip(entries, compose_kernel_maps(projections, states))
    ]


def _v1_to_v2(obj: dict[str, Any]) -> dict[str, Any]:
    """Version 2 dropped what prediction never reads: a subspace model's
    pooled column ranges here, and each kernel's training kernel, embedded
    training data, grand mean and rank, which no later step reads."""
    return _without(obj, "modality_index_map")


def _v2_to_v3(obj: dict[str, Any]) -> dict[str, Any]:
    """Version 3 stores a subspace model's composed kernel maps in place of
    the kernels' eigenpairs (npt_states)."""
    if obj["model_class"] != "subspace":
        return obj
    entries = obj["npt_states"]
    if entries is not None:
        projections = [ProjectionMatrix(_decode_array(p)) for p in obj["projections"]]
        entries = _composed(projections, entries)
    return {**_without(obj, "npt_states"), "kernel_maps": entries}


def _v3_to_v4(obj: dict[str, Any]) -> dict[str, Any]:
    """Version 4 stores a baseline's composed kernel map in place of its
    kernel's eigenpairs (npt_state)."""
    if obj["model_class"] == "subspace":
        return obj
    entry = obj["npt_state"]
    return {
        **_without(obj, "npt_state"),
        "kernel_maps": None if entry is None else _composed(None, [entry]),
    }


def _v4_to_v5(obj: dict[str, Any]) -> dict[str, Any]:
    """Version 5 drops the copies of what the config states: each kernel
    map's params and the description's box bound. Each copy must equal
    what the config gives. The description stores its center or weight,
    train_points @ alphas, in place of its alphas and training points."""
    config = config_from_dict(obj["config"])
    desc = obj["description"]
    _, vector, scalar, bound = _DESCRIPTIONS[desc["kind"]]
    stated = typed(f"description.{bound}", desc[bound], (float,), PersistenceError)
    if stated != getattr(config, bound):
        raise PersistenceError(
            f"description.{bound} {stated!r} disagrees with the config's "
            f"{getattr(config, bound)!r}"
        )
    column = _decode_array(desc["train_points"]) @ _decode_array(desc["alphas"])
    entries = obj["kernel_maps"]
    if entries is not None:
        for v, e in enumerate(entries):
            params = KernelParams(**_fields_of(KernelParams, e["params"]))
            derived = _kernel_params(config, FeatureMatrix(_decode_array(e["train_data"])))
            if params != derived:
                raise PersistenceError(
                    f"kernel_maps[{v}].params {asdict(params)} disagree with the "
                    f"config's {asdict(derived)}"
                )
        entries = [_without(e, "params") for e in entries]
    return {
        **obj,
        "description": {
            "kind": desc["kind"],
            vector: _encode_array(column),
            scalar: desc[scalar],
        },
        "kernel_maps": entries,
    }


# Version -> the step that upgrades a model file of that version to the next.
_UPGRADES = {1: _v1_to_v2, 2: _v2_to_v3, 3: _v3_to_v4, 4: _v4_to_v5}


def _upgrade(obj: dict[str, Any]) -> dict[str, Any]:
    """A parsed model file of any readable version, in the current layout.

    The only model reader of format_version: a current file is returned
    as it is, an older one goes through each step from its version on.
    """
    version = obj.get("format_version")
    if type(version) is not int or not 1 <= version <= MODEL_FORMAT_VERSION:
        raise PersistenceError(
            f"unsupported model format version {version!r}; expected 1 to "
            f"{MODEL_FORMAT_VERSION}"
        )
    for step in range(version, MODEL_FORMAT_VERSION):
        obj = {**_UPGRADES[step](obj), "format_version": step + 1}
    return obj


def model_from_dict(obj: dict[str, Any]) -> Union[SubspaceModel, BaselineModel]:
    obj = _upgrade(obj)
    config = config_from_dict(obj["config"])
    kind = config.model_kind
    model_class, description_kind = _KIND_TAGS[kind]
    tags = [("model_class", obj["model_class"], model_class)]
    if model_class == "baseline":
        tags.append(("baseline_kind", obj["baseline_kind"], kind))
    tags.append(("description kind", obj["description"]["kind"], description_kind))
    for tag, stated, implied in tags:
        if stated != implied:
            raise PersistenceError(
                f"model file states {tag} {stated!r}, but its config's "
                f"model_kind {kind!r} implies {implied!r}"
            )
    description = _description_from_dict(obj["description"], description_kind, config)
    dim = description.train_points.shape[0]
    common = {
        "description": description,
        "config": config,
        "warning": typed("warning", obj["warning"], (str, type(None)), PersistenceError),
    }
    if model_class == "baseline":
        model = BaselineModel(
            n_modalities=typed("n_modalities", obj["n_modalities"], (int,), PersistenceError),
            kernel_maps=_kernel_maps_from_dict(obj["kernel_maps"], config, None, dim),
            **common,
        )
    else:
        projections = [ProjectionMatrix(_decode_array(p)) for p in obj["projections"]]
        for v, p in enumerate(projections):
            if p.d != config.d:
                raise PersistenceError(
                    f"projection {v} has {p.d} rows, but the config's d is {config.d}"
                )
        model = SubspaceModel(
            projections=projections,
            kernel_maps=_kernel_maps_from_dict(obj["kernel_maps"], config, projections, dim),
            ortho_errors=[
                typed("ortho_errors entry", e, (float,), PersistenceError)
                for e in obj["ortho_errors"]
            ],
            **common,
        )
    model.scaler = _scaler_from_jsonable(obj["scaler"], model)
    return model


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
    except (KeyError, TypeError, AttributeError, ValueError, ToolkitError) as exc:
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
        "fold_confusions": [asdict(c) for c in report.fold_confusions],
        "fold_metrics": [m.as_dict() for m in report.fold_metrics],
        "mean_metrics": report.mean_metrics.as_dict(),
        "pooled_confusion": asdict(report.pooled_confusion),
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
    version = obj.get("format_version")
    if version != REPORT_FORMAT_VERSION:
        raise PersistenceError(
            f"unsupported report format version {version!r}; expected "
            f"{REPORT_FORMAT_VERSION}"
        )
    fold_configs = typed(
        "fold_configs", obj["fold_configs"], (list, type(None)), PersistenceError
    )
    k = typed("k", obj["k"], (int,), PersistenceError)
    confusions = [
        ConfusionMatrix(**_fields_of(ConfusionMatrix, c)) for c in obj["fold_confusions"]
    ]
    if len(confusions) != k:
        raise PersistenceError(
            f"fold_confusions holds {len(confusions)} folds, expected k = {k}"
        )
    assignment = [
        typed(f"fold_assignment[{i}]", f, (int,), PersistenceError)
        for i, f in enumerate(obj["fold_assignment"])
    ]
    return EvalReport(
        config=config_from_dict(obj["config"]),
        fold_confusions=confusions,
        fold_plan=FoldPlan(
            k=k,
            assignment=np.array(assignment, dtype=np.int64),
            seed=typed("seed", obj["seed"], (int,), PersistenceError),
        ),
        normalize=typed("normalize", obj["normalize"], (bool,), PersistenceError),
        max_ortho_error=typed(
            "max_ortho_error", obj["max_ortho_error"], (float, type(None)), PersistenceError
        ),
        fold_configs=(
            None
            if fold_configs is None
            else [config_from_dict(c) for c in fold_configs]
        ),
        selection=typed("selection", obj["selection"], (str, type(None)), PersistenceError),
    )


def save_report(report: EvalReport, path: str) -> None:
    _write_text(path, _dump_json(report_to_dict(report)))


def load_report(path: str) -> EvalReport:
    return _load(path, "report", report_from_dict)


def _tool_version() -> str:
    from . import __version__

    return __version__
