"""Model and report files: versioned JSON with base64-encoded arrays.

Arrays are serialized as little-endian 64-bit floats so a save/load round
trip reproduces every matrix bit-for-bit, which in turn makes reloaded
models predict identically to the originals. A model file states each
fact once and stores only what prediction reads: the config, the
description's center and radius (or weight and offset), the projections
or a baseline's input_dims, and for a kernelized model each kernel's
state and composed map (subspace.compose_kernel_maps). The model's kind,
the kernel params, the description's box bound (C or nu) and whether the
kernel is centered come from the config (TrainConfig.resolved_kernel_params
and TrainConfig.centers_kernel). A kernelized ocsvm's weight is folded into
its 1 x N map, so its description stores the weight [1]
(BaselineModel.scored_description).

Model files of every earlier format version still load: _upgrade takes a
file one version at a time to the current layout, and only the current
layout is read. The steps that need arrays compose the maps from stored
eigenpairs with the function training uses, and take the description's
center or weight from its stored alphas and training points, so an old
file predicts bit for bit as it did when it was saved; a baseline file
before format 7 may load with None for dims it did not state (_v6_to_v7).
The one exception is a kernelized ocsvm file before format 6: it was fit
on the centered kernel, where its labels are rounding noise, so it is
rejected with a request to re-fit. Unknown format versions are rejected.
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

MODEL_FORMAT_VERSION = 7
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


def _kernel_maps_to_dict(
    kernel_maps: Optional[list[KernelMap]],
) -> Optional[list[dict[str, Any]]]:
    if kernel_maps is None:
        return None
    entries = []
    for km in kernel_maps:
        row_means = km.state.row_means
        entry = {} if row_means is None else {"row_means": _encode_array(row_means)}
        entry["train_data"] = _encode_array(km.state.train_data.values)
        entry["map"] = _encode_array(km.map)
        entries.append(entry)
    return entries


def _kernel_maps_from_dict(
    entries: Optional[list[dict[str, Any]]],
    config: TrainConfig,
    projections: Optional[list[ProjectionMatrix]],
    dim: int,
) -> Optional[list[KernelMap]]:
    """A model's kernel maps: one per projection, or one for a baseline's
    fused features (projections None), each dim x N for the description's
    dimension dim and the kernel's N training samples. An entry holds
    row_means exactly when the config's model kind centers its kernel."""
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
    centered = config.centers_kernel
    maps = []
    for v, entry in enumerate(entries):
        if not centered and "row_means" in entry:
            raise PersistenceError(
                f"kernel_maps[{v}] holds row_means, but the {config.model_kind} "
                "kernel is uncentered"
            )
        train_data = FeatureMatrix(_decode_array(entry["train_data"]))
        state = KernelState(
            row_means=_decode_array(entry["row_means"]) if centered else None,
            train_data=train_data,
            params=config.resolved_kernel_params(train_data.dim),
        )
        km = KernelMap(state, _decode_array(entry["map"]))
        want = (dim, train_data.n_samples)
        if km.map.shape != want:
            raise ValueError(
                f"modality {v} kernel map has shape {km.map.shape}, expected {want}"
            )
        maps.append(km)
    return maps


# A model's kind is config.model_kind; it implies the description's kind.
_DESCRIPTION_KINDS = {"subspace": "sphere", "svdd": "sphere", "ocsvm": "hyperplane"}
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
    return {vector: _encode_array(getattr(desc, vector)), scalar: getattr(desc, scalar)}


def _description_from_dict(
    obj: dict[str, Any], config: TrainConfig
) -> Union[DataDescription, HyperplaneDescription]:
    """The one-column description whose column, with weight 1, is the
    stored center or weight; scoring reads it as the solved one."""
    cls, vector, scalar, bound = _DESCRIPTIONS[_DESCRIPTION_KINDS[config.model_kind]]
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
    1-D finite pair of one length with every std positive, of the dims
    model.input_dims states."""
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
    dims = tuple(mean.shape[0] for mean, _ in scaler)
    if dims != model.input_dims:
        raise PersistenceError(
            f"scaler z-scores modalities of dims {list(dims)}, but the model reads "
            f"modality dims {list(model.input_dims)}"
        )
    return scaler


def model_to_dict(
    model: Union[SubspaceModel, BaselineModel],
    provenance: Optional[dict[str, Any]] = None,
) -> dict[str, Any]:
    scored = model.description if isinstance(model, SubspaceModel) else model.scored_description
    common = {
        "format_version": MODEL_FORMAT_VERSION,
        "tool_version": _tool_version(),
        "config": config_to_dict(model.config),
        "description": _description_to_dict(scored, _DESCRIPTION_KINDS[model.config.model_kind]),
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
        common["input_dims"] = list(model.input_dims)
    return common


# ---------------------------------------------------------------------------
# Upgrading older model files, one format version at a time
# ---------------------------------------------------------------------------

def _without(obj: dict[str, Any], *keys: str) -> dict[str, Any]:
    return {k: v for k, v in obj.items() if k not in keys}


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
            derived = config.resolved_kernel_params(
                FeatureMatrix(_decode_array(e["train_data"])).dim
            )
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


def _v5_to_v6(obj: dict[str, Any]) -> dict[str, Any]:
    """Version 6 fits a kernelized ocsvm on the uncentered kernel and folds
    its weight into a 1 x N map. An earlier kernelized ocsvm was fit on the
    centered kernel, whose embedded points sum to 0: its weight is at
    rounding level and its labels are rounding noise, which no step can
    repair. Every other file is the same in version 6."""
    config = config_from_dict(obj["config"])
    if config.kernelized and config.model_kind == "ocsvm":
        raise PersistenceError(
            "kernelized ocsvm file before format 6: its hyperplane was fit on the "
            "centered kernel, so its weight is at rounding level and its labels "
            "are rounding noise; re-fit the model"
        )
    return obj


def _v6_to_v7(obj: dict[str, Any]) -> dict[str, Any]:
    """Version 7 drops the kind tags, each of which must agree with the
    config's model_kind: model_class, a baseline's baseline_kind and the
    description's kind. A baseline's input_dims replace its n_modalities:
    its scaler's dims when it has one entry per modality, else [W] for one
    modality of fused width W (its kernel's training data's, or its linear
    description's), else None for each, as the file does not say how W splits."""
    kind = config_from_dict(obj["config"]).model_kind
    tags = [("model_class", obj["model_class"], "subspace" if kind == "subspace" else "baseline")]
    if kind != "subspace":
        tags.append(("baseline_kind", obj["baseline_kind"], kind))
    tags.append(("description kind", obj["description"]["kind"], _DESCRIPTION_KINDS[kind]))
    for tag, stated, implied in tags:
        if stated != implied:
            raise PersistenceError(
                f"model file states {tag} {stated!r}, but its config's "
                f"model_kind {kind!r} implies {implied!r}"
            )
    obj = {**_without(obj, "model_class"), "description": _without(obj["description"], "kind")}
    if kind == "subspace":
        return obj
    n, scaler = typed("n_modalities", obj["n_modalities"], (int,), PersistenceError), obj["scaler"]
    if scaler is not None and len(scaler) == n:
        dims = [len(_decode_array(e["mean"])) for e in scaler]
    elif n == 1:
        entries, vector = obj["kernel_maps"], _DESCRIPTIONS[_DESCRIPTION_KINDS[kind]][1]
        fused = entries[0]["train_data"] if entries else obj["description"][vector]
        dims = [len(_decode_array(fused))]
    else:
        dims = [None] * n
    return {**_without(obj, "baseline_kind", "n_modalities"), "input_dims": dims}


# Version -> the step that upgrades a model file of that version to the next.
_UPGRADES = {1: _v1_to_v2, 2: _v2_to_v3, 3: _v3_to_v4, 4: _v4_to_v5, 5: _v5_to_v6, 6: _v6_to_v7}


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
    description = _description_from_dict(obj["description"], config)
    dim = description.train_points.shape[0]
    common = {
        "description": description,
        "config": config,
        "warning": typed("warning", obj["warning"], (str, type(None)), PersistenceError),
    }
    if config.model_kind != "subspace":
        kernel_maps = _kernel_maps_from_dict(obj["kernel_maps"], config, None, dim)
        dims = tuple(
            typed(f"input_dims[{v}]", d, (int, type(None)), PersistenceError)
            for v, d in enumerate(obj["input_dims"])
        )
        width = kernel_maps[0].state.train_data.dim if kernel_maps else dim
        if None not in dims and sum(dims) != width:
            raise PersistenceError(
                f"input_dims {list(dims)} sum to {sum(dims)}, but the fused width is {width}"
            )
        model = BaselineModel(input_dims=dims, kernel_maps=kernel_maps, **common)
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
