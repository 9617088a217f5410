"""Batch command-line interface.

Commands: synth, train, predict, cv, gridsearch, report. Experiments are
described by a flat JSON config file; command-line flags override config
values. Every command is deterministic given its inputs and seed, and
exits 0 only when all requested artifacts were written.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import replace
from pathlib import Path
from typing import Any, Optional

from .datamodel import (
    FeatureMatrix,
    MultiModalDataset,
    load_dataset,
    load_matrices,
    save_dataset,
    save_fold_plan,
    synth_multimodal,
)
from .errors import ConfigError, DataError, ToolkitError, typed
from .evaluation import (
    GridSpec,
    default_grid,
    fit_model,
    grid_search,
    grid_size,
    grid_table_to_csv,
    nested_cv,
    predict_model,
    report_to_csv,
    report_to_text,
    run_cv,
)
from .kernels import KernelParams
from .persistence import (
    config_to_dict,
    dataset_digest,
    load_model,
    load_report,
    save_model,
    save_report,
)
from .subspace import TrainConfig

WORKERS_ENV = "MSSVDD_WORKERS"

# Flat config key -> the TrainConfig field it sets; "kernel_params.x" is a
# KernelParams field. A key left out takes the dataclass default.
_MODEL_KEYS = {
    "model": "model_kind",
    "c": "c_penalty",
    "kernel": "kernel_params.kind",
    **{key: f"kernel_params.{key}" for key in ("gamma", "sigma", "kappa", "theta")},
    **{key: key for key in (
        "kernelized", "d", "eta", "beta", "nu", "max_iter", "update_strategy",
        "regularizer", "decision_strategy", "kkt_tol",
    )},
}

# Experiment keys and their JSON types; TrainConfig types the model keys.
_EXPERIMENT_KEYS = {
    "modality_csvs": list, "label_csv": str, "target_label": int, "normalize": bool,
    "outer_folds": int, "inner_folds": int, "seed": int, "selection": str, "grid": dict,
}

_CONFIG_KEYS = _MODEL_KEYS.keys() | _EXPERIMENT_KEYS.keys()

# Grid config key -> GridSpec axis.
_GRID_KEYS = {
    **{key: f"{key}_grid" for key in ("sigma", "eta", "beta", "c", "d")},
    **{key: key for key in (
        "update_strategies", "regularizers", "decision_strategies"
    )},
}


def _workers() -> int:
    value = os.environ.get(WORKERS_ENV, "1")
    try:
        workers = int(value)
    except ValueError:
        workers = None
    if workers is None or workers < 1:
        raise ConfigError(f"{WORKERS_ENV} must be a positive integer, got {value!r}")
    return workers


def _load_config_file(path: Optional[str]) -> dict[str, Any]:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    unknown = set(cfg) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key in _EXPERIMENT_KEYS.keys() & cfg.keys():
        typed(key, cfg[key], (_EXPERIMENT_KEYS[key],), ConfigError)
    for csv_path in cfg.get("modality_csvs", []):
        typed("modality_csvs entry", csv_path, (str,), ConfigError)
    grid = cfg.get("grid", {})
    unknown = set(grid) - _GRID_KEYS.keys()
    if unknown:
        raise ConfigError(f"unknown grid keys: {sorted(unknown)}")
    for key, values in grid.items():
        if not isinstance(values, list) or not values:
            raise ConfigError(f"grid {key} must be a non-empty list, got {values!r}")
    return cfg


def _train_config(cfg: dict[str, Any]) -> TrainConfig:
    top: dict[str, Any] = {}
    kernel: dict[str, Any] = {}
    for key in _MODEL_KEYS.keys() & cfg.keys():
        owner, _, name = _MODEL_KEYS[key].rpartition(".")
        (kernel if owner else top)[name] = cfg[key]
    return TrainConfig(**top, kernel_params=KernelParams(**kernel))


def _grid_spec(cfg: dict[str, Any], data: MultiModalDataset, base: TrainConfig) -> GridSpec:
    defaults = default_grid(data.n_modalities, base.kernelized)
    return replace(
        defaults, **{_GRID_KEYS[key]: v for key, v in cfg.get("grid", {}).items()}
    )


def _announce_search(cells: int, fits: int) -> None:
    """Say on stderr how large a search is before it starts: a config
    without a grid searches the default one, up to 1,209,600 cells."""
    print(f"grid search: {cells:,} cells, {fits:,} fits", file=sys.stderr)


def _experiment(args: argparse.Namespace) -> tuple[dict[str, Any], MultiModalDataset, TrainConfig]:
    """The config file's keys with the shared flags applied, the dataset
    they name and the model config they give."""
    cfg = _load_config_file(args.config)
    if args.data:
        cfg["modality_csvs"] = list(args.data)
    if args.labels:
        cfg["label_csv"] = args.labels
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.normalize:
        cfg["normalize"] = True
    paths = cfg.get("modality_csvs")
    if not paths:
        raise ConfigError("config needs modality_csvs (or --data flags)")
    data = load_dataset(paths, cfg.get("label_csv"))
    target = cfg.get("target_label", 1)
    if target not in (0, 1):
        raise ConfigError(f"target_label must be 0 or 1, got {target}")
    if target == 0 and data.labels is not None:
        data = MultiModalDataset(
            data.modalities, 1 - data.labels, data.sample_ids
        )
    return cfg, data, _train_config(cfg)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _cmd_synth(args: argparse.Namespace) -> int:
    dims = [int(x) for x in args.dims.split(",")]
    data = synth_multimodal(
        n_target=args.n_target,
        n_outlier=args.n_outlier,
        v=args.modalities,
        dims=dims,
        separation=args.separation,
        seed=args.seed,
    )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = [str(out_dir / f"modality_{v + 1}.csv") for v in range(args.modalities)]
    label_path = str(out_dir / "labels.csv")
    save_dataset(data, paths, label_path)
    for p in paths + [label_path]:
        print(p)
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    cfg, data, config = _experiment(args)
    model = fit_model(data, config, normalize=cfg.get("normalize", False))
    provenance = {
        "seed": cfg.get("seed", 0),
        "dataset_digest": dataset_digest(data),
    }
    save_model(model, args.out, provenance)
    print(args.out)
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    n_mod = model.n_modalities
    if len(args.data) != n_mod:
        raise DataError(
            f"model expects {n_mod} modality files, got {len(args.data)}: "
            f"{', '.join(args.data)}"
        )
    header = (
        ["index", "fused"]
        + [f"m{v + 1}_label" for v in range(n_mod)]
        + [f"m{v + 1}_distance_sq" for v in range(n_mod)]
        + ["radius_sq"]
    )
    matrices = load_matrices(args.data)
    rows = []
    # Every file has the same row count, so zero here means all are empty.
    if matrices[0].shape[0] > 0:
        result = predict_model(
            model, MultiModalDataset(tuple(FeatureMatrix(m.T) for m in matrices))
        )
        v_rows = result.per_modality.shape[0]
        for i in range(result.fused.shape[0]):
            row = [i, int(result.fused[i])]
            row += [int(result.per_modality[v, i]) for v in range(v_rows)]
            row += [f"{result.distances[v, i]:.6f}" for v in range(v_rows)]
            row.append(f"{result.radius_sq:.6f}")
            rows.append(row)
    # The file is opened only after prediction succeeded, so a failed
    # prediction neither creates nor truncates it.
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    print(args.out)
    return 0


def _cmd_cv(args: argparse.Namespace) -> int:
    cfg, data, base = _experiment(args)
    seed = cfg.get("seed", 0)
    outer_k = cfg.get("outer_folds", 5)
    normalize = cfg.get("normalize", False)
    if "grid" in cfg:
        grid = _grid_spec(cfg, data, base)
        inner_k = cfg.get("inner_folds", 10)
        selection = args.selection or cfg.get("selection", "nested")
        workers = _workers()
        cells, distinct = grid_size(grid, base)
        # Nested selection searches in every outer fold and fits each
        # winner; global selection searches once and cross-validates its winner.
        if selection == "nested":
            fits = outer_k * (distinct * inner_k + 1)
        else:
            fits = distinct * inner_k + outer_k
        _announce_search(cells, fits)
        report = nested_cv(
            data,
            grid,
            base,
            outer_k=outer_k,
            inner_k=inner_k,
            seed=seed,
            normalize=normalize,
            selection=selection,
            workers=workers,
        )
    else:
        report = run_cv(data, base, k=outer_k, seed=seed, normalize=normalize)
    prefix = args.out_prefix
    save_report(report, f"{prefix}.json")
    Path(f"{prefix}.csv").write_text(report_to_csv(report))
    Path(f"{prefix}.txt").write_text(report_to_text(report))
    save_fold_plan(report.fold_plan, f"{prefix}_folds.csv")
    for suffix in (".json", ".csv", ".txt", "_folds.csv"):
        print(f"{prefix}{suffix}")
    return 0


def _cmd_gridsearch(args: argparse.Namespace) -> int:
    cfg, data, base = _experiment(args)
    grid = _grid_spec(cfg, data, base)
    inner_k = cfg.get("inner_folds", 10)
    workers = _workers()
    cells, distinct = grid_size(grid, base)
    _announce_search(cells, distinct * inner_k)
    result = grid_search(
        data,
        grid,
        base,
        inner_k=inner_k,
        seed=cfg.get("seed", 0),
        normalize=cfg.get("normalize", False),
        workers=workers,
    )
    prefix = args.out_prefix
    best = {
        "best_index": result.best_index,
        "config": config_to_dict(result.best_config),
        "inner_k": result.inner_k,
        "seed": result.seed,
    }
    Path(f"{prefix}_best.json").write_text(
        json.dumps(best, sort_keys=True, indent=1) + "\n"
    )
    Path(f"{prefix}_cells.csv").write_text(grid_table_to_csv(result))
    print(f"{prefix}_best.json")
    print(f"{prefix}_cells.csv")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    report = load_report(args.report)
    text = report_to_text(report)
    if args.out:
        Path(args.out).write_text(text)
        print(args.out)
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mssvdd",
        description="Multi-modal subspace one-class classification toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # The flags train, cv and gridsearch take over their config file's keys.
    experiment = argparse.ArgumentParser(add_help=False)
    experiment.add_argument("--data", action="append", help="modality CSV (repeatable)")
    experiment.add_argument("--labels", help="label CSV")
    experiment.add_argument("--seed", type=int)
    experiment.add_argument("--normalize", action="store_true")

    p = sub.add_parser("synth", help="generate a synthetic multi-modal dataset")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--n-target", type=int, required=True)
    p.add_argument("--n-outlier", type=int, required=True)
    p.add_argument("--modalities", type=int, default=2)
    p.add_argument("--dims", default="4,4", help="comma-separated dims per modality")
    p.add_argument("--separation", type=float, default=4.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_synth)

    p = sub.add_parser("train", parents=[experiment], help="fit a model and save it")
    p.add_argument("--config", help="JSON experiment config")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("predict", help="classify samples with a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", action="append", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_predict)

    p = sub.add_parser(
        "cv", parents=[experiment],
        help="stratified cross-validation (nested when a grid is given)",
    )
    p.add_argument("--config", required=True)
    p.add_argument("--selection", choices=["nested", "global"])
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(fn=_cmd_cv)

    p = sub.add_parser(
        "gridsearch", parents=[experiment], help="hyperparameter search on the full dataset"
    )
    p.add_argument("--config", required=True)
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(fn=_cmd_gridsearch)

    p = sub.add_parser("report", help="re-render a saved evaluation report")
    p.add_argument("--report", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_report)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
