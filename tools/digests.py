"""SHA-256 digests of mssvdd's deterministic outputs over a fixed corpus,
to show that a change keeps them bit for bit.

    python3 tools/digests.py write OUT.json
    python3 tools/digests.py compare BEFORE.json AFTER.json

``write`` imports mssvdd from the ``src`` directory beside this script's
directory, so a copy of the script in another checkout (say, the parent
commit's) digests that checkout. Run both sides on one machine: BLAS
rounding differs between machines. The corpus:

- W1 (kernelized composite kernel, sigma 10, d 3, C 0.1, AD-+, w4, 20
  iterations on 200 target and 100 outlier samples of two 20-dim
  modalities) fit on 3 seeds: each model file's bytes, and the
  predictions of the model in memory and reloaded from its file;
- the 8 grid tables of the benchmark's ``select`` workload at seed 1
  (32 cells, inner 5-fold CV, 1 iteration per fit);
- the kernelized svdd and ocsvm baselines on 300 targets: alphas, model
  file bytes, distances and labels;
- every artifact of the CLI commands synth, train, predict, cv (fixed
  config, nested and global selection), gridsearch and report (each cv
  report file re-rendered) for a linear, a kernelized, an svdd and an
  ocsvm config, each with and without --normalize, with MSSVDD_WORKERS
  unset and set to 2.

Each array is stored with its digest, so ``compare`` can give the largest
relative change of an array that differs. ``compare`` lists the entries
that differ or exist on one side only, and exits 1 when there is one.
"""

from __future__ import annotations

import base64
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from dataclasses import replace
from pathlib import Path
from typing import Any, Optional

SRC = Path(__file__).resolve().parent.parent / "src"
if __name__ == "__main__":
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import mssvdd  # noqa: E402
from mssvdd import cli  # noqa: E402
from mssvdd.datamodel import synth_multimodal  # noqa: E402
from mssvdd.evaluation import (  # noqa: E402
    GridSpec, fit_model, grid_search, grid_table_to_csv, predict_model,
)
from mssvdd.kernels import KernelParams  # noqa: E402
from mssvdd.persistence import load_model, save_model  # noqa: E402
from mssvdd.subspace import TrainConfig  # noqa: E402

Entries = dict[str, dict[str, Any]]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _array(entries: Entries, name: str, a: Any) -> None:
    """The digest of a's bytes, with a itself, as little-endian float64
    or, for integers, int64."""
    a = np.asarray(a)
    dtype = "<i8" if a.dtype.kind in "biu" else "<f8"
    raw = np.ascontiguousarray(a, dtype=dtype).tobytes()
    entries[name] = {
        "sha256": _sha(raw),
        "dtype": dtype,
        "shape": list(a.shape),
        "data": base64.b64encode(raw).decode("ascii"),
    }


def _bytes(entries: Entries, name: str, data: bytes) -> None:
    entries[name] = {"sha256": _sha(data), "size": len(data)}


def _prediction(entries: Entries, name: str, result: Any) -> None:
    _array(entries, f"{name}/fused", result.fused)
    _array(entries, f"{name}/per_modality", result.per_modality)
    _array(entries, f"{name}/distances", result.distances)
    _array(entries, f"{name}/radius_sq", [result.radius_sq])


def _w1(entries: Entries, workdir: Path, tiny: bool) -> None:
    config = TrainConfig(
        d=2 if tiny else 3, eta=1e-3, beta=1e-2, c_penalty=0.1, max_iter=2 if tiny else 20,
        update_strategy="AD-+", regularizer="w4", kernelized=True,
        kernel_params=KernelParams(kind="composite", gamma=0.5, sigma=10.0),
    )
    n_target, n_outlier, dims = (30, 10, [4, 4]) if tiny else (200, 100, [20, 20])
    probe = synth_multimodal(n_target, n_target, 2, dims, 3.0, 100)
    for seed in (1, 2, 3):
        name = f"w1/seed-{seed}"
        model = fit_model(synth_multimodal(n_target, n_outlier, 2, dims, 3.0, seed), config)
        path = workdir / f"w1-{seed}.json"
        save_model(model, str(path))
        _bytes(entries, f"{name}/file", path.read_bytes())
        _prediction(entries, f"{name}/predict", predict_model(model, probe))
        _prediction(entries, f"{name}/predict-reloaded", predict_model(load_model(str(path)), probe))


def _select(entries: Entries, tiny: bool) -> None:
    """The benchmark's select workload at seed 1: its datasets, fold seeds,
    grid and base config."""
    cycle = 2 if tiny else 8
    seeds = [int(s) for s in np.random.SeedSequence(1).generate_state(2 * cycle)]
    n_each, dims, inner_k = (10, [3, 3], 2) if tiny else (40, [5, 5], 5)
    base = TrainConfig(
        d=2 if tiny else 3, eta=1e-3, beta=1e-2, c_penalty=0.1, max_iter=1,
        update_strategy="AD-+", regularizer="w4", kernelized=True,
        kernel_params=KernelParams(kind="composite", gamma=0.5, sigma=10.0),
    )
    grid = GridSpec(
        sigma_grid=(10.0,), eta_grid=(base.eta,), beta_grid=(1e-2, 1.0), c_grid=(0.1, 0.3),
        d_grid=(base.d,), update_strategies=("SD-", "AD-+"), regularizers=("w0", "w4"),
        decision_strategies=("ds1", "ds2"),
    )
    for k in range(cycle):
        data = synth_multimodal(n_each, n_each, 2, dims, 3.0, seeds[k])
        result = grid_search(data, grid, base, inner_k=inner_k, seed=seeds[cycle + k])
        name = f"select/dataset-{k}"
        _bytes(entries, f"{name}/table", grid_table_to_csv(result).encode())
        _array(entries, f"{name}/fold_gms", [g for c in result.cells for g in c.fold_gms])


def _baselines(entries: Entries, workdir: Path, tiny: bool) -> None:
    n = 40 if tiny else 300
    train = synth_multimodal(n, 1, 2, [20, 20], 3.0, 11)
    probe = synth_multimodal(n // 4, n // 4, 2, [20, 20], 3.0, 12)
    kernel = KernelParams(kind="composite", gamma=0.5, sigma=3.0)
    for config in (
        TrainConfig(model_kind="svdd", kernelized=True, kernel_params=kernel, c_penalty=0.05),
        TrainConfig(model_kind="ocsvm", kernelized=True, kernel_params=kernel, nu=0.1),
    ):
        name = f"baseline/{config.model_kind}"
        model = fit_model(train, config)
        _array(entries, f"{name}/alphas", model.description.alphas)
        path = workdir / f"baseline-{config.model_kind}.json"
        save_model(model, str(path))
        _bytes(entries, f"{name}/file", path.read_bytes())
        _prediction(entries, f"{name}/predict", predict_model(model, probe))


# CLI model configs: name -> flat config keys. Each runs fixed, and with
# GRIDS[name] as its grid.
MODELS = {
    "linear": {"d": 2, "eta": 0.01, "beta": 0.1, "c": 0.5, "max_iter": 3, "regularizer": "w4"},
    "kernelized": {
        "kernelized": True, "kernel": "composite", "sigma": 3.0, "d": 2, "eta": 0.001,
        "c": 0.5, "max_iter": 3, "update_strategy": "AD-+",
    },
    "svdd": {"model": "svdd", "kernelized": True, "kernel": "composite", "sigma": 3.0, "c": 0.3},
    "ocsvm": {"model": "ocsvm", "nu": 0.3},
}
GRIDS = {
    # c 0.02 fails on every fold (C * M < 1), so the tables hold failed cells.
    "linear": {"d": [1, 2], "c": [0.02, 0.5], "beta": [0.1], "eta": [0.01],
               "update_strategies": ["SD-"], "regularizers": ["w0", "w4"],
               "decision_strategies": ["ds1", "ds2"]},
    "kernelized": {"d": [2], "c": [0.3, 0.6], "sigma": [1.0, 3.0], "eta": [0.001],
                   "beta": [0.01], "update_strategies": ["AD-+"], "regularizers": ["w4"],
                   "decision_strategies": ["ds1", "ds3"]},
    "svdd": {"c": [0.1, 0.3], "sigma": [1.0, 3.0]},
    "ocsvm": {"c": [0.2, 0.5]},
}


def _run_cli(entries: Entries, name: str, argv: list[str], workdir: Path) -> None:
    """Run one CLI command in this process; its exit status and stderr,
    with workdir written as <dir>, are an artifact too."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        status = cli.main(argv)
    _bytes(entries, f"{name}/status", f"{status}\n{err.getvalue()}".replace(str(workdir), "<dir>").encode())


def _cli(entries: Entries, workdir: Path, tiny: bool) -> None:
    n_target, n_outlier, folds = (12, 8, 2) if tiny else (30, 20, 3)
    for name, seed in (("data", 0), ("probe", 1)):
        _run_cli(entries, f"cli/synth-{name}", [
            "synth", "--out-dir", str(workdir / name), "--n-target", str(n_target),
            "--n-outlier", str(n_outlier), "--dims", "3,4", "--separation", "3", "--seed", str(seed),
        ], workdir)
    data = ["--data", str(workdir / "data/modality_1.csv"), "--data", str(workdir / "data/modality_2.csv")]
    probe = ["--data", str(workdir / "probe/modality_1.csv"), "--data", str(workdir / "probe/modality_2.csv")]
    labels = ["--labels", str(workdir / "data/labels.csv")]
    for model, keys in MODELS.items():
        fixed = workdir / f"{model}.json"
        fixed.write_text(json.dumps({**keys, "outer_folds": folds, "seed": 3}))
        searched = workdir / f"{model}-grid.json"
        searched.write_text(json.dumps({**keys, "outer_folds": folds, "inner_folds": folds,
                                        "seed": 3, "grid": GRIDS[model]}))
        for workers in (None, "2"):
            for normalize in ([], ["--normalize"]):
                run = f"{model}-workers-{workers or 'unset'}{'-normalize' if normalize else ''}"
                out = workdir / run
                out.mkdir()
                commands = {
                    "train": ["train", "--config", str(fixed), *data, *labels, *normalize,
                              "--out", str(out / "model.json")],
                    "predict": ["predict", "--model", str(out / "model.json"), *probe,
                                "--out", str(out / "predictions.csv")],
                    "cv-fixed": ["cv", "--config", str(fixed), *data, *labels, *normalize,
                                 "--out-prefix", str(out / "cv-fixed")],
                    "gridsearch": ["gridsearch", "--config", str(searched), *data, *labels,
                                   *normalize, "--out-prefix", str(out / "gridsearch")],
                    **{
                        f"cv-{selection}": [
                            "cv", "--config", str(searched), *data, *labels, *normalize,
                            "--selection", selection, "--out-prefix", str(out / f"cv-{selection}"),
                        ]
                        for selection in ("nested", "global")
                    },
                    # Re-rendered from its file, each cv report should equal
                    # the text cv wrote beside it.
                    **{
                        f"report-{report}": [
                            "report", "--report", str(out / f"{report}.json"),
                            "--out", str(out / f"{report}-report.txt"),
                        ]
                        for report in ("cv-fixed", "cv-nested", "cv-global")
                    },
                }
                with _workers(workers):
                    for command, argv in commands.items():
                        _run_cli(entries, f"cli/{run}/{command}", argv, workdir)
                for path in sorted(out.iterdir()):
                    _bytes(entries, f"cli/{run}/{path.name}", path.read_bytes())
    for name in ("data", "probe"):
        for path in sorted((workdir / name).iterdir()):
            _bytes(entries, f"cli/synth-{name}/{path.name}", path.read_bytes())


@contextlib.contextmanager
def _workers(value: Optional[str]):
    """MSSVDD_WORKERS set to value, or unset when value is None."""
    saved = os.environ.pop(cli.WORKERS_ENV, None)
    if value is not None:
        os.environ[cli.WORKERS_ENV] = value
    try:
        yield
    finally:
        os.environ.pop(cli.WORKERS_ENV, None)
        if saved is not None:
            os.environ[cli.WORKERS_ENV] = saved


def collect(tiny: bool = False) -> Entries:
    """Every entry of the corpus: name -> its digest, with the array or
    the size of what was hashed. tiny shrinks every input, for a test."""
    entries: Entries = {}
    with tempfile.TemporaryDirectory(prefix="mssvdd-digests-") as tmp:
        workdir = Path(tmp)
        _w1(entries, workdir, tiny)
        _select(entries, tiny)
        _baselines(entries, workdir, tiny)
        _cli(entries, workdir, tiny)
    return entries


def _relative_change(a: dict[str, Any], b: dict[str, Any]) -> str:
    """How two arrays that differ differ: the largest |a - b| / max(|a|, |b|)
    over their entries, or their shapes."""
    def values(e: dict[str, Any]) -> np.ndarray:
        return np.frombuffer(base64.b64decode(e["data"]), dtype=e["dtype"]).reshape(e["shape"])

    x, y = values(a), values(b)
    if x.shape != y.shape:
        return f"shape {list(x.shape)} -> {list(y.shape)}"
    x, y = x.astype(np.float64), y.astype(np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):
        rel = np.abs(x - y) / np.maximum(np.abs(x), np.abs(y))
    rel = np.where((x == y) | (np.isnan(x) & np.isnan(y)), 0.0, rel)
    return f"largest relative change {np.nanmax(rel, initial=0.0):.3e}, {int(np.sum(rel != 0))} entries"


def differences(before: Entries, after: Entries) -> list[str]:
    """One line per entry whose digest differs or that one side lacks."""
    lines = []
    for name in sorted(before.keys() | after.keys()):
        a, b = before.get(name), after.get(name)
        if a is None or b is None:
            lines.append(f"{name}: only in {'after' if a is None else 'before'}")
        elif a["sha256"] != b["sha256"]:
            if "data" in a and "data" in b:
                lines.append(f"{name}: {_relative_change(a, b)}")
            else:
                lines.append(f"{name}: bytes differ ({a['size']} -> {b['size']} B)")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "write":
        if Path(mssvdd.__file__).resolve().parent != SRC / "mssvdd":
            print(f"imported mssvdd from {mssvdd.__file__}, not {SRC}", file=sys.stderr)
            return 2
        entries = collect()
        Path(argv[1]).write_text(json.dumps(entries, sort_keys=True, indent=1) + "\n")
        print(f"{argv[1]}: {len(entries)} digests")
        return 0
    if len(argv) == 3 and argv[0] == "compare":
        before, after = (json.loads(Path(p).read_text()) for p in argv[1:])
        lines = differences(before, after)
        print("\n".join(lines) if lines else f"all {len(before)} digests agree")
        return 1 if lines else 0
    print(__doc__.split("\n\n")[1], file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
