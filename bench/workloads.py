"""The benchmark's four workloads, built from the public mssvdd API.

Each workload is a closed loop with one client: an op starts when the
previous one has finished and been checked. A workload makes every input
from the run's seed in its constructor and warm_up (together: set-up),
then runs ``op(i)`` repeatedly, op i on input ``i % cycle``;
``check(i, out, cap_hits)`` runs after each op, outside its timing, with
the number of sweep-cap warnings the op raised, and returns a list of
problems (empty when the op is correct). Runs measure whole
passes over the cycle, so every input weighs the same in a run's figures.
Fit, score and select cycle over several seeded datasets because op time
depends on the dataset (the solver's work varies with it) and GM depends
on the model: averaging over datasets keeps run-to-run figures steady
across seeds.

Calls that the traced run must see go through the module attribute
(``subspace.train``, ``persistence.save_model``, ...) so that the tracer's
rebinding of those names applies to them; see tracing.py.

Held-out outliers are target-distribution samples scaled by 3. The synth
generator's own outliers, shifted by 3 along one seeded direction, are
accepted by almost every W1 model, so a GM on them sits near 0 and
depends mainly on that one direction; isotropic scaled outliers give a GM
that compares models, not seeds.
"""

from __future__ import annotations

import os
from dataclasses import replace
from typing import Any, Callable

import numpy as np

from mssvdd import evaluation, persistence, subspace
from mssvdd.datamodel import FeatureMatrix, MultiModalDataset, synth_multimodal
from mssvdd.evaluation import GridSpec, compute_metrics, confusion_from_labels
from mssvdd.kernels import KernelParams
from mssvdd.subspace import TrainConfig
from tracing import kkt_problems

OUTLIER_SCALE = 3.0


def sub_seeds(seed: int, n: int) -> list[int]:
    """n independent generator seeds derived from the run's seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


def heldout_batch(seed: int, dims: list[int], n_each: int) -> MultiModalDataset:
    """n_each target samples followed by n_each scaled outliers."""
    rng = np.random.default_rng(seed)
    mods = tuple(
        FeatureMatrix(np.hstack([
            rng.standard_normal((d, n_each)),
            OUTLIER_SCALE * rng.standard_normal((d, n_each)),
        ]))
        for d in dims
    )
    labels = np.concatenate([np.ones(n_each, np.int64), np.zeros(n_each, np.int64)])
    return MultiModalDataset(mods, labels, ())


def gm_of(data: MultiModalDataset, result: Any) -> float:
    return compute_metrics(confusion_from_labels(data.labels, result.fused)).gm


def same_prediction(a: Any, b: Any) -> bool:
    return (
        np.array_equal(a.fused, b.fused)
        and np.array_equal(a.per_modality, b.per_modality)
        and np.array_equal(a.distances, b.distances)
        and a.radius_sq == b.radius_sq
    )


def w1_config(tiny: bool) -> TrainConfig:
    """W1: kernelized composite, sigma=10, d=3, C=0.1, AD-+, w4, 20 iterations."""
    return TrainConfig(
        d=2 if tiny else 3,
        eta=1e-3,
        beta=1e-2,
        c_penalty=0.1,
        max_iter=2 if tiny else 20,
        update_strategy="AD-+",
        regularizer="w4",
        kernelized=True,
        kernel_params=KernelParams(kind="composite", gamma=0.5, sigma=10.0),
    )


def w1_data(seed: int, tiny: bool) -> MultiModalDataset:
    if tiny:
        return synth_multimodal(30, 10, 2, [4, 4], 3.0, seed)
    return synth_multimodal(200, 100, 2, [20, 20], 3.0, seed)


class Workload:
    name = ""
    work_unit = ""
    work_per_op = 1
    cycle = 1
    min_passes = 1

    def __init__(self, workdir: str) -> None:
        self.workdir = workdir

    def warm_up(self) -> None:
        raise NotImplementedError

    def op(self, i: int) -> Any:
        raise NotImplementedError

    def check(self, i: int, out: Any, cap_hits: int) -> list[str]:
        raise NotImplementedError

    def gm(self) -> float:
        raise NotImplementedError

    def model_bytes(self) -> int:
        raise NotImplementedError


def _warning_problems(models: list[Any]) -> list[str]:
    return [f"model warning: {m.warning}" for m in models if m.warning is not None]


class Fit(Workload):
    """train + save_model of W1 models, cycling over 32 seeded datasets."""

    name = "fit"
    work_unit = "fits"

    def __init__(self, seed: int, tiny: bool, workdir: str) -> None:
        super().__init__(workdir)
        seeds = sub_seeds(seed, 3 if tiny else 33)
        self.datasets = [w1_data(s, tiny) for s in seeds[:-1]]
        self.cycle = len(self.datasets)
        dims = [m.dim for m in self.datasets[0].modalities]
        self.heldout = heldout_batch(seeds[-1], dims, 20 if tiny else 500)
        self.config = w1_config(tiny)
        self.paths = [os.path.join(workdir, f"fit-{k}.json") for k in range(len(self.datasets))]
        self.gms: dict[int, float] = {}

    def warm_up(self) -> None:
        subspace.train(self.datasets[0], self.config)

    def op(self, i: int) -> Any:
        k = i % self.cycle
        model = subspace.train(self.datasets[k], self.config)
        persistence.save_model(model, self.paths[k])
        return model

    def check(self, i: int, out: Any, cap_hits: int) -> list[str]:
        k = i % self.cycle
        problems = _warning_problems([out])
        worst = max(p.ortho_error() for p in out.projections)
        if worst > 1e-8:
            problems.append(f"projection orthonormality error {worst:.3e} > 1e-8")
        in_memory = subspace.predict(out, self.heldout)
        reloaded = subspace.predict(persistence.load_model(self.paths[k]), self.heldout)
        if not same_prediction(in_memory, reloaded):
            problems.append("reloaded model predicts differently from the in-memory model")
        self.gms.setdefault(k, gm_of(self.heldout, in_memory))
        return problems

    def gm(self) -> float:
        return float(np.mean(list(self.gms.values())))

    def model_bytes(self) -> int:
        return int(np.mean([os.path.getsize(p) for p in self.paths if os.path.exists(p)]))


class Score(Workload):
    """load_model + predict_model of saved W1 models on a fresh labelled batch."""

    name = "score"
    work_unit = "samples"

    def __init__(self, seed: int, tiny: bool, workdir: str) -> None:
        super().__init__(workdir)
        seeds = sub_seeds(seed, 3 if tiny else 9)
        config = w1_config(tiny)
        self.paths = []
        for k, s in enumerate(seeds[:-1]):
            model = subspace.train(w1_data(s, tiny), config)
            path = os.path.join(workdir, f"score-{k}.json")
            persistence.save_model(model, path)
            self.paths.append(path)
        self.cycle = len(self.paths)
        dims = [4, 4] if tiny else [20, 20]
        self.batch = heldout_batch(seeds[-1], dims, 20 if tiny else 500)
        self.work_per_op = self.batch.n_samples
        self.first: dict[int, Any] = {}

    def warm_up(self) -> None:
        evaluation.predict_model(persistence.load_model(self.paths[0]), self.batch)

    def op(self, i: int) -> Any:
        model = persistence.load_model(self.paths[i % self.cycle])
        return model, evaluation.predict_model(model, self.batch)

    def check(self, i: int, out: Any, cap_hits: int) -> list[str]:
        model, result = out
        problems = _warning_problems([model])
        first = self.first.setdefault(i % self.cycle, result)
        if not same_prediction(first, result):
            problems.append("prediction differs from the first op on the same model")
        return problems

    def gm(self) -> float:
        return float(np.mean([gm_of(self.batch, r) for r in self.first.values()]))

    def model_bytes(self) -> int:
        return int(np.mean([os.path.getsize(p) for p in self.paths]))


class Select(Workload):
    """grid_search over 32 cells with inner 5-fold CV, cycling over 8 seeded
    80-sample 2x5-dim datasets; every run makes two passes, so each grid
    table is checked against the first one on the same dataset.

    Fits make 1 iteration instead of W1's 20. At 20 iterations one search
    takes 10 s, a run could cover one dataset, and the solver's sweep cap
    (hit 0 to 100 times per search, depending on the dataset) made a
    run's figures swing between seeds by more than 2x. Averaging over 8
    datasets keeps them steady. The fit workload keeps 20 iterations over
    32 datasets per run and carries the sweep-cap cost.
    """

    name = "select"
    work_unit = "cells"
    min_passes = 2
    max_iter = 1

    def __init__(self, seed: int, tiny: bool, workdir: str) -> None:
        super().__init__(workdir)
        self.cycle = 2 if tiny else 8
        seeds = sub_seeds(seed, 2 * self.cycle)
        n_each, dims, self.inner_k = (10, [3, 3], 2) if tiny else (40, [5, 5], 5)
        self.datasets = [synth_multimodal(n_each, n_each, 2, dims, 3.0, s)
                         for s in seeds[:self.cycle]]
        self.fold_seeds = seeds[self.cycle:]
        self.base = replace(w1_config(tiny), max_iter=self.max_iter)
        self.grid = GridSpec(
            sigma_grid=(10.0,),
            eta_grid=(self.base.eta,),
            beta_grid=(1e-2, 1.0),
            c_grid=(0.1, 0.3),
            d_grid=(self.base.d,),
            update_strategies=("SD-", "AD-+"),
            regularizers=("w0", "w4"),
            decision_strategies=("ds1", "ds2"),
        )
        self.work_per_op = len(evaluation.expand_grid(self.grid, self.base))
        self.first: dict[int, Any] = {}

    def warm_up(self) -> None:
        evaluation.fit_model(self.datasets[0], self.base)

    def op(self, i: int) -> Any:
        k = i % self.cycle
        return evaluation.grid_search(
            self.datasets[k], self.grid, self.base, inner_k=self.inner_k,
            seed=self.fold_seeds[k], workers=1,
        )

    @staticmethod
    def _table(result: Any) -> tuple:
        return result.best_index, [(c.status, c.mean_gm, c.fold_gms) for c in result.cells]

    def check(self, i: int, out: Any, cap_hits: int) -> list[str]:
        first = self.first.setdefault(i % self.cycle, out)
        if self._table(out) != self._table(first):
            return ["grid table differs from the first op on the same dataset"]
        return []

    def gm(self) -> float:
        return float(np.mean([r.cells[r.best_index].mean_gm for r in self.first.values()]))

    def model_bytes(self) -> int:
        k, result = next(iter(self.first.items()))
        path = os.path.join(self.workdir, "select-best.json")
        persistence.save_model(evaluation.fit_model(self.datasets[k], result.best_config), path)
        size = os.path.getsize(path)
        os.remove(path)
        return size


class Baseline(Workload):
    """fit_model + predict_model of the kernelized svdd baseline, then of the
    kernelized ocsvm baseline, alternating."""

    name = "baseline"
    work_unit = "fits"
    cycle = 2

    def __init__(self, seed: int, tiny: bool, workdir: str) -> None:
        super().__init__(workdir)
        train_seed, heldout_seed = sub_seeds(seed, 2)
        n = 60 if tiny else 1500
        dims = [4, 4] if tiny else [20, 20]
        self.train = synth_multimodal(n, 1, 2, dims, 3.0, train_seed)
        self.heldout = heldout_batch(heldout_seed, dims, n // 4)
        kp = KernelParams(kind="composite", gamma=0.5, sigma=3.0)
        self.configs = [
            TrainConfig(model_kind="svdd", kernelized=True, kernel_params=kp,
                        c_penalty=0.25 if tiny else 0.01),
            TrainConfig(model_kind="ocsvm", kernelized=True, kernel_params=kp, nu=0.1),
        ]
        self.gms: dict[str, float] = {}
        self.last: dict[str, Any] = {}

    def warm_up(self) -> None:
        self.op(0)

    def op(self, i: int) -> Any:
        model = evaluation.fit_model(self.train, self.configs[i % self.cycle])
        return model, evaluation.predict_model(model, self.heldout)

    def check(self, i: int, out: Any, cap_hits: int) -> list[str]:
        model, result = out
        _, kkt = kkt_problems([(model.kind, model.description, model.config.kkt_tol)], cap_hits)
        problems = _warning_problems([model]) + kkt
        self.gms.setdefault(model.kind, gm_of(self.heldout, result))
        self.last[model.kind] = model
        return problems

    def gm(self) -> float:
        return float(np.mean(list(self.gms.values())))

    def model_bytes(self) -> int:
        total = 0
        for kind, model in self.last.items():
            path = os.path.join(self.workdir, f"baseline-{kind}.json")
            persistence.save_model(model, path)
            total += os.path.getsize(path)
            os.remove(path)
        return total


WORKLOADS: dict[str, Callable[..., Workload]] = {
    w.name: w for w in (Fit, Score, Select, Baseline)
}
