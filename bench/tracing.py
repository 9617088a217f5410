"""Outside-in tracing of the mssvdd layers for the benchmark's traced run.

Nothing inside the library is instrumented. Instead, for the duration of a
traced op, the module-level names each caller looks up are rebound to
timing wrappers. Callers import by name (``from .svdd import svdd_solve``),
so a wrapper has to sit in the namespace of the module that makes the
call, not only where the function is defined: ``mssvdd.subspace.svdd_solve``
and ``mssvdd.baselines.svdd_solve`` are two separate bindings of one
function. Every wrapper calls the original function object, so rebinding
two names of one function never nests spans.

A span is (id, name, start, end, parent id, op id). Spans stay in memory
and are written out when the run ends. Counts that belong to a boundary
(solved columns, kernel evaluations, file bytes) are recorded by the same
wrapper; checks that need real computation (KKT conditions, distinct fits)
keep references and run after the op, outside its timing.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import os
import statistics
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Optional

import numpy as np


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int
    op: int


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover.

    Child intervals are clipped to the parent's interval and merged before
    they are subtracted, so overlapping or overhanging children are not
    counted twice.
    """
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        children[s.parent].append(s)
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = (s.end - s.start) - covered
    return out


def kkt_violation(kind: str, desc: Any) -> float:
    """Largest first-order KKT violation of a solved dual, recomputed.

    The gradient is rebuilt from the description's train_points and alphas
    only, independently of the solver: the hypersphere dual has gradient
    diag(G) - 2 G a, the hyperplane dual -G a, over the simplex with the
    box bound C (hypersphere) or 1/(nu M) (hyperplane).
    """
    pts = desc.train_points
    a = desc.alphas
    m = a.size
    if m < 2:
        return 0.0
    g = pts.T @ pts
    if kind == "svdd":
        grad = np.diag(g) - 2.0 * (g @ a)
        upper = desc.c_penalty
    else:
        grad = -(g @ a)
        upper = 1.0 / (desc.nu * m)
    can_up = a < upper - 1e-12
    can_dn = a > 1e-12
    if not can_up.any() or not can_dn.any():
        return 0.0
    return max(0.0, float(grad[can_up].max() - grad[can_dn].min()))


# Relative allowance for the difference between the solver's incrementally
# updated gradient, on which it stops, and a fresh recomputation.
KKT_SLACK = 1e-3


def kkt_problems(solves: list[tuple[str, Any, float]], cap_hits: int) -> tuple[float, list[str]]:
    """Worst recomputed KKT violation over (kind, description, kkt_tol)
    solves, and the problems: solves that missed their kkt_tol beyond the
    number the op's sweep-cap warnings announced. An announced miss is
    counted by svdd.cap_hits; a silent one fails the op.
    """
    worst = 0.0
    misses = []
    for kind, desc, tol in solves:
        v = kkt_violation(kind, desc)
        worst = max(worst, v)
        if v > tol * (1.0 + KKT_SLACK):
            misses.append(f"{kind} solve with M={desc.alphas.size}: KKT violation {v:.3e} > {tol:.1e}")
    if len(misses) <= cap_hits:
        return worst, []
    return worst, [f"{len(misses)} solves missed kkt_tol, {cap_hits} announced a sweep-cap hit"] + misses


def _digest(*arrays: np.ndarray) -> str:
    h = hashlib.sha1()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _model_digest(model: Any) -> str:
    desc = model.description
    if hasattr(model, "projections"):
        return _digest(desc.alphas, *(p.q for p in model.projections))
    return model.kind + _digest(desc.alphas)


@dataclass
class OpRecord:
    """What one traced op left behind, before the post-op analysis."""

    counts: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    solves: list[tuple[str, Any, float]] = field(default_factory=list)
    fits: list[tuple[Any, Any]] = field(default_factory=list)
    models: list[Any] = field(default_factory=list)


# Count hooks: (record, args, kwargs, result) -> None. Cheap work only;
# anything heavier keeps a reference and runs in Tracer.finish_op.

def _solve_hook(kind: str) -> Callable:
    def hook(rec: OpRecord, args, kwargs, out) -> None:
        from mssvdd.svdd import DEFAULT_KKT_TOL

        tol = args[2] if len(args) > 2 else kwargs.get("kkt_tol", DEFAULT_KKT_TOL)
        rec.counts["svdd.solve_cols"] += out.alphas.size
        rec.solves.append((kind, out, float(tol)))

    return hook


def _kernel_matrix_hook(rec, args, kwargs, out) -> None:
    rec.counts["kernels.kernel_evals"] += out.size


def _npt_fit_hook(rec, args, kwargs, out) -> None:
    rec.counts["kernels.eigh_n3"] += float(args[0].n_samples) ** 3


def _embed_hook(rec, args, kwargs, out) -> None:
    rec.counts["kernels.kernel_evals"] += args[0].train_data.n_samples * out.shape[1]


def _train_hook(rec, args, kwargs, out) -> None:
    rec.models.append(out)


def _fit_model_hook(rec, args, kwargs, out) -> None:
    rec.fits.append((args[0], out))


def _save_hook(rec, args, kwargs, out) -> None:
    rec.counts["persistence.bytes_written"] += os.path.getsize(args[1])


def _load_hook(rec, args, kwargs, out) -> None:
    rec.counts["persistence.bytes_read"] += os.path.getsize(args[0])


# (module, attribute looked up by the caller, span name, count hook)
BINDINGS: tuple[tuple[str, str, str, Optional[Callable]], ...] = (
    ("mssvdd.subspace", "svdd_solve", "svdd.svdd_solve", _solve_hook("svdd")),
    ("mssvdd.baselines", "svdd_solve", "svdd.svdd_solve", _solve_hook("svdd")),
    ("mssvdd.baselines", "ocsvm_solve", "svdd.ocsvm_solve", _solve_hook("ocsvm")),
    ("mssvdd.kernels", "kernel_matrix", "kernels.kernel_matrix", _kernel_matrix_hook),
    ("mssvdd.kernels", "center_kernel", "kernels.center_kernel", None),
    ("mssvdd.subspace", "npt_fit", "kernels.npt_fit", _npt_fit_hook),
    ("mssvdd.baselines", "npt_fit", "kernels.npt_fit", _npt_fit_hook),
    ("mssvdd.subspace", "npt_embed_test", "kernels.npt_embed_test", _embed_hook),
    ("mssvdd.baselines", "npt_embed_test", "kernels.npt_embed_test", _embed_hook),
    ("mssvdd.subspace", "train", "subspace.train", _train_hook),
    ("mssvdd.evaluation", "subspace_train", "subspace.train", _train_hook),
    ("mssvdd.subspace", "lagrangian_gradient", "subspace.lagrangian_gradient", None),
    ("mssvdd.subspace", "update_projection", "subspace.update_projection", None),
    ("mssvdd.subspace", "pca_init", "subspace.pca_init", None),
    ("mssvdd.subspace", "predict", "subspace.predict", None),
    ("mssvdd.evaluation", "subspace_predict", "subspace.predict", None),
    ("mssvdd.evaluation", "grid_search", "evaluation.grid_search", None),
    ("mssvdd.evaluation", "run_cv", "evaluation.run_cv", None),
    ("mssvdd.evaluation", "fit_model", "evaluation.fit_model", _fit_model_hook),
    ("mssvdd.evaluation", "predict_model", "evaluation.predict_model", None),
    ("mssvdd.evaluation", "fit_baseline", "baselines.fit_baseline", None),
    ("mssvdd.evaluation", "predict_baseline", "baselines.predict_baseline", None),
    ("mssvdd.persistence", "save_model", "persistence.save_model", _save_hook),
    ("mssvdd.persistence", "load_model", "persistence.load_model", _load_hook),
)

# Per-layer metrics: name -> unit. "<span>.calls", "<span>.s" and
# "<span>.self_s" come from the spans; the rest from OpRecord counts and
# the post-op analysis. A ".computed" unit marks a count derived from
# array shapes rather than observed.
PER_LAYER_UNITS: dict[str, str] = {
    "svdd.svdd_solve.calls": "count",
    "svdd.svdd_solve.s": "s",
    "svdd.ocsvm_solve.calls": "count",
    "svdd.ocsvm_solve.s": "s",
    "svdd.solve_cols": "cols.computed",
    "svdd.cap_hits": "count",
    "svdd.kkt_violation.max": "1",
    "kernels.npt_fit.calls": "count",
    "kernels.npt_fit.self_s": "s",
    "kernels.kernel_matrix.s": "s",
    "kernels.center_kernel.s": "s",
    "kernels.eigh_n3": "n3.computed",
    "kernels.npt_embed_test.calls": "count",
    "kernels.npt_embed_test.s": "s",
    "kernels.kernel_evals": "evals.computed",
    "subspace.train.calls": "count",
    "subspace.train.self_s": "s",
    "subspace.lagrangian_gradient.calls": "count",
    "subspace.lagrangian_gradient.s": "s",
    "subspace.update_projection.calls": "count",
    "subspace.update_projection.s": "s",
    "subspace.pca_init.s": "s",
    "subspace.predict.s": "s",
    "subspace.ortho_error.max": "1",
    "evaluation.grid_search.calls": "count",
    "evaluation.grid_search.s": "s",
    "evaluation.run_cv.calls": "count",
    "evaluation.fit_model.calls": "count",
    "evaluation.predict_model.calls": "count",
    "evaluation.fit_model.distinct_ratio": "ratio",
    "persistence.save_model.calls": "count",
    "persistence.save_model.s": "s",
    "persistence.load_model.calls": "count",
    "persistence.load_model.s": "s",
    "persistence.bytes_written": "B",
    "persistence.bytes_read": "B",
    "baselines.fit_baseline.calls": "count",
    "baselines.fit_baseline.self_s": "s",
    "baselines.predict_baseline.calls": "count",
    "baselines.predict_baseline.self_s": "s",
    "trace.overhead_ratio": "ratio",
}

# Reduced over traced ops by max instead of median.
MAX_METRICS = ("svdd.kkt_violation.max", "subspace.ortho_error.max")


class Tracer:
    """Span recorder plus the rebinding of traced names."""

    def __init__(self) -> None:
        self.spans: list[Optional[Span]] = []
        self._stack: list[int] = []
        self._op = -1
        self._record = OpRecord()
        self._saved: list[tuple[Any, str, Any]] = []

    def _call(self, name: str, fn: Callable, hook: Optional[Callable], args, kwargs):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(sid)
        start = perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[sid] = Span(sid, name, start, end, parent, self._op)
        if hook is not None:
            hook(self._record, args, kwargs, out)
        return out

    def _wrapper(self, name: str, fn: Callable, hook: Optional[Callable]) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, fn, hook, args, kwargs)

        return traced

    def begin_op(self, op: int) -> None:
        """Rebind every traced name; spans recorded from now carry op."""
        self._op = op
        self._record = OpRecord()
        for module_name, attr, name, hook in BINDINGS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrapper(name, original, hook))

    def end_op(self) -> None:
        """Restore the original bindings."""
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def finish_op(self, cap_hits: int) -> tuple[dict[str, float], list[str]]:
        """Per-layer values of the last traced op, and its failed checks.

        Runs the deferred analysis (KKT recomputation, orthonormality,
        distinct-fit keys) and drops the references the op kept.
        """
        rec, self._record = self._record, OpRecord()
        spans = [s for s in self.spans if s is not None and s.op == self._op]
        values = span_summary(spans)
        values.update(rec.counts)
        values["svdd.cap_hits"] = float(cap_hits)
        worst, problems = kkt_problems(rec.solves, cap_hits)
        values["svdd.kkt_violation.max"] = worst
        values["subspace.ortho_error.max"] = max(
            (p.ortho_error() for m in rec.models for p in m.projections), default=0.0
        )
        keys = {
            (_digest(*(mod.values for mod in data.modalities)), _model_digest(model))
            for data, model in rec.fits
        }
        values["evaluation.fit_model.distinct_ratio"] = (
            len(keys) / len(rec.fits) if rec.fits else 0.0
        )
        return values, problems

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                if s is not None:
                    fh.write(json.dumps(s.__dict__) + "\n")


def span_summary(spans: list[Span]) -> dict[str, float]:
    """"<name>.calls", "<name>.s" and "<name>.self_s" for every span name."""
    own = self_times(spans)
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s.name + ".calls"] += 1
        out[s.name + ".s"] += s.end - s.start
        out[s.name + ".self_s"] += own[s.id]
    return out


def per_layer_metrics(per_op: list[dict[str, float]], overhead_ratio: float) -> dict[str, float]:
    """Reduce per-op values to one per metric: the mean over traced ops
    (whole passes, so counts repeat exactly and a rare cap hit is not
    hidden by a median), or the max for maxima."""
    out = {}
    for name in PER_LAYER_UNITS:
        if name == "trace.overhead_ratio":
            out[name] = overhead_ratio
            continue
        values = [op.get(name, 0.0) for op in per_op]
        out[name] = max(values) if name in MAX_METRICS else statistics.fmean(values)
    return out
