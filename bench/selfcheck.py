"""Self-check of the benchmark's own code.

    python3 bench/selfcheck.py

Checks the self-time arithmetic, the tail-percentile rule, the KKT
recomputation and its failure rule on fixed inputs, then runs every workload in tiny mode, with
and without tracing, and checks that each run emits exactly the metrics
BENCHMARK.json names, with their units, that every op passed its checks,
and that the traced runs bypass the layers each workload should not touch.
Last, it runs the benchmark from a directory that holds only
BENCHMARK.json and the benchmark, which must fail without a result.
Exits 0 when everything holds.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import run
import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def check_self_times() -> None:
    S = tracing.Span
    spans = [
        S(0, "p", 0.0, 10.0, -1, 0),
        S(1, "a", 1.0, 3.0, 0, 0),
        S(2, "b", 2.0, 4.0, 0, 0),    # overlaps a
        S(3, "c", 9.0, 12.0, 0, 0),   # runs past the parent's end
        S(4, "d", 1.5, 2.0, 1, 0),    # grandchild: covered by a, not by p
    ]
    own = tracing.self_times(spans)
    expect(own == {0: 6.0, 1: 1.5, 2: 2.0, 3: 3.0, 4: 0.5},
           f"self time = duration minus covered child intervals: {own}")
    summary = tracing.span_summary(spans)
    expect(summary["p.calls"] == 1 and summary["p.s"] == 10.0 and summary["p.self_s"] == 6.0,
           "span summary sums calls, durations and self times per name")


def check_tail() -> None:
    for n, want in ((600, (540.0, 90.0, 60)), (100, (90.0, 90.0, 10)), (20, (10.0, 50.0, 10)),
                    (21, (11.0, 100.0 * 11 / 21, 10)), (19, (10.0, 100.0 * 10 / 19, 9)),
                    (2, (1.0, 50.0, 1)), (1, (1.0, 100.0, 0))):
        xs = [float(v) for v in range(1, n + 1)]
        random.Random(n).shuffle(xs)
        got = run.tail(xs)
        beyond = sum(x > got[0] for x in xs)
        expect(got == want and beyond == want[2],
               f"tail of {n} samples is {want}, with {beyond} beyond it")


def check_kkt() -> None:
    import numpy as np
    from mssvdd.svdd import svdd_solve

    desc = svdd_solve(np.random.default_rng(0).standard_normal((3, 60)), 0.1)
    v = tracing.kkt_violation("svdd", desc)
    expect(v <= 1e-6, f"solved hypersphere dual passes the recomputed KKT check ({v:.2e})")
    uniform = np.full(desc.alphas.size, 1.0 / desc.alphas.size)
    worse = type(desc)(alphas=uniform, c_penalty=desc.c_penalty, radius_sq=desc.radius_sq,
                       train_points=desc.train_points)
    expect(tracing.kkt_violation("svdd", worse) > 1e-3, "uniform (unsolved) alphas fail the KKT check")
    solves = [("svdd", desc, 1e-6), ("svdd", worse, 1e-6)]
    expect(bool(tracing.kkt_problems(solves, 0)[1]) and not tracing.kkt_problems(solves, 1)[1],
           "a missed kkt_tol fails the op unless a sweep-cap warning announced it")


def tiny_run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def check_runs() -> None:
    traced: dict[str, dict[str, float]] = {}
    for spec in SPEC["workloads"]:
        w = spec["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            done = tiny_run(w, trace)
            if done.returncode != 0:
                expect(False, f"{w} trace {trace} exits 0: {done.stderr[-800:]}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}
                   and result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{w} trace {trace}: {result['attempted']} ops, {result['failed']} failed")
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == want, f"{w} trace {trace} emits every {key} metric with its unit")
            values = {k: v["value"] for k, v in result["metrics"].items()}
            if trace:
                traced[w] = values
            else:
                expect(all(v > 0 for v in values.values()), f"{w}: no end-to-end metric is 0")
    if len(traced) != 4:
        return
    solver = lambda w: traced[w]["svdd.svdd_solve.calls"] + traced[w]["svdd.ocsvm_solve.calls"]
    persist = lambda w: (traced[w]["persistence.save_model.calls"]
                         + traced[w]["persistence.load_model.calls"])
    expect(solver("score") == 0 and solver("fit") > 0, "score makes no solver call")
    expect(persist("select") == 0 and persist("baseline") == 0 and persist("fit") > 0,
           "select and baseline make no persistence call")
    expect([w for w in traced if traced[w]["evaluation.grid_search.calls"]] == ["select"],
           "only select calls grid_search")
    expect([w for w in traced if traced[w]["baselines.fit_baseline.calls"]] == ["baseline"],
           "only baseline calls the baselines")


def check_bare_directory() -> None:
    bare = BENCH_DIR / "out" / f"bare-{os.getpid()}"
    try:
        shutil.copytree(BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        done = tiny_run("fit", 0, cwd=bare)
        expect(done.returncode != 0 and "metrics" not in done.stdout,
               f"without the library the run fails and prints no result (exit {done.returncode})")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    run.load_library()
    check_self_times()
    check_tail()
    check_kkt()
    check_runs()
    check_bare_directory()
    print(f"{len(failures)} failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
