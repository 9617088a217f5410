"""Benchmark of the mssvdd toolkit: one workload, one seed, one run.

    python3 bench/run.py --workload fit --seed 1 --seconds 20 --trace 0

Run from the repository root. The library is imported from ./src, never
from an installed copy. Set-up (imports, input generation, warm-up and,
for score, training the models it loads) is timed in this process and in
two fresh child processes; setup_s is the median of the three. Then ops
run back to back, in whole passes over the workload's inputs, for about
--seconds; each is checked after it finishes, outside its timing.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced passes and prints the per-layer metrics of the traced ones. The last
line of standard output is the result as one JSON object. Full records
(every op time, failures, machine facts, and in traced runs every span)
go to bench/out/.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT = BENCH_DIR / "out"
CAP_HIT_PREFIX = "dual solver hit the sweep limit"
SETUP_CHILDREN = 2

# End-to-end metrics: name -> unit. work_per_s counts fits (fit, baseline),
# samples (score) or grid cells (select) per second at the median op time.
# The mean rate goes to the record only: a few datasets on which the solver
# hits its sweep cap take 4-6x longer, and whether a run draws one made the
# mean swing by 40% between seeds.
END_TO_END_UNITS = {
    "setup_s": "s",
    "op_s.p50": "s",
    "op_s.tail": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
    "model_bytes": "B",
    "gm": "ratio",
    "ok_ratio": "ratio",
}


@dataclass
class Op:
    seconds: float
    traced: bool
    problems: list[str]
    cap_hits: int


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest percentile that
    has at least ten samples beyond it, capped at p90 and never below the
    median.

    Sorted ascending, the value at rank n-10 has exactly ten above it. With
    fewer than 20 samples that rank falls below the median; no tail can be
    stated then, and the (upper) median is reported with what lies beyond.
    Past p90, a shared machine's bursts of interference, which slow runs of
    consecutive ops, decided the value (p98 of the score workload moved by
    60% between otherwise equal runs); p90 moved by 15%.
    """
    xs = sorted(values)
    n = len(xs)
    rank = max(min(n - 10, int(0.9 * n)), (n + 1) // 2)
    return xs[rank - 1], 100.0 * rank / n, n - rank


def load_library() -> None:
    """Put ./src first on the import path; fail without a result otherwise."""
    if not (SRC / "mssvdd" / "__init__.py").is_file():
        print(f"bench: no library sources at {SRC}/mssvdd", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import mssvdd

    if Path(mssvdd.__file__).resolve().parent != SRC / "mssvdd":
        print(f"bench: imported mssvdd from {mssvdd.__file__}, not ./src", file=sys.stderr)
        sys.exit(2)


def machine_facts() -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
    }


def child_setup_seconds(args: argparse.Namespace) -> float:
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", "0", "--trace", "0", "--setup-only",
    ] + (["--tiny"] if args.tiny else [])
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=150, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def measure(wl, seconds: float, tracer) -> tuple[list[Op], list[dict]]:
    """Closed loop of whole passes over the workload's inputs; each op is
    checked after it ends.

    At least the workload's min_passes run; a traced run alternates
    untraced and traced passes, at least one of each. After that, another
    pass starts only if, at the last pass's pace, it ends within the window.
    """
    from mssvdd.errors import ToolkitError

    ops: list[Op] = []
    layers: list[dict] = []
    min_passes = max(wl.min_passes, 2 if tracer is not None else 1)
    start = time.perf_counter()
    passes = 0
    while True:
        pass_start = time.perf_counter()
        traced = tracer is not None and passes % 2 == 1
        for k in range(wl.cycle):
            i = passes * wl.cycle + k
            if traced:
                tracer.begin_op(i)
            error = None
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                t = time.perf_counter()
                try:
                    out = wl.op(i)
                except ToolkitError as exc:
                    error = exc
                dt = time.perf_counter() - t
            if traced:
                tracer.end_op()
            cap_hits = sum(str(w.message).startswith(CAP_HIT_PREFIX) for w in caught)
            problems = ([f"{type(error).__name__}: {error}"] if error
                        else wl.check(i, out, cap_hits))
            if traced:
                values, kkt_problems = tracer.finish_op(cap_hits)
                problems += kkt_problems
                layers.append(values)
            ops.append(Op(dt, traced, problems, cap_hits))
        passes += 1
        now = time.perf_counter()
        projected_end = (now - start) + (now - pass_start)
        if passes >= min_passes and projected_end > seconds:
            return ops, layers


def run(args: argparse.Namespace) -> int:
    load_library()
    import tracing
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        wl = WORKLOADS[args.workload](args.seed, args.tiny, str(workdir))
        wl.warm_up()
        setups = [time.perf_counter() - T0]
        if args.setup_only:
            print(repr(setups[0]))
            return 0
        if not args.trace:
            setups += [child_setup_seconds(args) for _ in range(SETUP_CHILDREN)]
        tracer = tracing.Tracer() if args.trace else None
        ops, layers = measure(wl, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        untraced = [o.seconds for o in ops if not o.traced]
        failed = sum(bool(o.problems) for o in ops)
        tail_value, tail_pct, beyond = tail(untraced)
        if args.trace:
            traced = [o.seconds for o in ops if o.traced]
            overhead = statistics.median(traced) / statistics.median(untraced)
            values = tracing.per_layer_metrics(layers, overhead)
            units = tracing.PER_LAYER_UNITS
        else:
            any_ok = failed < len(ops)
            values = {
                "setup_s": statistics.median(setups),
                "op_s.p50": statistics.median(untraced),
                "op_s.tail": tail_value,
                "work_per_s": wl.work_per_op / statistics.median(untraced),
                "peak_rss_mb": peak_rss_mb,
                "model_bytes": wl.model_bytes() if any_ok else 0,
                "gm": wl.gm() if any_ok else 0.0,
                "ok_ratio": (len(ops) - failed) / len(ops),
            }
            units = END_TO_END_UNITS
        metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-tiny" if args.tiny else "")
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "tiny": args.tiny,
            "machine": machine_facts(),
            "work_unit": wl.work_unit,
            "work_per_op": wl.work_per_op,
            "setup_s_samples": setups,
            "op_s_tail": {"percentile": tail_pct, "samples": len(untraced), "beyond": beyond},
            "work_per_s_mean": wl.work_per_op * len(untraced) / sum(untraced),
            "failed_ratio": failed / len(ops),
            "cap_hits": sum(o.cap_hits for o in ops),
            "ops": [o.__dict__ for o in ops],
            "metrics": metrics,
        }
        (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
        if tracer is not None:
            tracer.write(str(OUT / f"{stem}-spans.jsonl"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    m = record["machine"]
    print(f"{args.workload}: seed {args.seed}, {len(ops)} ops ({failed} failed), "
          f"{wl.work_per_op} {wl.work_unit} per op; {m['nproc']} cpus, {m['cpu_model']}, "
          f"python {m['python']}, numpy {m['numpy']}, blas {m['blas'].get('name')}")
    if not args.trace:
        print(f"  op_s.tail is p{tail_pct:.4g} of {len(untraced)} ops, {beyond} beyond it")
    for o in ops:
        for p in o.problems:
            print(f"  FAILED op: {p}")
    for k, metric in metrics.items():
        print(f"  {k:40s} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("fit", "score", "select", "baseline"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the self-check of the benchmark's own code")
    parser.add_argument("--setup-only", action="store_true",
                        help="print this process's set-up seconds and exit")
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
