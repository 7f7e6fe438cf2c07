"""Benchmark of torusflow: SSD flow trajectories and second-variation verdicts.

Run from the repository root (numpy and scipy are the only requirements):

    python3 bench/run.py --workload sd_circle --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seconds 20

A run sets the workload up seven times (the median is `setup_s`), then
repeats its fixed unit of work (one trajectory, or one gamma of the scan)
until `--seconds` of measured time have passed, checking every repeat's
outputs.  With `--trace 1`
untraced and traced repeats alternate, and the per-layer metrics come from
the traced ones.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}; the line before it is the full
record (machine, sample counts, gates and every metric).  `bench/NOTES.md`
explains the workloads, the metrics and what each layer should move.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPEATS = 7

if not (SRC / "torusflow").is_dir():
    sys.exit(f"torusflow sources not found under {SRC}; run from a full checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from tracing import OWN_SPANS, REPORTED, Tracer, rebind, restore  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from torusflow import flow  # noqa: E402


def machine():
    """Where the numbers were taken: cores, CPU, BLAS and library versions."""
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads or "unset (OpenBLAS uses one per core)",
        "kdtree_workers": "-1 (all cores) in fields._band_distances",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def _ops_per_s(repeats):
    return sum(len(r["times"]) for r in repeats) / sum(r["wall"] for r in repeats)


def _sum_sizes(agg, name, cost):
    return float(sum(cost(n) for n in agg.get(name, {}).get("sizes", [])))


def per_layer(tracer, setup_tracer, traced, plain, w):
    """Per-layer metrics of the traced repeats: spans per op, counts and trace health."""
    n_ops = sum(len(r["times"]) for r in traced)
    summ = tracer.summary()
    setup_summ = setup_tracer.summary()
    out = {}
    for name in REPORTED:
        agg, per, unit = (setup_summ, SETUP_REPEATS, "setup") if name in OWN_SPANS else (summ, n_ops, "op")
        a = agg.get(name, {"calls": 0, "total": 0.0, "self": 0.0})
        out[f"{name}.calls"] = (a["calls"] / per, f"1/{unit}")
        out[f"{name}.ms"] = (1e3 * a["total"] / per, f"ms/{unit}")
        out[f"{name}.self_ms"] = (1e3 * a["self"] / per, f"ms/{unit}")

    def calls(name):
        return summ.get(name, {}).get("calls", 0)

    if hasattr(w, "steps"):
        evals = calls("flow.surface_laplacian") + calls("bie.solve_jump")
        out["flow.evals_per_step"] = (evals / n_ops, "1/step")
    else:
        out["flow.evals_per_step"] = (0.0, "1/step")
    pots = calls("fields.potential_of_set")
    out["fields.interp_per_potential"] = (calls("fields.interpolate_grid") / pots if pots else 0.0, "count")
    out["bie.kernel_entries"] = (_sum_sizes(summ, "bie.assemble_single_layer", lambda n: n * n) / n_ops, "1/op")
    out["bie.lu_flops"] = (_sum_sizes(summ, "bie.lu_factor", lambda n: 2.0 * n**3 / 3.0) / n_ops, "flop/op")
    traced_wall = sum(r["wall"] for r in traced)
    out["trace.coverage"] = (sum(r["covered"] for r in traced) / traced_wall, "fraction")
    # repeats alternate, so pair each traced repeat with the untraced one before it
    ratios = [_ops_per_s([p]) / _ops_per_s([t]) for p, t in zip(plain, traced)]
    out["trace.overhead_frac"] = (statistics.median(ratios) - 1.0, "fraction")
    return out


def run_workload(name, seed, seconds, trace):
    w = WORKLOADS[name]()
    tracer, setup_tracer = Tracer(), Tracer()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        if trace:
            setup_tracer.install()
        t0 = time.perf_counter()
        w.setup(seed, span=setup_tracer.span if trace else contextlib.nullcontext)
        setup_times.append(time.perf_counter() - t0)
        setup_tracer.uninstall()

    # the untraced run's only instrumentation: a timestamp at each flow.step entry
    stamp_undo = rebind(flow, "step", w.stamp(flow.step), False) if hasattr(w, "stamp") else []
    plain, traced, oks = [], [], []
    measured = 0.0
    while measured < seconds or not plain or (trace and not traced):
        use_trace = trace and len(traced) < len(plain)
        if use_trace:
            tracer.install()
        first = len(tracer.spans)
        t0 = time.perf_counter()
        times, outcome = w.repeat()
        wall = time.perf_counter() - t0
        covered = tracer.top_level_seconds(first)
        oks += w.check(outcome)
        tracer.uninstall()
        (traced if use_trace else plain).append({"wall": wall, "times": times, "covered": covered})
        measured += wall
    restore(stamp_undo)

    op_ms = 1e3 * np.array([t for r in plain for t in r["times"]])
    walls = [r["wall"] for r in plain]
    e2e = {
        "setup_s": (statistics.median(setup_times), "s"),
        "solve_s": (statistics.median(walls), "s"),
        "ops_per_s": (_ops_per_s(plain), "1/s"),
        "op_ms_p50": (float(np.percentile(op_ms, 50)), "ms"),
        "op_ms_p90": (float(np.percentile(op_ms, 90)), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    failed = oks.count(False)
    report = {
        "failed_frac": (failed / len(oks), "fraction"),
        "identity1_p50": (statistics.median(w.identity1), "relative") if hasattr(w, "identity1") else None,
    }
    layers = per_layer(tracer, setup_tracer, traced, plain, w) if trace else {}
    if trace:
        (HERE / "out").mkdir(exist_ok=True)
        tracer.dump(HERE / "out" / f"spans_{name}_seed{seed}.json")
    record = {
        "workload": name,
        "why": w.why,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "machine": machine(),
        "statistic": "median of set-ups (setup_s) and of repeats (solve_s); "
        "percentiles of per-op wall times pooled over untraced repeats",
        "setup_repeats": SETUP_REPEATS,
        "repeats": len(plain),
        "traced_repeats": len(traced),
        "op_samples": int(op_ms.size),
        "gates": w.gates,
        "metrics": {k: v for k, v in {**e2e, **report, **layers}.items() if v is not None},
    }
    return record, layers if trace else e2e, len(oks), failed


def print_result(record, metrics, attempted, failed):
    print(f"workload {record['workload']} seed {record['seed']}: {record['repeats']} untraced "
          f"+ {record['traced_repeats']} traced repeats, {record['op_samples']} op samples")
    print(f"  gates: {record['gates']}")
    for key, (value, unit) in record["metrics"].items():
        print(f"  {key:48s} {value:14.6g} {unit}")
    print("record: " + json.dumps(record))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def run_all(args):
    """Each workload in its own process, so peak_rss_mb is the workload's own."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"workload {name} exited with code {proc.returncode}")
        print("\n".join(lines[:-1]), flush=True)
        last = json.loads(lines[-1])
        total["correct"] &= last["correct"]
        total["attempted"] += last["attempted"]
        total["failed"] += last["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in last["metrics"].items()})
    print(json.dumps(total))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        run_all(args)
    else:
        print_result(*run_workload(args.workload, args.seed, args.seconds, bool(args.trace)))


if __name__ == "__main__":
    main()
