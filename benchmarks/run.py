"""gevrey-kit benchmark: one seeded workload per invocation.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src/`` directory.  Set-up (a fresh interpreter that imports gevreykit
and generates the inputs) is timed SETUP_REPEATS times.  Then jobs run,
each in a fresh interpreter, until S seconds have passed, at least one;
with --trace 1 untraced and traced jobs alternate, at least one of each.  Times are
rescaled to the reference speed by the probe (probe.py).  Every metric is
printed with its unit; the last line of standard output is the JSON
result.  Scratch files go to .bench_work/.
"""

from __future__ import annotations

import os

# pinned before numpy is imported anywhere: GEVREY_THREADS silently
# overrides --threads, and BLAS pools would add threads of their own
PINNED_ENV = {
    "GEVREY_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
os.environ.update(PINNED_ENV)

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import pkgutil  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
WORKLOADS = ("parametrix", "wf-scan", "chain-rule", "seq-fit")
SETUP_REPEATS = 5

# layers each workload must reach when traced; a wrapper that misses a
# by-name import would read zero here
EXPECTED_LAYERS = {
    "parametrix": ["parametrix.GridEvaluator.eval_sum", "parametrix.bound_audit",
                   "parametrix.SymbolAlgebra.partial", "jets.jet_of", "wavefront.make_cutoff"],
    "wf-scan": ["wavefront.wf_scan", "wavefront.directional_decay_profile",
                "wavefront.read_gridfield", "cli.main"],
    "chain-rule": ["faadibruno.fdb_derivative", "jets.jet_of", "jets.jet_compose",
                   "multiindex.enumerate_decompositions", "funcspec.parse_spec", "cli.main"],
    "seq-fit": ["sequences.audit_sequence", "faadibruno.lemma23_constant_search",
                "numerics.log_factorial", "regularity.measure_derivative_growth",
                "regularity.fit_regularity"],
}


def import_program() -> None:
    """Import every gevreykit module from this checkout's src/, or exit."""
    if not os.path.isfile(os.path.join(SRC, "gevreykit", "__init__.py")):
        sys.exit(f"benchmark: no gevreykit sources under {SRC}")
    sys.path.insert(0, SRC)
    import gevreykit

    if os.path.dirname(os.path.dirname(os.path.abspath(gevreykit.__file__))) != SRC:
        sys.exit(f"benchmark: gevreykit imported from {gevreykit.__file__}, not {SRC}")
    for mod in pkgutil.iter_modules(gevreykit.__path__):
        importlib.import_module(f"gevreykit.{mod.name}")


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def time_setup(args, run_dir: str) -> tuple[list[float], list[float], list[str]]:
    """(rescaled, raw) wall times of fresh interpreters that import
    gevreykit and generate the inputs, and the digest of each input set."""
    import inputs
    from probe import SpeedProbe

    probe = SpeedProbe(periodic=False)  # samples before and after each child
    times, raw, digests = [], [], []
    for k in range(SETUP_REPEATS):
        out = os.path.join(run_dir, f"inputs-{k}")
        argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
                "--seed", str(args.seed), "--emit-inputs", out]
        with probe:
            t0 = perf_counter()
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=150)
            dt = perf_counter() - t0
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            sys.exit(f"benchmark: input generation failed ({proc.returncode})")
        raw.append(dt)
        times.append(dt * probe.factor())
        digests.append(inputs.digest(out))
    return times, raw, digests


def run_job(args, run_dir: str) -> None:
    """One job in this fresh interpreter, traced if --trace 1; writes its
    result to run_dir/job.json and, when traced, its spans to .bench_work."""
    import spans
    import workloads
    from probe import SpeedProbe

    inputs_dir = os.path.join(run_dir, "inputs-0")
    probe = SpeedProbe()
    rec = spans.SpanRecorder(clock=probe.clock)
    undo = []
    with probe:
        if args.trace:
            undo = spans.install(rec)
            root = rec.begin("job")
        t0 = probe.clock()
        try:
            job = workloads.run(args.workload, inputs_dir, os.path.join(run_dir, "job"), probe.clock)
        finally:
            if args.trace:
                rec.end(root)
                spans.uninstall(undo)
        wall = probe.clock() - t0
    f = probe.factor()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    agg = rec.aggregate() if args.trace else None
    for entry in (agg or {}).values():
        entry["self_s"] *= f
    if args.trace:
        rec.write_jsonl(os.path.join(WORK, f"trace-{args.workload}.jsonl"))
    checks, notes, digest, report_bytes = workloads.verify(args.workload, job, inputs_dir)
    result = {
        "traced": bool(args.trace), "seconds": wall * f, "wall_s": wall, "speed_factor": f,
        "peak_rss_mb": peak_rss_mb, "ops": [(name, s * f, ok) for name, s, ok in job.ops],
        "checks": checks, "notes": notes, "digest": digest,
        "report_bytes": report_bytes, "agg": agg,
    }
    with open(os.path.join(run_dir, "job.json"), "w") as fh:
        json.dump(result, fh)


def run_jobs(args, run_dir: str) -> list[dict]:
    """Jobs until --seconds have passed, each in a fresh interpreter, so
    that every job starts with the empty caches a gevrey command has."""
    jobs: list[dict] = []
    start = perf_counter()
    while len(jobs) < 1 + args.trace or perf_counter() - start < args.seconds:
        traced = bool(args.trace) and len(jobs) % 2 == 1
        argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
                "--seed", str(args.seed), "--trace", str(int(traced)), "--emit-job", run_dir]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=170)
        sys.stdout.write(proc.stdout)  # lines of failed operations, if any
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit(f"benchmark: job process failed ({proc.returncode})")
        with open(os.path.join(run_dir, "job.json")) as fh:
            jobs.append(json.load(fh))
    return jobs


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--emit-inputs", default=None, help=argparse.SUPPRESS)
    p.add_argument("--emit-job", default=None, help=argparse.SUPPRESS)
    args = p.parse_args()

    import_program()
    if args.emit_inputs:
        import inputs

        inputs.generate(args.workload, args.seed, args.emit_inputs)
        return 0
    if args.emit_job:
        run_job(args, args.emit_job)
        return 0

    import numpy as np

    import spans
    import workloads

    run_dir = os.path.join(WORK, f"run-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        setup_times, setup_wall, digests = time_setup(args, run_dir)
        jobs = run_jobs(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    # output checks of the first job; they make pass_ratio
    checks = dict(jobs[0]["checks"])
    checks["inputs.identical_across_setups"] = len(set(digests)) == 1
    failed_checks = sorted(k for k, ok in checks.items() if not ok)
    # run-level gates: every job, traced or not, matches the first (the
    # determinism gate), and a traced run's recorder checks itself
    gates = {
        "determinism.outputs_identical": all(j["digest"] == jobs[0]["digest"] for j in jobs),
        "determinism.checks_identical": all(j["checks"] == jobs[0]["checks"] for j in jobs),
    }
    plain = [j for j in jobs if not j["traced"]]
    traced_jobs = [j for j in jobs if j["traced"]]
    if traced_jobs:
        aggs = [j["agg"] for j in traced_jobs]
        layers, gates["trace.counts_repeat"] = spans.layer_values(aggs)
        for name in EXPECTED_LAYERS[args.workload]:
            gates[f"trace.reaches.{name}"] = aggs[0].get(name, {}).get("calls", 0) > 0
        units = {name: unit for name, unit, _ in spans.LAYER_METRICS}
        metrics = {name: (v, units[name]) for name, v in layers.items()}
        metrics["cli.report_bytes"] = (traced_jobs[0]["report_bytes"], "bytes")
        metrics["trace.overhead_ratio"] = (
            statistics.median(j["seconds"] for j in traced_jobs)
            / statistics.median(j["seconds"] for j in plain), "ratio")
    else:
        # an item is one named operation of a job; its latency is its median
        # over the run's jobs
        per_item: dict[str, list[float]] = {}
        for j in plain:
            for name, s, _ in j["ops"]:
                per_item.setdefault(name, []).append(s)
        items = sorted(statistics.median(v) for v in per_item.values())
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "job_s": (statistics.median(j["seconds"] for j in plain), "s"),
            "peak_rss_mb": (plain[0]["peak_rss_mb"], "MB"),
            "pass_ratio": (1.0 - len(failed_checks) / len(checks), "ratio"),
            "item_p50_ms": (percentile(items, 0.50) * 1e3, "ms"),
            "item_p99_ms": (percentile(items, 0.99) * 1e3, "ms"),
        }
    all_ops = [op for j in jobs for op in j["ops"]]
    failed_ops = sum(1 for _, _, ok in all_ops if not ok)
    failed_gates = sorted(k for k, ok in gates.items() if not ok)
    correct = (failed_ops == 0 and not failed_gates
               and all(k in workloads.KNOWN_DEFECTS for k in failed_checks))

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "inputs_sha256": digests[0],
        "jobs": [{k: j[k] for k in ("traced", "seconds", "wall_s", "speed_factor")}
                 for j in jobs],
        "setup_seconds": setup_times,
        "setup_wall_s": setup_wall,
        "checks_attempted": len(checks),
        "checks_failed": failed_checks,
        "fail_ratio": len(failed_checks) / len(checks),
        "known_defects": sorted(workloads.KNOWN_DEFECTS & set(failed_checks)),
        "gates": gates,
        "notes": jobs[0]["notes"],
        "machine": {
            "cpu": cpu_model(),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
        },
        "env": PINNED_ENV,
        "metrics": {k: v for k, (v, _) in metrics.items()},
    }
    with open(os.path.join(WORK, "results.jsonl"), "a") as fh:
        fh.write(json.dumps(info, sort_keys=True) + "\n")

    for name, (value, unit) in metrics.items():
        print(f"{name:<48} {value!r} {unit}")
    print(f"{'fail_ratio':<48} {info['fail_ratio']!r} ratio  ({len(failed_checks)} of "
          f"{len(checks)} checks failed: {', '.join(failed_checks) or '-'})")
    print(f"{'gates':<48} {len(gates) - len(failed_gates)} of {len(gates)} passed"
          f"{': failed ' + ', '.join(failed_gates) if failed_gates else ''}")
    for name, value in info["notes"].items():
        print(f"{name:<48} {value!r}")
    print(f"{'job_wall_s (not rescaled)':<48} {[j['wall_s'] for j in jobs]!r} s")
    print(f"{'speed_factor':<48} {[j['speed_factor'] for j in jobs]!r}")
    print(f"{'inputs_sha256':<48} {digests[0]}")
    print("# info " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": len(all_ops),
        "failed": failed_ops,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
