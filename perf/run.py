#!/usr/bin/env python3
"""The repository's benchmark.

    python3 perf/run.py [--workload NAME ...] [--seed N] [--seconds S]
                        [--trace 0|1] [--quick] [--out FILE]
    python3 perf/run.py --agree [A.json B.json]

Runs the named workloads (default: all five) closed-loop from this one
process, back to back: set-up (repeated, median reported), one untimed
warm-up repetition, then timed repetitions for ``--seconds`` seconds
(at least :data:`MIN_REPS`) with ``gc.collect()`` between them.  Every
repetition's output is checked; a failed check makes the exit code 1.
Between repetitions the fixed work of ``reference.py`` is timed;
host-time metrics are divided by the slowdown it shows, and printed
beside what the clock read (``wall_raw_s``, ``setup_raw_s``, ``slowdown_x``).

``--trace 0`` (default) reports the end-to-end metrics, untraced.
``--trace 1`` reports the per-layer metrics instead: one untraced
reference repetition, one repetition under the hooks of ``layers.py``,
then the isolated probes; spans are aggregated into
``perf/out/trace-<workload>.json``.  Claims are made on untraced runs.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` -- the metrics
``BENCHMARK.json`` lists for the trace mode, by name for one workload,
as ``workload/name`` for several.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from multiprocessing import resource_tracker
from typing import Any, Dict, List, Optional, Sequence

PERF = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERF)
OUT = os.path.join(PERF, "out")

if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
    sys.exit("perf/run.py: src/repro not found beside perf/; "
             "the benchmark runs the program from a checkout of the repository")
sys.path[:0] = [os.path.join(ROOT, "src"), PERF]

import layers  # noqa: E402
import reference  # noqa: E402
import suite  # noqa: E402

MIN_REPS = 2

#: Time ``reference.py`` after a repetition once this many seconds of
#: repetitions have passed since the last sample (every repetition of
#: four workloads, every other one of ``vanilla-flap40``).
REFERENCE_EVERY_S = 1.0

#: Importing the program is part of every workload's set-up time, and a
#: process can only do it once: fresh interpreters time it.
IMPORT_REPEATS = 3
IMPORT_PROBE = (
    "import sys, time; sys.path[:0] = sys.argv[1:]; t0 = time.perf_counter(); "
    "import suite; print(time.perf_counter() - t0)"
)

#: End-to-end metrics only some workloads have; ``BENCHMARK.json`` holds
#: the ones every workload has (its schema has no per-workload list).
#: Shown, and compared by ``--agree`` under ``wall_s``'s bound, like the
#: others; not sent to the driver.
EXTRA_METRICS = {
    "step_ms_p50": "ms",   # ls-flap40: host ms per LockstepCoordinator.advance_cycle()
    "step_ms_p95": "ms",
    "cells_per_s": "1/s",  # grid2w: grid cells per host second, pool start-up included
}


def load_benchmark() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def peak_rss_mb(workers: int) -> float:
    """``ru_maxrss`` of this process, plus the largest child's for a
    workload that has worker processes (Linux reports KiB)."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workers:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024


def import_seconds() -> List[float]:
    return [
        float(subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, os.path.join(ROOT, "src"), PERF],
            capture_output=True, text=True, check=True,
        ).stdout)
        for _ in range(IMPORT_REPEATS)
    ]


def summary(samples: Sequence[float], unit: str) -> Dict[str, Any]:
    """Median, quartiles and the samples themselves."""
    q1, _, q3 = (
        statistics.quantiles(samples, n=4) if len(samples) > 1 else [samples[0]] * 3
    )
    return {"value": statistics.median(samples), "unit": unit, "n": len(samples),
            "q1": q1, "q3": q3, "samples": list(samples)}


def fingerprint_failures(reps: List["suite.Rep"]) -> List[str]:
    """Repetitions that must reproduce each other, and did not."""
    first: Dict[Any, str] = {}
    failures = []
    for index, rep in enumerate(reps):
        expected = first.setdefault(rep.identity, rep.fingerprint)
        if rep.fingerprint != expected:
            failures.append(
                f"repetition {index}: fingerprint {rep.fingerprint[:12]} "
                f"differs from {expected[:12]}"
            )
    return failures


def measure(workload: "suite.Workload", seed: int, seconds: float, min_reps: int,
            bench: Dict[str, Any]) -> Dict[str, Any]:
    """The untraced run: end-to-end metrics and output checks."""
    units = {entry["name"]: entry["unit"] for entry in bench["end_to_end"]}
    import_s = statistics.median(import_seconds())
    builds: List[float] = []
    for _ in range(workload.setup_repeats):
        t0 = time.perf_counter()
        inputs = workload.setup(seed)
        builds.append(time.perf_counter() - t0)
    warm = workload.warm_up(inputs, seed)

    reps: List[suite.Rep] = []
    host_reference: List[float] = []
    since_reference = 0.0
    while len(reps) < min_reps or sum(r.wall_s for r in reps) < seconds:
        gc.collect()
        reps.append(workload.rep(inputs, seed, len(reps)))
        if len(reps) == 1:  # before the first reference sample: the program's alone
            rss_mb = peak_rss_mb(workload.workers)
        since_reference += reps[-1].wall_s
        if since_reference >= REFERENCE_EVERY_S or not host_reference:
            host_reference.append(reference.sample_s())
            since_reference = 0.0
    # how much slower than quiet the host was during this invocation
    slowdown = statistics.median(host_reference) / reference.QUIET_S

    failures = [f"warm-up: {text}" for text in warm.failures]
    failed = 0
    for index, rep in enumerate(reps):
        failures += [f"repetition {index}: {text}" for text in rep.failures]
        failed += rep.failed
    mismatches = fingerprint_failures([warm, *reps])
    final_attempted, final_failures = workload.final_checks(inputs, seed)
    failures += mismatches + final_failures
    failed += len(mismatches) + len(final_failures)

    walls = [r.wall_s / slowdown for r in reps]
    metrics = {
        "setup_s": summary([(import_s + b) / slowdown for b in builds], units["setup_s"]),
        "wall_s": summary(walls, units["wall_s"]),
        "deliveries_per_s": summary(
            [r.deliveries / wall for r, wall in zip(reps, walls)], units["deliveries_per_s"]
        ),
        "peak_rss_mb": summary([rss_mb], units["peak_rss_mb"]),
    }
    if reps[0].step_ms:
        for name, q in (("step_ms_p50", 50), ("step_ms_p95", 95)):
            metrics[name] = summary(
                [suite.percentile(r.step_ms, q) / slowdown for r in reps], EXTRA_METRICS[name]
            )
    if workload.workers:
        metrics["cells_per_s"] = summary(
            [r.attempted / wall for r, wall in zip(reps, walls)], EXTRA_METRICS["cells_per_s"]
        )
    return {
        # as the clock read them, before the division by the slowdown
        "host": {
            "slowdown_x": summary([x / reference.QUIET_S for x in host_reference], "x"),
            "setup_raw_s": summary([import_s + b for b in builds], "s"),
            "wall_raw_s": summary([r.wall_s for r in reps], "s"),
        },
        "repetitions": len(reps),
        "deliveries": reps[0].deliveries,
        "fingerprint": reps[0].fingerprint,
        "attempted": sum(r.attempted for r in reps) + final_attempted,
        "failed": failed,
        "failures": failures,
        "metrics": metrics,
        "sim": reps[0].sim,
    }


def trace(workload: "suite.Workload", seed: int, tmp: str) -> Dict[str, Any]:
    """The traced run: per-layer metrics."""
    inputs = workload.setup(seed)
    reference = workload.rep(inputs, seed, 0)
    gc.collect()
    tracer = layers.Tracer()
    with tracer.installed(workload.hooks):
        traced = workload.rep(inputs, seed, 0, keep=True)
    aggregate = tracer.aggregate()
    metrics = layers.layer_metrics(
        tracer, aggregate, workload.top_span, traced.deliveries,
        workload.layer_facts(traced), workload.probes(tracer, traced, tmp),
    )
    metrics["trace.overhead_x"] = traced.wall_s / reference.wall_s
    for name, value in traced.sim.items():
        metrics["sim." + name[len("sim_"):]] = value
    if reference.step_ms:  # latencies come from the untraced repetition
        metrics["core.lockstep.step_ms_p50"] = suite.percentile(reference.step_ms, 50)
        metrics["core.lockstep.step_ms_p95"] = suite.percentile(reference.step_ms, 95)

    failures = [f"reference: {t}" for t in reference.failures]
    failures += [f"traced: {t}" for t in traced.failures]
    changed = traced.fingerprint != reference.fingerprint
    if changed:
        failures.append("tracing changed the execution fingerprint")
    out = {
        "fingerprint": traced.fingerprint,
        "attempted": reference.attempted + traced.attempted,
        "failed": reference.failed + max(traced.failed, int(changed)),
        "failures": failures,
        "hooks": tracer.status,
        "metrics": {
            name: {"value": value, "unit": layers.LAYER_METRICS.get(name, ("",))[0]}
            for name, value in metrics.items()
        },
    }
    with open(os.path.join(OUT, f"trace-{workload.name}.json"), "w", encoding="utf-8") as handle:
        json.dump({"workload": workload.name, "seed": seed, **out,
                   "untraced_wall_s": reference.wall_s, "traced_wall_s": traced.wall_s,
                   **aggregate}, handle, indent=1, sort_keys=True)
    return out


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------

def environment() -> Dict[str, Any]:
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        head = "unknown"  # the driver's checkout is not a git repository
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "git_head": head,
    }


def print_workload(name: str, seed: int, result: Dict[str, Any]) -> None:
    print(f"== {name}  seed={seed}  fingerprint={result['fingerprint'][:16]}  "
          f"attempted={result['attempted']} failed={result['failed']}")
    for metric, row in [*result["metrics"].items(), *result.get("host", {}).items()]:
        spread = f"n={row['n']} q1={row['q1']:.4f} q3={row['q3']:.4f}" if "n" in row else ""
        print(f"  {metric:<44} {row['value']:>14.4f} {row['unit']:<6} {spread}")
    for metric, value in result.get("sim", {}).items():
        print(f"  {metric:<44} {value:>14.4f} (simulated time: exact for a seed)")
    for hook, status in result.get("hooks", {}).items():
        if status != "ok":
            print(f"  hook {hook}: {status}")
    for text in result["failures"]:
        print(f"  FAILED {text}")


def driver_line(document: Dict[str, Any], bench: Dict[str, Any]) -> str:
    """The one JSON object the driver reads."""
    results = document["workloads"]
    listed = bench["per_layer" if document["trace"] else "end_to_end"]
    metrics = {}
    for name, result in results.items():
        prefix = f"{name}/" if len(results) > 1 else ""
        for entry in listed:
            row = result["metrics"].get(entry["name"])
            value = row["value"] if row else 0.0  # a layer that is not on this workload
            metrics[prefix + entry["name"]] = {"value": value, "unit": entry["unit"]}
    failed = sum(r["failed"] for r in results.values())
    return json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": failed,
        "metrics": metrics,
    })


def stop_child_processes() -> None:
    """Stop, and wait for, every process this one still has.

    The program joins its own pool workers, but its shared-memory ring
    makes :mod:`multiprocessing` start a resource-tracker process that
    otherwise ends only *after* this process has: closing the tracker's
    pipe ends it, and the ``waitpid`` in ``_stop`` waits until it has.
    A pool worker still alive on the way out (a repetition that raised)
    is killed and waited for, so no path out of a workload leaves a
    process behind.
    """
    for child in multiprocessing.active_children():  # joins the finished ones
        child.kill()
        child.join()
    # after the workers: the tracker ends when the last copy of its pipe closes
    stop = getattr(getattr(resource_tracker, "_resource_tracker", None), "_stop", None)
    if stop is not None:
        stop()


def run_one(name: str, seed: int, seconds: float, traced: bool, quick: bool,
            bench: Dict[str, Any]) -> Dict[str, Any]:
    """Run one workload in this process."""
    workload = {cls.name: cls for cls in suite.WORKLOADS}[name](
        suite.QUICK if quick else suite.Sizes()
    )
    # the program's own temporary files (journals, heartbeat claim
    # directories) stay inside the checkout
    os.makedirs(OUT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="tmp-", dir=OUT)
    tempfile.tempdir = tmp
    try:
        if traced:
            return trace(workload, seed, tmp)
        return measure(workload, seed, 0 if quick else seconds,
                       1 if quick else MIN_REPS, bench)
    finally:
        stop_child_processes()
        tempfile.tempdir = None
        shutil.rmtree(tmp, ignore_errors=True)


def run_in_child(name: str, argv: List[str]) -> Dict[str, Any]:
    """Run one workload in a process of its own, so that set-up time
    (imports, cold caches) and peak RSS are that workload's alone."""
    os.makedirs(OUT, exist_ok=True)
    handle, path = tempfile.mkstemp(prefix=f"suite-{name}-", suffix=".json", dir=OUT)
    os.close(handle)
    try:
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--out", path, *argv],
            capture_output=True, text=True,
        )
        sys.stderr.write(child.stderr)
        print("\n".join(child.stdout.rstrip("\n").split("\n")[:-1]))  # all but its driver line
        with open(path, encoding="utf-8") as result:
            return json.load(result)["workloads"][name]
    finally:
        os.unlink(path)


def run_suite(names: Sequence[str], seed: int, seconds: float, traced: bool,
              quick: bool, bench: Dict[str, Any]) -> Dict[str, Any]:
    document: Dict[str, Any] = {
        "env": environment(), "seed": seed, "seconds": seconds,
        "trace": int(traced), "quick": quick, "workloads": {},
    }
    if len(names) == 1:
        result = run_one(names[0], seed, seconds, traced, quick, bench)
        print_workload(names[0], seed, result)
        document["workloads"][names[0]] = result
    else:
        argv = ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(traced))]
        for name in names:
            document["workloads"][name] = run_in_child(name, argv + ["--quick"] * quick)
            sys.stdout.flush()
    return document


# ----------------------------------------------------------------------
# --agree
# ----------------------------------------------------------------------

def disagreements(a: Dict[str, Any], b: Dict[str, Any], bench: Dict[str, Any]) -> List[str]:
    """Why two result documents of the same code do not agree (empty:
    they do).  Host times within their bound of A; everything a seed
    determines -- simulated-time results, counts, fingerprints -- equal."""
    bounds = {entry["name"]: entry["bound"] for entry in bench["end_to_end"]}
    out = []
    if (a["seed"], a["trace"], a["quick"]) != (b["seed"], b["trace"], b["quick"]):
        return ["the two documents were not run with the same seed, trace mode and sizes"]
    for name in sorted(set(a["workloads"]) | set(b["workloads"])):
        if name not in a["workloads"] or name not in b["workloads"]:
            out.append(f"{name}: present in only one document")
            continue
        ra, rb = a["workloads"][name], b["workloads"][name]
        if ra["fingerprint"] != rb["fingerprint"]:
            out.append(f"{name}: fingerprint {ra['fingerprint'][:12]} != {rb['fingerprint'][:12]}")
        if ra.get("sim") != rb.get("sim"):
            out.append(f"{name}: simulated-time results differ: {ra.get('sim')} != {rb.get('sim')}")
        for metric in sorted(set(ra["metrics"]) | set(rb["metrics"])):
            va, vb = ra["metrics"].get(metric), rb["metrics"].get(metric)
            if va is None or vb is None:
                out.append(f"{name}: {metric} present in only one document")
            elif not a["trace"]:  # host times
                bound = bounds.get(metric, bounds["wall_s"])
                if abs(vb["value"] - va["value"]) > bound * abs(va["value"]):
                    out.append(f"{name}: {metric} {va['value']:.4f} -> {vb['value']:.4f} "
                               f"is beyond +-{bound:.0%}")
            elif layers.LAYER_METRICS.get(metric, ("", False))[1] and va != vb:
                out.append(f"{name}: {metric} {va['value']} != {vb['value']} (exact for a seed)")
    return out


def agree(paths: List[str], args: argparse.Namespace, bench: Dict[str, Any]) -> int:
    if paths:
        documents = []
        for path in paths:
            with open(path, encoding="utf-8") as handle:
                documents.append(json.load(handle))
        pairs = [tuple(documents)]
    else:  # run the suite twice, untraced and traced
        pairs = [
            tuple(run_suite(args.workload, args.seed, args.seconds, traced, args.quick, bench)
                  for _ in range(2))
            for traced in (False, True)
        ]
    problems = [text for a, b in pairs for text in disagreements(a, b, bench)]
    problems += [
        f"{name}: {text}"
        for pair in pairs for document in pair
        for name, result in document["workloads"].items() for text in result["failures"]
    ]
    for text in problems:
        print(f"DISAGREE {text}")
    print("agree: " + ("no" if problems else "yes"))
    return 1 if problems else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    bench = load_benchmark()
    names = [entry["name"] for entry in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="run only this workload (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=1,
                        help="the only source of variation (default 1)")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"],
                        help="measure each workload for this long")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: per-layer metrics from a traced repetition")
    parser.add_argument("--quick", action="store_true",
                        help="smoke sizes, one repetition (for perf/tests)")
    parser.add_argument("--out", help="write the full result document here")
    parser.add_argument("--agree", nargs="*", metavar="FILE",
                        help="compare two --out documents (none given: run twice)")
    args = parser.parse_args(argv)
    args.workload = args.workload or names
    if args.agree is not None:
        if len(args.agree) not in (0, 2):
            parser.error("--agree takes two files, or none")
        return agree(args.agree, args, bench)

    document = run_suite(args.workload, args.seed, args.seconds, bool(args.trace),
                         args.quick, bench)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
    print(driver_line(document, bench))
    return 1 if any(r["failed"] for r in document["workloads"].values()) else 0


if __name__ == "__main__":
    sys.exit(main())
