"""Benchmark for residue-tilings: three seeded workloads, end-to-end metrics
with tracing off, and per-layer metrics from a separate traced run.

    python3 perfbench/run.py --workload {deep,lemmas} --seed N \\
        --seconds S --trace {0,1}

Run it from the repository root; it measures the package under src/ and
uses only the standard library.  Each pass of a workload runs in a fresh
interpreter (worker.py), one at a time: a closed loop with one caller, no
pool and no threads.  Every pass of a run does the same ops, and passes
repeat for about --seconds.  Workers rescale each time by the machine's
speed around the moment it was measured (reference.py), and each op counts
at the median of its samples in the run, as do set-up time and memory.
--trace 1 alternates an untraced and a traced pass and reports per-layer
metrics, including the tracing overhead.  NOTES.md explains the choices.

Every human-readable line goes first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.  The exit code
is 0 only when every check passed: the generator self-test, each result
against theorem_rhs (apart from the known-defect cases in deep), each
lemma report, and both output fingerprints in fingerprints.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5  # set-up only workers per run, after one that fills the bytecode cache
MIN_PASSES = 2  # so that every op has at least two samples
RUN_LIMIT_S = 170  # a run must end within 180 s


def worker(spec: dict, deadline: float) -> dict:
    # a fixed hash seed, so that every worker iterates sets in the same order;
    # bytecode caching on, as a user has it, whatever the caller's setting
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise RuntimeError(f"worker {spec} ran past the run's time limit") from exc
    if proc.returncode != 0:
        raise RuntimeError(f"worker {spec} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_passes(args, deadline: float, traced: bool) -> list[dict]:
    """At least MIN_PASSES passes (one pair when traced), and more while
    another one would end less than half a pass after --seconds.  With
    traced, each pass runs twice, untraced then traced, and yields the
    pair."""
    passes = []
    start = time.monotonic()
    spec = {"workload": args.workload, "seed": args.seed, "trace": False, "setup_only": False}
    while True:
        began = time.monotonic()
        plain = worker(spec, deadline)
        passes.append((plain, worker(dict(spec, trace=True), deadline)) if traced else plain)
        now = time.monotonic()
        last = now - began
        if now + 1.5 * last > deadline:
            return passes
        enough = len(passes) >= (1 if traced else MIN_PASSES)
        if enough and now - start + last / 2 >= args.seconds:
            return passes


def typical(results: list[dict], key: str) -> list[dict]:
    """Per op, the median of its samples across the workers, for the op and
    for each route."""
    samples: dict[str, list[dict]] = {}
    for result in results:
        for record in result.get(key, []):
            samples.setdefault(record["key"], []).append(record)
    return [{"s": statistics.median(r["s"] for r in records), "cases": records[0]["cases"],
             "band": records[0]["band"],
             "routes": {name: statistics.median(r["routes"][name] for r in records)
                        for name in records[0]["routes"]}}
            for records in samples.values()]


def quantile(ops: list[dict], q: float) -> float:
    """Quantile of per-case milliseconds.  The ops of one size band share
    their band's mean: a band's draws are mirrored so that the seed barely
    moves their total cost, and order statistics of single draws would undo
    that.  A lemma call's time is shared evenly among its
    cases, because a runner does not time them one by one."""
    bands: dict[str, list[float]] = {}
    for op in ops:
        bands.setdefault(op["band"], []).append(1e3 * op["s"] / op["cases"])
    values = sorted(v for op in ops
                    for v in [statistics.mean(bands[op["band"]])] * op["cases"])
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def end_to_end(passes: list[dict], setups: list[dict]) -> tuple[dict, dict]:
    workers = setups + passes
    ops = typical(workers, "records")
    wall_s = sum(op["s"] for op in ops)
    cases = sum(op["cases"] for op in ops)
    attempted = sum(r["cases"] for w in workers for r in w.get("records", []))
    failed = sum(w.get("failed", 0) for w in workers)
    setup_s = [w["setup_s"] for w in workers]
    metrics = {
        "setup_s": statistics.median(setup_s),
        "wall_s": wall_s,
        "ops_per_s": cases / wall_s,
        "op_ms_p50": quantile(ops, 0.5),
        "op_ms_p90": quantile(ops, 0.9),
        "ok_frac": 1 - failed / attempted,
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
    }
    # lemmas calls no route in its timed part; there the route probe stands in
    timed = ops if any(op["routes"] for op in ops) else typical(workers, "probes")
    for route in ("dp", "det", "rf", "spectral"):
        metrics[route + "_s"] = sum(op["routes"].get(route, 0.0) for op in timed)
    samples = {"setup_s": len(setup_s), "op_ms_p50": cases, "op_ms_p90": cases,
               "ok_frac": attempted}
    return metrics, samples


def per_layer(pairs: list[tuple[dict, dict]]) -> dict:
    names = sorted(set().union(*(traced["layers"] for _, traced in pairs)))
    metrics = {name: statistics.median(traced["layers"].get(name, 0) for _, traced in pairs)
               for name in names}
    metrics["trace.wall_s"] = statistics.median(traced["wall_s"] for _, traced in pairs)
    metrics["trace.overhead_frac"] = statistics.median(
        traced["wall_s"] / plain["wall_s"] - 1 for plain, traced in pairs)
    return metrics


def check(workers: list[dict], expected: dict) -> list[str]:
    problems = []
    for w in workers:
        problems += w.get("unexpected", [])
        for key, digest in w.get("fingerprints", {}).items():
            if digest != expected[key]:
                problems.append(f"fingerprint {key}: {digest} != {expected[key]}")
    return sorted(set(problems))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S

    try:
        workloads.self_test(args.workload, args.seed)
        expected = json.loads((HERE / "fingerprints.json").read_text())
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        if args.trace:
            pairs = run_passes(args, deadline, traced=True)
            passes = [p for pair in pairs for p in pair]
            metrics, samples = per_layer(pairs), {}
        else:
            setup_spec = {"workload": args.workload, "seed": args.seed,
                          "trace": False, "setup_only": True}
            # the first worker only fills the bytecode cache; deep's set-up
            # imports the same modules and runs no extra ops
            worker(dict(setup_spec, workload="deep"), deadline)
            setups = [worker(setup_spec, deadline) for _ in range(SETUP_SAMPLES)]
            passes = run_passes(args, deadline, traced=False)
            metrics, samples = end_to_end(passes, setups)
            passes = setups + passes
        units = {m["name"]: m["unit"]
                 for m in declared["per_layer" if args.trace else "end_to_end"]}
        missing = set(units) - set(metrics)
        if missing:
            raise RuntimeError(f"declared metrics not measured: {sorted(missing)}")
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    problems = check(passes, expected)
    attempted = sum(r["cases"] for p in passes for r in p.get("records", []))
    failed = sum(p.get("failed", 0) for p in passes)
    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} workers, "
          f"{attempted} ops attempted, {failed} failed")
    for name in sorted(metrics, key=lambda name: (name not in units, name)):
        extra = f"  (n={samples[name]})" if name in samples else ""
        print(f"  {name:40s} {metrics[name]:>16.6g} {units.get(name, '')}{extra}")
    print(f"  {'wait_s':40s} {'n/a':>16s} (one thread, no queue)")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
