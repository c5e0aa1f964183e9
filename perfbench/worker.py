"""One pass of a benchmark workload, in a fresh interpreter.

Usage: python3 perfbench/worker.py '<json spec>' where the spec has the keys
workload, seed, trace and setup_only.  The last line of stdout is one JSON
object with what the pass measured.  run.py starts this script; run it by
hand only to debug a single pass.

Set-up (import, input generation, one warm-up case per route at m = 3) is
timed apart from the pass.  The warm-up touches no size the workload uses.
A set-up-only worker for lemmas then also runs the short lemma calls once,
so that they get more samples than the passes alone give, and the route
probe.  A pass worker runs every op, then, untimed, the output fingerprint:
sha256 of stdout of two in-process ``cli.main`` calls.  Every time reported
is rescaled by how fast the machine ran around the moment it was measured
(reference.py).
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import importlib
import io
import itertools
import json
import math
import resource
import sys
from pathlib import Path

import workloads
from reference import Meter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = "residue_tilings"
LAYERS = ("board", "tiling", "kasteleyn", "spectral", "decomp", "residue", "lemmas", "cli")
ROUTES = ("dp", "det", "rf", "spectral")
FINGERPRINT_ARGV = {
    "verify": ["verify", "--m-max", "12", "--n-max", "9",
               "--methods", "dp,det,reciprocity-free,spectral"],
    "table": ["table", "--m-max", "12", "--n-max", "9", "--format", "csv"],
}


def load_package():
    sys.path.insert(0, str(SRC))
    pkg = importlib.import_module(PACKAGE)
    if not Path(pkg.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"{PACKAGE} imported from {pkg.__file__}, not from {SRC}")
    return pkg, {name: importlib.import_module(f"{PACKAGE}.{name}") for name in LAYERS}


class Pass:
    """Runs ops and records, per op, its seconds, its number of cases, the
    seconds spent in each route and its span on the clock."""

    def __init__(self, pkg, mods, clock) -> None:
        self.pkg = pkg
        self.mods = mods
        self.clock = clock
        self.failures = (pkg.ToleranceError, pkg.SizeLimitError, ValueError)
        self.records: list[dict] = []
        self.failed = 0
        self.unexpected: list[str] = []

    # The routes are looked up on the package at call time, so a traced pass
    # goes through the wrapped bindings.
    def route(self, name: str, m: int, n: int):
        pkg = self.pkg
        if name == "dp":
            return pkg.signed_sum(pkg.rectangle(m - 1, n - 1))
        if name == "det":
            return pkg.signed_sum_via_det(m, n)
        if name == "rf":
            return pkg.reciprocity_free_sum(m, n)
        sign = -1 if m % 2 == 0 and (n * n - 1) // 8 % 2 else 1
        return sign * pkg.round_signed(pkg.norm_product(m, n))

    def routes(self, names, m: int, n: int, routes_s: dict) -> bool:
        rhs = self.pkg.theorem_rhs(m, n)
        ok = True
        for name in names:
            start = self.clock()
            try:
                ok = self.route(name, m, n) == rhs and ok
            except self.failures:
                ok = False
            routes_s[name] = self.clock() - start
        return ok

    def run(self, index: int, op: workloads.Op) -> None:
        # collect the previous op's garbage now, so that it is not charged to this one
        gc.collect()
        routes_s: dict[str, float] = {}
        cases = 1
        start = self.clock()
        if op.route == "lemma":
            report = getattr(self.mods["lemmas"], "run_" + op.band)(**workloads.LEMMA_CALLS[op.band])
            ok, cases = not report["failed"], report["total"]
        elif op.route == "count":
            count = self.pkg.count_tilings(self.pkg.rectangle(op.m - 1, op.n - 1))
            routes_s["dp"] = self.clock() - start
        else:
            ok = self.routes((op.route,), op.m, op.n, routes_s)
        end = self.clock()
        self.records.append({"s": end - start, "cases": cases, "routes": routes_s,
                             "band": op.band, "key": index, "span": (start, end)})
        if op.route == "count":
            ok = count_ok(count, op.m - 1, op.n - 1)
        if ok:
            return
        self.failed += report["failed"] if op.route == "lemma" else 1
        if not op.known_defect:
            self.unexpected.append(f"{op.route} {op.band} m={op.m} n={op.n} failed")

    def route_probe(self) -> list[dict]:
        probes = []
        for _, (name, m, n) in itertools.product(range(workloads.PROBE_REPS), workloads.ROUTE_PROBE):
            gc.collect()
            routes_s: dict[str, float] = {}
            start = self.clock()
            if not self.routes((name,), m, n, routes_s):
                self.unexpected.append(f"route probe: {name} m={m} n={n}")
            probes.append({"s": routes_s[name], "cases": 1, "routes": routes_s, "band": name,
                           "key": "probe " + name, "span": (start, self.clock())})
        return probes


def count_ok(count: int, width: int, height: int) -> bool:
    """Whether count matches Kasteleyn's product for the number of domino
    tilings of a width x height rectangle."""
    if width * height % 2:
        return count == 0
    prod = 1.0
    for j in range(1, (width + 1) // 2 + 1):
        for k in range(1, (height + 1) // 2 + 1):
            prod *= (4 * math.cos(math.pi * j / (width + 1)) ** 2
                     + 4 * math.cos(math.pi * k / (height + 1)) ** 2)
    return math.isclose(count, prod, rel_tol=1e-9)


def warm_up(p: Pass) -> None:
    if not p.routes(ROUTES, 3, 3, {}):
        raise RuntimeError("warm-up: a route fails at m = n = 3")
    if not count_ok(p.pkg.count_tilings(p.pkg.rectangle(2, 2)), 2, 2):
        raise RuntimeError("warm-up: count_tilings fails on the 2 x 2 board")


def fingerprints(cli, problems: list[str]) -> dict[str, str]:
    digests = {}
    for key, argv in FINGERPRINT_ARGV.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            problems.append(f"cli {' '.join(argv)} exited {code}")
        digests[key] = hashlib.sha256(out.getvalue().encode()).hexdigest()
    return digests


def layer_metrics(tracer, wall_s: float) -> dict[str, float]:
    out = {}
    for qualname, (calls, self_s) in tracer.stats.items():
        out[qualname + ".calls"] = calls
        out[qualname + ".self_s"] = self_s
        layer = qualname.split(".")[0]
        out[layer + ".self_s"] = out.get(layer + ".self_s", 0.0) + self_s
    c = tracer.counters
    stats = tracer.stats

    def share(key: str, qualname: str) -> float:
        calls = stats[qualname][0]
        return c.get(key, 0) / calls if calls else 0.0

    out["tiling.signed_sum.zero_frac"] = share("tiling.signed_sum.zero", "tiling.signed_sum")
    out["tiling.enumerate_tilings.tilings"] = c.get("tiling.enumerate_tilings.tilings", 0)
    out["kasteleyn.dim_max"] = c.get("kasteleyn.dim_max", 0)
    out["kasteleyn.bareiss_ops"] = c.get("kasteleyn.bareiss_ops", 0)
    out["decomp.half_board_sum.nonzero_frac"] = share("decomp.half_board_sum.nonzero",
                                                      "decomp.half_board_sum")
    out["spectral.norm_product.factors"] = c.get("spectral.norm_product.factors", 0)
    out["spectral.certified_frac"] = share("spectral.certified", "spectral.norm_product")
    out["trace.coverage"] = tracer.top_s / wall_s  # both not yet rescaled
    out["trace.bindings"] = tracer.bindings
    return out


def main(spec: dict) -> dict:
    meter = Meter()
    clock = meter.now
    start = clock()
    pkg, mods = load_package()
    ops = workloads.generate(spec["workload"], spec["seed"])
    p = Pass(pkg, mods, clock)
    warm_up(p)
    result = {"setup_span": (start, clock())}
    if spec["setup_only"]:
        if spec["workload"] == "lemmas":
            for index, op in enumerate(ops):
                if op.band in workloads.SHORT_LEMMAS:
                    p.run(index, op)
            result.update(probes=p.route_probe(), records=p.records, failed=p.failed,
                          unexpected=p.unexpected)
        return rescale(result, meter)

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer(clock)
        tracer.install(PACKAGE, mods)
    for index, op in enumerate(ops):
        p.run(index, op)
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, sum(record["s"] for record in p.records))
        tracer.reset()

    result["fingerprints"] = fingerprints(mods["cli"], p.unexpected)
    if tracer is not None:
        layers = result["layers"]
        layers["cli.main.calls"], layers["cli.main.self_s"] = tracer.stats["cli.main"]
        layers["cli.self_s"] = sum(s for name, (_, s) in tracer.stats.items()
                                   if name.startswith("cli."))
    result.update(records=p.records, failed=p.failed, unexpected=p.unexpected,
                  rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    result = rescale(result, meter)
    result["wall_s"] = sum(record["s"] for record in result["records"])
    return result


def rescale(result: dict, meter: Meter) -> dict:
    """Multiply each time in result by the machine's speed around its span,
    and the layer self times, which have no single span, by its speed over
    the whole worker."""
    meter.stop()
    start, end = result.pop("setup_span")
    result["setup_s"] = (end - start) * meter.factor(start, end)
    for record in result.get("records", []) + result.get("probes", []):
        factor = meter.factor(*record.pop("span"))
        record["s"] *= factor
        record["routes"] = {name: s * factor for name, s in record["routes"].items()}
    result["speed"] = meter.factor()
    layers = result.get("layers", {})
    for name in layers:
        if name.endswith("self_s"):
            layers[name] *= result["speed"]
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
