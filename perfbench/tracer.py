"""Per-layer spans recorded from outside the package.

Every public function of a layer module is wrapped, and every binding of it
is rebound: the defining module, each module that imported it by name (for
example ``from .tiling import signed_sum`` in decomp, lemmas, cli and the
package ``__init__``) and dicts of functions such as ``lemmas.LEMMAS``.  A
binding that is missed shows up as a drop in ``trace.coverage``.

A span's self time is its duration minus the time its child spans cover.
Spans are aggregated per function as they close, so nothing grows with the
number of calls.
"""

from __future__ import annotations

import inspect
import math
import sys

class Tracer:
    def __init__(self, clock) -> None:
        self.clock = clock  # the worker's clock, which skips the calibration handler
        self.stats: dict[str, list] = {}  # name -> [calls, self seconds]
        self.counters: dict[str, float] = {}
        self.top_s = 0.0  # summed duration of spans opened by the benchmark itself
        self.bindings = 0
        self._stack: list[float] = []  # child time of each open span
        self._observers = {
            "tiling.signed_sum": self._signed_sum,
            "tiling.enumerate_tilings": self._enumerate,
            "kasteleyn.det_exact": self._det_exact,
            "decomp.half_board_sum": self._half_board_sum,
            "spectral.norm_product": self._norm_product,
        }

    def reset(self) -> None:
        for record in self.stats.values():
            record[:] = [0, 0.0]
        self.counters.clear()
        self.top_s = 0.0

    def install(self, package: str, layers: dict[str, object]) -> None:
        """Wrap the public functions of each layer module and rebind every
        reference to them across the loaded modules of ``package``."""
        wrappers = {}
        for layer, module in layers.items():
            for name, fn in vars(module).items():
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not name.startswith("_")):
                    wrappers[fn] = self._wrap(f"{layer}.{name}", fn)
        modules = [mod for key, mod in sys.modules.items()
                   if key == package or key.startswith(package + ".")]
        for module in modules:
            namespace = vars(module)
            for name, value in list(namespace.items()):
                if inspect.isfunction(value) and value in wrappers:
                    namespace[name] = wrappers[value]
                    self.bindings += 1
                elif isinstance(value, dict) and not name.startswith("__"):
                    for key, item in value.items():
                        if inspect.isfunction(item) and item in wrappers:
                            value[key] = wrappers[item]
                            self.bindings += 1

    def _wrap(self, qualname: str, fn):
        record = self.stats.setdefault(qualname, [0, 0.0])
        observe = self._observers.get(qualname)
        stack = self._stack
        clock = self.clock

        def span(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                record[0] += 1
                record[1] += elapsed - child
                if stack:
                    stack[-1] += elapsed
                else:
                    self.top_s += elapsed
            if observe is not None:
                observe(args, kwargs, result)
            return result

        span.__wrapped__ = fn
        return span

    def _count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _signed_sum(self, args, kwargs, result) -> None:
        self._count("tiling.signed_sum.zero", result == 0)

    def _enumerate(self, args, kwargs, result) -> None:
        self._count("tiling.enumerate_tilings.tilings", len(result))

    def _det_exact(self, args, kwargs, result) -> None:
        dim = (args[0] if args else kwargs["matrix"]).dim
        self.counters["kasteleyn.dim_max"] = max(self.counters.get("kasteleyn.dim_max", 0), dim)
        self._count("kasteleyn.bareiss_ops", dim ** 3 / 3)

    def _half_board_sum(self, args, kwargs, result) -> None:
        self._count("decomp.half_board_sum.nonzero", result != 0)

    def _norm_product(self, args, kwargs, result) -> None:
        m, n = args[:2] if len(args) >= 2 else (kwargs["m"], kwargs["n"])
        self._count("spectral.norm_product.factors", (m - 1) * (n - 1) / 2)
        self._count("spectral.certified", certified(result, m, n))


def certified(z: complex, m: int, n: int, tol: float = 1e-6) -> bool:
    """Whether z rounds within tol to a value of the modulus the theorem
    demands: 1 for coprime (m, n), 0 otherwise."""
    nearest = round(z.real)
    if abs(z.real - nearest) > tol or abs(z.imag) > tol:
        return False
    return abs(nearest) == (1 if math.gcd(m, n) == 1 else 0)
