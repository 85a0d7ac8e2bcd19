"""Per-layer spans recorded from outside the program.

The tracer replaces the public functions named in ``LAYERS`` by timing
wrappers, in their defining module and in every ``nebulab`` module that
imported them by name, and puts the originals back on ``restore``.  A span
records its inclusive time; a layer's self time is its spans' time minus
the time of the wrapped calls made inside them.  The predicates in
``stars.PREDICATES`` are not wrapped: ``find_ordering`` recognises its
predicate by identity.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from typing import Any, Callable

LAYERS = {
    "core": ("enumerate_tournaments", "canonical_form", "largest_transitive", "is_prime",
             "find_module_exhaustive"),
    "stars": ("find_ordering", "classify_components_partial", "backward_graph",
              "classify_components"),
    "product": ("product", "extend_to_product_form"),
    "containment": ("contains", "brute_force_contains", "random_free_tournament",
                    "empirical_eh_exponent"),
    "structures": ("classify_triple", "witness", "verify_structure", "extract_product",
                   "turan_clique"),
    "algorithm": ("find_strong_structure", "run", "run_phase", "check_state",
                  "nonsaturation_extract"),
    "regularity": ("regular_pair_exact", "regular_pair_sampled", "verify_regular_partition",
                   "strong_structure_pipeline"),
    "cli": ("main",),
    "files": ("parse_tournament", "write_matrix"),
    "reports": ("render",),
}

GENERATORS = {("core", "enumerate_tournaments")}  # timed across their iteration


def _is_pair(result: Any) -> bool:
    return type(result).__name__ == "CompletePair"


# useful outcomes over attempts: (module, function) -> (metric, predicate)
RATIOS: dict[tuple[str, str], tuple[str, Callable[[Any], bool]]] = {
    ("stars", "find_ordering"): ("found_ratio", lambda r: r is not None),
    ("containment", "contains"): ("hit_ratio", lambda r: r is not None),
    ("containment", "random_free_tournament"): ("fail_ratio", lambda r: r is None),
    ("structures", "classify_triple"): ("pair_ratio", _is_pair),
    ("structures", "witness"): ("pair_ratio", _is_pair),
    ("structures", "verify_structure"): ("pass_ratio", lambda r: r.passed),
    ("regularity", "regular_pair_exact"): ("pass_ratio", lambda r: r.passed),
}

# work counts read off results: (module, function) -> (metric, amount)
COUNTS: dict[tuple[str, str], tuple[str, Callable[[Any], int]]] = {
    ("algorithm", "run"): ("phases", lambda r: r.phases),
}


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    names = []
    for module, functions in LAYERS.items():
        for fn in functions:
            names += [(f"{module}.{fn}.calls", "count"), (f"{module}.{fn}.busy_s", "s")]
    for module in LAYERS:
        names += [(f"{module}.self_s", "s"), (f"{module}.share", "ratio"),
                  (f"{module}.errors", "count")]
    names += [(f"{m}.{f}.{metric}", "ratio") for (m, f), (metric, _) in RATIOS.items()]
    names += [(f"{m}.{f}.{metric}", "count") for (m, f), (metric, _) in COUNTS.items()]
    names += [("core.enumerate_tournaments.classes", "count"), ("trace.overhead_s", "s")]
    return names


class Tracer:
    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.busy_ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.errors: Counter = Counter()
        self.useful: Counter = Counter()
        self.amounts: Counter = Counter()
        self._depth: Counter = Counter()
        self._stack: list[list] = []  # [module, ns spent in wrapped children]
        self._patched: list[tuple[Any, str, Any]] = []

    # -- spans ---------------------------------------------------------------

    def _timed(self, key: tuple[str, str], fn: Callable, args, kwargs):
        module = key[0]
        parent = self._stack[-1] if self._stack else None
        frame = [module, 0]
        self._stack.append(frame)
        self._depth[key] += 1
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        except StopIteration:
            raise
        except BaseException:
            if parent is None or parent[0] != module:
                self.errors[module] += 1
            raise
        finally:
            elapsed = time.perf_counter_ns() - start
            self._stack.pop()
            self._depth[key] -= 1
            if not self._depth[key]:  # inclusive time of the outermost activation
                self.busy_ns[key] += elapsed
            self.self_ns[module] += elapsed - frame[1]
            if parent is not None:
                parent[1] += elapsed

    def _wrap(self, key: tuple[str, str], fn: Callable) -> Callable:
        tracer = self
        ratio = RATIOS.get(key)
        count = COUNTS.get(key)

        if key in GENERATORS:
            def wrapper(*args, **kwargs):
                tracer.calls[key] += 1
                gen = fn(*args, **kwargs)

                def iterate():
                    while True:
                        try:
                            item = tracer._timed(key, next, (gen,), {})
                        except StopIteration:
                            return
                        tracer.amounts[key] += 1
                        yield item

                return iterate()
        else:
            def wrapper(*args, **kwargs):
                tracer.calls[key] += 1
                result = tracer._timed(key, fn, args, kwargs)
                if ratio is not None and ratio[1](result):
                    tracer.useful[key] += 1
                if count is not None:
                    tracer.amounts[key] += count[1](result)
                return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "nebulab" or name.startswith("nebulab.")]
        for module, functions in LAYERS.items():
            home = sys.modules[f"nebulab.{module}"]
            for name in functions:
                original = getattr(home, name)
                wrapper = self._wrap((module, name), original)
                for m in modules:
                    if m.__dict__.get(name) is original:
                        setattr(m, name, wrapper)
                        self._patched.append((m, name, original))

    def restore(self) -> None:
        while self._patched:
            m, name, original = self._patched.pop()
            setattr(m, name, original)

    # -- results -------------------------------------------------------------

    def metrics(self, job_seconds: float, overhead_s: float, scale: float) -> dict[str, float]:
        """Every per-layer metric; recorded durations are multiplied by
        ``scale``, ``job_seconds`` and ``overhead_s`` are taken as given."""
        out: dict[str, float] = {}
        for module, functions in LAYERS.items():
            for fn in functions:
                out[f"{module}.{fn}.calls"] = self.calls[(module, fn)]
                out[f"{module}.{fn}.busy_s"] = self.busy_ns[(module, fn)] / 1e9 * scale
        for module in LAYERS:
            self_s = self.self_ns[module] / 1e9 * scale
            out[f"{module}.self_s"] = self_s
            out[f"{module}.share"] = self_s / job_seconds if job_seconds else 0.0
            out[f"{module}.errors"] = self.errors[module]
        for key, (metric, _) in RATIOS.items():
            calls = self.calls[key]
            out[f"{key[0]}.{key[1]}.{metric}"] = self.useful[key] / calls if calls else 0.0
        for key, (metric, _) in COUNTS.items():
            out[f"{key[0]}.{key[1]}.{metric}"] = self.amounts[key]
        out["core.enumerate_tournaments.classes"] = self.amounts[("core", "enumerate_tournaments")]
        out["trace.overhead_s"] = overhead_s
        return out
