"""Spans around calls into the program's layers, kept in memory.

``Tracer.install`` wraps public functions of ``stably_distinct`` in every
module namespace and class that binds them (``equivalence`` imports
``exact_divide`` by name, so patching ``polyring`` alone would miss those
calls) and ``uninstall`` restores the originals.  Each call becomes a
span: metric key, start, end and parent span.  A layer's self time is the
duration of its spans minus the part covered by their child spans.

``Fraction`` arithmetic has no call boundary worth wrapping, so
``ScalarSampler`` attributes it statistically instead: a SIGPROF timer in
the main thread samples the innermost Python frame and counts the samples
that fall in ``fractions`` or ``exactfield``.
"""

from __future__ import annotations

import inspect
import signal
import statistics
import sys
import time
from array import array
from collections import defaultdict

# (module, attribute path, metric key): the layer is the key's prefix.
TARGETS = [
    ("polyring", "Polynomial.__mul__", "polyring.mul"),
    ("polyring", "Polynomial.substitute", "polyring.substitute"),
    ("polyring", "exact_divide", "polyring.exact_divide"),
    ("polyring", "Polynomial.evaluate", "polyring.evaluate"),
    ("morphisms", "RingEndomorphism.apply", "morphisms.apply"),
    ("morphisms", "Derivation.apply", "morphisms.apply"),
    ("morphisms", "RingEndomorphism.compose", "morphisms.compose"),
    ("morphisms", "RingEndomorphism.to_dict", "certificate.serialize"),
    ("certificate", "Certificate.to_dict", "certificate.serialize"),
    ("certificate", "Certificate.to_json", "certificate.serialize"),
    ("certificate", "Certificate.to_text", "certificate.serialize"),
    ("certificate", "run_schwartz_zippel", "certificate.sz"),
    ("equivalence", "build_stable_equivalence", "equivalence.build_stable"),
    ("equivalence", "verify_stable_equivalence",
     "equivalence.verify_stable"),
    ("equivalence", "theorem_certificate", "equivalence.theorem"),
    ("equivalence", "decide_hypersurface_equivalence", "equivalence.decide"),
    ("hypersurface", "verify_fiber_isomorphism",
     "hypersurface.verify_fiber"),
    ("lnd", "verify_lnd", "lnd.verify"),
    ("formalseries", "verify_biholomorphism", "formalseries.verify"),
    ("cli", "main", "cli.main"),
]

# counts summed over calls, and counts that keep the largest value seen
SUMS = ("polyring.exact_divide_terms", "certificate.sz_checks",
        "certificate.sz_points")
MAXIMA = ("polyring.max_terms", "equivalence.phi_y_terms",
          "equivalence.psi_y_terms")

LAYERS = ("polyring", "morphisms", "certificate", "equivalence",
          "hypersurface", "lnd", "formalseries", "cli")


class Tracer:
    def __init__(self):
        self.keys: list[str] = []
        self.key_ids: dict[str, int] = {}
        self.span_key = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.counts = dict.fromkeys(SUMS + MAXIMA, 0)
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _wrap(self, key: str, fn, on_result):
        kid = self.key_ids.setdefault(key, len(self.key_ids))
        if kid == len(self.keys):
            self.keys.append(key)
        span_key, span_parent = self.span_key, self.span_parent
        span_start, span_end, stack = self.span_start, self.span_end, \
            self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(span_key)
            span_key.append(kid)
            span_parent.append(stack[-1] if stack else -1)
            span_start.append(0.0)
            span_end.append(0.0)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span_end[idx] = clock()
                span_start[idx] = start
                stack.pop()
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _hooks(self, pkg):
        counts = self.counts

        def poly_size(args, kwargs, result):
            if result.__class__ is pkg.Polynomial:
                counts["polyring.max_terms"] = max(
                    counts["polyring.max_terms"], len(result.terms))

        def divide(args, kwargs, result):
            counts["polyring.exact_divide_terms"] += len(args[0].terms)
            poly_size(args, kwargs, result)

        def stable_pair(args, kwargs, result):
            for side in ("phi", "psi"):
                key = f"equivalence.{side}_y_terms"
                counts[key] = max(counts[key], getattr(
                    result, side).image("y").term_count())

        sz_signature = inspect.signature(pkg.run_schwartz_zippel)

        def sz(args, kwargs, result):
            bound = sz_signature.bind(*args, **kwargs)
            bound.apply_defaults()
            counts["certificate.sz_checks"] += result
            counts["certificate.sz_points"] += result \
                * bound.arguments["points"]

        return {"polyring.mul": poly_size, "polyring.substitute": poly_size,
                "polyring.exact_divide": divide,
                "equivalence.build_stable": stable_pair,
                "certificate.sz": sz}

    def install(self, pkg) -> None:
        """Wrap every target wherever the loaded package binds it."""
        modules = [m for name, m in sys.modules.items()
                   if name == pkg.__name__
                   or name.startswith(pkg.__name__ + ".")]
        hooks = self._hooks(pkg)
        wrappers = {}
        for module_name, path, key in TARGETS:
            owner = sys.modules[f"{pkg.__name__}.{module_name}"]
            for part in path.split("."):
                owner = getattr(owner, part)
            wrappers[id(owner)] = (owner, self._wrap(key, owner,
                                                     hooks.get(key)))
        holders = []
        for module in modules:
            holders.append(module)
            holders.extend(v for v in vars(module).values()
                           if isinstance(v, type)
                           and v.__module__ == module.__name__)
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((holder, attr, value))
                    setattr(holder, attr, hit[1])

    def uninstall(self) -> None:
        for holder, attr, value in reversed(self._patched):
            setattr(holder, attr, value)
        self._patched.clear()

    # -- reduction ----------------------------------------------------------

    def metrics(self, passes: int) -> dict:
        """Per-pass totals, calls and self times, over ``passes`` passes.

        Maxima and the decider's percentiles are over all the spans.
        """
        n = len(self.span_key)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                child[parent] += dur[i]
        total = defaultdict(float)
        calls = defaultdict(int)
        self_time = defaultdict(float)
        decide_us = []
        decide_id = self.key_ids.get("equivalence.decide")
        for i in range(n):
            key = self.keys[self.span_key[i]]
            calls[key] += 1
            self_time[key.split(".")[0]] += dur[i] - child[i]
            if not self._nested_in_same_key(i):
                total[key] += dur[i]
            if self.span_key[i] == decide_id:
                decide_us.append(dur[i] * 1e6)
        out = {}
        for _, _, key in TARGETS:
            out[f"{key}_s"] = total[key] / passes
            out[f"{key}_calls"] = calls[key] / passes
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_time[layer] / passes
        for key in SUMS:
            out[key] = self.counts[key] / passes
        for key in MAXIMA:
            out[key] = self.counts[key]
        decide_us = decide_us or [0.0]     # 0 when the decider was not called
        out["equivalence.decide_p50_us"] = statistics.median(decide_us)
        out["equivalence.decide_p99_us"] = \
            statistics.quantiles(decide_us, n=100)[98] \
            if len(decide_us) > 1 else decide_us[0]
        out["trace.spans"] = n / passes
        return out

    def _nested_in_same_key(self, i: int) -> bool:
        key, parent = self.span_key[i], self.span_parent[i]
        while parent >= 0:
            if self.span_key[parent] == key:
                return True
            parent = self.span_parent[parent]
        return False

    def span_records(self, limit: int) -> list:
        """The first ``limit`` spans as [key, start, end, parent]."""
        return [[self.keys[self.span_key[i]], self.span_start[i],
                 self.span_end[i], self.span_parent[i]]
                for i in range(min(limit, len(self.span_key)))]


class ScalarSampler:
    """Share of CPU samples whose innermost Python frame is scalar code."""

    def __init__(self, files, interval: float = 0.001):
        self.files = frozenset(files)
        self.interval = interval
        self.samples = 0
        self.hits = 0
        self._previous = None

    def _handler(self, signum, frame):
        self.samples += 1
        if frame is not None and frame.f_code.co_filename in self.files:
            self.hits += 1

    def __enter__(self):
        self._previous = signal.signal(signal.SIGPROF, self._handler)
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)
        return False

    @property
    def share(self) -> float:
        return self.hits / self.samples if self.samples else 0.0
