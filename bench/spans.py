"""In-memory span tracing around fragcheck's public functions.

The tracer replaces each listed function at every `fragcheck` module that
binds it with a wrapper that records one span per call: name, start, end,
parent span and item id.  Spans are recorded only while an item is open,
so set-up and output checks stay out of the trace.  Self time is a span's
duration minus the durations of its direct children; calls are strictly
nested on one thread, so children never overlap.  Times are CPU seconds
of the process, like every time the benchmark reports.
"""

from __future__ import annotations

import gzip
import hashlib
import inspect
import json
import sys
import time
import weakref
from collections import defaultdict
from contextlib import contextmanager

# module -> public functions spanned there.  Metric names follow
# <module>.<function>.{calls,self_s}; a function missing from a later
# version of the package reports zero calls.  `wreath` is reached by no
# workload and is left out.
SPANNED = {
    "automata": ("minimize", "equivalent", "complement", "regex_to_dfa", "decorate"),
    "monoid": (
        "transition_monoid", "generated_morphism", "syntactic_order",
        "local_condition", "me_submonoid", "submonoid_closure", "j_upset",
        "submonoid_view", "set_product", "is_aperiodic",
    ),
    "stability": ("stability_info", "me_s"),
    "fragments": ("analyze", "build_mod_witness", "verify_vmod_implication"),
    "fologic": ("parse_formula_document", "compile_formula"),
    "modprod": ("validate", "eval_expr", "expr_to_formula"),
    "hierarchy": ("wv_level", "sim_quotient"),
    "cli": ("xcheck_battery", "generate_corpus"),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in SPANNED.items() for fn in fns)

# Counters kept beside the spans.
EXTRA_COUNTS = (
    "monoid.mul.calls",
    "monoid.syntactic_order.computed",
    "monoid.me_submonoid.distinct",
    "stability.me_s.distinct",
    "fologic.compile_formula.states_out",
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, item]
        self.counts: dict[str, int] = defaultdict(int)
        self.item = None
        self._stack: list[int] = []
        self._seen: dict[str, set] = defaultdict(set)
        self._digests = weakref.WeakKeyDictionary()

    # -- recording ---------------------------------------------------------

    @contextmanager
    def item_scope(self, item_id):
        self.item = item_id
        try:
            yield
        finally:
            self.item = None
            self._stack.clear()

    def _spanned(self, name, fn, before=None, after=None):
        spans, stack, clock = self.spans, self._stack, time.process_time

        def wrapper(*args, **kwargs):
            if self.item is None:
                return fn(*args, **kwargs)
            if before is not None:
                before(args, kwargs)
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, self.item])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if after is not None:
                after(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            if self.item is not None:
                counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _digest(self, monoid) -> bytes:
        """Content digest of a monoid's table, cached per object, so that a
        rebuilt but identical monoid counts as the same input."""
        got = self._digests.get(monoid)
        if got is None:
            got = hashlib.blake2b(monoid.mult.tobytes(), digest_size=16).digest()
            self._digests[monoid] = got
        return got

    def _distinct(self, name, key):
        seen = self._seen[name]
        if key not in seen:
            seen.add(key)
            self.counts[name] += 1

    def _hooks(self, qualified: str, fn):
        """Counter hooks for the functions that carry an extra counter.
        Arguments are read by position, as the functions declare them."""
        sig = inspect.signature(fn)

        def params(args, kwargs):
            return list(sig.bind(*args, **kwargs).arguments.values())

        if qualified == "monoid.syntactic_order":
            def before(args, kwargs):
                if params(args, kwargs)[0].monoid.leq is None:
                    self.counts["monoid.syntactic_order.computed"] += 1
            return before, None
        if qualified == "monoid.me_submonoid":
            def before(args, kwargs):
                m, e = params(args, kwargs)[:2]
                self._distinct("monoid.me_submonoid.distinct", (self._digest(m), int(e)))
            return before, None
        if qualified == "stability.me_s":
            def before(args, kwargs):
                m, info, e = params(args, kwargs)[:3]
                key = (self._digest(m.monoid), tuple(sorted(m.letter_map.items())),
                       info.index, int(e))
                self._distinct("stability.me_s.distinct", key)
            return before, None
        if qualified == "fologic.compile_formula":
            def after(result):
                self.counts["fologic.compile_formula.states_out"] += len(result.states)
            return None, after
        return None, None

    # -- installation ------------------------------------------------------

    @contextmanager
    def installed(self):
        """Patch every binding of the spanned functions in the loaded
        fragcheck modules, and count OrderedMonoid.mul; undo on exit."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "fragcheck" or n.startswith("fragcheck."))]
        undo = []
        for mod_name, fns in SPANNED.items():
            home = sys.modules.get(f"fragcheck.{mod_name}")
            for fn_name in fns:
                original = getattr(home, fn_name, None)
                if original is None:
                    continue
                qualified = f"{mod_name}.{fn_name}"
                before, after = self._hooks(qualified, original)
                wrapper = self._spanned(qualified, original, before, after)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            undo.append((module, attr, value))
                            setattr(module, attr, wrapper)
        monoid_mod = sys.modules.get("fragcheck.monoid")
        cls = getattr(monoid_mod, "OrderedMonoid", None)
        if cls is not None and "mul" in vars(cls):
            undo.append((cls, "mul", vars(cls)["mul"]))
            cls.mul = self._counted("monoid.mul.calls", vars(cls)["mul"])
        try:
            yield self
        finally:
            for owner, attr, value in reversed(undo):
                setattr(owner, attr, value)

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: its duration minus its direct children's durations."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def root_time(self) -> float:
        return sum(end - start for _, start, end, parent, _ in self.spans if parent < 0)

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        calls = dict.fromkeys(SPAN_NAMES, 0)
        own = dict.fromkeys(SPAN_NAMES, 0.0)
        for (name, *_), t in zip(self.spans, self.self_times()):
            calls[name] += 1
            own[name] += t
        # analyze never calls itself, so its spans do not overlap
        analyze_s = sum(end - start for name, start, end, _, _ in self.spans
                        if name == "fragments.analyze")
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.self_s"] = (own[name], "s")
        out["fragments.analyze.total_s"] = (analyze_s, "s")
        for name in EXTRA_COUNTS:
            out[name] = (self.counts.get(name, 0), "count")
        return out

    def write(self, path):
        """Write the spans as gzip-compressed JSON lines."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for name, start, end, parent, item in self.spans:
                handle.write(json.dumps([name, start, end, parent, item]) + "\n")
