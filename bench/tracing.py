"""Per-layer tracing of the package from outside, by rebinding names.

The modules import names directly (``from .rings import gcd``), so every
function is wrapped where it is bound: in each module namespace that holds
it, the package namespace included.  Functions of ``graph``, ``splines``,
``pid``, ``cli`` and ``oracle`` get spans (name, start, end, parent) kept in
memory; ring operations, called millions of times per pass, get counters
and summed time only.  A span's self time is its duration minus the time
of its child spans; ring operations are not spans, so their time counts in
the self time of the span that called them.

A trail_constraint call counts as a cache hit when it made no ring gcd
call: a miss always runs at least one gcd on a connected graph.
"""

from __future__ import annotations

import functools
import types
from collections import defaultdict
from fractions import Fraction
from time import perf_counter
from typing import Dict, List

SPAN_MODULES = ("graph", "splines", "pid", "cli", "oracle")
BOUND_IN = ("egsplines", "rings", "graph", "splines", "pid", "cli", "oracle")
HOT_METHODS = {"__mul__": "mul", "__add__": "addsub", "__sub__": "addsub"}


def value_bits(v) -> int:
    """Largest coefficient bit length of a raw ring value."""
    t = type(v)
    if t is int:
        return v.bit_length()
    if t is Fraction:
        return max(v.numerator.bit_length(), v.denominator.bit_length())
    if t is tuple:
        return max(map(value_bits, v), default=0)
    return 0


def value_degree(v) -> int:
    """Total degree of a raw polynomial value (0 for scalars)."""
    if type(v) is not tuple:
        return 0
    return max((i + value_degree(c) for i, c in enumerate(v) if c), default=0)


def _matrix_size(rows):
    bits = deg = 0
    for row in rows:
        for e in row:
            bits = max(bits, value_bits(e.value))
            deg = max(deg, value_degree(e.value))
    return bits, deg


class Stat:
    __slots__ = ("calls", "self_s", "total_s", "failed", "hits", "none")

    def __init__(self):
        self.calls = self.failed = self.hits = self.none = 0
        self.self_s = self.total_s = 0.0


class Tracer:
    def __init__(self, lib):
        self.lib = lib
        self.stats: Dict[str, Stat] = defaultdict(Stat)
        self.peak: Dict[str, int] = defaultdict(int)
        self.spans: List[tuple] = []
        self._stack: List[list] = []  # [span index, child seconds]
        self._undo: List[tuple] = []

    # ---- per-pass bookkeeping ----

    def reset(self) -> None:
        self.stats.clear()
        self.peak.clear()
        self.spans = []

    def metric(self, name: str, field: str):
        st = self.stats.get(name)
        return 0 if st is None else getattr(st, field)

    # ---- wrappers ----

    def _span(self, name, fn, after=None, before=None):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = self.stats[name]
            spans = self.spans
            parent = stack[-1][0] if stack else -1
            index = len(spans)
            spans.append(None)
            frame = [index, 0.0]
            stack.append(frame)
            token = before(args) if before else None
            ok = False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                st.calls += 1
                st.total_s += duration
                st.self_s += duration - frame[1]
                if not ok:
                    st.failed += 1
                spans[index] = (name, start, end, parent)
            if after:
                after(st, token, result)
            return result

        return wrapper

    def _counter(self, name, fn):
        peak = self.peak

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = self.stats[name]
            st.calls += 1
            start = perf_counter()
            result = fn(*args, **kwargs)
            st.total_s += perf_counter() - start
            if result is None:
                st.none += 1
            else:
                bits = _result_bits(result)
                if bits > peak["rings"]:
                    peak["rings"] = bits
            return result

        return wrapper

    def _hot(self, name, fn):
        peak = self.peak

        def wrapper(a, b):
            self.stats[name].calls += 1
            result = fn(a, b)
            v = result.value
            bits = v.bit_length() if type(v) is int else value_bits(v)
            if bits > peak["rings"]:
                peak["rings"] = bits
            return result

        return wrapper

    def _special(self, qual):
        """(before, after) hooks that record result sizes and cache hits."""
        peak = self.peak
        if qual == "graph.trail_constraint":
            gcd_stat = lambda: self.metric("rings.gcd", "calls")

            def before(args):
                return gcd_stat()

            def after(st, token, result):
                if gcd_stat() == token:
                    st.hits += 1
                peak[qual + ".bits"] = max(peak[qual + ".bits"], value_bits(result.value))

            return before, after
        if qual == "pid.hermite_triangularize":

            def after(st, token, result):
                h, u = result
                for tag, rows in (("h", h), ("u", u)):
                    bits, deg = _matrix_size(rows)
                    peak[f"{qual}.{tag}_bits"] = max(peak[f"{qual}.{tag}_bits"], bits)
                    peak[f"{qual}.{tag}_deg"] = max(peak[f"{qual}.{tag}_deg"], deg)

            return None, after
        if qual == "splines.spline_determinant":

            def after(st, token, result):
                peak[qual + ".bits"] = max(peak[qual + ".bits"], value_bits(result.value))
                peak[qual + ".deg"] = max(peak[qual + ".deg"], value_degree(result.value))

            return None, after
        return None, None

    # ---- installation ----

    def install(self) -> None:
        lib = self.lib
        modules = {name: getattr(lib, name) for name in BOUND_IN}
        wrapped = {}
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if not isinstance(obj, types.FunctionType) or attr.startswith("_"):
                    continue
                home = obj.__module__.rpartition(".")[2]
                if home not in SPAN_MODULES and home != "rings":
                    continue
                if id(obj) not in wrapped:
                    qual = f"{home}.{obj.__name__}"
                    if home == "rings":
                        wrapped[id(obj)] = self._counter(qual, obj)
                    else:
                        before, after = self._special(qual)
                        wrapped[id(obj)] = self._span(qual, obj, after, before)
                self._undo.append((mod, attr, obj))
                setattr(mod, attr, wrapped[id(obj)])
        cls = lib.rings.RingElement
        for method, short in HOT_METHODS.items():
            original = cls.__dict__[method]
            self._undo.append((cls, method, original))
            setattr(cls, method, self._hot(f"rings.{short}", original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _result_bits(result) -> int:
    if isinstance(result, tuple):
        return max((_result_bits(r) for r in result), default=0)
    value = getattr(result, "value", None)
    return 0 if value is None else value_bits(value)
