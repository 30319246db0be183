"""Per-layer tracing from outside the program.

The tracer wraps the functions and methods of each exactweil module and
patches every name where it is looked up: a function in each module
namespace that binds it (``jordan_decompose`` in ``exactweil.weilrep`` as
well as in ``exactweil.jordan``), a method on its class.  Nothing under
``src/`` changes.

A span opens only when a call enters a layer from another one, so a span's
children always belong to other layers.  Nested calls into the same layer
(``ExactScalar.__pow__`` calling ``__mul__``) are counted but not timed.
Trivial predicates such as ``ExactScalar.is_zero`` are left unwrapped;
their time counts toward the caller.
"""

import inspect
import sys
import time
from collections import Counter
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

PACKAGE = "exactweil"
LAYERS = ("exact", "numth", "lattice", "jordan", "metaplectic", "weilrep", "cli")
ROOT = "op"
KEEP_OPS = 20  # ops whose spans are kept for the trace file

# Dunder methods worth a span; the rest (__repr__, __hash__, __bool__ ...)
# are skipped, and so is every private name no other module imports.
DUNDERS = {"__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
           "__mul__", "__rmul__", "__truediv__", "__rtruediv__", "__pow__",
           "__eq__"}
UNWRAPPED = {"exactweil.exact.ExactScalar.__init__",
             "exactweil.exact.ExactScalar.is_zero",
             "exactweil.exact.ExactScalar.is_rational",
             "exactweil.metaplectic.SL2.__init__",
             "exactweil.metaplectic.SL2.entries",
             "exactweil.metaplectic.MpElement.__init__"}

# Span = (layer, start, end, parent index or None).
Span = Tuple[str, float, float, Optional[int]]


def self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Self time per layer: each span's duration minus its children's.

    Spans of one thread nest, so the children of a span cover disjoint parts
    of it and their durations add up.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent is not None:
            covered[parent] += end - start
    out: Dict[str, float] = {}
    for i, (layer, start, end, _) in enumerate(spans):
        out[layer] = out.get(layer, 0.0) + (end - start) - covered[i]
    return out


def shares(self_s: Dict[str, float], op_s: float) -> Dict[str, float]:
    """Each layer's self time as a share of the total op time."""
    return {layer: t / op_s for layer, t in self_s.items()}


def _qualname(module: str, obj) -> str:
    return "%s.%s" % (module, obj.__qualname__)


def _targets():
    """(owner, attribute, function, layer, qualname) for every name to patch."""
    modules = {name: mod for name, mod in sys.modules.items()
               if name.startswith(PACKAGE + ".") and mod is not None}
    found = []
    for layer in LAYERS:
        home = "%s.%s" % (PACKAGE, layer)
        mod = modules[home]
        for name, obj in vars(mod).items():
            if inspect.isclass(obj) and obj.__module__ == home:
                for attr, raw in vars(obj).items():
                    fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                    if not inspect.isfunction(fn):
                        continue
                    if attr.startswith("_") and attr not in DUNDERS:
                        continue
                    q = _qualname(home, fn)
                    if "%s.%s.%s" % (home, obj.__name__, attr) in UNWRAPPED:
                        continue
                    found.append((obj, attr, raw, layer, q))
            elif inspect.isfunction(obj) and obj.__module__ == home:
                q = _qualname(home, obj)
                users = [(m, n) for m in modules.values()
                         for n, v in vars(m).items() if v is obj]
                if name.startswith("_") and len(users) == 1:
                    continue
                found.extend((m, n, obj, layer, q) for m, n in users)
    return found


class Tracer:
    """Counts, inclusive timers and layer spans for the ops of one run."""

    def __init__(self, timed: Dict[str, Iterable[str]],
                 observed: Dict[str, Callable[[tuple, object], float]]):
        # timed: metric -> qualnames whose outermost calls it times.
        # observed: qualname -> function of (args, result) giving a sample.
        self._timed_of = {q: m for m, qs in timed.items() for q in qs}
        self._observed = observed
        self.counts: Counter = Counter()
        self.sample_sum: Counter = Counter()
        self.sample_n: Counter = Counter()
        self.inclusive: Counter = Counter()
        self.self_s: Counter = Counter()
        self.op_s = 0.0
        self.ops = 0
        self.kept: List[List[Span]] = []
        self.layer_of: Dict[str, str] = {}
        self._spans: List = []
        self._open: List[Tuple[str, int]] = []
        self._op_start = 0.0
        self._active: Counter = Counter()
        self._patches: List[Tuple[object, str, object]] = []

    # -- ops ------------------------------------------------------------------

    def begin_op(self) -> None:
        self._spans.append(None)
        self._open.append((ROOT, 0))
        self._op_start = time.perf_counter()

    def end_op(self) -> float:
        """Close the op's root span, fold its spans in, return its duration."""
        end = time.perf_counter()
        self._open.pop()
        spans = self._spans
        spans[0] = (ROOT, self._op_start, end, None)
        for layer, t in self_times(spans).items():
            self.self_s[layer] += t
        if len(self.kept) < KEEP_OPS:
            self.kept.append(list(spans))
        spans.clear()
        self.ops += 1
        self.op_s += end - self._op_start
        return end - self._op_start

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, fn, layer: str, qualname: str):
        counts, spans, opened = self.counts, self._spans, self._open
        clock = time.perf_counter
        timed = self._timed_of.get(qualname)
        observe = self._observed.get(qualname)
        inclusive, active = self.inclusive, self._active
        sample_sum, sample_n = self.sample_sum, self.sample_n

        def wrapper(*args, **kwargs):
            if not opened:
                return fn(*args, **kwargs)
            counts[qualname] += 1
            outer = opened[-1][0] != layer
            if outer:
                index = len(spans)
                spans.append(None)
                opened.append((layer, index))
                start = clock()
            if timed is not None:
                active[timed] += 1
                t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                if timed is not None:
                    active[timed] -= 1
                    if not active[timed]:
                        inclusive[timed] += clock() - t0
                if outer:
                    end = clock()
                    opened.pop()
                    spans[index] = (layer, start, end, opened[-1][1])
            if observe is not None:
                sample_sum[qualname] += observe(args, result)
                sample_n[qualname] += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for owner, attr, raw, layer, q in _targets():
            self.layer_of[q] = layer
            if isinstance(raw, staticmethod):
                patched = staticmethod(self._wrap(raw.__func__, layer, q))
            else:
                patched = self._wrap(raw, layer, q)
            self._patches.append((owner, attr, raw))
            setattr(owner, attr, patched)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    # -- results --------------------------------------------------------------

    def calls(self, qualnames: Iterable[str]) -> int:
        return sum(self.counts[q] for q in qualnames)

    def layer_calls(self, layer: str) -> int:
        return sum(n for q, n in self.counts.items() if self.layer_of[q] == layer)

    def sample_mean(self, qualnames: Iterable[str]) -> float:
        n = sum(self.sample_n[q] for q in qualnames)
        return sum(self.sample_sum[q] for q in qualnames) / n if n else 0.0

    def dump(self) -> dict:
        """Everything recorded, for the trace file written at the end of a run."""
        return {
            "ops": self.ops,
            "op_s": self.op_s,
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "inclusive_s": dict(self.inclusive),
            "sample_sum": dict(self.sample_sum),
            "sample_n": dict(self.sample_n),
            "spans_of_first_ops": self.kept,
        }
