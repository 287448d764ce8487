"""In-memory spans and call counters around the public functions of rulekbc.

`install` replaces every public function of the traced modules with a wrapper
that records a span (name, start, end, parent), and rebinds each name that
other modules imported with `from .x import f`, so a call is traced whichever
name it goes through. Functions called hundreds of thousands of times per run
get a call counter instead of a span, because a span would cost more than the
call. Spans stay in memory and `Tracer.dump` writes them once, at exit.

A span's self time is its duration minus the part of it that its child spans
cover, so the self times of one process sum to its root span. The root span
of a traced process starts when its parent launched it (`started`), so the
self times of a process should add up to the wall time its parent measured.
"""

import functools
import importlib
import inspect
import json
import os
import time
from collections import Counter
from typing import Callable, Dict, List, Sequence, Tuple

MODULES = ("kb", "subgraph", "proposer", "rules", "grounding", "rotate", "trainer", "evaluation", "cli")

# (module, qualified name) -> traced as a span even though it is a method
METHOD_SPANS = (("kb", "KnowledgeBase.train_by_relation"),)

# called per table row or per name pair: counted, never timed
COUNTED = (
    ("grounding", "score_row"),
    ("grounding", "support_row"),
    ("kb", "SparseMatrix.row"),
    ("rules", "TrigramSimilarity.score"),
    ("rules", "format_rule"),  # once per rule per contribution in cli._rule_by_text
    ("trainer", "softmax"),  # the three below run per ranked query
    ("trainer", "sigmoid"),
    ("trainer", "normalize_embedding_row"),
)

# set by the parent to its time.perf_counter() when it launches a traced
# process; CLOCK_MONOTONIC is one clock for every process of the machine
START_ENV = "PERFBENCH_STARTED"

Span = Tuple[str, float, float, int]  # name, start, end, index of the parent span or -1


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self._open: List[Tuple[int, str, float]] = []  # (slot, name, start)

    def begin(self, name: str, start: float = None) -> int:
        slot = len(self.spans)
        self.spans.append((name, 0.0, 0.0, self._open[-1][0] if self._open else -1))
        self._open.append((slot, name, time.perf_counter() if start is None else start))
        return slot

    def end(self, slot: int) -> None:
        end = time.perf_counter()
        for i in range(len(self._open) - 1, -1, -1):
            if self._open[i][0] == slot:
                _, name, start = self._open.pop(i)
                self.spans[slot] = (name, start, end, self.spans[slot][3])
                return
        raise ValueError("span %d is not open" % slot)

    def dump(self, path: str) -> None:
        # one write of one string: json.dump's many small writes cost more
        # time outside every span
        payload = json.dumps({"spans": self.spans, "counts": dict(self.counts)})
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(payload)


def _span_wrapper(tracer: Tracer, name: str, fn: Callable) -> Callable:
    if inspect.isgeneratorfunction(fn):

        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            slot = tracer.begin(name)
            try:
                yield from fn(*args, **kwargs)
            finally:
                tracer.end(slot)

        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        slot = tracer.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(slot)

    return wrapper


def _count_wrapper(tracer: Tracer, name: str, fn: Callable) -> Callable:
    counts = tracer.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    return wrapper


def started(fallback: float) -> float:
    """When the parent launched this process, or `fallback` if it did not say."""
    return float(os.environ.get(START_ENV, fallback))


def install(tracer: Tracer) -> None:
    """Wrap the traced functions of rulekbc in place."""
    modules = {m: importlib.import_module("rulekbc." + m) for m in MODULES}
    counted = {(m, q) for m, q in COUNTED}
    replaced: Dict[int, Callable] = {}  # id(original) -> wrapper

    for short, mod in modules.items():
        for attr, obj in sorted(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            name = "%s.%s" % (short, attr)
            make = _count_wrapper if (short, attr) in counted else _span_wrapper
            wrapper = make(tracer, name, obj)
            replaced[id(obj)] = wrapper
            setattr(mod, attr, wrapper)

    for short, qual in METHOD_SPANS + COUNTED:
        if "." not in qual:
            continue
        cls_name, meth = qual.split(".")
        cls = getattr(modules[short], cls_name)
        make = _count_wrapper if (short, qual) in counted else _span_wrapper
        setattr(cls, meth, make(tracer, "%s.%s" % (short, qual), vars(cls)[meth]))

    # rebind names imported into other modules (and the package namespace)
    for mod in list(modules.values()) + [importlib.import_module("rulekbc")]:
        for attr, obj in list(vars(mod).items()):
            wrapper = replaced.get(id(obj))
            if wrapper is not None:
                setattr(mod, attr, wrapper)


def self_times(spans: Sequence[Span]) -> List[float]:
    """Per span: duration minus the union of its children's intervals within it."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (name, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(i, ())):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def aggregate(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """name -> {"calls", "self_s", "total_s"} summed over spans of that name."""
    out: Dict[str, Dict[str, float]] = {}
    for (name, start, end, _), own in zip(spans, self_times(spans)):
        agg = out.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        agg["calls"] += 1
        agg["self_s"] += own
        agg["total_s"] += end - start
    return out


def load(path: str) -> Tuple[List[Span], Dict[str, int]]:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return [tuple(s) for s in doc["spans"]], doc["counts"]

