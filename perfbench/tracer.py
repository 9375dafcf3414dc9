"""In-process span tracer for sharctool's public layer functions.

The tracer replaces every binding of each traced function in the loaded
``sharctool`` modules, because the package imports names directly
(``from .corpus import tokenize``): patching ``sharctool.corpus.tokenize``
alone would miss the calls made through ``sharctool.markers.tokenize``.

Each call of a traced function opens a frame. Ordinary functions finish as
a span (name, start, end, parent span, command id). Hot leaves, called tens
of thousands of times per command, are folded into per-name aggregates on
their nearest ordinary ancestor span so the span list stays small. Spans are
kept in memory and written out by the caller when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

# span name -> (module, attribute) of the original function.
TRACED: dict[str, tuple[str, str]] = {
    "cli.main": ("sharctool.cli", "main"),
    "corpus.load": ("sharctool.corpus", "load_corpus_audited"),
    "corpus.write_corpus": ("sharctool.corpus", "write_corpus"),
    "augment.write_augmented": ("sharctool.augment", "write_augmented"),
    "corpus.tokenize": ("sharctool.corpus", "tokenize"),
    "corpus.content_hash": ("sharctool.corpus", "content_hash"),
    "ruleparse.parse_rule": ("sharctool.ruleparse", "parse_rule"),
    "probe.probe_corpus": ("sharctool.probe", "probe_corpus"),
    "augment.build": ("sharctool.augment", "build_augmented_corpus"),
    "markers.annotate_corpus": ("sharctool.markers", "annotate_corpus"),
    "markers.lcs_match": ("sharctool.markers", "lcs_match"),
    "markers.lcs_pairs": ("sharctool.markers", "lcs_pairs"),
    "baseline.tune": ("sharctool.baseline", "tune"),
    "baseline.predict_corpus": ("sharctool.baseline", "predict_corpus"),
    "evaluate.evaluate": ("sharctool.evaluate", "evaluate"),
    "evaluate.bleu": ("sharctool.evaluate", "bleu"),
}

# Called per token sequence or per instance: aggregated, never a span each.
HOT = frozenset({"corpus.tokenize", "corpus.content_hash", "markers.lcs_match", "markers.lcs_pairs"})


def _lcs_match_key(args, kwargs):
    rule, utterance = args[0], args[1]
    stopwords = kwargs.get("stopwords", frozenset())
    return (rule.text, utterance.text, kwargs.get("use_normalized", True), tuple(sorted(stopwords)))


def _bleu_pairs(args, kwargs):
    return args[0] if args else kwargs["candidates_and_references"]


@dataclass
class Span:
    id: int
    name: str
    cmd: int
    parent: Optional[int]
    start: float
    end: float
    # hot name -> [calls, total_s, self_s]
    hot: dict[str, list] = field(default_factory=dict)
    # time covered by hot calls made directly from this span
    hot_direct_s: float = 0.0

    def to_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass
class _Frame:
    name: str
    start: float
    span: Optional[Span]
    child_s: float = 0.0


class Tracer:
    """Records spans and per-command counters for the wrapped functions."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.cmd = 0
        self.spans: list[Span] = []
        self.counters: dict[str, int] = {}
        # (counter name, cmd) -> distinct keys seen in that command
        self.distinct: dict[tuple[str, int], set] = {}
        self._stack: list[_Frame] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def _see(self, name: str, key) -> None:
        self.distinct.setdefault((name, self.cmd), set()).add(key)

    def _observe(self, name: str, args, kwargs) -> None:
        """Counts taken at the layer boundary, before the call runs."""
        if name == "corpus.tokenize":
            self._see("corpus.tokenize", args[0] if args else kwargs["text"])
        elif name == "markers.lcs_match":
            self._see("markers.lcs_match", _lcs_match_key(args, kwargs))
        elif name == "markers.lcs_pairs":
            self._count("markers.lcs_cells", len(args[0]) * len(args[1]))
        elif name == "evaluate.bleu":
            pairs = _bleu_pairs(args, kwargs)
            self._count("evaluate.bleu_pairs", len(pairs))
            for pair in pairs:
                self._see("evaluate.bleu", tuple(pair))

    def wrap(self, name: str, func: Callable) -> Callable:
        clock = self.clock
        stack = self._stack
        hot = name in HOT

        def traced(*args, **kwargs):
            self._observe(name, args, kwargs)
            parent = stack[-1] if stack else None
            owner = next((f.span for f in reversed(stack) if f.span is not None), None)
            span = None
            if not hot:
                span = Span(len(self.spans), name, self.cmd, owner.id if owner else None, 0.0, 0.0)
                self.spans.append(span)
            frame = _Frame(name, clock(), span)
            stack.append(frame)
            try:
                return func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame.start
                if parent is not None:
                    parent.child_s += duration
                if span is not None:
                    span.start, span.end = frame.start, end
                elif owner is not None:
                    entry = owner.hot.setdefault(name, [0, 0.0, 0.0])
                    entry[0] += 1
                    entry[1] += duration
                    entry[2] += duration - frame.child_s
                    if parent.span is owner:
                        owner.hot_direct_s += duration

        return functools.wraps(func)(traced)

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Replace every binding of each traced function in the loaded ``sharctool`` modules."""
        by_id: dict[int, Callable] = {}
        for name, (module_name, attr) in TRACED.items():
            original = getattr(sys.modules[module_name], attr)
            by_id[id(original)] = self.wrap(name, original)
        for module_name, module in sorted(sys.modules.items()):
            if module_name != "sharctool" and not module_name.startswith("sharctool."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = by_id.get(id(value))
                if wrapper is not None:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            module, attr, value = self._restore.pop()
            setattr(module, attr, value)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- output ------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "spans": [span.to_dict() for span in self.spans],
            "counters": dict(self.counters),
            "distinct": {f"{name}@{cmd}": len(keys) for (name, cmd), keys in sorted(self.distinct.items())},
        }


# --------------------------------------------------------------------------
# Span arithmetic
# --------------------------------------------------------------------------


def covered(interval: tuple[float, float], children: Iterable[tuple[float, float]]) -> float:
    """Length of the part of ``interval`` that the union of ``children`` covers."""
    lo, hi = interval
    clipped = sorted((max(lo, s), min(hi, e)) for s, e in children if min(hi, e) > max(lo, s))
    total = 0.0
    run_start = run_end = None
    for start, end in clipped:
        if run_end is None or start > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = start, end
        else:
            run_end = max(run_end, end)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans: Iterable[dict]) -> dict[int, float]:
    """Span id -> duration minus the part its child spans cover.

    Aggregated hot calls made directly from a span count as covered time too
    (``hot_direct_s``); they run inside the span and never overlap its other
    children, because the traced program is single-threaded.
    """
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    out = {}
    for span in spans:
        interval = (span["start"], span["end"])
        busy = covered(interval, children.get(span["id"], ()))
        out[span["id"]] = interval[1] - interval[0] - busy - span.get("hot_direct_s", 0.0)
    return out
