"""Outside-in tracer: times the package's stages by wrapping the attributes it calls through.

Nothing in ``tmcda`` knows about the tracer. While a ``Tracer`` is entered,
each probed attribute (a module function, or a method on a class) is
replaced by a wrapper that records a span (name, start, end, parent span,
fold) and reads work counters from the object the stage returned. Leaving
the tracer puts every original attribute back.

A fold is opened by each ``split_domains`` call; every later span of the same
top-level call carries the ordinal of that split until the next one, so the
spans of one fold share an id, and spans outside any fold carry -1. Spans are
kept in memory and written out by ``write_spans``.
"""

from __future__ import annotations

import functools
import hashlib
import json
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from tmcda import boosting, cli, gmm, itml, lasso, pipeline, tree


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None      # index of the enclosing span in Tracer.spans
    fold: int               # ordinal of the split that opened the fold; -1 outside folds


@dataclass(frozen=True)
class Probe:
    owner: object           # module or class that holds the attribute
    attr: str
    name: str               # span name, also the metric prefix
    count: Callable | None = None   # (args, kwargs, result) -> {counter: amount}
    keyed: bool = False     # hash the arguments to count distinct inputs
    opens_fold: bool = False


def _itml_counts(args, kwargs, result):
    constraints = args[1] if len(args) > 1 else kwargs["constraints"]
    return {
        "passes": result.n_passes,
        "projections": result.n_passes * len(constraints),
        "unconverged": int(not result.converged),
    }


PROBES = (
    Probe(lasso, "cross_validate_lambda", "lasso.cv", keyed=True),
    Probe(lasso, "fit_lasso", "lasso.fit", keyed=True,
          count=lambda a, k, r: {"sweeps": r.n_sweeps, "unconverged": int(not r.converged)}),
    Probe(itml, "build_constraints", "itml.constraints",
          count=lambda a, k, r: {"pairs": len(r)}),
    Probe(itml, "fit_itml", "itml.fit", keyed=True, count=_itml_counts),
    Probe(itml, "match_source_to_target", "itml.match"),
    Probe(gmm, "augment", "gmm.augment"),
    Probe(gmm, "fit_gmm", "gmm.fit", keyed=True,
          count=lambda a, k, r: {"em_iters": r.n_iter, "unconverged": int(not r.converged)}),
    Probe(gmm, "sample_gmm", "gmm.sample"),
    Probe(boosting, "fit_gbbw", "boosting.fit",
          count=lambda a, k, r: {"stages": r.n_stages}),
    Probe(boosting, "fit_tree", "tree.fit",
          count=lambda a, k, r: {"nodes": r.n_nodes}),
    Probe(tree.RegressionTree, "predict", "tree.predict",
          count=lambda a, k, r: {"rows": len(r)}),
    Probe(boosting, "predict", "boosting.predict"),
    Probe(pipeline, "split_domains", "dataset.split", opens_fold=True),
    Probe(cli, "load_table", "dataset.load"),
)

ROOT = "pipeline"


def _feed(h, obj) -> None:
    if isinstance(obj, np.ndarray):
        h.update(f"nd{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (tuple, list)):
        h.update(f"seq{len(obj)}".encode())
        for item in obj:
            _feed(h, item)
    elif isinstance(obj, dict):
        h.update(f"map{len(obj)}".encode())
        for key in sorted(obj):
            _feed(h, key)
            _feed(h, obj[key])
    else:
        h.update(repr(obj).encode())


def argument_digest(args, kwargs) -> str:
    """Stable digest of a call's arguments: array bytes, otherwise repr."""
    h = hashlib.blake2b(digest_size=16)
    _feed(h, args)
    _feed(h, kwargs)
    return h.hexdigest()


class Tracer:
    """Context manager that installs the probes and records spans and counters."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.counters: Counter = Counter()
        self.distinct: Counter = Counter()   # distinct inputs per keyed probe, summed over top-level calls
        self._keys: dict[str, set] = {}
        self._stack: list[int] = []
        self._splits = 0      # split_domains calls so far; a fold's id is its split's ordinal
        self._fold = -1
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        try:
            for probe in PROBES:
                original = vars(probe.owner)[probe.attr]
                self._saved.append((probe.owner, probe.attr, original))
                setattr(probe.owner, probe.attr, self._wrap(probe, original))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _open(self) -> int:
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        return index

    def _close(self, index: int, name: str, start: float, end: float, fold: int) -> None:
        self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        self.spans[index] = Span(name, start, end, parent, fold)

    def _wrap(self, probe: Probe, original):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if probe.keyed:
                tracer._keys.setdefault(probe.name, set()).add(argument_digest(args, kwargs))
            if probe.opens_fold:
                tracer._fold, tracer._splits = tracer._splits, tracer._splits + 1
            fold = tracer._fold
            index = tracer._open()
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(index, probe.name, start, time.perf_counter(), fold)
            tracer.counters[f"{probe.name}.calls"] += 1
            if probe.count is not None:
                for key, amount in probe.count(args, kwargs, result).items():
                    tracer.counters[f"{probe.name}.{key}"] += amount
            return result

        return traced

    def call(self, fn, *args, **kwargs):
        """Run one top-level call under a root span; distinct inputs are counted per call."""
        self._keys = {}
        self._fold = -1
        index = self._open()
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(index, ROOT, start, time.perf_counter(), -1)
            for name, keys in self._keys.items():
                self.distinct[name] += len(keys)

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span's duration minus its children's."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        totals: dict[str, float] = {}
        for s, seconds in zip(self.spans, own):
            totals[s.name] = totals.get(s.name, 0.0) + seconds
        return totals

    def root_seconds(self) -> float:
        return sum(s.end - s.start for s in self.spans if s.parent is None)

    def write_spans(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "fold": s.fold}) + "\n")
