"""Outside-in span tracer for the benchmark.

The tracer wraps named functions of the ``pretzel_surgery`` package from the
outside: nothing in the package knows it is being traced.  Each call becomes
one span (name, start, end, parent span, item id), kept in flat arrays in
memory and written out once the run ends.  A layer's self time is its span
minus the spans of its direct children.

The package's ``__init__`` rebinds submodule names to functions
(``pretzel_surgery.classify`` is the *function*), and modules import each
other's functions by name.  So a target is resolved through
``importlib.import_module`` and the wrapper is written into every package
namespace that holds the original object; everything is put back afterwards.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Iterable

PACKAGE = "pretzel_surgery"
SPAN_FORMAT = "perfbench-spans-1"
# Typecodes of the span columns, in the order they are written.
COLUMNS = (("name", "H"), ("parent", "i"), ("item", "i"), ("start", "d"), ("end", "d"))

Observer = Callable[[tuple, object, Counter], None]


def resolve(target: str):
    """Return (module, original function) for ``"module.function"``; raise
    LookupError when either no longer exists."""
    mod_name, _, fn_name = target.rpartition(".")
    try:
        module = importlib.import_module(f"{PACKAGE}.{mod_name}")
    except ModuleNotFoundError as exc:
        raise LookupError(f"traced module {PACKAGE}.{mod_name} does not exist") from exc
    fn = getattr(module, fn_name, None)
    if not callable(fn):
        raise LookupError(f"traced function {PACKAGE}.{target} does not exist")
    return module, fn


def _package_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


class Tracer:
    """Records one span per call of each target while installed.

    ``item_roots`` are targets that start a new item (knot) when called
    directly inside a span of one of ``item_scopes``; elsewhere the caller
    sets :attr:`item` before each call.  ``observers`` map a target to a
    function of (args, result, counters) that counts facts about the call.
    """

    def __init__(self, targets: Iterable[str], observers: dict[str, Observer] | None = None,
                 item_roots: Iterable[str] = (), item_scopes: Iterable[str] = ()):
        self.names = list(targets)
        self.observers = dict(observers or {})
        unknown = set(self.observers) - set(self.names)
        if unknown:
            raise ValueError(f"observers for untraced functions: {sorted(unknown)}")
        self.item_roots = set(item_roots)
        self.scope_ids = {self.names.index(s) for s in item_scopes}
        self.counters: Counter = Counter()
        self.item = -1
        self.columns = {col: array(code) for col, code in COLUMNS}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------------

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore."""
        try:
            for idx, target in enumerate(self.names):
                module, original = resolve(target)
                wrapper = self._wrap(idx, target, original)
                for namespace in _package_modules():
                    for attr, value in list(vars(namespace).items()):
                        if value is original:
                            setattr(namespace, attr, wrapper)
                            self._patched.append((namespace, attr, original))
                if getattr(module, target.rpartition(".")[2]) is not wrapper:
                    raise LookupError(f"could not wrap {PACKAGE}.{target}")
            yield self
        finally:
            self.restore()

    def restore(self) -> None:
        while self._patched:
            namespace, attr, original = self._patched.pop()
            setattr(namespace, attr, original)

    def _wrap(self, idx: int, target: str, fn):
        names, parents, items, starts, ends = (self.columns[c] for c, _ in COLUMNS)
        stack = self._stack
        scope_ids = self.scope_ids
        starts_item = target in self.item_roots
        observer = self.observers.get(target)
        counters = self.counters
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if starts_item and parent >= 0 and names[parent] in scope_ids:
                tracer.item += 1
            span = len(starts)
            names.append(idx)
            parents.append(parent)
            items.append(tracer.item)
            ends.append(0.0)
            stack.append(span)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[span] = perf_counter()
                stack.pop()
            if observer is not None:
                observer(args, result, counters)
            return result

        return wrapper

    # -- results --------------------------------------------------------------

    def calls(self) -> dict[str, int]:
        counts = Counter(self.columns["name"])
        return {name: counts.get(i, 0) for i, name in enumerate(self.names)}

    def self_times(self) -> dict[str, float]:
        return self_times(self.names, self.columns)

    def write(self, path, extra: dict | None = None) -> None:
        write_spans(path, self.names, self.columns, extra)


def self_times(names: list[str], columns: dict[str, array]) -> dict[str, float]:
    """Per-name sum of span duration minus the duration of direct children."""
    starts, ends, parents, ids = (columns[c] for c in ("start", "end", "parent", "name"))
    n = len(starts)
    child = [0.0] * n
    for i in range(n):
        p = parents[i]
        if p >= 0:
            child[p] += ends[i] - starts[i]
    totals = [0.0] * len(names)
    for i in range(n):
        totals[ids[i]] += ends[i] - starts[i] - child[i]
    return dict(zip(names, totals))


def write_spans(path, names: list[str], columns: dict[str, array],
                extra: dict | None = None) -> None:
    """One JSON header line, then each column as raw machine-order arrays."""
    n = len(columns["start"])
    header = {"format": SPAN_FORMAT, "byteorder": sys.byteorder, "spans": n,
              "names": names, "columns": [list(c) for c in COLUMNS], "time_unit": "s",
              **(extra or {})}
    with open(path, "wb") as f:
        f.write(json.dumps(header, sort_keys=True).encode() + b"\n")
        for col, _ in COLUMNS:
            columns[col].tofile(f)


def read_spans(path) -> tuple[dict, dict[str, array]]:
    """Inverse of :func:`write_spans`: (header, columns)."""
    with open(path, "rb") as f:
        header = json.loads(f.readline())
        if header.get("format") != SPAN_FORMAT or header["byteorder"] != sys.byteorder:
            raise ValueError(f"{path}: not a {SPAN_FORMAT} file for this machine")
        columns = {}
        for col, code in header["columns"]:
            arr = array(code)
            arr.fromfile(f, header["spans"])
            columns[col] = arr
    return header, columns
