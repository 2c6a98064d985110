"""Span tracer for the benchmark's traced run.

The tracer wraps, from outside the package, every public function of the
seven ``latticewave`` modules at every module binding that refers to it (a
function imported into three modules is wrapped in all three), plus
``GridFunction.__post_init__``, ``PhaseSpec.multiplier_grid`` and
``numpy.fft.fftn`` / ``ifftn`` (the ``fft`` pseudo-layer).  Each wrapped call
records a span (name, start, end, parent, operation id, thread) in memory
while an operation is active; :func:`write_spans` writes them out at the end.

Self time is a span's time minus the time covered by its wrapped child
spans.  Where spans of several threads overlap (the thread pool behind
``--threads 2``), each overlapping span is charged an equal share of the
overlap, so the self times of a run add up to the wall time its spans cover.
A span started on a pool thread with no open span of its own has the main
thread's innermost open span as parent, so the waiting caller is not charged
for the pool's work.
"""

from __future__ import annotations

import functools
import inspect
import os
import threading
from time import perf_counter

import numpy as np

LAYERS = ("lattice", "spectral", "propagators", "harness", "dnls", "reporting", "cli")
FFT_BYTES_PER_POINT = 32  # complex128 read plus complex128 written per transformed point


def _fft_points(counts, args, kwargs, result):
    n = int(np.size(args[0]))
    counts["fft.points"] += n
    counts["fft.bytes_computed"] += FFT_BYTES_PER_POINT * n


def _text_bytes(counts, args, kwargs, result):
    out, text = args[0], args[1]
    if isinstance(out, str):
        counts["reporting.bytes_written"] += len(text.encode())


def _snapshot_bytes(counts, args, kwargs, result):
    counts["reporting.bytes_written"] += os.path.getsize(args[0])


COUNTERS = {
    "fft.fftn": _fft_points,
    "fft.ifftn": _fft_points,
    "reporting.write_text": _text_bytes,
    "reporting.write_snapshots": _snapshot_bytes,
}


class Tracer:
    """Installs the wrappers and collects spans of the calls made inside operations."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent span or None, op, thread id]
        self.counts = {"fft.points": 0, "fft.bytes_computed": 0, "reporting.bytes_written": 0}
        self.names: list[str] = []  # every wrapped span name, called or not
        self.op: int | None = None
        self._local = threading.local()
        self._main_stack: list[list] = []
        self._main_ident = threading.get_ident()
        self._restore: list[tuple[object, str, object]] = []

    # -- operation boundaries ------------------------------------------------

    def begin(self, op: int) -> None:
        self.op = op

    def end(self) -> None:
        self.op = None

    # -- wrapping ------------------------------------------------------------

    def _stack(self) -> list[list]:
        if threading.get_ident() == self._main_ident:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name: str):
        counter = COUNTERS.get(name)
        self.names.append(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            op = tracer.op
            if op is None:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                main = tracer._main_stack
                parent = main[-1] if main else None
            rec = [name, 0.0, 0.0, parent, op, threading.get_ident()]
            stack.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
                tracer.spans.append(rec)
            if counter is not None:
                counter(tracer.counts, args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap the public functions at every binding in the seven modules, plus the extras."""
        import latticewave.cli
        import latticewave.reporting
        from latticewave import dnls, harness, lattice, propagators, spectral

        modules = [lattice, spectral, propagators, harness, dnls, latticewave.reporting, latticewave.cli]
        wrappers = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr, value in vars(mod).items():
                if inspect.isfunction(value) and value.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrappers[value] = self._wrap(value, f"{layer}.{attr}")
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(mod, attr, wrappers[value])
        self._patch(lattice.GridFunction, "__post_init__",
                    self._wrap(lattice.GridFunction.__post_init__, "lattice.GridFunction"))
        self._patch(propagators.PhaseSpec, "multiplier_grid",
                    self._wrap(propagators.PhaseSpec.multiplier_grid, "propagators.multiplier_grid"))
        self._patch(np.fft, "fftn", self._wrap(np.fft.fftn, "fft.fftn"))
        self._patch(np.fft, "ifftn", self._wrap(np.fft.ifftn, "fft.ifftn"))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Self time and call count per layer and per wrapped name, plus the counters."""
        selfs = self_times(self.spans)
        calls: dict[str, int] = {}
        for rec in self.spans:
            calls[rec[0]] = calls.get(rec[0], 0) + 1
        out: dict[str, float] = {}
        for layer in LAYERS + ("fft",):
            out[f"{layer}.self_s"] = sum((v for k, v in selfs.items() if k.split(".", 1)[0] == layer), 0.0)
            out[f"{layer}.calls"] = sum(v for k, v in calls.items() if k.split(".", 1)[0] == layer)
        for name in self.names:
            out[f"{name}.self_s"] = selfs.get(name, 0.0)
            out[f"{name}.calls"] = calls.get(name, 0)
        out.update(self.counts)
        return out


def self_times(spans: list[list]) -> dict[str, float]:
    """Charge each span the part of its interval no child covers; split overlaps evenly."""
    children: dict[int, list[tuple[float, float]]] = {}
    for rec in spans:
        if rec[3] is not None:
            children.setdefault(id(rec[3]), []).append((rec[1], rec[2]))
    starts, ends, owners = [], [], []
    for i, rec in enumerate(spans):
        cursor, end = rec[1], rec[2]
        for a, b in sorted(children.get(id(rec), ())):
            if a > cursor:
                starts.append(cursor)
                ends.append(min(a, end))
                owners.append(i)
            cursor = max(cursor, b)
        if end > cursor:
            starts.append(cursor)
            ends.append(end)
            owners.append(i)
    totals: dict[str, float] = {}
    if not owners:
        return totals
    starts_a, ends_a = np.array(starts), np.array(ends)
    # sweep: k(t) pieces active; C(t) = integral of 1/k over covered time; piece share = C(b) - C(a)
    edges, inverse = np.unique(np.concatenate([starts_a, ends_a]), return_inverse=True)
    delta = np.zeros(edges.size)
    np.add.at(delta, inverse[: starts_a.size], 1.0)
    np.add.at(delta, inverse[starts_a.size:], -1.0)
    active = np.cumsum(delta)[:-1]
    seg = np.diff(edges) * np.where(active > 0.5, 1.0 / np.maximum(active, 1.0), 0.0)
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    share = cum[inverse[starts_a.size:]] - cum[inverse[: starts_a.size]]
    for owner, value in zip(owners, share.tolist()):
        name = spans[owner][0]
        totals[name] = totals.get(name, 0.0) + value
    return totals


def write_spans(spans: list[list], path: str) -> None:
    """Tab-separated spans: index, name, start, end, parent index (-1 for none), op, thread."""
    index = {id(rec): i for i, rec in enumerate(spans)}
    with open(path, "w") as fh:
        fh.write("index\tname\tstart\tend\tparent\top\tthread\n")
        for i, rec in enumerate(spans):
            parent = -1 if rec[3] is None else index.get(id(rec[3]), -1)
            fh.write(f"{i}\t{rec[0]}\t{rec[1]!r}\t{rec[2]!r}\t{parent}\t{rec[4]}\t{rec[5]}\n")
