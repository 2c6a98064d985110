"""Deterministic CSV/JSON emission and the binary snapshot format.

CSV files open with comment lines carrying the full JSON metadata block
(config, seed, artifact version), then a fixed header row.  Floats are
written with shortest round-trip repr, so identical config + seed reproduces
byte-identical files.  Both formats are strict RFC 8259 JSON: NaN is written
as null and infinities as the strings "inf" / "-inf".
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import struct
import sys

import numpy as np

from .dnls import Trajectory
from .lattice import Lattice

__all__ = [
    "format_value",
    "render_csv",
    "render_json",
    "write_text",
    "write_snapshots",
    "read_snapshots",
    "trajectory_rows",
]

SNAPSHOT_MAGIC = b"LWTRJ001"
SNAPSHOT_HEADER_BYTES = 32


def format_value(v) -> str:
    if isinstance(v, (np.floating, float)):
        x = float(v)
        if x != x:
            return "nan"
        if x == math.inf:
            return "inf"
        if x == -math.inf:
            return "-inf"
        return repr(x)
    if isinstance(v, (np.integer, int)):
        return str(int(v))
    if v is None:
        return ""
    return str(v)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        if x != x:
            return None
        return format_value(x) if math.isinf(x) else x
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    return str(obj)


def render_csv(metadata: dict, columns: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    buf.write("# " + json.dumps(_jsonable(metadata), sort_keys=True, allow_nan=False) + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([format_value(v) for v in row])
    return buf.getvalue()


def render_json(metadata: dict, columns: list[str], rows: list[list]) -> str:
    doc = {"metadata": _jsonable(metadata), "columns": list(columns),
           "rows": [[_jsonable(v) for v in row] for row in rows]}
    return json.dumps(doc, sort_keys=True, indent=1, allow_nan=False) + "\n"


def write_text(out: str | None, text: str) -> None:
    """Write to the path ``out``, or to stdout when it is None."""
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="") as fh:
            fh.write(text)


def trajectory_rows(traj: Trajectory) -> tuple[list[str], list[list]]:
    names = sorted(traj.monitors)
    columns = ["t"] + names
    rows = []
    for i, t in enumerate(traj.times):
        rows.append([float(t)] + [float(traj.monitors[n][i]) for n in names])
    return columns, rows


def write_snapshots(path: str, traj: Trajectory) -> None:
    """Binary state dump.

    Layout (little endian): magic ``LWTRJ001``; uint32 d; uint32 M; uint32
    snapshot count; uint32 reserved 0; float64 h; then per snapshot one
    float64 time followed by M^d complex values stored as interleaved
    float64 (re, im) pairs in row-major order.
    """
    lat = traj.lattice
    with open(path, "wb") as fh:
        fh.write(SNAPSHOT_MAGIC)
        fh.write(struct.pack("<IIII", lat.d, lat.M, len(traj.states), 0))
        fh.write(struct.pack("<d", lat.h))
        for t, state in zip(traj.snapshot_times, traj.states):
            fh.write(struct.pack("<d", float(t)))
            fh.write(np.ascontiguousarray(state.values, dtype="<c16").tobytes())


def read_snapshots(path: str) -> tuple[Lattice, np.ndarray, list[np.ndarray]]:
    """Read a :func:`write_snapshots` file; a size that disagrees with its header raises ValueError."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        magic = fh.read(8)
        if magic != SNAPSHOT_MAGIC:
            raise ValueError("not a snapshot file")
        if size < SNAPSHOT_HEADER_BYTES:
            raise ValueError(f"truncated snapshot file: {size} bytes, the header alone needs "
                             f"{SNAPSHOT_HEADER_BYTES}")
        d, M, count, _ = struct.unpack("<IIII", fh.read(16))
        (h,) = struct.unpack("<d", fh.read(8))
        lat = Lattice(h=h, d=d, M=M)
        n = lat.site_count
        expected = SNAPSHOT_HEADER_BYTES + count * (8 + 16 * n)
        if size < expected:
            raise ValueError(f"truncated snapshot file: {size} bytes, its header declares {expected}")
        if size > expected:
            raise ValueError(f"snapshot file has {size - expected} trailing bytes after the "
                             f"{expected} its header declares")
        times = np.empty(count)
        states = []
        for i in range(count):
            (times[i],) = struct.unpack("<d", fh.read(8))
            raw = np.frombuffer(fh.read(16 * n), dtype="<c16")
            states.append(raw.reshape(lat.shape).astype(complex))
    return lat, times, states
