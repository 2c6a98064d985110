"""Result checks at the acceptance-gate tolerances.

Each check takes one operation's result and returns ``None`` when it holds or
a message naming what was missed.  The tolerances are the ones the acceptance
gate in ``tests/test_acceptance.py`` applies to the same experiments.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np


def _within(label: str, value: float, target: float, tol: float) -> str | None:
    if not (math.isfinite(value) and abs(value - target) <= tol):
        return f"{label} {value!r} not within {tol} of {target!r}"
    return None


def first_failure(*messages: str | None) -> str | None:
    return next((m for m in messages if m is not None), None)


# ---------------------------------------------------------------------------
# knapp (criterion 08)

def knapp_report(rep) -> str | None:
    """Both sides of the dual bound must be finite and positive on a nonempty surface."""
    for label, value in (("left_norm", rep.left_norm), ("right_norm", rep.right_norm)):
        if not (math.isfinite(value) and value > 0):
            return f"{label} {value!r} is not finite and positive"
    if rep.metadata.get("surface_points", 0) <= 0:
        return "empty dispersion-surface intersection"
    return None


def knapp_fit(fits: dict) -> str | None:
    """Fitted eps-slopes of both sides within 0.05 of 1/2 (q = r = 8, d = 1)."""
    return first_failure(_within("left eps-slope", fits["left"]["slope"], 0.5, 0.05),
                         _within("right eps-slope", fits["right"]["slope"], 0.5, 0.05))


# ---------------------------------------------------------------------------
# linear scans (criteria 05, 06, 07)

def uniformity(fits: dict, q: float) -> str | None:
    """Derivative-weighted h-slope within 0.05 of 0; unweighted within 0.07 of 1/q."""
    return first_failure(_within("with-weight slope", fits["with"]["slope"], 0.0, 0.05),
                         _within("without-weight slope", fits["without"]["slope"], 1.0 / q, 0.07))


def decay(slope: float, r_squared: float | None, target: float, tol: float) -> str | None:
    """Decay slope within ``tol`` of ``target``; r^2 >= 0.95 where the gate asks for it."""
    msg = _within("decay slope", slope, target, tol)
    if msg is None and r_squared is not None and not r_squared >= 0.95:
        msg = f"decay fit r^2 {r_squared!r} below 0.95"
    return msg


# ---------------------------------------------------------------------------
# scalars and conservation

def positive(label: str, value: float) -> str | None:
    if not (math.isfinite(value) and value > 0):
        return f"{label} {value!r} is not finite and positive"
    return None


def mass_drift(masses) -> str | None:
    """Relative drift of the mass series at most 1e-10."""
    m = np.asarray(masses, dtype=float)
    drift = float(np.max(np.abs(m - m[0])) / m[0])
    if not drift <= 1e-10:
        return f"mass drift {drift!r} exceeds 1e-10"
    return None


# ---------------------------------------------------------------------------
# CLI outputs

def _reject_constant(token: str):
    raise ValueError(f"non-RFC JSON token {token}")


def strict_json(text: str) -> bool:
    """True when ``text`` parses without the non-RFC Infinity/NaN tokens."""
    try:
        json.loads(text, parse_constant=_reject_constant)
    except ValueError:
        return False
    return True


def parse_output(path: str) -> tuple[str, dict, list[str], list[list[str]]]:
    """Read a CSV or JSON output file; returns (metadata text, metadata, columns, rows).

    Raises ``ValueError`` when the file does not parse.
    """
    with open(path) as fh:
        text = fh.read()
    if path.endswith(".json"):
        doc = json.loads(text)
        meta_text = json.dumps(doc["metadata"])  # re-encoded: Infinity survives the round trip
        rows = [[str(v) for v in row] for row in doc["rows"]]
        columns = doc["columns"]
    else:
        head, _, body = text.partition("\n")
        if not head.startswith("# "):
            raise ValueError("CSV output lacks the metadata comment line")
        meta_text = head[2:]
        table = list(csv.reader(io.StringIO(body)))
        if not table:
            raise ValueError("CSV output lacks a header row")
        columns, rows = table[0], table[1:]
    meta = json.loads(meta_text)
    if any(len(row) != len(columns) for row in rows):
        raise ValueError("a row's length differs from the header's")
    return meta_text, meta, columns, rows


def column(columns: list[str], rows: list[list[str]], name: str) -> np.ndarray:
    j = columns.index(name)
    return np.array([float(row[j]) for row in rows])


def pairs_output(meta: dict, columns, rows) -> str | None:
    """Every listed pair satisfies 3/q + d/r = d/2."""
    if len(rows) != meta["config"]["count"]:
        return f"{len(rows)} pairs listed, {meta['config']['count']} asked for"
    d = meta["config"]["d"]
    for q, r in zip(column(columns, rows, "q"), column(columns, rows, "r")):
        if abs(3.0 / q + d / r - d / 2.0) > 1e-12:
            return f"pair (q={q!r}, r={r!r}) is not admissible"
    return None


def bernstein_output(meta: dict, columns, rows) -> str | None:
    """Criterion-03 rule: the max-ratio h-slope within 0.05 of 0, or the spread at most 2."""
    hi = column(columns, rows, "max_ratio")
    slope = meta["fits"]["max_ratio"]["slope"]
    spread = float(hi.max() / hi.min())
    if abs(slope) <= 0.05 or spread <= 2.0:
        return None
    return f"bernstein slope {slope!r} and spread {spread!r} both out of tolerance"


def czdemo_output(meta: dict, columns, rows) -> str | None:
    """One row per selected cube, each average in (threshold, 2^d threshold]."""
    if meta["n_cubes"] != len(rows):
        return f"{len(rows)} cube rows for n_cubes={meta['n_cubes']}"
    lam, d = meta["threshold"], meta["config"]["d"]
    for avg in column(columns, rows, "cube_average"):
        if not lam < avg <= 2**d * lam * (1 + 1e-12):
            return f"cube average {avg!r} outside ({lam}, {2**d * lam}]"
    return None


def snapshots_equal(read_back, reference) -> str | None:
    """The snapshot file read back equals the reference trajectory's times and states."""
    lat, times, states = read_back
    if lat != reference.lattice:
        return f"snapshot lattice {lat} differs from {reference.lattice}"
    if not np.array_equal(times, reference.snapshot_times):
        return "snapshot times differ from the trajectory's"
    if len(states) != len(reference.states):
        return f"{len(states)} snapshots read back, {len(reference.states)} expected"
    for i, (got, want) in enumerate(zip(states, reference.states)):
        if not np.array_equal(got, want.values):
            return f"snapshot {i} differs from the trajectory state"
    return None
