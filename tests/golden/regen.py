"""Recompute the committed output manifest ``tests/golden/outputs.json``.

The manifest pins the bits of a fixed panel of outputs, so "bit-identical" is
a check that ``tests/test_golden.py`` reruns, not a claim:

- ``float.hex`` of every row and fit of the five spacing scans (uniformity,
  every constants kind, ``knapp_h_sharpness``, the uniform bound) at small
  sizes, of two ``knapp_experiment`` cells whose centres mostly lie off the
  lattice, and of ``interpolation_constant`` in d = 1 and d = 2;
- ``float.hex`` of the times, sup norms and fit of four
  ``dispersive_decay_scan`` runs (Schrodinger d = 1 full and N = 1/4,
  Klein-Gordon d = 1 N = 1/4, Schrodinger d = 2 full), and of
  ``strichartz_norm`` for both kinds in d = 1 and Schrodinger in d = 2 and 3,
  with point and Gaussian data;
- the sha256 of the file each README CLI example writes with ``--out``, of
  the ``dnls`` example's ``states.bin``, of criterion 12's file and of one
  ``strichartz`` and one ``decay --full`` run on Gaussian data, run in-process
  with relative paths under ``LATTICEWAVE_OUTDIR``.

numpy's version is recorded too: another version may round differently, and
the test then names both versions instead of every entry.

Run ``python tests/golden/regen.py`` from the repository root to rewrite the
manifest.  Before it writes, it prints each entry that changes: a scan's
changed cells and fit values in hex, or a digest's or constant's old and new
value, each old -> new; list them in ``CHANGES.md``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
import tempfile
from pathlib import Path
from unittest import mock

MANIFEST = Path(__file__).with_name("outputs.json")

if __name__ == "__main__":  # run as a script: read the package from this checkout's source
    sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

import numpy as np  # noqa: E402

from latticewave import cli  # noqa: E402
from latticewave.dnls import continuum_gaussian, interpolation_constant, uniform_bound_experiment  # noqa: E402
from latticewave.harness import (  # noqa: E402
    AdmissiblePair,
    decay_data,
    decay_time_grid,
    dispersive_decay_scan,
    inequality_constant_scan,
    knapp_experiment,
    knapp_h_sharpness,
    strichartz_norm,
    uniformity_scan,
)
from latticewave.lattice import Lattice, gaussian, lp_norm, point_mass  # noqa: E402

# the README CLI examples, each writing --out under LATTICEWAVE_OUTDIR
README_EXAMPLES = {
    "pairs.csv": ["pairs", "--d", "1", "--count", "5"],
    "decay_full.csv": ["decay", "--kind", "schrodinger", "--d", "1", "--h", "1", "--M", "4096", "--full",
                       "--t-min", "1", "--t-max", "100", "--n-t", "25"],
    "decay_band.csv": ["decay", "--d", "1", "--h", "1", "--M", "16384", "--N", "1/8", "--t-min", "30",
                       "--t-max", "3000"],
    "uniformity.csv": ["uniformity", "--kind", "schrodinger", "--d", "1", "--h-list", "1,0.5,0.25,0.125,0.0625",
                       "--q", "6", "--r", "inf", "--box", "64"],
    "constants.csv": ["constants", "--kind", "bernstein", "--d", "1", "--h-list", "1,0.5,0.25", "--box", "16",
                      "--p", "2", "--q", "inf", "--ensemble", "32"],
    "knapp_d1.csv": ["knapp", "--h", "0.5", "--eps-list", "0.04,0.02,0.01", "--q", "8", "--r", "8", "--s", "0.125"],
    "knapp_d2.csv": ["knapp", "--d", "2", "--h", "0.5", "--eps-list", "0.04", "--q", "6", "--r", "4", "--s", "0.1"],
    "czdemo.csv": ["czdemo", "--d", "1", "--M", "64", "--seed", "3"],
    "dnls.csv": ["dnls", "--d", "1", "--h", "0.5", "--box", "32", "--lam", "1", "--p", "3", "--dt", "0.005",
                 "--T", "1", "--snapshots", "states.bin"],
    "s1.csv": ["s1", "--d", "1", "--h", "0.5", "--box", "32", "--lam", "1", "--p", "3", "--dt", "0.005", "--T", "1"],
}
# further CLI runs: criterion 12's file and the Gaussian data paths the README examples miss
PANEL_RUNS = {
    "criterion12.csv": ["constants", "--kind", "bernstein", "--d", "1", "--h-list", "1,0.5,0.25", "--box", "8",
                        "--p", "2", "--q", "inf", "--ensemble", "12", "--seed", "7", "--threads", "1"],
    "strichartz_gaussian.csv": ["strichartz", "--q", "6", "--r", "inf", "--data", "gaussian"],
    "decay_gaussian.csv": ["decay", "--full", "--data", "gaussian", "--width", "2", "--M", "256", "--t-min", "1",
                           "--t-max", "30", "--n-t", "8"],
}


def _focusing_packet(*coords):
    """Criterion 11's focusing datum: a modulated Gaussian."""
    x = coords[0]
    return 0.6 * np.exp(-x**2 / 2.0) * np.exp(1j * x)


def _hex(value):
    """``value`` with every float written as ``float.hex``, ints and strings as they are."""
    if isinstance(value, dict):
        return {key: _hex(v) for key, v in value.items()}
    if isinstance(value, list):
        return [_hex(v) for v in value]
    if isinstance(value, float):  # np.float64 included
        return value.hex()
    return value


def _scan(scan) -> dict:
    return {"columns": scan.columns, "rows": _hex(scan.rows), "fits": _hex(scan.fits)}


def _decay(fit) -> dict:
    """A decay scan in a scan entry's shape: its (t, sup norm) rows and its fit."""
    rows = [[t, s] for t, s in zip(fit.times.tolist(), fit.sup_norms.tolist())]
    fits = {"decay": {"slope": fit.slope, "intercept": fit.intercept, "r_squared": fit.r_squared}}
    return {"columns": ["t", "sup_norm"], "rows": _hex(rows), "fits": _hex(fits)}


def flow_entries() -> dict:
    """The free-flow panel: the hex of four decay scans and of eight Strichartz norms."""
    entries = {}
    lat = Lattice(h=1.0, d=1, M=4096)
    for name, kind, N, times in [("schrodinger full", "schrodinger", None, (1.0, 100.0, 25)),
                                 ("schrodinger N=1/4", "schrodinger", 0.25, (1.0, 100.0, 25)),
                                 ("klein_gordon N=1/4", "klein_gordon", 0.25, (10.0, 1000.0, 16))]:
        entries[f"decay d=1 {name}"] = _decay(dispersive_decay_scan(
            kind, decay_data(lat), decay_time_grid(*times), N=N))
    entries["decay d=2 schrodinger full"] = _decay(dispersive_decay_scan(
        "schrodinger", decay_data(Lattice(h=1.0, d=2, M=128)), decay_time_grid(1.0, 15.0, 12)))
    for kind, lat, q, r, T in [("schrodinger", Lattice(h=0.5, d=1, M=128), 6.0, math.inf, 2.0),
                               ("klein_gordon", Lattice(h=0.5, d=1, M=128), 6.0, math.inf, 2.0),
                               ("schrodinger", Lattice(h=0.5, d=2, M=64), 6.0, 4.0, 1.0),
                               ("schrodinger", Lattice(h=1.0, d=3, M=32), 4.0, 4.0, 1.0)]:
        for data in ("point", "gaussian"):
            u0 = point_mass(lat) if data == "point" else gaussian(lat, lat.box_length / 16.0)
            u0 = u0 * (1.0 / lp_norm(u0, 2))
            entries[f"strichartz d={lat.d} {kind} {data}"] = strichartz_norm(
                u0, AdmissiblePair(q=q, r=r, d=lat.d), T, n_t=64, kind=kind).hex()
    return entries


def scan_entries() -> dict:
    """The spacing-scan panel: each entry the hex of a scan's rows and fits, or of one constant."""
    d1 = AdmissiblePair(q=6.0, r=math.inf, d=1)
    d2 = AdmissiblePair(q=6.0, r=4.0, d=2)
    entries = {}
    for kind in ("schrodinger", "klein_gordon"):
        entries[f"uniformity d=1 {kind}"] = _scan(uniformity_scan(
            kind, [1.0, 0.5, 0.25], d1, box=32.0, horizon_fraction=0.1, n_t=64))
    entries["uniformity d=2 schrodinger"] = _scan(uniformity_scan(
        "schrodinger", [1.0, 0.5], d2, box=16.0, horizon_fraction=0.05, n_t=64))
    constants = {
        "bernstein": {"p": 2.0, "q": math.inf},
        "gagliardo_nirenberg": {"p": 2.0, "q": math.inf, "s": 1.0, "theta": 0.5},
        "sobolev_endpoint": {"p": 2.0, "q": 4.0, "s": 0.25},
        "norm_equivalence": {"p": 2.0, "s": 0.5},
        "square_function": {"p": 3.0},
    }
    for kind, exponents in constants.items():
        entries[f"constants {kind}"] = _scan(inequality_constant_scan(
            kind, [1.0, 0.5, 0.25], box=16.0, ensemble=8, seed=5, **exponents))
    entries["knapp_h_sharpness"] = _scan(knapp_h_sharpness(
        [0.5, 0.25, 0.125], 0.125, AdmissiblePair(q=8.0, r=8.0, d=1), M=4096, n_t=101, x_window=64.0))
    # epsilons whose centres step by no whole number of sites: a few centres sit on a site, the rest do not
    knapp = [knapp_experiment(0.5, eps, 0.125, AdmissiblePair(q=8.0, r=8.0, d=1), M=2**15) for eps in (0.03, 0.015)]
    entries["knapp_experiment h=0.5 off-site centres"] = {
        "columns": ["epsilon", "left_norm", "right_norm"],
        "rows": _hex([[rep.epsilon, rep.left_norm, rep.right_norm] for rep in knapp]), "fits": {}}
    gn = interpolation_constant([1.0, 0.5], d=1, box=16.0, p=2.5, ensemble=8)
    entries["interpolation_constant d=1"] = gn.hex()
    entries["interpolation_constant d=2"] = interpolation_constant(
        [1.0, 0.5], d=2, box=8.0, p=3.0, ensemble=4).hex()
    entries["uniform_bound defocusing"] = _scan(uniform_bound_experiment(
        [1.0, 0.5], continuum_gaussian(1.0, 2.0), d=1, box=32.0, lam=1.0, p=3.0, dt=0.01, T=0.2,
        pairs_count=4, snapshot_stride=2))
    entries["uniform_bound focusing"] = _scan(uniform_bound_experiment(
        [1.0, 0.5], _focusing_packet, d=1, box=32.0, lam=-1.0, p=2.5, dt=0.01, T=0.2,
        pairs_count=4, snapshot_stride=2, gn_constant=gn))
    return entries


def cli_entries() -> dict:
    """The sha256 of each README example's and panel run's ``--out`` file and of ``states.bin``, keyed by
    file name."""
    runs = {**README_EXAMPLES, **PANEL_RUNS}
    with tempfile.TemporaryDirectory() as outdir, mock.patch.dict(os.environ, {"LATTICEWAVE_OUTDIR": outdir}):
        for name, argv in runs.items():
            if cli.run([*argv, "--out", name]) != 0:
                raise RuntimeError(f"CLI run {name} failed: {' '.join(argv)}")
        names = [*runs, "states.bin"]
        return {f"cli {name}": hashlib.sha256(Path(outdir, name).read_bytes()).hexdigest() for name in names}


def manifest() -> dict:
    return {"numpy": np.__version__, "entries": {**scan_entries(), **flow_entries(), **cli_entries()}}


def render(doc: dict) -> str:
    """The manifest's file text: sorted keys and a trailing newline, so reruns write the same bytes."""
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def changes(old: dict, new: dict) -> list[str]:
    """One line per changed value of the manifest ``old`` -> ``new``: each scan cell by row and column, each
    fit value by fit and key, and any other entry (a digest or a constant) whole."""
    lines = [f"numpy: {old.get('numpy')} -> {new['numpy']}"] if old.get("numpy") != new["numpy"] else []
    before, after = old.get("entries", {}), new["entries"]
    for name in sorted(set(before) | set(after)):
        a, b = before.get(name), after.get(name)
        if a == b:
            continue
        if not (isinstance(a, dict) and isinstance(b, dict) and a["columns"] == b["columns"]
                and len(a["rows"]) == len(b["rows"])):
            lines.append(f"{name}: {a} -> {b}")
            continue
        for i, (ra, rb) in enumerate(zip(a["rows"], b["rows"])):
            lines += [f"{name}: row {i} {col}: {x} -> {y}" for col, x, y in zip(b["columns"], ra, rb) if x != y]
        for fit in sorted(set(a["fits"]) | set(b["fits"])):
            fa, fb = a["fits"].get(fit, {}), b["fits"].get(fit, {})
            lines += [f"{name}: fit {fit} {key}: {fa.get(key)} -> {fb.get(key)}"
                      for key in sorted(set(fa) | set(fb)) if fa.get(key) != fb.get(key)]
    return lines


if __name__ == "__main__":
    fresh = manifest()
    pinned = json.loads(MANIFEST.read_text()) if MANIFEST.exists() else {}
    for line in changes(pinned, fresh):
        print(line)
    MANIFEST.write_text(render(fresh))
    print(f"wrote {MANIFEST}")
