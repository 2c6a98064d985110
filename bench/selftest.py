"""Self-test of the benchmark: every check rejects a perturbed result, and the tracer adds up.

Run from the root of a checkout with ``python3 bench/selftest.py`` (or
``python3 -m pytest bench/selftest.py``).  It takes a few seconds: the CLI
operations run once for real, the other workloads' checks get synthetic
results.
"""

from __future__ import annotations

import math
import os
import shutil
import sys
import tempfile
import threading
import time
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import numpy as np  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from latticewave import dnls, harness, lattice  # noqa: E402


def rejects(message) -> bool:
    return isinstance(message, str) and message != ""


# ---------------------------------------------------------------------------
# synthetic results for the knapp and scan operations

def knapp_report(right=1.0, surface=10):
    return harness.KnappReport(h=0.5, epsilon=0.01, s=0.125, q=8.0, r=8.0, d=1, left_norm=1.0, right_norm=right,
                               predicted_left_scaling=1.0, predicted_right_scaling=1.0,
                               metadata={"surface_points": surface})


def slopes(**named):
    return {k: {"slope": v, "intercept": 0.0, "r_squared": 1.0} for k, v in named.items()}


def scan(fits, rows=(), columns=()):
    return harness.ScanResult(kind="test", columns=list(columns), rows=[list(r) for r in rows], fits=fits)


def decay_fit(slope, r2=1.0):
    return SimpleNamespace(slope=slope, r_squared=r2)


# op name -> (good result, perturbed results that must fail)
SYNTHETIC = {
    "knapp_experiment eps=0.04": (knapp_report(), [knapp_report(right=math.nan), knapp_report(surface=0)]),
    "knapp_experiment eps=0.02": (knapp_report(), [knapp_report(right=0.0)]),
    "knapp_experiment eps=0.01": (knapp_report(), [knapp_report(right=-1.0)]),
    "knapp_eps_exponents": (slopes(left=0.5, right=0.52), [slopes(left=0.5, right=0.56), slopes(left=0.44, right=0.5)]),
    "uniformity_scan d=2 q=3": (scan(slopes(**{"with": 0.01, "without": 0.33})),
                                [scan(slopes(**{"with": 0.06, "without": 0.33})),
                                 scan(slopes(**{"with": 0.01, "without": 0.41}))]),
    "dispersive_decay_scan schrodinger d=2 M=512": (decay_fit(-0.66), [decay_fit(-0.76), decay_fit(math.nan)]),
    "dispersive_decay_scan klein_gordon M=65536 N=1/4": (decay_fit(-0.33), [decay_fit(-0.39), decay_fit(-0.33, 0.9)]),
}


def test_synthetic_results_pass_and_perturbed_results_fail():
    seen = set()
    with tempfile.TemporaryDirectory() as tmp:
        for name in ("knapp", "scan"):
            wl = workloads.build(name, 0, tmp)
            for op in wl.ops:
                good, bad = SYNTHETIC[op.name]
                assert op.check(good, wl) is None, op.name
                for result in bad:
                    assert rejects(op.check(result, wl)), op.name
                seen.add(op.name)
    assert seen == set(SYNTHETIC)


# ---------------------------------------------------------------------------
# CLI outputs: run every command once, then perturb

def test_cli_checks_reject_bad_exit_codes_and_corrupt_outputs():
    tmp = tempfile.mkdtemp()
    try:
        wl = workloads.build("cli", 0, tmp)
        results = {}
        for op in wl.ops:
            results[op.name] = op.call(results)
            assert op.check(results[op.name], wl) is None, op.name
        assert wl.nonstrict_outputs == 3  # uniformity --r inf, both constants runs --q inf

        by_name = {op.name: op for op in wl.ops}
        for op in wl.ops:
            assert rejects(op.check(2, wl)), op.name
        outputs = sorted(f for f in os.listdir(tmp) if f.endswith((".csv", ".json")))
        assert len(outputs) == len(wl.ops)

        # threads=2 rows that differ from the threads=1 rows
        t1, t2 = os.path.join(tmp, "constants_t1.csv"), os.path.join(tmp, "constants_t2.csv")
        assert by_name["constants threads=1"].check(0, wl) is None
        text = Path(t2).read_text().splitlines()
        first = text[2].split(",")
        first[2] = repr(float(first[2]) * (1 + 1e-15) + 1e-12)
        text[2] = ",".join(first)
        Path(t2).write_text("\n".join(text) + "\n")
        assert rejects(by_name["constants threads=2"].check(0, wl))
        assert by_name["constants threads=1"].check(0, wl) is None
        shutil.copy(t1, t2)
        assert by_name["constants threads=2"].check(0, wl) is None

        # a snapshot file whose last value is perturbed, or cut short
        snap = Path(tmp, "states.bin")
        raw = bytearray(snap.read_bytes())
        raw[-1] ^= 0x01
        snap.write_bytes(bytes(raw))
        assert rejects(by_name["dnls"].check(0, wl))
        snap.write_bytes(bytes(raw[: len(raw) // 2]))
        assert rejects(by_name["dnls"].check(0, wl))

        # every output cut to a header fragment no longer parses
        for name in outputs:
            path = Path(tmp, name)
            path.write_text(path.read_text()[:7])
        for op in wl.ops:
            assert rejects(op.check(0, wl)), op.name
    finally:
        shutil.rmtree(tmp)


def test_cli_content_checks_reject_perturbed_tables():
    pairs_meta = {"config": {"count": 2, "d": 1}}
    assert checks.pairs_output(pairs_meta, ["q", "r"], [["inf", "2.0"], ["6.0", "inf"]]) is None
    assert rejects(checks.pairs_output(pairs_meta, ["q", "r"], [["inf", "2.0"], ["6.0", "4.0"]]))
    assert rejects(checks.pairs_output(pairs_meta, ["q", "r"], [["inf", "2.0"]]))

    cols = ["h", "M", "max_ratio", "min_ratio"]
    flat = [["1.0", "16", "1.0", "0.5"], ["0.5", "32", "1.1", "0.5"]]
    assert checks.bernstein_output({"fits": slopes(max_ratio=0.01)}, cols, flat) is None
    steep = [["1.0", "16", "1.0", "0.5"], ["0.5", "32", "2.5", "0.5"]]
    assert rejects(checks.bernstein_output({"fits": slopes(max_ratio=1.3)}, cols, steep))

    meta = {"n_cubes": 1, "threshold": 2.0, "config": {"d": 1}}
    cz_cols = ["corner", "scale", "side_length", "cube_average"]
    assert checks.czdemo_output(meta, cz_cols, [["0", "1", "1.0", "3.0"]]) is None
    assert rejects(checks.czdemo_output(meta, cz_cols, [["0", "1", "1.0", "1.9"]]))
    assert rejects(checks.czdemo_output(meta, cz_cols, [["0", "1", "1.0", "4.1"]]))
    assert rejects(checks.czdemo_output({**meta, "n_cubes": 2}, cz_cols, [["0", "1", "1.0", "3.0"]]))

    assert checks.uniformity(slopes(**{"with": 0.0, "without": 0.17}), 6.0) is None
    assert rejects(checks.uniformity(slopes(**{"with": 0.0, "without": 0.25}), 6.0))
    assert checks.mass_drift([2.0, 2.0, 2.0 * (1 + 1e-12)]) is None
    assert rejects(checks.mass_drift([2.0, 2.0 * (1 + 1e-9)]))
    assert checks.positive("s1", 0.3) is None
    assert rejects(checks.positive("s1", math.inf))
    assert checks.strict_json('{"q": "inf"}')
    assert not checks.strict_json('{"q": Infinity}')
    assert not checks.strict_json('{"q": NaN}')


def test_snapshot_check_compares_times_and_states():
    lat = lattice.Lattice(h=0.5, d=1, M=64)
    traj = dnls.evolve(lattice.from_function(lat, dnls.continuum_gaussian(1.0, 2.0)),
                       dnls.NlsConfig(lam=1.0, p=3.0, dt=0.01, T=0.05, snapshot_stride=2))
    states = [s.values for s in traj.states]
    assert checks.snapshots_equal((lat, traj.snapshot_times, states), traj) is None
    assert rejects(checks.snapshots_equal((lat, traj.snapshot_times + 1e-12, states), traj))
    assert rejects(checks.snapshots_equal((lat, traj.snapshot_times, states[:-1]), traj))
    bent = [s.copy() for s in states]
    bent[1][3] += 1e-15j
    assert rejects(checks.snapshots_equal((lat, traj.snapshot_times, bent), traj))


# ---------------------------------------------------------------------------
# tracer

def test_self_times_subtract_children_and_share_thread_overlap():
    root = ["a.root", 0.0, 10.0, None, 0, 1]
    child = ["b.child", 2.0, 5.0, root, 0, 1]
    grandchild = ["c.leaf", 3.0, 4.0, child, 0, 1]
    # two pool spans overlapping on [6, 8], both parented to the waiting root
    pool1 = ["d.pool", 6.0, 9.0, root, 0, 2]
    pool2 = ["d.pool", 6.0, 8.0, root, 0, 3]
    got = spans.self_times([grandchild, child, pool1, pool2, root])
    assert math.isclose(got["c.leaf"], 1.0)
    assert math.isclose(got["b.child"], 2.0)
    assert math.isclose(got["d.pool"], 3.0)  # [6, 8] shared by two spans, [8, 9] by one
    assert math.isclose(got["a.root"], 10.0 - 3.0 - 3.0)
    assert math.isclose(sum(got.values()), 10.0)


def test_tracer_wraps_every_binding_and_restores_them():
    originals = {"harness": harness.schrodinger_flow, "dnls": dnls.schrodinger_flow,
                 "fftn": np.fft.fftn, "post_init": lattice.GridFunction.__post_init__}
    assert originals["harness"] is originals["dnls"]
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert harness.schrodinger_flow is not originals["harness"]
        assert dnls.schrodinger_flow is harness.schrodinger_flow
        lat = lattice.Lattice(h=1.0, d=1, M=64)
        f = lattice.point_mass(lat)
        harness.schrodinger_flow(f, 1.0)  # outside an operation: not recorded
        assert tracer.spans == []
        tracer.begin(0)
        t = time.perf_counter()
        harness.schrodinger_flow(f, 1.0)
        worker = threading.Thread(target=lambda: lattice.lp_norm(f, 2.0))
        worker.start()
        worker.join(timeout=10)
        wall = time.perf_counter() - t
        tracer.end()
        assert not worker.is_alive()
    finally:
        tracer.uninstall()
    assert harness.schrodinger_flow is originals["harness"] and dnls.schrodinger_flow is originals["dnls"]
    assert np.fft.fftn is originals["fftn"] and lattice.GridFunction.__post_init__ is originals["post_init"]
    names = [rec[0] for rec in tracer.spans]
    for name in ("propagators.schrodinger_flow", "propagators.multiplier_grid", "spectral.apply_multiplier",
                 "spectral.laplacian_symbol_grid", "fft.fftn", "fft.ifftn", "lattice.GridFunction",
                 "lattice.lp_norm"):
        assert name in names, name
    assert tracer.counts["fft.points"] == 2 * 64
    assert tracer.counts["fft.bytes_computed"] == 32 * 2 * 64
    assert sum(spans.self_times(tracer.spans).values()) <= wall


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_") and callable(fn)]
    for name, fn in tests:
        fn()
        print(f"ok {name}")
    print(f"{len(tests)} self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
