"""Acceptance gate: every stated criterion at its stated tolerance, one report line each.

Grids stay at desk scale (largest 1-d grid 2^16, 2-d 512^2) and the whole
module runs in a few minutes.  Run with ``pytest -s tests/test_acceptance.py``
to see the report lines as they pass.
"""

import math

import numpy as np

from latticewave.dnls import (
    NlsConfig,
    continuum_gaussian,
    energy,
    evolve,
    interpolation_constant,
    mass,
    step_strang,
    uniform_bound_experiment,
)
from latticewave.harness import (
    AdmissiblePair,
    decay_time_grid,
    decay_data,
    dispersive_decay_scan,
    inequality_constant_scan,
    knapp_eps_exponents,
    knapp_experiment,
    uniformity_scan,
)
from latticewave.lattice import (
    GridFunction,
    Lattice,
    cz_decompose,
    from_function,
    lp_norm,
    plane_wave,
)
from latticewave.spectral import (
    band_scales,
    band_symbol,
    discrete_laplacian,
    forward_transform,
    inverse_transform,
)

from test_dnls import strang_endpoint


def report(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {number:02d} [{name}]: {'PASS' if ok else 'FAIL'} ({detail})")


def random_field(lat, seed):
    rng = np.random.default_rng(seed)
    return GridFunction(lat, rng.standard_normal(lat.shape) + 1j * rng.standard_normal(lat.shape))


H_SCAN_64 = [1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125, 0.015625]   # 1 .. 1/64
H_SCAN_16 = [1.0, 0.5, 0.25, 0.125, 0.0625]                      # 1 .. 1/16


# ---------------------------------------------------------------------------

def test_criterion_01_spectral_exactness():
    worst_parseval = worst_roundtrip = worst_eigen = 0.0
    for d, M, h in ((1, 64, 0.7), (2, 32, 0.5), (3, 16, 1.0)):
        lat = Lattice(h=h, d=d, M=M)
        f = random_field(lat, d)
        F = forward_transform(f)
        quad = (2 * np.pi) ** (-d) * np.sum(np.abs(F.coefficients) ** 2) * lat.frequency_cell_volume()
        l2sq = lp_norm(f, 2) ** 2
        worst_parseval = max(worst_parseval, abs(quad - l2sq) / l2sq)
        back = inverse_transform(F)
        worst_roundtrip = max(worst_roundtrip,
                              float(np.abs(back.values - f.values).max() / np.abs(f.values).max()))
        k = (M // 4 - 1,) * d
        pw = plane_wave(lat, k)
        xi = [2 * np.pi * kj / (h * M) for kj in k]
        ev = -(4.0 / h**2) * sum(np.sin(h * x / 2) ** 2 for x in xi)
        got = discrete_laplacian(pw).values
        worst_eigen = max(worst_eigen, float(np.abs(got - ev * pw.values).max() / abs(ev)))
    ok = worst_parseval <= 1e-10 and worst_roundtrip <= 1e-10 and worst_eigen <= 1e-12
    report(1, "spectral exactness", ok,
           f"parseval {worst_parseval:.2e}, roundtrip {worst_roundtrip:.2e}, eigenvalue {worst_eigen:.2e}")
    assert ok


def test_criterion_02_partition_and_square_function():
    worst = 0.0
    for d, M, h in ((1, 64, 0.5), (2, 32, 1.0), (3, 16, 0.25)):
        lat = Lattice(h=h, d=d, M=M)
        total = np.zeros(lat.shape)
        for N in band_scales(lat):
            total += band_symbol(lat, N)
        k = np.rint(np.fft.fftfreq(M) * M)
        nz = np.zeros(lat.shape, dtype=bool)
        for ax in range(d):
            sh = [1] * d
            sh[ax] = M
            nz |= (k != 0).reshape(sh)
        worst = max(worst, float(np.abs(total[nz] - 1.0).max()))
    partition_ok = worst <= 1e-12

    spreads = []
    for p in (4.0 / 3.0, 2.0, 4.0):
        scan = inequality_constant_scan("square_function", H_SCAN_64, box=16.0, d=1,
                                        p=p, ensemble=24, seed=2)
        hi = scan.column("max_ratio")
        lo = scan.column("min_ratio")
        spreads.append(hi.max() / hi.min())
        spreads.append(lo.max() / lo.min())
    square_ok = max(spreads) <= 4.0
    ok = partition_ok and square_ok
    report(2, "band partition + square function", ok,
           f"partition err {worst:.2e}, worst constant spread x{max(spreads):.2f}")
    assert ok


def test_criterion_03_bernstein():
    details = []
    ok = True
    for p, q in ((2.0, math.inf), (1.0, math.inf)):
        scan = inequality_constant_scan("bernstein", H_SCAN_64, box=16.0, d=1,
                                        p=p, q=q, ensemble=24, seed=3)
        hi = scan.column("max_ratio")
        slope = scan.fits["max_ratio"]["slope"]
        spread = hi.max() / hi.min()
        ok &= abs(slope) <= 0.05 or spread <= 2.0
        details.append(f"p={p:g}: slope {slope:+.3f}, spread x{spread:.2f}")
    report(3, "bernstein constant scan", ok, "; ".join(details))
    assert ok


def test_criterion_04_norm_equivalence():
    worst = 0.0
    for p in (4.0 / 3.0, 2.0, 4.0):
        for s in (0.5, 1.0):
            scan = inequality_constant_scan("norm_equivalence", H_SCAN_64, box=16.0, d=1,
                                            p=p, s=s, ensemble=16, seed=4)
            for prefix in ("power", "difference"):
                hi = scan.column(f"max_ratio_{prefix}").max()
                lo = scan.column(f"min_ratio_{prefix}").min()
                worst = max(worst, hi / lo)
    ok = worst <= 8.0
    report(4, "norm equivalence interval", ok, f"worst C/c = {worst:.2f} (limit 8)")
    assert ok


def test_criterion_05_schrodinger_decay():
    lat = Lattice(h=1.0, d=1, M=4096)
    full = dispersive_decay_scan("schrodinger", decay_data(lat), decay_time_grid(1.0, 100.0, 25))
    full_ok = abs(full.slope + 1.0 / 3.0) <= 0.05 and full.r_squared >= 0.95

    lat = Lattice(h=1.0, d=1, M=16384)
    low = dispersive_decay_scan("schrodinger", decay_data(lat), decay_time_grid(30.0, 3000.0, 25), N=1.0 / 8.0)
    low_ok = abs(low.slope + 0.5) <= 0.05 and low.r_squared >= 0.95

    lat2 = Lattice(h=1.0, d=2, M=512)
    d2 = dispersive_decay_scan("schrodinger", decay_data(lat2), decay_time_grid(1.5, 60.0, 20))
    d2_ok = abs(d2.slope + 2.0 / 3.0) <= 0.08

    ok = full_ok and low_ok and d2_ok
    report(5, "schrodinger dispersive decay", ok,
           f"d1 full {full.slope:.3f} (r2 {full.r_squared:.3f}), "
           f"d1 band {low.slope:.3f} (r2 {low.r_squared:.3f}), d2 full {d2.slope:.3f}")
    assert ok


def test_criterion_06_klein_gordon_decay():
    lat = Lattice(h=1.0, d=1, M=65536)
    grid = decay_time_grid(300.0, 30000.0, 25)
    high = dispersive_decay_scan("klein_gordon", decay_data(lat), grid, N=0.25)   # 4N/h = 1
    low = dispersive_decay_scan("klein_gordon", decay_data(lat), grid, N=0.125)   # 4N/h = 1/2
    high_ok = abs(high.slope + 1.0 / 3.0) <= 0.05 and high.r_squared >= 0.95
    low_ok = abs(low.slope + 1.0 / 3.0) <= 0.05 and low.r_squared >= 0.95
    ok = high_ok and low_ok
    report(6, "klein-gordon decay", ok,
           f"high {high.slope:.3f} (r2 {high.r_squared:.3f}), low {low.slope:.3f} (r2 {low.r_squared:.3f})")
    assert ok


def test_criterion_07_strichartz_uniformity():
    pair1 = AdmissiblePair(q=6.0, r=math.inf, d=1)
    scan1 = uniformity_scan("schrodinger", H_SCAN_16, pair1, box=64.0, n_t=96)
    w1 = scan1.fits["with"]["slope"]
    wo1 = scan1.fits["without"]["slope"]

    pair2 = AdmissiblePair(q=3.0, r=math.inf, d=2)
    scan2 = uniformity_scan("schrodinger", [1.0, 0.5, 0.25, 0.125], pair2, box=48.0,
                            horizon_fraction=0.1, n_t=72)
    w2 = scan2.fits["with"]["slope"]
    wo2 = scan2.fits["without"]["slope"]

    ok = (abs(w1) <= 0.05 and abs(wo1 - 1.0 / 6.0) <= 0.07
          and abs(w2) <= 0.05 and abs(wo2 - 1.0 / 3.0) <= 0.07)
    report(7, "strichartz uniformity", ok,
           f"d1 with {w1:+.3f}, without {wo1:.3f} (1/q=0.167); "
           f"d2 with {w2:+.3f}, without {wo2:.3f} (1/q=0.333)")
    assert ok


def test_criterion_08_knapp_scaling():
    pair = AdmissiblePair(q=8.0, r=8.0, d=1)
    h, s = 0.5, 1.0 / 8.0
    eps_list = [0.04, 0.02, 0.01]  # three dyadic values, eps/h^2 <= pi/2
    reports = [knapp_experiment(h, eps, s, pair, M=2**15) for eps in eps_list]
    fits = knapp_eps_exponents(reports)
    d = 1
    qp = pair.q_conjugate
    rp = pair.r_conjugate
    left_target = d / 2.0
    right_target = 3.0 * (1.0 - 1.0 / qp) + d * (1.0 - 1.0 / rp)
    left = fits["left"]["slope"]
    right = fits["right"]["slope"]
    ok = abs(left - left_target) <= 0.05 and abs(right - right_target) <= 0.05
    report(8, "knapp sharpness scaling", ok,
           f"left {left:.3f} (target {left_target}), right {right:.3f} (target {right_target})")
    assert ok


def test_criterion_09_cz_fuzz():
    rng = np.random.default_rng(9)
    checked = 0
    worst_rec = worst_mean = 0.0
    for d, M in ((1, 64), (2, 16)):
        lat = Lattice(h=0.5, d=d, M=M)
        for trial in range(1000):
            mode = trial % 3
            if mode == 0:
                v = rng.exponential(size=lat.shape)
            elif mode == 1:
                v = rng.uniform(size=lat.shape)
            else:
                v = np.zeros(lat.shape)
                spots = rng.integers(0, M, size=(3, d))
                for spot in spots:
                    v[tuple(spot)] = rng.uniform(1.0, 10.0)
            f = GridFunction(lat, v.astype(complex))
            gmean = float(v.mean())
            if gmean == 0.0:
                continue
            lam = gmean * rng.uniform(1.0, 4.0)
            dec = cz_decompose(f, lam)
            covered = np.zeros(lat.shape, dtype=bool)
            scale = max(1.0, float(np.abs(v).max()))
            for cube, bad in zip(dec.cubes, dec.bads):
                raw = tuple(slice(c % M, (c % M) + cube.scale) for c in cube.corner)
                covered[raw] = True
                avg = float(v[raw].mean())
                assert lam < avg <= 2**d * lam * (1 + 1e-12)
                worst_mean = max(worst_mean, abs(bad.values.sum()) / scale)
            assert np.all(v[~covered] <= lam + 1e-14)
            measure = lat.cell_volume * float(covered.sum())
            assert measure <= lp_norm(f, 1) / lam * (1 + 1e-12)
            rec = dec.good.values + sum(b.values for b in dec.bads)
            worst_rec = max(worst_rec, float(np.abs(rec - f.values).max()) / scale)
            checked += 1
    ok = checked >= 2000 and worst_rec <= 1e-12 and worst_mean <= 1e-12
    report(9, "cz decomposition fuzz", ok,
           f"{checked} decompositions, reconstruction {worst_rec:.1e}, bad-part mean {worst_mean:.1e}")
    assert ok


def test_criterion_10_dnls_conservation(picard_reference):
    lat = Lattice(h=0.5, d=1, M=64)
    u0 = from_function(lat, continuum_gaussian(1.0, 2.0))
    cfg = NlsConfig(lam=1.0, p=3.0, dt=0.01, T=1.0)
    u = u0
    m0 = mass(u0)
    for _ in range(1000):
        u = step_strang(u, cfg.dt, cfg)
    mass_drift = abs(mass(u) - m0) / m0
    mass_ok = mass_drift <= 1e-10

    drifts = []
    for dt in (0.02, 0.01):
        traj = evolve(u0, NlsConfig(lam=1.0, p=3.0, dt=dt, T=1.0))
        e = traj.monitors["energy"]
        drifts.append(float(np.abs(e - e[0]).max()))
    energy_ratio = drifts[0] / drifts[1]
    energy_ok = 3.2 <= energy_ratio <= 4.8

    u0s, ref_end = picard_reference
    errs = [float(np.abs(strang_endpoint(u0s, 1.0, 3.0, 0.25, dt).values - ref_end).max())
            for dt in (0.025, 0.0125)]
    oracle_ratio = errs[0] / errs[1]
    oracle_ok = 3.2 <= oracle_ratio <= 4.8

    ok = mass_ok and energy_ok and oracle_ok
    report(10, "dnls conservation + oracle", ok,
           f"mass drift {mass_drift:.1e}, energy ratio {energy_ratio:.2f}, oracle ratio {oracle_ratio:.2f}")
    assert ok


def test_criterion_11_uniform_bound():
    defo = uniform_bound_experiment(H_SCAN_16, continuum_gaussian(1.0, 2.0),
                                    d=1, box=32.0, lam=1.0, p=3.0, dt=0.005, T=0.75,
                                    pairs_count=6, snapshot_stride=4)
    cols = defo.columns
    defo_bounds = all(row[cols.index("h1_sup")] <= row[cols.index("h1_bound")] * (1 + 1e-4)
                      for row in defo.rows)
    defo_slope = defo.fits["s1"]["slope"]

    cgn = interpolation_constant(H_SCAN_16, d=1, box=32.0, p=2.5)

    def packet(*coords):
        x = coords[0]
        return 0.6 * np.exp(-x**2 / 2.0) * np.exp(1j * x)

    foc = uniform_bound_experiment(H_SCAN_16, packet,
                                   d=1, box=32.0, lam=-1.0, p=2.5, dt=0.005, T=0.75,
                                   pairs_count=6, snapshot_stride=4, gn_constant=cgn)
    foc_bounds = all(row[cols.index("h1_sup")] <= row[cols.index("h1_bound")] * (1 + 1e-9)
                     for row in foc.rows)
    foc_slope = foc.fits["s1"]["slope"]

    ok = (defo_bounds and foc_bounds and abs(defo_slope) <= 0.1 and abs(foc_slope) <= 0.1)
    report(11, "uniform bound experiment", ok,
           f"defocusing slope {defo_slope:+.4f} bounds {'held' if defo_bounds else 'VIOLATED'}; "
           f"focusing slope {foc_slope:+.4f} bounds {'held' if foc_bounds else 'VIOLATED'} (C={cgn:.3f})")
    assert ok


def test_criterion_12_determinism(tmp_path):
    from latticewave.cli import run

    args = ["constants", "--kind", "bernstein", "--d", "1", "--h-list", "1,0.5,0.25",
            "--box", "8", "--p", "2", "--q", "inf", "--ensemble", "12", "--seed", "7",
            "--threads", "1"]
    out1, out2 = tmp_path / "run1.csv", tmp_path / "run2.csv"
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    identical = out1.read_bytes() == out2.read_bytes()
    report(12, "byte-identical reruns", identical, f"{out1.stat().st_size} bytes compared")
    assert identical
