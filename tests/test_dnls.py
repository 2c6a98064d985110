import itertools
import math

import numpy as np
import pytest

from latticewave import dnls
from latticewave.dnls import (
    KNOWN_MONITORS,
    NlsConfig,
    continuum_gaussian,
    energy,
    evolve,
    mass,
    nonlinear_phase_flow,
    s1_norm,
    step_strang,
    uniform_bound_experiment,
)
from latticewave.errors import ConfigurationError, DivergenceError, WindowError
from latticewave.harness import AdmissiblePair, admissible_pairs, random_ensemble
from latticewave.lattice import (
    GridFunction,
    Lattice,
    boundary_mass_fraction,
    from_function,
    lp_norm,
    plane_wave,
    point_mass,
)
from latticewave.propagators import schrodinger_flow
from latticewave.spectral import bessel_derivative, laplacian_power


def smooth_data(lat, amplitude=1.0, width=2.0):
    return from_function(lat, continuum_gaussian(amplitude, width))


# ---------------------------------------------------------------------------
# invariants of the pieces

def test_mass_examples():
    lat = Lattice(h=0.5, d=1, M=8)
    f = point_mass(lat)
    assert mass(f) == pytest.approx(0.5)
    assert mass(f * 3.0) == pytest.approx(9 * 0.5)
    g = smooth_data(Lattice(h=0.5, d=1, M=64))
    assert mass(schrodinger_flow(g, 1.7)) == pytest.approx(mass(g), rel=1e-12)


def test_energy_single_site():
    lat = Lattice(h=1.0, d=1, M=8)
    a, lam, p = 1.3, -0.7, 3.0
    u = point_mass(lat, value=a)
    expected = a**2 + lam * a ** (p + 1) / (p + 1)
    assert energy(u, lam, p) == pytest.approx(expected, rel=1e-12)


def test_energy_kinetic_nonnegative_and_plane_wave():
    lat = Lattice(h=0.5, d=1, M=32)
    rng = np.random.default_rng(0)
    f = GridFunction(lat, rng.standard_normal(32) + 1j * rng.standard_normal(32))
    assert energy(f, 0.0, 2.5) >= 0.0
    k = 5
    pw = plane_wave(lat, k)
    xi = 2 * np.pi * k / (lat.h * lat.M)
    ev = (4.0 / lat.h**2) * np.sin(lat.h * xi / 2) ** 2
    assert energy(pw, 0.0, 3.0) == pytest.approx(0.5 * ev * mass(pw), rel=1e-10)


def test_nonlinear_phase_flow():
    lat = Lattice(h=0.5, d=1, M=32)
    rng = np.random.default_rng(1)
    u = GridFunction(lat, rng.standard_normal(32) + 1j * rng.standard_normal(32))
    np.testing.assert_allclose(nonlinear_phase_flow(u, 0.0, 1.0, 3.0).values, u.values)
    np.testing.assert_allclose(nonlinear_phase_flow(u, 0.7, 0.0, 3.0).values, u.values)
    out = nonlinear_phase_flow(u, 0.9, -1.0, 2.5)
    np.testing.assert_allclose(np.abs(out.values), np.abs(u.values), rtol=1e-13)


def test_strang_linear_limit_and_reversibility():
    lat = Lattice(h=0.5, d=1, M=64)
    u = smooth_data(lat)
    cfg0 = NlsConfig(lam=0.0, p=3.0, dt=0.05, T=1.0)
    np.testing.assert_allclose(step_strang(u, 0.05, cfg0).values,
                               schrodinger_flow(u, 0.05).values, atol=1e-12)
    cfg = NlsConfig(lam=1.0, p=3.0, dt=0.05, T=1.0)
    back = step_strang(step_strang(u, 0.05, cfg), -0.05, cfg)
    assert np.abs(back.values - u.values).max() < 1e-10


def test_strang_mass_conservation_many_steps():
    lat = Lattice(h=0.5, d=1, M=64)
    u = smooth_data(lat)
    cfg = NlsConfig(lam=1.0, p=3.0, dt=0.01, T=1.0)
    m0 = mass(u)
    for _ in range(1000):
        u = step_strang(u, cfg.dt, cfg)
    assert abs(mass(u) - m0) / m0 < 1e-10


# ---------------------------------------------------------------------------
# integral-form oracle (see conftest.picard_solution)

def strang_endpoint(u0, lam, p, T, dt):
    cfg = NlsConfig(lam=lam, p=p, dt=dt, T=T)
    u = u0
    for _ in range(int(round(T / dt))):
        u = step_strang(u, dt, cfg)
    return u


def test_strang_second_order_against_integral_oracle(picard_reference):
    u0, target = picard_reference
    lam, p, T = 1.0, 3.0, 0.25
    errs = []
    for dt in (0.025, 0.0125):
        got = strang_endpoint(u0, lam, p, T, dt).values
        errs.append(float(np.abs(got - target).max()))
    ratio = errs[0] / errs[1]
    assert 3.0 < ratio < 5.2


# ---------------------------------------------------------------------------
# evolve

@pytest.mark.parametrize("d", [1, 2])
def test_evolve_snapshots_equal_repeated_step_strang(d):
    lat = Lattice(h=0.5, d=d, M=64)
    cfg = NlsConfig(lam=-1.0, p=3.0, dt=0.01, T=0.2, snapshot_stride=5)
    traj = evolve(smooth_data(lat), cfg)
    u = smooth_data(lat)
    expected = [u.values]
    for k in range(1, 21):
        u = step_strang(u, cfg.dt, cfg)
        if k % cfg.snapshot_stride == 0:
            expected.append(u.values)
    assert len(traj.states) == len(expected) == 5
    for got, want in zip(traj.states, expected):
        assert np.array_equal(got.values, want)


# d = 2, M = 128 is a 256 KiB complex grid: numpy elides temporaries from that size on
PARSEVAL_CASES = [(1, 64, 0.5, 2.0, 1.0), (1, 64, 0.5, 2.0, -1.0), (2, 32, 1.0, 2.0, 1.0),
                  (2, 128, 0.25, 2.0, 1.0), (3, 16, 1.0, 1.0, 1.0)]


@pytest.mark.parametrize("d,M,h,width,lam", PARSEVAL_CASES)
def test_parseval_monitors_match_their_physical_definitions(d, M, h, width, lam):
    lat = Lattice(h=h, d=d, M=M)
    cfg = NlsConfig(lam=lam, p=3.0, dt=0.01, T=0.08, snapshot_stride=1)
    traj = evolve(smooth_data(lat, width=width), cfg)
    assert len(traj.states) == traj.times.size == 9
    # the oracles are computed before the assert (see propagators.flow on temporary elision)
    oracles = {
        "mass": [mass(u) for u in traj.states],
        "energy": [energy(u, cfg.lam, cfg.p) for u in traj.states],
        "s1_norm": [lp_norm(bessel_derivative(u, 1.0), 2) for u in traj.states],
        "kinetic_h1": [lp_norm(laplacian_power(u, 1.0), 2) for u in traj.states],
    }
    for name, want in oracles.items():
        got = traj.monitors[name]
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want)), name


def test_evolve_reads_the_monitors_from_the_step_spectrum(transforms):
    lat = Lattice(h=1.0, d=2, M=32)
    cfg = NlsConfig(lam=1.0, p=3.0, dt=0.01, T=0.1, snapshot_stride=3)
    traj = evolve(smooth_data(lat), cfg)
    n_steps = traj.times.size - 1
    assert set(traj.monitors) == {"mass", "energy", "s1_norm", "kinetic_h1", "boundary_mass"}
    # the datum's spectrum once, then four transforms per Strang step and none for the monitors
    assert transforms.counts == {"fftn": 1 + 2 * n_steps, "ifftn": 2 * n_steps}
    transforms.reset()
    pairs = [*admissible_pairs(2, 4), AdmissiblePair(q=math.inf, r=2.0, d=2)]
    s1_norm(traj, pairs)
    # one forward transform per snapshot; each (snapshot, pair) is an inverse-transformed row of a block
    n = lat.site_count
    assert transforms.counts["fftn"] == len(traj.states)
    assert transforms.points == {"fftn": len(traj.states) * n, "ifftn": len(traj.states) * len(pairs) * n}
    assert all(size <= transforms.BLOCK_BYTES for _, size, _ in transforms.blocks)
    transforms.assert_row_blocks()


def test_evolve_orders_the_monitors_as_known_monitors():
    """The series follow ``KNOWN_MONITORS`` for every selection, not the selection set's hash order."""
    lat = Lattice(h=0.5, d=1, M=64)
    for n in range(len(KNOWN_MONITORS) + 1):
        for chosen in itertools.combinations(KNOWN_MONITORS, n):
            cfg = NlsConfig(lam=1.0, p=3.0, dt=0.1, T=0.2, monitors=frozenset(chosen))
            keys = list(evolve(smooth_data(lat), cfg).monitors)
            assert keys == list(chosen) + (["kinetic_h1"] if "s1_norm" in chosen else [])


def test_evolve_builds_the_parseval_weights_once(monkeypatch):
    calls = []

    def counted(*args, _fn=dnls.laplacian_symbol_grid, **kwargs):
        calls.append(args)
        return _fn(*args, **kwargs)

    monkeypatch.setattr(dnls, "laplacian_symbol_grid", counted)
    evolve(smooth_data(Lattice(h=0.5, d=1, M=64)), NlsConfig(lam=1.0, p=3.0, dt=0.01, T=0.2))
    assert len(calls) == 1


def _s1_norm_per_pair(traj, pairs):
    """Oracle: each pair transforms every snapshot again through ``bessel_derivative``."""
    best = 0.0
    for pair in pairs:
        w = 1.0 - (0.0 if math.isinf(pair.q) else 1.0 / pair.q)
        rnorms = np.array([lp_norm(bessel_derivative(u, w), pair.r) for u in traj.states])
        if math.isinf(pair.q):
            val = float(rnorms.max())
        else:
            val = float(np.trapezoid(rnorms**pair.q, traj.snapshot_times) ** (1.0 / pair.q))
        best = max(best, val)
    return best


# d = 2, M = 32: 24 rows of 16 KiB, two blocks split mid-snapshot; M = 16384 and d = 2, M = 128: rows of 256 KiB
@pytest.mark.parametrize("d,M,h,width", [(1, 64, 0.5, 2.0), (2, 32, 1.0, 2.0), (2, 128, 0.25, 2.0),
                                         (3, 16, 1.0, 1.0), (1, 16384, 0.25, 2.0)])
def test_s1_norm_equals_the_per_pair_loop_bit_for_bit(d, M, h, width, transforms):
    lat = Lattice(h=h, d=d, M=M)
    traj = evolve(smooth_data(lat, width=width), NlsConfig(lam=1.0, p=3.0, dt=0.01, T=0.06, snapshot_stride=2,
                                              monitors=frozenset()))
    pairs = [*admissible_pairs(d, 5), AdmissiblePair(q=math.inf, r=2.0, d=d)]
    if (d, M) == (2, 32):
        per = transforms.rows_per_block(lat)
        assert len(traj.states) * len(pairs) > per and per % len(pairs)
    # each pair alone, since the sup over all of them is usually the q = inf pair's value
    for chosen in (pairs, pairs[::-1], *([pair] for pair in pairs)):
        want = _s1_norm_per_pair(traj, chosen)
        assert s1_norm(traj, chosen) == want


def _interpolation_constant_per_field(h_list, d, box, p, ensemble=24, seed=11, widths=(0.5, 1.0, 2.0, 4.0),
                                      modulations=(0.0, 0.5, 1.0, 2.0)):
    """Oracle: ``interpolation_constant`` with a ``laplacian_power`` per candidate."""
    th = d * (p - 1.0) / (2.0 * (p + 1.0))
    best = 0.0
    for j, h in enumerate(h_list):
        lat = Lattice.for_box(h, d, box)
        coords = lat.coordinate_grids()
        r2 = sum(np.asarray(c, dtype=float) ** 2 for c in coords)
        bumps = [GridFunction(lat, np.broadcast_to(np.exp(-r2 / (2.0 * w**2)) * np.exp(1j * kappa * sum(coords)),
                                                   lat.shape))
                 for w in widths if w >= h for kappa in modulations]
        for f in random_ensemble(lat, ensemble, seed, cell_key=j) + bumps:
            rhs = lp_norm(f, 2.0) ** (1.0 - th) * lp_norm(laplacian_power(f, 1.0), 2) ** th
            if rhs > 0:
                best = max(best, lp_norm(f, p + 1.0) / rhs)
    return best


# criterion 11's scan, and d = 2 up to M = 128, whose rows are 256 KiB
@pytest.mark.parametrize("h_list,d,box,p,ensemble", [([1.0, 0.5, 0.25, 0.125], 1, 32.0, 2.5, 24),
                                                     ([1.0, 0.5], 1, 32.0, 3.0, 24),
                                                     ([1.0, 0.5, 0.125], 2, 16.0, 3.0, 4)])
def test_interpolation_constant_equals_the_per_field_loop(h_list, d, box, p, ensemble):
    got = dnls.interpolation_constant(h_list, d=d, box=box, p=p, ensemble=ensemble)
    assert got == _interpolation_constant_per_field(h_list, d, box, p, ensemble=ensemble)


def test_evolve_zero_data():
    lat = Lattice(h=0.5, d=1, M=32)
    traj = evolve(GridFunction(lat, np.zeros(32)), NlsConfig(lam=1.0, p=3.0, dt=0.1, T=0.5))
    assert np.all(traj.monitors["mass"] == 0.0)
    for state in traj.states:
        assert np.all(state.values == 0.0)


def test_evolve_mass_series_constant():
    lat = Lattice(h=0.5, d=1, M=64)
    traj = evolve(smooth_data(lat), NlsConfig(lam=-1.0, p=2.5, dt=0.01, T=1.0))
    m = traj.monitors["mass"]
    assert np.abs(m - m[0]).max() / m[0] < 1e-10
    assert traj.times.size == m.size == 101
    # single-site data behaves the same way
    spike = evolve(point_mass(lat), NlsConfig(lam=1.0, p=3.0, dt=0.01, T=0.5))
    ms = spike.monitors["mass"]
    assert np.abs(ms - ms[0]).max() / ms[0] < 1e-10


def test_evolve_energy_drift_second_order():
    lat = Lattice(h=0.5, d=1, M=64)
    u0 = smooth_data(lat)
    drifts = []
    for dt in (0.02, 0.01):
        traj = evolve(u0, NlsConfig(lam=1.0, p=3.0, dt=dt, T=1.0))
        e = traj.monitors["energy"]
        drifts.append(np.abs(e - e[0]).max())
    assert 3.2 < drifts[0] / drifts[1] < 4.8


def test_evolve_divergence_detection():
    lat = Lattice(h=0.5, d=1, M=32)
    huge = GridFunction(lat, np.full(32, 1e200, dtype=complex))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError) as err:
            evolve(huge, NlsConfig(lam=-1.0, p=3.0, dt=0.1, T=1.0))
    assert err.value.last_valid_time is not None


def test_evolve_boundary_monitor():
    lat = Lattice(h=1.0, d=1, M=16)
    with pytest.raises(WindowError):
        evolve(point_mass(lat), NlsConfig(lam=0.0, p=2.0, dt=0.25, T=20.0))


def test_evolve_builds_the_boundary_mask_once(monkeypatch):
    calls = []

    def counted(*args, _fn=dnls.boundary_mask, **kwargs):
        calls.append(args)
        return _fn(*args, **kwargs)

    monkeypatch.setattr(dnls, "boundary_mask", counted)
    lat = Lattice(h=0.5, d=2, M=64)
    traj = evolve(smooth_data(lat), NlsConfig(lam=1.0, p=3.0, dt=0.02, T=0.2, snapshot_stride=1))
    assert len(calls) == 1
    # the monitor series is the per-call boundary_mass_fraction of every state, bit for bit
    assert traj.monitors["boundary_mass"].tolist() == [boundary_mass_fraction(u) for u in traj.states]


def test_config_validation():
    with pytest.raises(ConfigurationError):
        NlsConfig(lam=1.0, p=1.0, dt=0.1, T=1.0)
    with pytest.raises(ConfigurationError):
        NlsConfig(lam=1.0, p=3.0, dt=-0.1, T=1.0)
    with pytest.raises(ConfigurationError):
        NlsConfig(lam=1.0, p=3.0, dt=0.1, T=1.0, monitors=frozenset({"vorticity"}))


@pytest.mark.parametrize("bad", [{"T": math.inf}, {"T": math.nan}, {"dt": math.inf}, {"dt": math.nan},
                                 {"lam": math.nan}, {"lam": math.inf}, {"lam": -math.inf},
                                 {"T": 1e308, "dt": 1e-300}])
def test_config_rejects_non_finite_values(bad):
    with pytest.raises(ConfigurationError, match="finite"):
        NlsConfig(**{"lam": 1.0, "p": 3.0, "dt": 0.1, "T": 1.0, **bad})


@pytest.mark.parametrize("p", [math.inf, math.nan, 1.0])
def test_config_requires_a_finite_power_above_one(p):
    with pytest.raises(ConfigurationError, match="1 < p < inf"):
        NlsConfig(lam=1.0, p=p, dt=0.1, T=1.0)


# ---------------------------------------------------------------------------
# space-time norm of trajectories

def test_s1_norm_zero_and_monotone():
    lat = Lattice(h=0.5, d=1, M=32)
    traj = evolve(GridFunction(lat, np.zeros(32)), NlsConfig(lam=1.0, p=3.0, dt=0.1, T=0.5))
    pairs = admissible_pairs(1, 4)
    assert s1_norm(traj, pairs) == 0.0
    with pytest.raises(ConfigurationError):
        s1_norm(traj, [])


def test_s1_norm_stride_self_convergence():
    lat = Lattice(h=0.5, d=1, M=64)
    u0 = smooth_data(lat)
    pairs = admissible_pairs(1, 5)
    vals = []
    for stride in (4, 2, 1):
        traj = evolve(u0, NlsConfig(lam=1.0, p=3.0, dt=0.01, T=0.5, snapshot_stride=stride))
        vals.append(s1_norm(traj, pairs))
    assert abs(vals[1] - vals[2]) / vals[2] < 0.005
    assert abs(vals[0] - vals[2]) / vals[2] < 0.02


def test_s1_norm_sup_pair_linear_flow():
    lat = Lattice(h=0.5, d=1, M=64)
    u0 = smooth_data(lat)
    traj = evolve(u0, NlsConfig(lam=0.0, p=3.0, dt=0.02, T=0.5, snapshot_stride=1))
    sup_pair = AdmissiblePair(q=math.inf, r=2.0, d=1)
    expected = lp_norm(bessel_derivative(u0, 1.0), 2)
    assert s1_norm(traj, [sup_pair]) == pytest.approx(expected, rel=1e-10)
    more = s1_norm(traj, admissible_pairs(1, 5))
    assert more >= s1_norm(traj, [sup_pair]) - 1e-12


def test_uniform_bound_experiment_asks_for_the_kinetic_series_only(monkeypatch):
    configs = []
    original = dnls.evolve

    def recorded(u0, cfg):
        configs.append(cfg)
        return original(u0, cfg)

    monkeypatch.setattr(dnls, "evolve", recorded)
    scan = uniform_bound_experiment([1.0], continuum_gaussian(1.0, 2.0), d=1, box=32.0, dt=0.01, T=0.1,
                                    pairs_count=3, snapshot_stride=2)
    assert [cfg.monitors for cfg in configs] == [frozenset({"s1_norm"})]
    # the h1_sup column is the kinetic series of the full run
    full = original(from_function(Lattice.for_box(1.0, 1, 32.0), continuum_gaussian(1.0, 2.0)),
                    NlsConfig(lam=1.0, p=3.0, dt=0.01, T=0.1, snapshot_stride=2))
    assert scan.rows[0][scan.columns.index("h1_sup")] == float(full.monitors["kinetic_h1"].max())


def test_uniform_bound_experiment_defocusing_smoke():
    scan = uniform_bound_experiment([1.0, 0.5], continuum_gaussian(1.0, 2.0),
                                    d=1, box=32.0, lam=1.0, p=3.0, dt=0.01, T=0.2,
                                    pairs_count=4, snapshot_stride=2)
    cols = scan.columns
    for row in scan.rows:
        h1_sup = row[cols.index("h1_sup")]
        bound = row[cols.index("h1_bound")]
        assert h1_sup <= bound * (1 + 1e-6)
    assert "s1" in scan.fits


@pytest.mark.parametrize("amplitude,width", [(1.0, 0.0), (1.0, -2.0), (1.0, math.inf), (1.0, math.nan),
                                             (math.inf, 2.0), (math.nan, 2.0)])
def test_continuum_gaussian_rejects_non_finite_amplitude_or_bad_width(amplitude, width):
    with pytest.raises(ConfigurationError, match=f"amplitude={amplitude!r}, width={width!r}"):
        continuum_gaussian(amplitude, width)
