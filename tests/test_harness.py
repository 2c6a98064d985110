import math
import re
import threading
import tracemalloc
import warnings
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticewave import dnls, harness, spectral
from latticewave.dnls import continuum_gaussian, interpolation_constant, uniform_bound_experiment
from latticewave.errors import ConfigurationError, WindowError
from latticewave.harness import (
    AdmissiblePair,
    _knapp_axis_norms,
    admissible_pairs,
    decay_data,
    decay_time_grid,
    dispersive_decay_scan,
    inequality_constant_scan,
    knapp_eps_exponents,
    knapp_experiment,
    knapp_h_sharpness,
    loglog_fit,
    random_ensemble,
    scan_result,
    strichartz_norm,
    symmetric_time_grid,
    uniformity_scan,
)
from latticewave.lattice import (
    MAX_SITES,
    GridFunction,
    Lattice,
    boundary_mask,
    boundary_mass_fraction,
    density_mass_fraction,
    gaussian,
    lp_norm,
    modulus_lp_norm,
    point_mass,
)
from latticewave.propagators import PhaseSpec, degenerate_points
from latticewave.spectral import (
    apply_multiplier,
    band_projection,
    band_scales,
    band_symbol,
    continuum_symbol_grid,
    forward_difference,
    laplacian_symbol_grid,
)
from test_propagators import flow
from test_spectral import bessel_derivative, fractional_derivative, laplacian_power


# ---------------------------------------------------------------------------
# fits

def test_loglog_fit_recovers_power_law():
    x = np.geomspace(1, 100, 20)
    y = 3.0 * x**-0.5
    fit = loglog_fit(x, y)
    assert fit["slope"] == pytest.approx(-0.5, abs=1e-12)
    assert fit["r_squared"] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("x", [[2.0], [2.0, 2.0], [0.5, 0.5, 0.5]])
def test_loglog_fit_needs_two_distinct_abscissae(x):
    with pytest.raises(ValueError, match="two distinct abscissae"):
        loglog_fit(np.array(x), np.arange(1.0, len(x) + 1.0))


class _NoCell:
    """Stands in for ``Lattice`` inside a driver: building a cell's lattice fails the test."""

    def __init__(self, *args, **kwargs):
        raise AssertionError("a cell ran")

    @staticmethod
    def for_box(*args, **kwargs):
        raise AssertionError("a cell ran")


SCANS_OVER_H = {
    "uniformity": (harness, lambda hs: uniformity_scan("schrodinger", hs, AdmissiblePair(q=6.0, r=math.inf, d=1))),
    "constants": (harness, lambda hs: inequality_constant_scan("bernstein", hs, q=math.inf, ensemble=4)),
    "knapp_h_sharpness": (harness, lambda hs: knapp_h_sharpness(hs, 0.125, AdmissiblePair(q=8.0, r=8.0, d=1))),
    "uniform_bound": (dnls, lambda hs: uniform_bound_experiment(hs, continuum_gaussian(1.0, 2.0))),
    "interpolation": (dnls, interpolation_constant),
}


@pytest.mark.parametrize("scan", list(SCANS_OVER_H))
def test_scans_reject_a_repeated_spacing_before_the_first_cell(scan, monkeypatch):
    module, run = SCANS_OVER_H[scan]
    monkeypatch.setattr(module, "Lattice", _NoCell)
    with pytest.raises(ConfigurationError, match=re.escape("h_list repeats 0.25")):
        run([1.0, 0.25, 0.5, 0.25])


# ---------------------------------------------------------------------------
# admissible pairs

def test_admissible_pairs_endpoints():
    p1 = admissible_pairs(1, 5)
    assert math.isinf(p1[0].r) and p1[0].q == pytest.approx(6.0)
    assert p1[-1].r == pytest.approx(2.0) and math.isinf(p1[-1].q)
    p2 = admissible_pairs(2, 4)
    assert math.isinf(p2[0].r) and p2[0].q == pytest.approx(3.0)


def test_admissible_pairs_identity_and_exclusion():
    for d in (1, 2, 3):
        for pair in admissible_pairs(d, 7):
            inv_q = 0.0 if math.isinf(pair.q) else 1.0 / pair.q
            inv_r = 0.0 if math.isinf(pair.r) else 1.0 / pair.r
            assert abs(3 * inv_q + d * inv_r - d / 2) < 1e-12
            assert not (d == 3 and pair.q == 2 and math.isinf(pair.r))
    with pytest.raises(ConfigurationError):
        AdmissiblePair(q=2.0, r=math.inf, d=3)
    with pytest.raises(ConfigurationError):
        admissible_pairs(1, 1)


@pytest.mark.parametrize("q,r", [(0.0, math.inf), (6.0, 0.0), (0.0, 0.0), (-1.0, 2.0), (math.nan, 2.0)])
def test_admissible_pair_validates_before_dividing(q, r):
    with pytest.raises(ConfigurationError, match="q, r >= 2"):
        AdmissiblePair(q=q, r=r, d=1)


@pytest.mark.parametrize("r_max", [0.0, -1.0, 1.5, math.nan])
@pytest.mark.parametrize("d", [1, 3])
def test_admissible_pairs_rejects_r_max_below_two(d, r_max):
    with pytest.raises(ConfigurationError, match="r_max"):
        admissible_pairs(d, 3, r_max=r_max)


# ---------------------------------------------------------------------------
# decay scans

def test_decay_scan_full_spectrum_smoke():
    lat = Lattice(h=1.0, d=1, M=1024)
    fit = dispersive_decay_scan("schrodinger", decay_data(lat), decay_time_grid(2.0, 60.0, 15))
    assert fit.slope == pytest.approx(-1.0 / 3.0, abs=0.08)
    assert fit.r_squared > 0.9


def test_decay_scan_slope_is_amplitude_invariant():
    lat = Lattice(h=1.0, d=1, M=512)
    grid = decay_time_grid(2.0, 30.0, 10)
    a = dispersive_decay_scan("schrodinger", decay_data(lat), grid)
    b = dispersive_decay_scan("schrodinger", decay_data(lat) * 37.0, grid)
    assert a.slope == pytest.approx(b.slope, abs=1e-12)


def test_decay_scan_window_violation():
    lat = Lattice(h=1.0, d=1, M=64)
    grid = decay_time_grid(1.0, 500.0, 10)
    with pytest.raises(WindowError) as err:
        dispersive_decay_scan("schrodinger", decay_data(lat), grid)
    assert err.value.largest_valid_t is not None
    assert f"largest admissible |t| is {err.value.largest_valid_t}" in str(err.value)


# ---------------------------------------------------------------------------
# space-time norm

def _random_core(lat, rng):
    """Complex noise on the 16 sites -8..7 in the middle of a d = 1 box, zero elsewhere."""
    n = lat.site_indices()
    v = np.zeros(lat.M, dtype=complex)
    v[(n >= -8) & (n < 8)] = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    return v


def test_strichartz_sup_pair_equals_l2():
    # a random core far from the edge stays inside the boundary-mass window up to T = 2
    lat = Lattice(h=0.5, d=1, M=128)
    u0 = GridFunction(lat, _random_core(lat, np.random.default_rng(0)))
    u0 = u0 * (1.0 / lp_norm(u0, 2))
    pair = AdmissiblePair(q=math.inf, r=2.0, d=1)
    val = strichartz_norm(u0, pair, T=2.0)
    assert val == pytest.approx(1.0, rel=1e-12)


def test_strichartz_quadrature_self_convergence():
    lat = Lattice(h=0.5, d=1, M=128)
    u0 = gaussian(lat, 2.0)
    u0 = u0 * (1.0 / lp_norm(u0, 2))
    pair = AdmissiblePair(q=6.0, r=math.inf, d=1)
    coarse = strichartz_norm(u0, pair, T=4.0, n_t=128)
    fine = strichartz_norm(u0, pair, T=4.0, n_t=256)
    assert abs(fine - coarse) / fine < 0.005


def test_strichartz_norm_converges_to_the_continuum_gaussian_at_second_order():
    """The continuum flow of exp(-x^2 / (2 w^2)) under i u_t + u_xx = 0, the h -> 0 limit of the lattice
    Schrodinger flow, has |u|^2 = (w^2 / sqrt(s)) exp(-x^2 w^2 / s), s = w^4 + 4 t^2, so its L^8 norm over
    [-T, T] x R is (sqrt(pi) w^3 T / sqrt(w^4 + 4 T^2))^(1/8).  With the time quadrature resolved, the
    lattice norm's error is second order in h, as the symbol's mismatch h^2 xi^4 / 12 predicts."""
    w, T = 2.0, 4.0
    exact = (math.sqrt(math.pi) * w**3 * T / math.sqrt(w**4 + 4.0 * T**2)) ** 0.125
    h_list = [1.0, 0.5, 0.25, 0.125, 0.0625]
    errors = [abs(strichartz_norm(gaussian(Lattice.for_box(h, 1, 64.0), w), AdmissiblePair(8.0, 8.0, 1), T, 1536)
                  / exact - 1.0) for h in h_list]
    assert 6e-3 < errors[0] < 7e-3
    assert 1.9 <= loglog_fit(np.array(h_list), np.array(errors))["slope"] <= 2.1


def test_strichartz_rejects_small_quadrature():
    lat = Lattice(h=0.5, d=1, M=64)
    pair = AdmissiblePair(q=6.0, r=math.inf, d=1)
    with pytest.raises(ConfigurationError):
        strichartz_norm(point_mass(lat), pair, T=1.0, n_t=16)


def test_strichartz_finite_on_random_mean_zero():
    lat = Lattice(h=0.5, d=1, M=128)
    v = _random_core(lat, np.random.default_rng(5))
    core = v != 0
    v[core] -= v[core].mean()
    u0 = GridFunction(lat, v)
    pair = AdmissiblePair(q=6.0, r=math.inf, d=1)
    S = strichartz_norm(u0, pair, T=1.0, n_t=64)
    rhs = lp_norm(fractional_derivative(u0, 1.0 / 6.0), 2)
    assert np.isfinite(S / rhs) and S / rhs > 0


def test_strichartz_window_error_names_largest_admissible_abs_t():
    # the fold walks |t| upwards, so the error names the last |t| that passed, not the first node -T
    with pytest.raises(WindowError, match=r"at t=10\.5922; largest admissible \|t\| is 9\.87678") as err:
        strichartz_norm(point_mass(Lattice(1.0, 1, 64)), AdmissiblePair(6.0, math.inf, 1), 40.0)
    assert err.value.largest_valid_t == pytest.approx(9.876783269277269, rel=1e-12)


@pytest.mark.parametrize("chirp,t_fail", [(0.3, r"1\.71574"), (-0.3, r"-1\.71574")])
def test_complex_window_error_names_largest_abs_t_below_the_failure(chirp, t_fail):
    # walked in grid order, the +0.3 chirp failed at t=1.71574 and named 2.4 (the |t| of the first
    # node, -2.4), and its conjugate, which spreads in negative time, failed at -2.4 and named none
    lat = Lattice.for_box(0.5, 1, 32)
    u0 = GridFunction(lat, gaussian(lat, 2.0).values * np.exp(1j * chirp * lat.coordinate_grids()[0] ** 2))
    t_grid = symmetric_time_grid(2.4, 16, 1.0 / 64.0)
    for pair in (AdmissiblePair(6.0, math.inf, 1), AdmissiblePair(12.0, 4.0, 1)):
        with pytest.raises(WindowError, match=rf"at t={t_fail}; largest admissible \|t\| is 1\.22657") as err:
            strichartz_norm(u0, pair, 2.4, t_grid=t_grid)
        assert err.value.largest_valid_t == pytest.approx(1.2265702108053849, rel=1e-12)


# ---------------------------------------------------------------------------
# time loops against the per-sample path: one full-grid phase and FFT pair per t

def _per_sample_flow(kind, f, t):
    if kind == "schrodinger":
        return apply_multiplier(np.exp(-1j * t * laplacian_symbol_grid(f.lattice)), f)
    return apply_multiplier(np.exp(1j * t * np.sqrt(1.0 + laplacian_symbol_grid(f.lattice))), f)


def _oracle_decay_sups(kind, data, t_grid, N):
    f = data * (1.0 / lp_norm(data, 1))
    if N is not None:
        f = band_projection(f, N)
    return np.array([lp_norm(_per_sample_flow(kind, f, float(t)), math.inf) for t in t_grid])


def _oracle_strichartz(kind, u0, pair, t_grid):
    rnorms = np.array([lp_norm(_per_sample_flow(kind, u0, float(t)), pair.r) for t in t_grid])
    if math.isinf(pair.q):
        return float(rnorms.max())
    return float(np.trapezoid(rnorms**pair.q, t_grid) ** (1.0 / pair.q))


def _moving_complex_gaussian(lat, width, x0, k0):
    """Off-centre and with a momentum: no reflection or conjugation symmetry."""
    arg = sum(-((x - x0) ** 2) / (2.0 * width**2) + 1j * k0 * x for x in lat.coordinate_grids())
    return GridFunction(lat, np.exp(arg))


FLOW_LOOP_CASES = {
    # kind, lattice, datum, N, decay grid, (q, r), T
    "schrodinger-d1": ("schrodinger", Lattice(h=1.0, d=1, M=256), point_mass, None, (1.0, 20.0, 8), (12.0, 4.0), 4.0),
    "schrodinger-d2": ("schrodinger", Lattice(h=1.0, d=2, M=64), point_mass, None, (1.0, 6.0, 6), (6.0, 4.0), 2.0),
    "half-wave-N": ("klein_gordon", Lattice(h=1.0, d=1, M=1024), point_mass, 0.25, (5.0, 100.0, 8),
                    (6.0, math.inf), 20.0),
    "h=0.3": ("schrodinger", Lattice(h=0.3, d=1, M=512), lambda lat: gaussian(lat, 2.0), None, (0.5, 4.0, 8),
              (12.0, 4.0), 1.0),
    "complex-d2": ("schrodinger", Lattice(h=0.5, d=2, M=64), lambda lat: _moving_complex_gaussian(lat, 2.0, 1.3, 0.8),
                   None, (0.5, 2.0, 6), (6.0, 4.0), 1.0),
}


@pytest.mark.parametrize("case", list(FLOW_LOOP_CASES))
def test_time_loops_match_per_sample_flow(case):
    kind, lat, datum, N, (t_min, t_max, n_t), (q, r), T = FLOW_LOOP_CASES[case]
    u0 = datum(lat)
    grid = decay_time_grid(t_min, t_max, n_t)
    fit = dispersive_decay_scan(kind, u0, grid, N=N)
    np.testing.assert_allclose(fit.sup_norms, _oracle_decay_sups(kind, u0, grid, N), rtol=1e-12, atol=0)
    pair = AdmissiblePair(q=q, r=r, d=lat.d)
    t_grid = symmetric_time_grid(T, 16, T / 64.0)
    value = strichartz_norm(u0, pair, T, t_grid=t_grid, kind=kind)
    assert value == pytest.approx(_oracle_strichartz(kind, u0, pair, t_grid), rel=1e-12, abs=0)


@pytest.mark.parametrize("case", list(FLOW_LOOP_CASES))
def test_time_samples_equal_per_sample_flow_norms_exactly(case):
    """One modulus pass per sample changes no norm: each equals lp_norm of the flow at that time
    (at |t| for a real datum, which the loop flows once per distinct |t|), or for a point mass in
    d = 2 the sup norm of the outer product of its one-axis factors' moduli.  Its finite r-norm is
    the product of one-axis norms, which rounds differently, so that leg meets the dense flow."""
    kind, lat, datum, N, (t_min, t_max, n_t), (q, r), T = FLOW_LOOP_CASES[case]
    u0 = datum(lat)
    decay_datum = u0 if N is None else band_projection(u0, N)
    for f, t_grid, p in [(decay_datum, decay_time_grid(t_min, t_max, n_t), math.inf),
                         (u0, symmetric_time_grid(T, 16, T / 64.0), r)]:
        if case == "schrodinger-d2" and math.isinf(p):  # a point mass: the loop flows one one-axis factor
            axis = Lattice(h=lat.h, d=1, M=lat.M)
            spectrum = np.fft.fftn(point_mass(axis).values)
            oracle = [lp_norm(GridFunction(lat, reduce(np.multiply.outer, [
                np.abs(flow(kind, spectrum, axis, abs(float(t))).values)] * lat.d)), p) for t in t_grid]
        elif case == "schrodinger-d2":
            dense = [lp_norm(_per_sample_flow(kind, f, float(t)), p) for t in t_grid]
            np.testing.assert_allclose(harness._time_samples(kind, f, t_grid, p), dense, rtol=1e-12, atol=0)
            continue
        else:
            spectrum = np.fft.fftn(f.values)
            real = not np.any(f.values.imag)
            oracle = [lp_norm(flow(kind, spectrum, lat, abs(float(t)) if real else float(t)), p) for t in t_grid]
        assert np.array_equal(harness._time_samples(kind, f, t_grid, p), oracle)


def _chirped_gaussian(lat):
    """A Gaussian with a quadratic phase: it focuses one way in time and spreads the other."""
    chirp = np.exp(0.05j * sum(x**2 for x in lat.coordinate_grids()))
    return GridFunction(lat, gaussian(lat, 2.0).values * chirp)


FOLD_DATA = {"point": point_mass, "gaussian": lambda lat: gaussian(lat, 2.0), "complex": _chirped_gaussian}


@pytest.mark.parametrize("kind,d,q,r", [("schrodinger", 1, 6.0, math.inf), ("schrodinger", 1, 12.0, 4.0),
                                        ("schrodinger", 2, 3.0, math.inf), ("schrodinger", 2, 6.0, 4.0),
                                        ("klein_gordon", 1, 6.0, math.inf), ("klein_gordon", 1, 12.0, 4.0)])
@pytest.mark.parametrize("data", list(FOLD_DATA))
def test_time_reversal_fold_matches_unfolded_loop(data, kind, d, q, r):
    lat = Lattice.for_box(0.5, d, 32)
    u0 = FOLD_DATA[data](lat)
    pair = AdmissiblePair(q=q, r=r, d=d)
    t_grid = symmetric_time_grid(2.4, 16, 1.0 / 64.0)
    value = strichartz_norm(u0, pair, 2.4, t_grid=t_grid, kind=kind)
    assert value == pytest.approx(_oracle_strichartz(kind, u0, pair, t_grid), rel=1e-12, abs=0)
    if data == "complex":  # folding this datum would be wrong: its norms at -t and t differ
        ends = [lp_norm(_per_sample_flow(kind, u0, t), r) for t in (-2.4, 2.4)]
        assert abs(ends[0] - ends[1]) > 1e-3 * ends[1]


# ---------------------------------------------------------------------------
# the row-batched time loop against its per-sample form: one flow call per (time, distinct factor)

def _outer_lp_norm(c, moduli, lattice, p):
    """The l^p norm of c times the outer product of ``moduli`` (the fields' |f_j| on ``lattice``):
    |c| times the product of their norms, the product of their maxima for p = inf."""
    return abs(c) * math.prod(modulus_lp_norm(a, lattice, p) for a in moduli)


def _outer_edge_fraction(moduli, mask):
    """The boundary-mass fraction of the outer product of ``moduli`` against ``mask``, the edge mask of
    their lattice: 1 - prod(1 - b_j), b_j the share of a_j^2 on ``mask``, folded as f + b - f*b."""
    return reduce(lambda f, b: f + b - f * b, [density_mass_fraction(np.square(a), mask) for a in moduli])


def _time_samples_per_sample(kind, u0, t_grid, p, weight=None):
    """The time loop with one ``flow`` call and one inverse transform per sample and distinct factor; a real
    symbol ``weight`` on u0's lattice multiplies the spectrum of u0, which it keeps whole."""
    if not np.any(u0.values.imag):
        times, inverse = np.unique(np.abs(t_grid), return_inverse=True)
    else:
        order = np.argsort(np.abs(t_grid), kind="stable")
        times, inverse = t_grid[order], np.argsort(order)
    c, factors = harness._axis_factors(u0, kind) if weight is None else (1.0, [u0])
    lat = factors[0].lattice
    mask = boundary_mask(lat)
    index = [next(k for k, g in enumerate(factors) if np.array_equal(g.values, f.values)) for f in factors]
    spectra = {k: np.fft.fftn(factors[k].values) for k in dict.fromkeys(index)}
    if weight is not None:
        spectra = {k: weight * spectrum for k, spectrum in spectra.items()}
    norms = np.empty(times.size)
    for i, t in enumerate(times):
        flowed = {k: np.abs(flow(kind, spectrum, lat, float(t)).values) for k, spectrum in spectra.items()}
        moduli = [flowed[k] for k in index]
        if _outer_edge_fraction(moduli, mask) > harness.BOUNDARY_THRESHOLD:
            passed = np.abs(times[:i])
            passed = passed[passed < abs(t)]
            largest_ok = float(passed[-1]) if passed.size else None
            raise WindowError(f"solution reached the boundary at t={t:g}; largest admissible |t| is "
                              f"{largest_ok if largest_ok is not None else 'none'}", largest_valid_t=largest_ok)
        norms[i] = _outer_lp_norm(c, moduli, lat, p)
    return norms[inverse]


BATCHED_CASES = {
    # kind, lattice, datum, time grid
    # 4 rows of M = 4096 per block, so 25 samples (13 distinct |t| of the second grid) leave a last block of 1
    "ragged-blocks": ("schrodinger", Lattice(h=1.0, d=1, M=4096), point_mass, decay_time_grid(1.0, 100.0, 25)),
    "ragged-blocks-gaussian": ("schrodinger", Lattice(h=0.5, d=1, M=4096), lambda lat: gaussian(lat, 4.0),
                               symmetric_time_grid(20.0, 12, 0.1)),
    # a row of M = 16384 is 256 KiB, the temporary-elision threshold: one row per block, operands swapped
    "threshold-d1": ("schrodinger", Lattice(h=1.0, d=1, M=16384), lambda lat: band_projection(point_mass(lat), 0.125),
                     decay_time_grid(30.0, 3000.0, 6)),
    "threshold-d1-half-wave": ("klein_gordon", Lattice(h=0.5, d=1, M=16384), lambda lat: gaussian(lat, 4.0),
                               symmetric_time_grid(40.0, 5, 0.5)),
    # rows of 128 KiB: two per block, operands in source order
    "below-threshold-d1": ("klein_gordon", Lattice(h=1.0, d=1, M=8192), lambda lat: gaussian(lat, 4.0),
                           symmetric_time_grid(40.0, 5, 0.5)),
    # a dense (not outer-product) d = 2 datum whose M^2 row is 256 KiB
    "dense-d2-M128": ("schrodinger", Lattice(h=0.5, d=2, M=128), _chirped_gaussian, symmetric_time_grid(2.0, 4, 0.1)),
    # a complex datum, walked through negative and positive times
    "complex-d1": ("schrodinger", Lattice(h=0.5, d=1, M=256), lambda lat: _moving_complex_gaussian(lat, 2.0, 1.3, 0.8),
                   symmetric_time_grid(4.0, 40, 0.05)),
    # two distinct factors per sample and an odd 341 rows of 256 KiB: a block holds 170 whole samples
    "factors-straddle-blocks": ("schrodinger", Lattice(h=1.0, d=2, M=48),
                                lambda lat: point_mass(lat, (1, -2), 3.0 - 2.0j), symmetric_time_grid(3.0, 100, 0.01)),
}


@pytest.mark.parametrize("p", [math.inf, 4.0])
@pytest.mark.parametrize("case", list(BATCHED_CASES))
def test_batched_time_samples_equal_the_per_sample_loop(case, p, transforms):
    kind, lat, datum, t_grid = BATCHED_CASES[case]
    u0 = datum(lat)
    got = harness._time_samples(kind, u0, t_grid, p)
    assert np.array_equal(got, _time_samples_per_sample(kind, u0, t_grid, p))
    if case == "factors-straddle-blocks":
        per = transforms.rows_per_block(Lattice(h=lat.h, d=1, M=lat.M))
        assert per % 2 == 1 and 2 * t_grid.size > per


@pytest.mark.parametrize("datum", ["point", "complex"])
def test_window_error_mid_block_matches_the_per_sample_loop(datum, transforms):
    lat = Lattice(h=1.0, d=1, M=64)
    if datum == "point":
        u0, t_grid = point_mass(lat), decay_time_grid(1.0, 40.0, 30)
    else:
        u0, t_grid = _moving_complex_gaussian(lat, 2.0, 1.3, 0.8), symmetric_time_grid(20.0, 15, 0.1)
    assert t_grid.size < transforms.rows_per_block(lat)  # every sample is a row of the first block
    with pytest.raises(WindowError) as batched:
        harness._time_samples("schrodinger", u0, t_grid, math.inf)
    with pytest.raises(WindowError) as per_sample:
        _time_samples_per_sample("schrodinger", u0, t_grid, math.inf)
    assert str(batched.value) == str(per_sample.value)
    assert batched.value.largest_valid_t == per_sample.value.largest_valid_t is not None
    # the failing sample is neither the first nor the last row of its block
    t_fail = float(str(batched.value).split("t=")[1].split(";")[0])
    walked = np.sort(np.abs(t_grid))
    assert walked[2] < abs(t_fail) < walked[-3]


def test_window_error_in_a_later_block_of_two_factor_samples_matches_the_per_sample_loop(transforms):
    """Two distinct one-axis factors per sample and 170 whole samples per block: the window fails in the
    second block, whose reduction raises the per-sample loop's error."""
    lat = Lattice(h=1.0, d=2, M=48)
    u0, t_grid = point_mass(lat, (1, -2), 3.0 - 2.0j), symmetric_time_grid(12.0, 150, 0.01)
    with pytest.raises(WindowError) as batched:
        harness._time_samples("schrodinger", u0, t_grid, math.inf)
    blocks = [rows for rows, _, _ in transforms.blocks]
    with pytest.raises(WindowError) as per_sample:
        _time_samples_per_sample("schrodinger", u0, t_grid, math.inf)
    assert str(batched.value) == str(per_sample.value)
    assert batched.value.largest_valid_t == per_sample.value.largest_valid_t is not None
    samples_per_block = transforms.rows_per_block(Lattice(h=lat.h, d=1, M=lat.M)) // 2
    assert blocks == [2 * samples_per_block, 2 * (t_grid.size - samples_per_block)]
    # the failing sample is neither the first nor the last of the second block
    t_fail = float(str(batched.value).split("t=")[1].split(";")[0])
    walked = t_grid[np.argsort(np.abs(t_grid), kind="stable")]
    assert samples_per_block < np.argmin(np.abs(walked - t_fail)) < t_grid.size - 1


def test_window_error_on_large_rows_matches_the_per_sample_loop():
    """Rows of 256 KiB go through the worker thread: the criterion 06 decay scan that leaves the window
    raises the per-sample loop's error at a middle sample, and the next call still works.  The oracle
    flows the band-weighted spectrum band_symbol * fftn(datum) of the l^1-normalised datum (h = 1)."""
    lat = Lattice(h=1.0, d=1, M=16384)
    f, band = decay_data(lat), band_symbol(lat, 0.25)
    t_grid = decay_time_grid(1000.0, 30000.0, 12)
    with pytest.raises(WindowError) as pipelined:
        dispersive_decay_scan("klein_gordon", decay_data(lat), t_grid, N=0.25)
    with pytest.raises(WindowError) as per_sample:
        _time_samples_per_sample("klein_gordon", f, t_grid, math.inf, band)
    assert str(pipelined.value) == str(per_sample.value)
    assert pipelined.value.largest_valid_t == per_sample.value.largest_valid_t is not None
    valid = t_grid[t_grid <= pipelined.value.largest_valid_t]
    assert 2 < valid.size < t_grid.size - 2
    fit = dispersive_decay_scan("klein_gordon", decay_data(lat), valid, N=0.25)
    assert np.array_equal(fit.sup_norms, _time_samples_per_sample("klein_gordon", f, valid, math.inf, band))


BAND_DECAY_CASES = {
    # kind, lattice, datum, N, decay grid
    "schrodinger-d1": ("schrodinger", Lattice(h=1.0, d=1, M=4096), point_mass, 0.25, (1.0, 100.0, 12)),
    "schrodinger-d1-gaussian": ("schrodinger", Lattice(h=0.5, d=1, M=2048), lambda lat: gaussian(lat, 3.0), 0.125,
                                (1.0, 20.0, 8)),
    "half-wave-d1": ("klein_gordon", Lattice(h=1.0, d=1, M=4096), point_mass, 0.25, (10.0, 1000.0, 12)),
    "schrodinger-d2": ("schrodinger", Lattice(h=1.0, d=2, M=128), point_mass, 0.25, (1.0, 15.0, 8)),
    "schrodinger-d2-off-centre": ("schrodinger", Lattice(h=0.5, d=2, M=64),
                                  lambda lat: point_mass(lat, (1, -2), 3.0 - 2.0j), 0.5, (0.2, 1.2, 6)),
}


@pytest.mark.parametrize("case", list(BAND_DECAY_CASES))
def test_band_weighted_decay_matches_the_projected_flow(case):
    """The band symbol weights the datum's spectrum: the sup norms match the flow of the band projection
    of the l^1-normalised datum, transformed back and forth, to rounding."""
    kind, lat, datum, N, (t_min, t_max, n_t) = BAND_DECAY_CASES[case]
    data = datum(lat)
    t_grid = decay_time_grid(t_min, t_max, n_t)
    projected = band_projection(data * (1.0 / lp_norm(data, 1)), N)
    oracle = harness._time_samples(kind, projected, t_grid, math.inf)
    np.testing.assert_allclose(dispersive_decay_scan(kind, data, t_grid, N=N).sup_norms, oracle, rtol=1e-13, atol=0)


def test_decay_scan_folds_the_l1_normalisation_into_the_scale(transforms):
    """A factored datum is normalised through its scale c: only its d one-axis factors are transformed, and
    the sup norms match the flow of the normalised M^d datum."""
    lat = Lattice(h=0.5, d=2, M=64)
    data = point_mass(lat, (1, -2), 3.0 - 2.0j)
    t_grid = decay_time_grid(0.2, 1.2, 6)
    fit = dispersive_decay_scan("schrodinger", data, t_grid)
    assert transforms.points["fftn"] == 2 * lat.M
    oracle = harness._time_samples("schrodinger", data * (1.0 / lp_norm(data, 1)), t_grid, math.inf)
    np.testing.assert_allclose(fit.sup_norms, oracle, rtol=1e-13, atol=0)


@pytest.mark.parametrize("d", [1, 2])
def test_decay_scan_rejects_a_datum_whose_l1_normalisation_overflows(d):
    """A datum whose l^1 norm is subnormal has no finite l^1 normalisation: a ValueError, whether the datum
    is scaled whole (d = 1) or through the scale c of its factors (d = 2, a power of two divides exactly)."""
    data = point_mass(Lattice(h=2.0 ** (-30 // d), d=d, M=64), 0, 2.0**-1000)
    assert len(harness._axis_factors(data, "schrodinger")[1]) == d
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="non-finite"):
        dispersive_decay_scan("schrodinger", data, decay_time_grid(1.0, 2.0, 3))


def _peak_mib(call):
    """The traced peak of one warm ``call``, in MiB."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_factored_scans_build_no_dense_copy():
    """On a 512^2 lattice the d = 2 decay scan of a point mass (4 MiB of data) and a uniformity cell
    (one flow row is 8 KiB) make no complex M^d temporary: no scaled copy, product check or transform."""
    data, t_grid = decay_data(Lattice(1.0, 2, 512)), decay_time_grid(1.5, 60.0, 20)
    assert _peak_mib(lambda: dispersive_decay_scan("schrodinger", data, t_grid)) <= 4.5
    pair = AdmissiblePair(q=3.0, r=math.inf, d=2)
    assert _peak_mib(lambda: uniformity_scan("schrodinger", [0.125], pair, box=64.0)) <= 7.0


# ---------------------------------------------------------------------------
# closed form: the free flow of the h-weighted point mass is a Bessel kernel

@pytest.mark.parametrize("h", [1.0, 0.5])
def test_decay_sup_norms_equal_the_bessel_kernel(h):
    """u(t, n) = h^-1 e^(-2it/h^2) i^n J_n(2t/h^2) for the datum delta/h, so its sup norm is
    h^-1 max_n |J_n(2t/h^2)|; in d = 2 the flow is the product over the axes and the sup norm squares."""
    from scipy.special import jv

    def bessel_sup(t, M):
        return np.abs(jv(np.arange(M // 2 + 1)[:, None], 2.0 * t / h**2)).max(axis=0) / h

    t_grid = decay_time_grid(1.0, 100.0, 12)
    # rows of 64 KiB, four to a block; rows of 256 KiB, transformed on the worker thread
    for M in (4096, 16384):
        fit = dispersive_decay_scan("schrodinger", decay_data(Lattice(h, 1, M)), t_grid)
        np.testing.assert_allclose(fit.sup_norms, bessel_sup(t_grid, M), rtol=1e-12, atol=0)
    t_grid = decay_time_grid(1.0, 60.0 * h**2, 8)
    fit = dispersive_decay_scan("schrodinger", decay_data(Lattice(h, 2, 512)), t_grid)
    np.testing.assert_allclose(fit.sup_norms, bessel_sup(t_grid, 512) ** 2, rtol=1e-12, atol=0)


LANDAU_B = 0.6748850964304776  # sup_x x^(1/3) sup_n |J_n(x)| as x -> inf: 2^(1/3) times the maximum of Airy Ai


@pytest.mark.parametrize("h", [1.0, 0.5, 0.25])
def test_decay_sup_norms_follow_the_landau_amplitude(h):
    """sup_n |J_n(x)| ~ b x^(-1/3) (Landau, J. London Math. Soc. 61 (2000)), and the sup norm of the flow of
    delta/h is h^-1 sup_n |J_n(2t/h^2)|: so sup * (2t)^(1/3) * h^(1/3) / b -> 1, and the h^(-1/3) growth of
    the decay constant is measured against a closed form."""
    x = np.array([100.0, 200.0, 400.0, 800.0])
    t_grid = x * h * h / 2.0
    fit = dispersive_decay_scan("schrodinger", decay_data(Lattice(h, 1, 4096)), t_grid)
    np.testing.assert_allclose(fit.sup_norms * (2.0 * t_grid) ** (1.0 / 3.0) * h ** (1.0 / 3.0) / LANDAU_B,
                               1.0, rtol=0.01, atol=0)


def test_time_loops_transform_the_datum_once(transforms):
    lat = Lattice(h=1.0, d=2, M=32)
    dispersive_decay_scan("schrodinger", decay_data(lat), decay_time_grid(1.0, 3.0, 7))
    # a point mass at the origin is an outer product of d equal one-axis factors: one is transformed
    # once and flowed once per sample
    assert transforms.points == {"fftn": lat.M, "ifftn": 7 * lat.M}
    transforms.assert_row_blocks()
    transforms.reset()
    u0 = point_mass(lat)
    pair = AdmissiblePair(q=6.0, r=4.0, d=2)
    t_grid = symmetric_time_grid(1.0, 5, 0.1)
    strichartz_norm(u0, pair, 1.0, t_grid=t_grid)
    # a real datum is flowed once per distinct |t|: 0 and the 5 positive nodes of the 11
    assert transforms.points == {"fftn": lat.M, "ifftn": 6 * lat.M}
    transforms.assert_row_blocks()
    transforms.reset()
    # off the diagonal the d factors differ, and a complex datum is flowed at every time
    off = point_mass(lat, (1, -2), 3.0 - 2.0j)
    value = strichartz_norm(off, pair, 1.0, t_grid=t_grid)
    assert transforms.points == {"fftn": 2 * lat.M, "ifftn": 2 * t_grid.size * lat.M}
    transforms.assert_row_blocks()
    assert value == pytest.approx(_oracle_strichartz("schrodinger", off, pair, t_grid), rel=1e-12, abs=0)
    transforms.reset()
    strichartz_norm(_chirped_gaussian(lat), AdmissiblePair(q=6.0, r=4.0, d=2), 1.0, t_grid=t_grid)
    assert transforms.points == {"fftn": lat.site_count, "ifftn": t_grid.size * lat.site_count}
    transforms.assert_row_blocks()
    # a band-limited decay datum: the band symbol weights its spectrum, which is not transformed back; at
    # M = 16384 a row is 256 KiB, so each sample is a block of its own
    transforms.reset()
    dispersive_decay_scan("klein_gordon", decay_data(Lattice(h=1.0, d=1, M=16384)), decay_time_grid(5.0, 50.0, 4),
                          N=0.25)
    assert [rows for rows, _, _ in transforms.blocks] == [1] * 4
    transforms.assert_row_blocks()


# ---------------------------------------------------------------------------
# axis factors: an exact outer product is flowed as d one-axis data

# entries whose products and quotients are exact in floating point
DYADIC = st.builds(lambda e, u: u * 2.0**e, st.integers(-8, 8), st.sampled_from((1, -1, 1j, -1j, 1 + 1j, 1 - 1j)))


def _kept_whole(f, kind):
    """Whether :func:`harness._axis_factors` returns ``f`` itself as the single factor."""
    c, factors = harness._axis_factors(f, kind)
    return c == 1 and len(factors) == 1 and factors[0] is f


@st.composite
def rank_one_cases(draw):
    """A lattice in d = 2 or 3 and d nonzero one-axis vectors of dyadic entries (real or complex)."""
    d = draw(st.sampled_from((2, 3)))
    M = draw(st.sampled_from((4, 6, 8)))
    entries = DYADIC if draw(st.booleans()) else DYADIC.map(lambda z: z.real or z.imag)
    vectors = [np.array(draw(st.lists(st.just(0.0) | entries, min_size=M, max_size=M)), dtype=complex)
               for _ in range(d)]
    for v in vectors:
        v[draw(st.integers(0, M - 1))] = draw(entries)
    return Lattice(h=draw(st.sampled_from((1.0, 0.5, 0.3))), d=d, M=M), vectors


@settings(max_examples=150)
@given(rank_one_cases(), st.data())
def test_axis_factors_rebuild_exact_outer_products(case, data):
    lat, vectors = case
    u0 = GridFunction(lat, reduce(np.multiply.outer, vectors))
    c, factors = harness._axis_factors(u0, "schrodinger")
    assert len(factors) == lat.d
    assert all(g.lattice == Lattice(h=lat.h, d=1, M=lat.M) for g in factors)
    assert np.array_equal(reduce(np.multiply.outer, [g.values for g in factors], c), u0.values)
    # c is the value at the largest-modulus site, where every factor is 1
    pivot = np.unravel_index(np.argmax(np.abs(u0.values)), lat.shape)
    assert c == u0.values[pivot]
    assert all(g.values[k] == 1 for g, k in zip(factors, pivot))
    # each factor is its vector up to a constant
    for g, v in zip(factors, vectors):
        k = int(np.argmax(np.abs(v)))
        assert np.array_equal(g.values * v[k], v * g.values[k])
    # no flow other than the free one is factored, and neither is a d = 1 field
    assert _kept_whole(u0, "klein_gordon")
    line = GridFunction(Lattice(h=lat.h, d=1, M=lat.M), vectors[0])
    assert _kept_whole(line, "schrodinger")
    # doubling one entry of a tensor with no zero entry leaves no rank-one tensor
    full = [np.where(v == 0, 1.0, v) for v in vectors]
    site = tuple(data.draw(st.integers(0, lat.M - 1)) for _ in range(lat.d))
    changed = reduce(np.multiply.outer, full)
    changed[site] *= 2.0
    u1 = GridFunction(lat, changed)
    assert _kept_whole(u1, "schrodinger")


@pytest.mark.parametrize("d", [2, 3])
def test_axis_factors_keep_a_zero_field_or_a_gaussian_whole(d):
    lat = Lattice(h=0.5, d=d, M=16)
    zero = GridFunction(lat, np.zeros(lat.shape))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no division by a zero pivot
        assert _kept_whole(zero, "schrodinger")
    # exp of the summed squares is not the rounded product of the one-axis exponentials
    blob = gaussian(lat, 2.0)
    assert _kept_whole(blob, "schrodinger")
    pm = point_mass(lat, 3, 2.0 - 0.5j)
    assert _kept_whole(pm, "klein_gordon")
    assert len(harness._axis_factors(pm, "schrodinger")[1]) == d


@settings(max_examples=150)
@given(rank_one_cases(), st.sampled_from((1.0, 2.0, 4.0, math.inf)), st.booleans())
def test_outer_norm_and_edge_fraction_match_the_dense_product(case, r, reverse):
    """The time loop's separable monitors against lp_norm and boundary_mass_fraction of the dense field:
    the sup norm exactly (rounding is monotone, so the largest rounded product is the rounded product
    of the largest moduli), the finite norms and the fraction up to the order of summation."""
    lat, vectors = case
    moduli = [np.abs(v) for v in (vectors[::-1] if reverse else vectors)]
    axis = Lattice(h=lat.h, d=1, M=lat.M)
    dense = GridFunction(lat, reduce(np.multiply.outer, moduli))
    samples, slot = np.array(moduli)[np.newaxis], list(range(len(moduli)))  # one sample, a slot per factor
    norm = harness._outer_lp_norms(1.0, samples, slot, axis, r)[0]
    if math.isinf(r):
        assert norm == lp_norm(dense, r)
    else:
        assert norm == pytest.approx(lp_norm(dense, r), rel=1e-12, abs=0)
    fraction = harness._outer_edge_fractions(samples, slot, np.flatnonzero(boundary_mask(axis)))[0]
    assert fraction == pytest.approx(boundary_mass_fraction(dense), rel=1e-12, abs=1e-15)


def _gaussian_outer_product(lat):
    """One-axis Gaussians multiplied out, the first times 1 + i: an exact outer product with nontrivial
    factors (each Gaussian is 1 at its centre, so the slices through it are the factors unrounded)."""
    axis = gaussian(Lattice(h=lat.h, d=1, M=lat.M), 2.0).values
    return GridFunction(lat, reduce(np.multiply.outer, [axis * (1.0 + 1.0j)] + [axis] * (lat.d - 1)))


FACTORED_CASES = {
    "point-d2": (Lattice(h=1.0, d=2, M=64), point_mass, 4.0),
    "point-d3-off-centre": (Lattice(h=0.5, d=3, M=32), lambda lat: point_mass(lat, (1, -2, 0), 3.0 - 2.0j), 0.5),
    "gaussian-product-d2": (Lattice(h=0.5, d=2, M=64), _gaussian_outer_product, 1.0),
    "gaussian-product-d3": (Lattice(h=0.5, d=3, M=48), _gaussian_outer_product, 1.0),
}


@pytest.mark.parametrize("r", [math.inf, 4.0])
@pytest.mark.parametrize("case", list(FACTORED_CASES))
def test_factored_time_loop_matches_the_dense_flow(case, r):
    lat, datum, T = FACTORED_CASES[case]
    u0 = datum(lat)
    assert len(harness._axis_factors(u0, "schrodinger")[1]) == lat.d
    t_grid = symmetric_time_grid(T, 8, T / 32.0)
    dense = [lp_norm(_per_sample_flow("schrodinger", u0, float(t)), r) for t in t_grid]
    np.testing.assert_allclose(harness._time_samples("schrodinger", u0, t_grid, r), dense, rtol=1e-12, atol=0)


def test_factored_window_error_matches_the_dense_loop(monkeypatch):
    u0 = point_mass(Lattice(h=1.0, d=2, M=32))
    pair = AdmissiblePair(q=3.0, r=math.inf, d=2)
    with pytest.raises(WindowError) as factored:
        strichartz_norm(u0, pair, 40.0)
    with monkeypatch.context() as mp:
        mp.setattr(harness, "_axis_factors", lambda f, kind: (1.0, [f]))
        with pytest.raises(WindowError) as dense:
            strichartz_norm(u0, pair, 40.0)
    assert str(factored.value) == str(dense.value)
    assert factored.value.largest_valid_t == dense.value.largest_valid_t is not None
    # against the monitor on the dense flow: the failing |t| is out of the window, the one named is inside
    t_fail = float(str(factored.value).split("t=")[1].split(";")[0])
    assert boundary_mass_fraction(_per_sample_flow("schrodinger", u0, t_fail)) > harness.BOUNDARY_THRESHOLD
    inside = _per_sample_flow("schrodinger", u0, factored.value.largest_valid_t)
    assert boundary_mass_fraction(inside) <= harness.BOUNDARY_THRESHOLD


@pytest.mark.parametrize("grid", [[4.0, 2.0, 1.0], [1.0, 1.0], [1.0], [[1.0, 2.0]], [0.0, 1.0], [-1.0, 1.0],
                                  [1.0, np.nan], [1.0, np.inf]],
                         ids=["decreasing", "repeated", "single", "2-D", "zero", "negative", "nan", "inf"])
def test_decay_scan_rejects_bad_time_grid_before_any_transform(grid, transforms, capsys):
    lat = Lattice(h=1.0, d=1, M=64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigurationError, match="time grid"):
            dispersive_decay_scan("schrodinger", decay_data(lat), np.array(grid), N=0.25)
    assert transforms.counts == {"fftn": 0, "ifftn": 0}
    assert "RuntimeWarning" not in capsys.readouterr().err


@pytest.mark.parametrize("grid", [[1.0, 0.5, 0.0, -0.5, -1.0], [0.0, 0.0], [0.0], [[-1.0, 1.0]],
                                  [-1.0, np.nan], [-np.inf, 1.0]],
                         ids=["decreasing", "repeated", "single", "2-D", "nan", "inf"])
def test_strichartz_norm_rejects_bad_time_grid_before_any_transform(grid, transforms, capsys):
    lat = Lattice(h=1.0, d=1, M=64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigurationError, match="time grid"):
            strichartz_norm(point_mass(lat), AdmissiblePair(6.0, math.inf, 1), 1.0, t_grid=np.array(grid))
    assert transforms.counts == {"fftn": 0, "ifftn": 0}
    assert "RuntimeWarning" not in capsys.readouterr().err


@pytest.mark.parametrize("t_min,t_max,n_t", [(-1.0, 100.0, 25), (math.nan, 100.0, 25), (1.0, math.inf, 25),
                                             (0.0, 100.0, 25), (10.0, 1.0, 25), (5.0, 5.0, 25), (1.0, 100.0, 1)])
def test_decay_time_grid_rejects_degenerate_range(t_min, t_max, n_t):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigurationError, match="decay times"):
            decay_time_grid(t_min, t_max, n_t)


# ---------------------------------------------------------------------------
# uniformity scan plumbing

def test_uniformity_scan_single_cell_has_no_fit():
    pair = AdmissiblePair(q=6.0, r=math.inf, d=1)
    scan = uniformity_scan("schrodinger", [0.5], pair, box=32.0, horizon_fraction=0.1, n_t=64)
    assert scan.fits == {}
    assert len(scan.rows) == 1
    assert set(scan.columns) >= {"h", "strichartz", "ratio_with", "ratio_without"}


def test_uniformity_scan_half_wave_mode():
    pair = AdmissiblePair(q=6.0, r=math.inf, d=1)
    scan = uniformity_scan("klein_gordon", [0.5], pair, box=32.0, horizon_fraction=0.1, n_t=64)
    row = scan.rows[0]
    assert row[scan.columns.index("ratio_with")] > 0
    with pytest.raises(ConfigurationError):
        uniformity_scan("klein_gordon", [0.5], AdmissiblePair(q=3.0, r=math.inf, d=2), box=16.0)


# oracle: the derivative loss of each kind's uniform bound, as the uniformity scan wrote it per kind
STATED_WEIGHTS = {
    "schrodinger": lambda u, q: fractional_derivative(u, 0.0 if math.isinf(q) else 1.0 / q),
    "klein_gordon": lambda u, q: bessel_derivative(fractional_derivative(u, 1.0 / 3.0), 1.0),
}


@pytest.mark.parametrize("kind", list(STATED_WEIGHTS))
@pytest.mark.parametrize("q,r", [(6.0, math.inf), (math.inf, 2.0)])
def test_uniformity_scan_weights_each_kind_by_its_stated_derivative_loss(kind, q, r):
    pair = AdmissiblePair(q=q, r=r, d=1)
    scan = uniformity_scan(kind, [1.0, 0.5], pair, box=32.0, horizon_fraction=0.1, n_t=64)
    for h, rhs_with in zip(scan.column("h"), scan.column("rhs_with")):
        u0 = point_mass(Lattice.for_box(h, 1, 32.0))
        u0 = u0 * (1.0 / lp_norm(u0, 2))
        np.testing.assert_allclose(rhs_with, lp_norm(STATED_WEIGHTS[kind](u0, q), 2), rtol=1e-14, atol=0)


def _dense_uniformity_row(kind, h, pair, box, data, horizon_fraction, n_t):
    """One uniformity cell on the M^d datum: ``strichartz_norm`` of the normalised point mass or Gaussian
    on the d-dimensional lattice, and its weighted and plain L^2 norms from the full-grid fftn."""
    lat = Lattice.for_box(h, pair.d, box)
    u0 = point_mass(lat) if data == "point" else gaussian(lat, box / 16.0)
    u0 = u0 * (1.0 / lp_norm(u0, 2))
    T = horizon_fraction * box * h
    grid = symmetric_time_grid(T, n_t, h * h / 16.0)
    S = strichartz_norm(u0, pair, T, t_grid=grid, kind=kind)
    w = harness.dispersion(kind, pair.d).weight(continuum_symbol_grid(lat), pair.q)
    rhs_with = math.sqrt(lat.cell_volume / lat.site_count * float(np.vdot(w**2, np.abs(np.fft.fftn(u0.values)) ** 2)))
    rhs_without = lp_norm(u0, 2)
    return [h, lat.M, T, S, rhs_with, rhs_without, S / rhs_with, S / rhs_without]


@pytest.mark.parametrize("data", ["point", "gaussian"])
@pytest.mark.parametrize("pair,box", [(AdmissiblePair(q=6.0, r=4.0, d=2), 32.0),
                                      (AdmissiblePair(q=3.0, r=math.inf, d=2), 32.0),
                                      (AdmissiblePair(q=4.0, r=4.0, d=3), 16.0)])
def test_factored_uniformity_cells_match_the_dense_cell(pair, box, data):
    h_list = [1.0, 0.5]
    scan = uniformity_scan("schrodinger", h_list, pair, box=box, data=data, horizon_fraction=0.05, n_t=64)
    for row, h in zip(scan.rows, h_list):
        np.testing.assert_allclose(row, _dense_uniformity_row("schrodinger", h, pair, box, data, 0.05, 64),
                                   rtol=1e-13, atol=0)


def test_scan_result_fits_only_positive_columns():
    rows = [[1.0, 2.0, 0.0], [0.5, 4.0, 1.0]]
    scan = scan_result("demo", [1.0, 0.5], lambda i, h: rows[i], ["h", "up", "degenerate"], {},
                       {"up": "up", "flat": "degenerate"})
    assert set(scan.fits) == {"up"}
    assert scan.fits["up"]["slope"] == pytest.approx(1.0)
    assert scan_result("demo", [1.0], lambda i, h: rows[i], ["h", "up", "degenerate"], {}, {"up": "up"}).fits == {}


def test_scan_result_skips_non_finite_columns():
    rows = [[1.0, 2.0, math.inf, math.nan], [0.5, 4.0, 1.0, 1.0]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scan = scan_result("demo", [1.0, 0.5], lambda i, h: rows[i], ["h", "up", "infinite", "nan"], {},
                           {"up": "up", "infinite": "infinite", "nan": "nan"})
    assert set(scan.fits) == {"up"}


def test_scan_drivers_reject_empty_spacing_list():
    with pytest.raises(ConfigurationError, match="no cells"):
        scan_result("demo", [], lambda i, h: [h], ["h"], {}, {})
    with pytest.raises(ConfigurationError, match="no cells"):
        uniformity_scan("schrodinger", [], AdmissiblePair(q=6.0, r=math.inf, d=1))
    with pytest.raises(ConfigurationError, match="unknown flow kind"):  # the kind is checked first
        uniformity_scan("wave", [], AdmissiblePair(q=6.0, r=math.inf, d=1))
    with pytest.raises(ConfigurationError, match="no cells"):
        inequality_constant_scan("bernstein", [], q=math.inf)
    with pytest.raises(ConfigurationError, match="no cells"):
        knapp_h_sharpness([], 0.125, AdmissiblePair(q=8.0, r=8.0, d=1))
    with pytest.raises(ConfigurationError, match="no cells"):
        uniform_bound_experiment([], continuum_gaussian())
    with pytest.raises(ConfigurationError, match="no cells"):
        interpolation_constant([])


def test_spacing_drivers_reject_zero_spacing():
    drivers = [
        lambda: uniformity_scan("schrodinger", [0.0], AdmissiblePair(q=6.0, r=math.inf, d=1)),
        lambda: inequality_constant_scan("bernstein", [0.0], q=math.inf),
        lambda: interpolation_constant([0.0]),
        lambda: uniform_bound_experiment([0.0], continuum_gaussian()),
        lambda: knapp_experiment(0.0, 0.04, 0.125, AdmissiblePair(q=8.0, r=8.0, d=1), M=4096),
    ]
    for driver in drivers:
        with pytest.raises(ValueError, match="spacing h must be positive"):
            driver()


@pytest.mark.parametrize("n_t", [1, 2, 63])
def test_uniformity_scan_keeps_the_quadrature_floor(n_t, transforms):
    with pytest.raises(ConfigurationError, match="n_t >= 64"):
        uniformity_scan("schrodinger", [0.5], AdmissiblePair(q=6.0, r=math.inf, d=1), box=32.0, n_t=n_t)
    assert transforms.counts == {"fftn": 0, "ifftn": 0}


@pytest.mark.parametrize("horizon_fraction", [1e-4, 1 / 1024])
def test_uniformity_scan_rejects_a_horizon_at_or_below_the_first_node(horizon_fraction):
    """T = horizon_fraction * box * h at or below the first node h^2/16 gives no increasing time grid."""
    with pytest.raises(ConfigurationError, match="strictly increasing"):
        uniformity_scan("schrodinger", [1.0], AdmissiblePair(q=3.0, r=math.inf, d=2), box=64.0,
                        horizon_fraction=horizon_fraction)


def test_decay_scan_rejects_a_band_below_the_smallest_scale_before_any_transform(transforms):
    lat = Lattice(h=1.0, d=1, M=64)
    with pytest.raises(ConfigurationError, match=r"band scale N=0\.0078125 is below the smallest band scale 0\.015625"):
        dispersive_decay_scan("schrodinger", decay_data(lat), decay_time_grid(1.0, 2.0, 3), N=1 / 128)
    assert transforms.counts == {"fftn": 0, "ifftn": 0}


# every entry point that takes a flow kind reads it through propagators.dispersion, before any transform
KIND_ENTRY_POINTS = {
    "PhaseSpec": lambda kind, lat: PhaseSpec(kind, lat),
    "degenerate_points": lambda kind, lat: degenerate_points(kind, lat.h),
    "strichartz_norm": lambda kind, lat: strichartz_norm(point_mass(lat), AdmissiblePair(q=math.inf, r=2.0, d=lat.d),
                                                         1.0, kind=kind),
    "dispersive_decay_scan": lambda kind, lat: dispersive_decay_scan(kind, decay_data(lat),
                                                                     decay_time_grid(1.0, 2.0, 3), N=0.25),
    "uniformity_scan": lambda kind, lat: uniformity_scan(kind, [1.0], AdmissiblePair(q=math.inf, r=2.0, d=lat.d),
                                                         box=16.0),
}
# degenerate_points is per axis and takes no dimension, so only the unknown kind applies to it
KIND_CASES = [(entry, "wave", 1, "unknown flow kind") for entry in KIND_ENTRY_POINTS] + [
    (entry, "klein_gordon", 2, "d = 1") for entry in KIND_ENTRY_POINTS if entry != "degenerate_points"]


@pytest.mark.parametrize("entry,kind,d,message", KIND_CASES,
                         ids=[f"{entry}-{kind}-d{d}" for entry, kind, d, _ in KIND_CASES])
def test_flow_kind_entry_points_reject_bad_kinds_before_any_transform(entry, kind, d, message, transforms):
    with pytest.raises(ConfigurationError, match=message):
        KIND_ENTRY_POINTS[entry](kind, Lattice(h=1.0, d=d, M=16))
    assert transforms.counts == {"fftn": 0, "ifftn": 0}


def test_uniformity_scan_rejects_unknown_data():
    pair = AdmissiblePair(q=6.0, r=math.inf, d=1)
    with pytest.raises(ConfigurationError, match="data"):
        uniformity_scan("schrodinger", [0.5], pair, box=32.0, data="uniform", n_t=64)


# ---------------------------------------------------------------------------
# ensembles and constant scans

def test_random_ensemble_bounds_its_size_before_any_draw():
    lat = Lattice(h=1.0, d=2, M=64)
    size = MAX_SITES // lat.site_count + 1
    tracemalloc.start()
    try:
        with pytest.raises(ConfigurationError, match=f"^ensemble = {size} fields of 4096 sites exceeds MAX_SITES"):
            random_ensemble(lat, size, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_random_ensemble_is_deterministic_and_mean_zero():
    lat = Lattice(h=0.5, d=1, M=64)
    a = random_ensemble(lat, 8, seed=3, cell_key=1)
    b = random_ensemble(lat, 8, seed=3, cell_key=1)
    for fa, fb in zip(a, b):
        np.testing.assert_array_equal(fa.values, fb.values)
    for f in a:
        assert abs(f.values.mean()) < 1e-12
    c = random_ensemble(lat, 8, seed=4, cell_key=1)
    assert any(np.abs(fa.values - fc.values).max() > 1e-8 for fa, fc in zip(a, c))


def test_bernstein_contraction_at_p_equals_q():
    scan = inequality_constant_scan("bernstein", [1.0, 0.5], box=16.0, d=1,
                                    p=2.0, q=2.0, ensemble=12, seed=0)
    for row in scan.rows:
        assert row[scan.columns.index("max_ratio")] <= 1.0 + 1e-10


def test_constant_scan_validates_hypotheses():
    with pytest.raises(ConfigurationError, match="theta"):
        inequality_constant_scan("gagliardo_nirenberg", [1.0], d=1, p=2.0, q=4.0, s=1.0, theta=1.5)
    with pytest.raises(ConfigurationError, match="1/q = 1/p - theta"):
        inequality_constant_scan("gagliardo_nirenberg", [1.0], d=1, p=2.0, q=4.0, s=1.0, theta=0.3)
    with pytest.raises(ConfigurationError, match="1 < p < q"):
        inequality_constant_scan("sobolev_endpoint", [1.0], d=1, p=1.0, q=2.0, s=0.5)
    with pytest.raises(ConfigurationError):
        inequality_constant_scan("no_such_kind", [1.0])


def test_gagliardo_nirenberg_scan_bounded():
    # 1/q = 1/p - theta*s/d with p=2, s=1, theta=1/2, q=inf in d=1
    scan = inequality_constant_scan("gagliardo_nirenberg", [1.0, 0.5, 0.25], box=16.0, d=1,
                                    p=2.0, q=math.inf, s=1.0, theta=0.5, ensemble=16, seed=1)
    maxima = scan.column("max_ratio")
    assert np.all(maxima > 0)
    assert maxima.max() / maxima.min() < 2.0


def test_norm_equivalence_scan_two_sided():
    scan = inequality_constant_scan("norm_equivalence", [1.0, 0.5], box=16.0, d=1,
                                    p=2.0, s=1.0, ensemble=12, seed=2)
    hi = scan.column("max_ratio_power")
    lo = scan.column("min_ratio_power")
    assert np.all(hi >= lo)
    # p = 2 sandwich from the symbol comparison: ratios within [2/pi, 1]
    assert np.all(hi <= 1.0 + 1e-10)
    assert np.all(lo >= 2.0 / np.pi - 1e-10)


def test_square_function_scan_two_sided():
    scan = inequality_constant_scan("square_function", [1.0, 0.5], box=16.0, d=1,
                                    p=2.0, ensemble=12, seed=3)
    hi = scan.column("max_ratio")
    lo = scan.column("min_ratio")
    assert np.all((lo > 0) & (hi >= lo) & (hi < 2.0))


# ---------------------------------------------------------------------------
# band filter bank against the per-band path: one symbol build and FFT pair per band and field

def _random_ensemble_reference(lattice, size, seed, cell_key=0):
    """The ensemble with its per-member low-pass loop: one band_symbol per kept band and member."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, cell_key]))
    scales = band_scales(lattice)
    out = []

    def normalize(v):
        v = v - v.mean()
        scale = float(np.abs(v).max())
        if scale > 0.0:
            out.append(GridFunction(lattice, v / scale))

    normalize(point_mass(lattice).values.astype(complex))
    F = np.zeros(lattice.shape, dtype=complex)
    kc, w = lattice.M // 4, max(1, lattice.M // 16)
    F[tuple([slice(kc - w // 2, kc + w // 2 + 1)] * lattice.d)] = 1.0
    normalize(np.fft.ifftn(F))
    while len(out) < size:
        noise = rng.standard_normal(lattice.shape) + 1j * rng.standard_normal(lattice.shape)
        N = scales[rng.integers(max(1, len(scales) // 2), len(scales))]
        sym = np.zeros(lattice.shape)
        for Nn in scales:
            if Nn <= N:
                sym += band_symbol(lattice, Nn)
        normalize(np.fft.ifftn(sym * np.fft.fftn(noise)))
    return out[:size]


def _constants_row_reference(kind, lat, fields, p, q):
    """One bernstein or square_function scan row with a band_projection per band and field."""
    ratios = []
    for f in fields:
        denom = lp_norm(f, p)
        if kind == "bernstein":
            best = 0.0
            for N in band_scales(lat):
                if N * lat.M < 4:
                    continue
                lhs = lp_norm(band_projection(f, N), q)
                rhs = (N / lat.h) ** (lat.d * (1.0 / p - (0.0 if math.isinf(q) else 1.0 / q))) * denom
                if rhs > 0:
                    best = max(best, lhs / rhs)
            ratios.append(best)
        elif denom > 0:
            acc = np.zeros(lat.shape)
            for N in band_scales(lat):
                acc += np.abs(band_projection(f, N).values) ** 2
            ratios.append(lp_norm(GridFunction(lat, np.sqrt(acc)), p) / denom)
    return [lat.h, lat.M, max(ratios), min(ratios)]


@pytest.mark.parametrize("d,M", [(1, 64), (2, 16)])
def test_random_ensemble_matches_per_band_low_pass(d, M):
    lat = Lattice(h=0.5, d=d, M=M)
    for seed, key in [(0, 0), (3, 1), (11, 4)]:
        got = random_ensemble(lat, 12, seed, cell_key=key)
        want = _random_ensemble_reference(lat, 12, seed, cell_key=key)
        assert len(got) == len(want) == 12
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a.values, b.values)


@pytest.mark.parametrize("d,M,size", [(2, 32, 40), (1, 8192, 6), (1, 16384, 4), (2, 128, 4)],
                         ids=["several-blocks", "below-threshold", "threshold-d1", "threshold-d2"])
def test_random_ensemble_blocks_match_per_band_low_pass(d, M, size):
    """Draws spread over several blocks (16 rows each), and rows of 256 KiB, where numpy's
    temporary elision swaps the low-pass product's operands."""
    lat = Lattice(h=0.5, d=d, M=M)
    got = random_ensemble(lat, size, 5, cell_key=2)
    want = _random_ensemble_reference(lat, size, 5, cell_key=2)
    assert len(got) == len(want) == size
    for a, b in zip(got, want):
        assert np.array_equal(a.values, b.values)


@pytest.mark.parametrize("kind,d,p,q", [("bernstein", 1, 2.0, math.inf), ("bernstein", 2, 1.5, 4.0),
                                        ("square_function", 1, 2.0, None), ("square_function", 2, 3.0, None)])
def test_band_scan_rows_match_per_band_path(kind, d, p, q):
    h_list, box, ensemble, seed = [1.0, 0.5, 0.25], 16.0 if d == 1 else 8.0, 10, 5
    scan = inequality_constant_scan(kind, h_list, box=box, d=d, p=p, q=q, ensemble=ensemble, seed=seed)
    for idx, (h, row) in enumerate(zip(h_list, scan.rows)):
        lat = Lattice.for_box(h, d, box)
        fields = _random_ensemble_reference(lat, ensemble, seed, cell_key=idx)
        assert row == _constants_row_reference(kind, lat, fields, p, q)


@pytest.mark.parametrize("kind,q", [("bernstein", 4.0), ("square_function", None)])
def test_band_rows_straddling_blocks_match_per_band_path(kind, q, transforms):
    """Bands of one field split across two blocks: at M = 16 in d = 2, 64 rows per block, 3 kept
    bernstein bands or 5 square-function bands per field, and 30 fields."""
    lat, ensemble, seed = Lattice.for_box(0.5, 2, 8.0), 30, 2
    kept = sum(N * lat.M >= 4 for N in band_scales(lat)) if kind == "bernstein" else len(band_scales(lat))
    assert transforms.rows_per_block(lat) % kept and ensemble * kept > transforms.rows_per_block(lat)
    scan = inequality_constant_scan(kind, [0.5], box=8.0, d=2, p=1.5, q=q, ensemble=ensemble, seed=seed)
    fields = _random_ensemble_reference(lat, ensemble, seed, cell_key=0)
    assert scan.rows[0] == _constants_row_reference(kind, lat, fields, 1.5, q)


@pytest.mark.parametrize("kind,q", [("bernstein", math.inf), ("square_function", None)])
def test_band_loops_build_one_bank_and_transform_each_field_once(kind, q, monkeypatch, transforms):
    built = {"band_symbol": 0, "band_bank": 0}
    for module, name in [(spectral, "band_symbol"), (harness, "band_bank")]:
        def counted(*args, _name=name, _fn=getattr(module, name), **kwargs):
            built[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    lat, ensemble = Lattice.for_box(0.5, 2, 16.0), 9
    scales = band_scales(lat)
    random_ensemble(lat, ensemble, 1, cell_key=0)
    assert built == {"band_symbol": len(scales), "band_bank": 1}
    in_ensemble = dict(transforms.points)
    built.update(band_symbol=0, band_bank=0)
    transforms.reset()
    inequality_constant_scan(kind, [0.5], box=16.0, d=2, p=2.0, q=q, ensemble=ensemble, seed=1)
    assert built["band_bank"] == 1  # one bank for the ensemble's low-pass and the band loop
    assert built["band_symbol"] <= built["band_bank"] * len(scales)
    kept = len(scales) if kind == "square_function" else sum(N * lat.M >= 4 for N in scales)
    n = lat.site_count
    assert transforms.points == {"fftn": in_ensemble["fftn"] + ensemble * n,
                                 "ifftn": in_ensemble["ifftn"] + ensemble * kept * n}
    transforms.assert_row_blocks()


@pytest.mark.parametrize("kind,exponents", [
    ("bernstein", {"q": math.inf}), ("square_function", {}),
    ("gagliardo_nirenberg", {"q": math.inf, "s": 1.0, "theta": 0.5}), ("sobolev_endpoint", {"q": 4.0, "s": 0.25}),
    ("norm_equivalence", {"s": 0.5})])
def test_constant_scans_build_one_band_bank_per_cell(kind, exponents, monkeypatch):
    built = []
    monkeypatch.setattr(harness, "band_bank", lambda lat, _fn=harness.band_bank: built.append(lat) or _fn(lat))
    h_list = [1.0, 0.5, 0.25]
    inequality_constant_scan(kind, h_list, box=8.0, p=2.0, ensemble=4, seed=2, **exponents)
    assert built == [Lattice.for_box(h, 1, 8.0) for h in h_list]


def _weighted_row_reference(kind, lat, fields, p, q, s, theta):
    """One gagliardo_nirenberg, sobolev_endpoint or norm_equivalence scan row with a fractional_derivative or
    laplacian_power per weighted norm and field."""
    ratios = []
    for f in fields:
        weighted = lp_norm(fractional_derivative(f, s), p)
        if kind == "gagliardo_nirenberg":
            rhs = lp_norm(f, p) ** (1.0 - theta) * weighted**theta
            if rhs > 0:
                ratios.append(lp_norm(f, q) / rhs)
        elif kind == "sobolev_endpoint":
            if weighted > 0:
                ratios.append(lp_norm(f, q) / weighted)
        else:
            first = lp_norm(fractional_derivative(f, 1.0), p)
            differences = sum(lp_norm(forward_difference(f, ax), p) for ax in range(lat.d))
            if weighted > 0 and first > 0:
                ratios.append((lp_norm(laplacian_power(f, s), p) / weighted, differences / first))
    if kind == "norm_equivalence":
        power, difference = zip(*ratios)
        return [lat.h, lat.M, max(power), min(power), max(difference), min(difference)]
    return [lat.h, lat.M, max(ratios), min(ratios)]


# kind, d, spacings, box, exponents; in d = 2 the spacing 1/16 gives M = 128, whose rows are 256 KiB
WEIGHTED_CASES = {
    "gn-d1": ("gagliardo_nirenberg", 1, [1.0, 0.5, 0.25], 16.0, dict(p=2.0, q=math.inf, s=1.0, theta=0.5)),
    "gn-d2": ("gagliardo_nirenberg", 2, [1.0, 0.0625], 8.0, dict(p=2.0, q=4.0, s=1.0, theta=0.5)),
    "sobolev-d1": ("sobolev_endpoint", 1, [1.0, 0.5, 0.25], 16.0, dict(p=2.0, q=4.0, s=0.25)),
    "sobolev-d2": ("sobolev_endpoint", 2, [0.5, 0.0625], 8.0, dict(p=1.5, q=3.0, s=2.0 / 3.0)),
    "equivalence-d1": ("norm_equivalence", 1, [1.0, 0.5, 0.25], 16.0, dict(p=3.0, s=0.5)),
    "equivalence-d1-negative": ("norm_equivalence", 1, [1.0, 0.5, 0.25], 16.0, dict(p=1.5, s=-0.5)),
    "equivalence-d2-negative": ("norm_equivalence", 2, [0.5, 0.0625], 8.0, dict(p=4.0 / 3.0, s=-0.5)),
}


@pytest.mark.parametrize("case", list(WEIGHTED_CASES))
def test_weighted_scan_rows_equal_the_per_field_path(case):
    kind, d, h_list, box, exponents = WEIGHTED_CASES[case]
    exponents = {"q": None, "theta": None, **exponents}
    ensemble, seed = 6, 8
    scan = inequality_constant_scan(kind, h_list, box=box, d=d, ensemble=ensemble, seed=seed, **exponents)
    for idx, (h, row) in enumerate(zip(h_list, scan.rows)):
        lat = Lattice.for_box(h, d, box)
        fields = random_ensemble(lat, ensemble, seed, cell_key=idx)
        assert row == _weighted_row_reference(kind, lat, fields, **exponents)


def test_weighted_scan_reads_each_field_once(transforms):
    lat, ensemble = Lattice.for_box(0.5, 2, 8.0), 5
    random_ensemble(lat, ensemble, 1, cell_key=0)
    in_ensemble = dict(transforms.points)
    transforms.reset()
    inequality_constant_scan("norm_equivalence", [0.5], box=8.0, d=2, p=2.0, s=0.5, ensemble=ensemble, seed=1)
    # three weighted norms per field: |xi|^s, the lattice Laplacian's power and |xi|
    n = lat.site_count
    assert transforms.points == {"fftn": in_ensemble["fftn"] + ensemble * n,
                                 "ifftn": in_ensemble["ifftn"] + 3 * ensemble * n}
    transforms.assert_row_blocks()


def test_negative_order_scan_rejects_a_field_that_is_not_mean_zero_before_any_transform(monkeypatch, transforms):
    lat = Lattice.for_box(0.5, 1, 16.0)
    monkeypatch.setattr(harness, "random_ensemble", lambda *args, **kwargs: [point_mass(lat)])
    with pytest.raises(ValueError, match="mean-zero"):
        inequality_constant_scan("norm_equivalence", [0.5], box=16.0, d=1, p=2.0, s=-0.5, ensemble=1)
    assert transforms.counts == {"fftn": 0, "ifftn": 0}


@pytest.mark.parametrize("kind,exponents,message", [
    ("norm_equivalence", dict(s=-400.0), "norm overflows at s = -400.0"),
    ("norm_equivalence", dict(s=1e6), "overflows at the order s = 1000000.0"),
    ("norm_equivalence", dict(s=math.nan), "s must be finite"),
    ("gagliardo_nirenberg", dict(q=math.inf, s=math.nan, theta=0.5), "s must be finite"),
    ("sobolev_endpoint", dict(q=4.0, s=math.inf), "s must be finite"),
], ids=["norm-overflow", "symbol-overflow", "nan", "gn-nan", "sobolev-inf"])
def test_constant_scan_names_a_bad_or_overflowing_order(kind, exponents, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            inequality_constant_scan(kind, [1.0, 0.5], box=16.0, d=1, p=2.0, ensemble=4, seed=0, **exponents)


# ---------------------------------------------------------------------------
# sharpness experiment

def _knapp_axis_norm_reference(h, d1, center, rp, x_window):
    """Direct sum of the Knapp axis norm at one centre, one sine per lattice point."""
    n_win = int(math.ceil(x_window / (d1 * h)))
    j_center = round(center / h)
    x_rel = (j_center + np.arange(-n_win, n_win + 1)) * h - center
    with np.errstate(invalid="ignore", divide="ignore"):
        vals = np.abs(np.sin(d1 * x_rel) / np.where(x_rel == 0.0, 1.0, x_rel))
    vals = np.where(x_rel == 0.0, d1, vals)
    return float((h * np.sum(vals**rp)) ** (1.0 / rp))


@pytest.mark.parametrize("h, eps, x_window", [(0.5, 0.04, 64.0), (0.3, 0.05, 64.0), (1.0 / 3.0, 0.1, 32.0)])
@pytest.mark.parametrize("rp", [8.0 / 7.0, 4.0 / 3.0, 2.0])
def test_knapp_axis_norms_match_direct_sum(h, eps, x_window, rp):
    d1 = eps / h
    rng = np.random.default_rng(8)
    sites = h * np.array([0, 1, -7, 40_000, -123_457])
    centers = np.concatenate([
        rng.uniform(-1e4, 1e4, 12),  # off the lattice
        sites,  # on a site: the x - c = 0 point
        sites + h / 2.0,
        sites - h / 2.0,
    ])
    on_site = slice(12, 12 + sites.size)
    assert np.all(centers[on_site] - h * np.round(centers[on_site] / h) == 0.0)
    expected = [_knapp_axis_norm_reference(h, d1, c, rp, x_window) for c in centers]
    np.testing.assert_allclose(_knapp_axis_norms(h, d1, centers, rp, x_window), expected, rtol=1e-12, atol=0)


@st.composite
def knapp_fold_cases(draw):
    """h, d1 = eps/h with eps admissible, rp in (1, 2], x_window, and centres on, half-way and off the sites."""
    h = draw(st.floats(0.05, 2.0))
    eps = draw(st.floats(0.02, 1.0)) * math.pi * h * h / 2.0
    rp = draw(st.sampled_from((8.0 / 7.0, 4.0 / 3.0, 2.0)) | st.floats(1.01, 2.0))
    offsets = st.sampled_from((0.0, 0.5, -0.5)) | st.floats(-0.5, 0.5)
    centres = st.tuples(st.integers(-10**4, 10**4), offsets).map(lambda jo: (jo[0] + jo[1]) * h)
    centers = np.array(draw(st.lists(centres, min_size=1, max_size=6)))
    return h, eps / h, centers, rp, draw(st.floats(4.0, 32.0))


@settings(max_examples=100)
@given(knapp_fold_cases())
def test_knapp_axis_norms_are_even_in_the_centre(case):
    h, d1, centers, rp, x_window = case
    both = np.concatenate([centers, -centers])
    norms = _knapp_axis_norms(h, d1, both, rp, x_window)
    np.testing.assert_allclose(norms[:centers.size], norms[centers.size:], rtol=1e-13, atol=0)
    expected = [_knapp_axis_norm_reference(h, d1, c, rp, x_window) for c in both]
    np.testing.assert_allclose(norms, expected, rtol=1e-12, atol=0)
    # repeated centres, shuffled: each result lands at its own input position
    order = np.random.default_rng(centers.size).permutation(2 * both.size) % both.size
    singles = [_knapp_axis_norms(h, d1, both[i:i + 1], rp, x_window)[0] for i in order]
    np.testing.assert_array_equal(_knapp_axis_norms(h, d1, both[order], rp, x_window), singles)


def test_knapp_right_norm_d2_matches_direct_sum():
    pair = AdmissiblePair(q=6.0, r=4.0, d=2)
    h, eps, x_window = 0.5, 0.04, 16.0
    a, d1, qp = eps**3 / h**2, eps / h, pair.q_conjugate
    # linspace leaves the second grid slightly asymmetric; the experiment antisymmetrises it
    for u_window, n_t, symmetric in [(40.0, 81, True), (7.3, 1001, False)]:
        rep = knapp_experiment(h, eps, 0.1, pair, M=256, u_window=u_window, n_t=n_t, x_window=x_window)
        us = np.linspace(-u_window, u_window, n_t)
        assert np.array_equal(us, -us[::-1]) == symmetric
        us = 0.5 * (us - us[::-1])
        ts = us / a
        tf = np.array([a if u == 0.0 else abs(math.sin(u) / t) for u, t in zip(us, ts)])
        xnorms = np.array([_knapp_axis_norm_reference(h, d1, 2.0 * t / h, pair.r_conjugate, x_window) ** 2
                           for t in ts])
        expected = np.trapezoid((tf * xnorms) ** qp, ts) ** (1.0 / qp)
        assert rep.right_norm == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("h", [1.0, 0.5, 0.3])
@pytest.mark.parametrize("share", [0.02, 0.3, 1.0])  # eps as a share of its largest admissible value pi h^2 / 2
@pytest.mark.parametrize("x_window", [4.0, 64.0, 512.0])
def test_knapp_window_tables_equal_their_full_window_evaluation(h, share, x_window):
    # the half-window tables, mirrored, hold the full window's bits: a libm whose sine is not exactly odd fails here
    d1 = share * math.pi * h / 2.0
    n_win = int(math.ceil(x_window / (d1 * h)))
    xk, sk, ck = harness._knapp_window(h, d1, x_window, cosines=True)
    bits = np.uint64
    np.testing.assert_array_equal(xk.view(bits), (np.arange(-n_win, n_win + 1) * h).view(bits))
    np.testing.assert_array_equal(sk.view(bits), np.sin(d1 * xk).view(bits))
    np.testing.assert_array_equal(ck.view(bits), np.cos(d1 * xk).view(bits))
    _, sines, cosines = harness._knapp_window(h, d1, x_window, cosines=False)
    assert cosines is None and np.array_equal(sines.view(bits), sk.view(bits))


def _knapp_left_side_full_axis(h, eps, s, d, M):
    """The left side's norm and surface point count as the full dual axis, masked to the block."""
    axis_xi = Lattice(h=h, d=d, M=M).axis_frequencies()
    axis_xi = axis_xi[np.abs((0.5 * h * axis_xi - np.pi / 4.0) / eps) < 1.0]
    grids = np.meshgrid(*[axis_xi] * d, indexing="ij", sparse=True)
    om = sum(spectral.lattice_symbol(g, h) for g in grids)
    arg = (h**2 / eps**3) * (-om + d * (2.0 - np.pi) / h**2 + (2.0 / h) * sum(grids))
    K = np.abs(arg) < 1.0
    r2 = sum(g**2 for g in grids)[K]
    with np.errstate(over="ignore", divide="ignore"):
        left = float(np.sqrt(np.sum(r2[r2 > 0] ** (-s))) / (h * M) ** (d / 2.0))
    return left, int(np.count_nonzero(K))


@pytest.mark.parametrize("d, M", [(1, 4096), (1, 4094), (2, 256), (2, 254)])
@pytest.mark.parametrize("h", [1.0, 0.5, 0.25])
@pytest.mark.parametrize("share", [0.02, 0.2, 1.0])  # eps as a share of pi h^2 / 2
def test_knapp_left_side_equals_the_masked_full_axis(d, M, h, share):
    eps = share * math.pi * h * h / 2.0
    pair = AdmissiblePair(q=6.0, r=4.0, d=2) if d == 2 else AdmissiblePair(q=8.0, r=8.0, d=1)
    left, points = _knapp_left_side_full_axis(h, eps, 0.1, d, M)
    run = lambda: knapp_experiment(h, eps, 0.1, pair, M=M, u_window=40.0, n_t=81, x_window=8.0)
    if not 0 < left < math.inf:  # a block that misses the surface is rejected on both paths
        with pytest.raises(ConfigurationError, match="misses the surface"):
            run()
        return
    rep = run()
    assert rep.left_norm == left and rep.metadata["surface_points"] == points


@pytest.mark.parametrize("M", [63, 64, 65, 1000, 1001])
@pytest.mark.parametrize("h, eps", [(1.0, 0.01), (1.0, 0.7), (1.0, math.pi / 2.0), (0.5, 0.3), (0.25, 0.0981)])
def test_knapp_block_frequencies_equal_the_masked_fft_axis(M, h, eps):
    # odd M too (the lattice itself takes only even M): the index range is clipped to -(M//2) ... (M-1)//2
    axis_xi = 2.0 * np.pi * np.fft.fftfreq(M) / h
    expected = axis_xi[np.abs((0.5 * h * axis_xi - np.pi / 4.0) / eps) < 1.0]
    block = harness._knapp_block_frequencies(h, eps, M)
    np.testing.assert_array_equal(block.view(np.uint64), expected.view(np.uint64))
    if eps > math.pi / 4.0:  # the block reaches k < 0, which FFT order puts after every k >= 0
        assert block[0] >= 0.0 > block.min()


def _knapp_axis_norms_by_magnitude(h, d1, centers, rp, x_window):
    """The axis-norm kernel folded by |c| alone, one pass per distinct |c|: the oracle for the offset fold."""
    n_win = int(math.ceil(x_window / (d1 * h)))
    xk = np.arange(-n_win, n_win + 1) * h
    sk = np.sin(d1 * xk)
    ck = np.cos(d1 * xk)
    num = np.empty_like(xk)
    den = np.empty_like(xk)
    magnitudes, inverse = np.unique(np.abs(centers), return_inverse=True)
    deltas = magnitudes - h * np.round(magnitudes / h)
    norms = np.empty(deltas.size)
    with np.errstate(invalid="ignore"):
        for i, delta in enumerate(deltas):
            np.multiply(sk, math.cos(d1 * delta), out=num)
            np.multiply(ck, math.sin(d1 * delta), out=den)
            np.subtract(num, den, out=num)
            np.subtract(xk, delta, out=den)
            np.divide(num, den, out=num)
            if delta == 0.0:
                num[n_win] = d1
            np.abs(num, out=num)
            np.power(num, rp, out=num)
            norms[i] = num.sum()
    return (h * norms[inverse]) ** (1.0 / rp)


class _CountingMath:
    """Stands in for ``math`` inside the harness; the axis kernel takes one cosine per pass."""

    def __init__(self):
        self.cos_calls = 0

    def __getattr__(self, name):
        return getattr(math, name)

    def cos(self, x):
        self.cos_calls += 1
        return math.cos(x)


def _knapp_kernel_calls(monkeypatch, experiment):
    """Run ``experiment``; return each axis-kernel call's arguments and the kernel passes it made."""
    counting = _CountingMath()
    calls = []
    kernel = harness._knapp_axis_norms

    def recording(*args):
        before = counting.cos_calls
        result = kernel(*args)
        calls.append((args, counting.cos_calls - before))
        return result

    monkeypatch.setattr(harness, "math", counting)
    monkeypatch.setattr(harness, "_knapp_axis_norms", recording)
    experiment()
    monkeypatch.undo()
    return calls


@pytest.mark.parametrize("eps", [0.04, 0.02, 0.01])
def test_knapp_kernel_runs_once_per_distinct_offset(eps, monkeypatch):
    # criterion 08's cell: the centre step 0.8/eps^3 is a whole number of sites, so every centre is one
    pair = AdmissiblePair(q=8.0, r=8.0, d=1)
    ((args, passes),) = _knapp_kernel_calls(monkeypatch, lambda: knapp_experiment(0.5, eps, 0.125, pair, M=2**15))
    centers = args[2]
    assert np.unique(np.abs(centers)).size == 751 and passes == 1
    np.testing.assert_array_equal(_knapp_axis_norms(*args), _knapp_axis_norms_by_magnitude(*args))


def _knapp_raw_time_grid(h, eps, u_window=300.0, n_t=1501):
    """The right side's samples as ``knapp_experiment`` computes them before the snap: a = eps^3/h^2, ts,
    |sin(a t)/t| and the unsnapped centres 2t/h."""
    a = float(np.float64(eps) ** 3 / h**2)
    us = np.linspace(-u_window, u_window, n_t)
    us = 0.5 * (us - us[::-1])
    ts = us / a
    tf = np.where(us == 0.0, a, np.abs(np.sin(us) / np.where(us == 0.0, 1.0, ts)))
    return a, ts, tf, 2.0 * ts / h


@pytest.mark.parametrize("eps", [0.04, 0.02, 0.01])
def test_knapp_snap_moves_centres_within_their_rounding_and_keeps_the_right_norm(eps, monkeypatch):
    h, s, pair = 0.5, 0.125, AdmissiblePair(q=8.0, r=8.0, d=1)
    ((args, _),) = _knapp_kernel_calls(monkeypatch, lambda: knapp_experiment(h, eps, s, pair, M=2**15))
    rep = knapp_experiment(h, eps, s, pair, M=2**15)
    _, d1, snapped, rp, x_window = args
    a, ts, tf, raw = _knapp_raw_time_grid(h, eps)
    assert np.array_equal(snapped, h * np.round(raw / h))
    bound = 8.0 * np.spacing(300.0) / (a * h)  # four rounding units 2 ulp(u_window) / (a h) of a centre
    assert np.abs(snapped - raw).max() <= bound and np.count_nonzero(snapped != raw) > 700
    raw_norms = _knapp_axis_norms(h, d1, raw, rp, x_window)
    np.testing.assert_array_max_ulp(_knapp_axis_norms(*args), raw_norms, maxulp=1)
    assert harness._time_norm(tf * raw_norms, ts, pair.q_conjugate) == rep.right_norm


def test_knapp_snap_moves_no_centre_at_the_coupled_eps(monkeypatch):
    pair = AdmissiblePair(q=8.0, r=8.0, d=1)
    h_list = [0.5, 0.25, 0.125]
    calls = _knapp_kernel_calls(monkeypatch, lambda: knapp_h_sharpness(h_list, 0.125, pair))
    for h, (args, _) in zip(h_list, calls):
        assert np.array_equal(args[2], _knapp_raw_time_grid(h, harness.KNAPP_COUPLING * np.pi * h * h / 2.0)[3])


@pytest.mark.parametrize("eps", [0.04, 0.02, 0.01])
def test_knapp_criterion_08_cell_runs_inline(eps, monkeypatch):
    def no_worker():
        raise AssertionError("a criterion 08 cell has one offset and needs no row worker")

    monkeypatch.setattr(harness, "_row_worker", no_worker)
    rep = knapp_experiment(0.5, eps, 0.125, AdmissiblePair(q=8.0, r=8.0, d=1), M=2**15)
    assert 0 < rep.right_norm < math.inf


def test_knapp_offset_fold_is_exact_at_generic_eps(monkeypatch):
    pair = AdmissiblePair(q=8.0, r=8.0, d=1)
    calls = _knapp_kernel_calls(monkeypatch, lambda: knapp_h_sharpness([0.5, 0.25, 0.125], 0.125, pair))
    assert len(calls) == 3
    for args, passes in calls:
        assert passes == np.unique(np.abs(args[2])).size == 751  # no two magnitudes share an offset
        np.testing.assert_array_equal(_knapp_axis_norms(*args), _knapp_axis_norms_by_magnitude(*args))


@st.composite
def knapp_shared_offset_cases(draw):
    """Centres j*h + o for several j and one o; h and o are dyadic, so every c > 0 has offset o exactly."""
    h = draw(st.sampled_from((1.0, 0.5, 0.25, 0.125)))
    eps = draw(st.floats(0.02, 1.0)) * math.pi * h * h / 2.0
    rp = draw(st.sampled_from((8.0 / 7.0, 4.0 / 3.0, 2.0)) | st.floats(1.01, 2.0))
    offset = draw(st.integers(-31, 31)) * h / 64.0
    js = draw(st.lists(st.integers(-10**4, 10**4), min_size=3, max_size=8, unique=True))
    return h, eps / h, np.array(js) * h + offset, rp, draw(st.floats(4.0, 32.0))


@settings(max_examples=50)
@given(knapp_shared_offset_cases())
def test_knapp_centres_sharing_an_offset_share_one_pass(case):
    h, d1, centers, rp, x_window = case
    magnitudes = np.unique(np.abs(centers))
    offsets = np.unique(magnitudes - h * np.round(magnitudes / h))
    assert offsets.size < magnitudes.size and offsets.size <= 2  # o for c > 0, -o for c < 0
    counting = _CountingMath()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "math", counting)
        norms = _knapp_axis_norms(h, d1, centers, rp, x_window)
    assert counting.cos_calls == offsets.size
    np.testing.assert_array_equal(norms, _knapp_axis_norms_by_magnitude(h, d1, centers, rp, x_window))


class _RecordingWorker:
    """Stands in for the harness's row worker: hands each job to the real one and keeps its future."""

    def __init__(self):
        self.jobs = []

    def submit(self, *args):
        job = spectral._row_worker().submit(*args)
        self.jobs.append(job)
        return job


SPAN = spectral._CHUNK_BYTES // 8  # window sites per span of the kernel's two-operand passes

# centres at h = 0.5, each set's offsets (sorted) and whether delta = 0 lands in the worker's upper half
KNAPP_SPLIT_CENTRES = {
    "one-offset": ([1.5, -1.5], [0.0], False),
    "two-zero-in-caller": ([0.0, 1.125], [0.0, 0.125], False),
    "two-zero-in-worker": ([0.375, -2.0], [-0.125, 0.0], True),
    "three-zero-in-caller": ([0.375, 2.5, 3.5625], [-0.125, 0.0, 0.0625], False),
    "three-zero-in-worker": ([-0.375, 1.4375, 0.0], [-0.125, -0.0625, 0.0], True),
}


@pytest.mark.parametrize("n_win", [5, SPAN // 2 - 1, SPAN // 2, SPAN, 3 * SPAN // 2 + 7],
                         ids=["short", "span-minus-one", "span-plus-one", "centre-opens-a-span", "three-spans"])
@pytest.mark.parametrize("case", list(KNAPP_SPLIT_CENTRES))
def test_knapp_split_kernel_equals_one_pass_per_magnitude(case, n_win, monkeypatch):
    # a window holds 2 n_win + 1 sites, an odd count, so it brackets the even span at SPAN -+ 1
    centers, offsets, zero_in_worker = KNAPP_SPLIT_CENTRES[case]
    h, d1, rp = 0.5, 1.0 / 64.0, 8.0 / 7.0
    x_window = n_win * d1 * h  # dyadic, so the kernel's ceil returns n_win exactly
    centers = np.array(centers)
    magnitudes = np.abs(centers)
    deltas = np.unique(magnitudes - h * np.round(magnitudes / h))
    assert deltas.tolist() == offsets
    assert (deltas.tolist().index(0.0) >= (deltas.size + 1) // 2) == zero_in_worker
    worker = _RecordingWorker()
    monkeypatch.setattr(harness, "_row_worker", lambda: worker)
    norms = _knapp_axis_norms(h, d1, centers, rp, x_window)
    np.testing.assert_array_equal(norms, _knapp_axis_norms_by_magnitude(h, d1, centers, rp, x_window))
    assert len(worker.jobs) == (deltas.size >= 2)  # the split cannot silently vanish, and one offset stays inline
    assert all(job.done() for job in worker.jobs)


class _NumpyFailingOn:
    """Stands in for ``numpy`` inside the harness; ``power`` raises on the main thread or on the others."""

    def __init__(self, main: bool):
        self.main = main

    def __getattr__(self, name):
        return getattr(np, name)

    def power(self, *args, **kwargs):
        if (threading.current_thread() is threading.main_thread()) == self.main:
            raise FloatingPointError("main" if self.main else "worker")
        return np.power(*args, **kwargs)


@pytest.mark.parametrize("main", [False, True], ids=["worker-half-fails", "caller-half-fails"])
def test_knapp_split_kernel_raises_a_failing_half_and_leaves_no_job_running(main, monkeypatch):
    h, d1 = 0.5, 1.0 / 64.0
    worker = _RecordingWorker()
    monkeypatch.setattr(harness, "_row_worker", lambda: worker)
    monkeypatch.setattr(harness, "np", _NumpyFailingOn(main))
    with pytest.raises(FloatingPointError, match="^main$" if main else "^worker$"):
        _knapp_axis_norms(h, d1, np.array([0.0, 1.125, 0.375, 2.0625]), 8.0 / 7.0, 3 * SPAN * d1 * h)
    (job,) = worker.jobs
    assert job.done()
    monkeypatch.undo()
    # the worker is free for the next call
    np.testing.assert_array_equal(_knapp_axis_norms(h, d1, np.array([0.0, 1.125]), 2.0, 64.0),
                                  _knapp_axis_norms_by_magnitude(h, d1, np.array([0.0, 1.125]), 2.0, 64.0))


def test_knapp_experiment_starts_at_most_one_thread():
    knapp_experiment(0.5, 0.04, 0.1, AdmissiblePair(q=8.0, r=8.0, d=1), M=256, n_t=101, x_window=64.0)
    assert threading.active_count() <= 2


@pytest.mark.parametrize("n_t", [1001, 1000])
def test_knapp_time_grid_pairs_every_centre(n_t, monkeypatch):
    seen = []
    kernel = harness._knapp_axis_norms

    def recording(h, d1, centers, *rest):
        seen.append(centers)
        return kernel(h, d1, centers, *rest)

    monkeypatch.setattr(harness, "_knapp_axis_norms", recording)
    knapp_experiment(0.5, 0.04, 0.1, AdmissiblePair(q=6.0, r=4.0, d=2), M=256, u_window=7.3, n_t=n_t, x_window=8.0)
    (centers,) = seen
    assert np.unique(np.abs(centers)).size == (n_t + 1) // 2  # the axis kernel runs once per +-c pair


def test_knapp_left_side_drops_zero_frequency():
    # at eps near pi h^2 / 2 the block holds xi = 0 (|0 - pi/4| < eps) and it lies on the surface
    h, eps = 1.0, 1.4
    assert abs(math.pi / 4.0) < eps and abs((2.0 - math.pi) / eps**3) < 1.0
    pair = AdmissiblePair(q=8.0, r=8.0, d=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reps = [knapp_experiment(h, eps, s, pair, M=4096, n_t=21, u_window=10.0, x_window=8.0) for s in (0.0, 0.125)]
    # weight 1 at s = 0: the sum counts every surface point but xi = 0
    assert reps[0].left_norm**2 * h * 4096 == pytest.approx(reps[0].metadata["surface_points"] - 1, rel=1e-12)
    assert math.isfinite(reps[1].left_norm) and reps[1].left_norm > 0


def _knapp_left_reference(h, epsilon, s, d, M):
    """The left side and the surface count on the full M^d dual grid, masked to the block on the surface."""
    lat = Lattice(h=h, d=d, M=M)
    axis_xi = lat.axis_frequencies()
    y = 0.5 * h * axis_xi
    block_axis = np.abs((y - np.pi / 4.0) / epsilon) < 1.0
    om = laplacian_symbol_grid(lat)
    xi_sum = sum(np.broadcast_to(g, lat.shape) for g in lat.frequency_grids())
    arg = (h**2 / epsilon**3) * (-om + d * (2.0 - np.pi) / h**2 + (2.0 / h) * xi_sum)
    block = reduce(np.logical_and, np.meshgrid(*[block_axis] * d, indexing="ij", sparse=True))
    K = block & (np.abs(arg) < 1.0)
    r2 = continuum_symbol_grid(lat)
    weighted = K & (r2 > 0)
    wgt = np.zeros(lat.shape)
    wgt[weighted] = r2[weighted] ** (-s)
    return float(np.sqrt(np.sum(wgt)) / (h * M) ** (d / 2.0)), int(np.count_nonzero(K))


@pytest.mark.parametrize("s", [0.125, 0.0, -0.5])
@pytest.mark.parametrize("h,eps,pair", [
    (0.5, 0.04, AdmissiblePair(q=8.0, r=8.0, d=1)),
    (0.5, 0.01, AdmissiblePair(q=8.0, r=8.0, d=1)),
    (1.0, 1.0, AdmissiblePair(q=8.0, r=8.0, d=1)),  # the block holds xi = 0
    (0.5, 0.04, AdmissiblePair(q=6.0, r=4.0, d=2)),
    (0.5, 0.02, AdmissiblePair(q=6.0, r=4.0, d=2)),
])
def test_knapp_left_side_matches_the_full_grid(h, eps, pair, s):
    rep = knapp_experiment(h, eps, s, pair, n_t=21, u_window=10.0, x_window=8.0)
    left, surface_points = _knapp_left_reference(h, eps, s, pair.d, rep.metadata["M"])
    assert rep.metadata["surface_points"] == surface_points
    np.testing.assert_allclose(rep.left_norm, left, rtol=1e-14, atol=0)


def test_knapp_builds_no_full_grid_array():
    tracemalloc.start()
    try:
        knapp_experiment(0.5, 0.04, 0.1, AdmissiblePair(q=6.0, r=4.0, d=2))  # M = 1024
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 1024**2  # one float64 array of 1024^2 entries


def test_knapp_h_sharpness_at_the_largest_eps_is_finite():
    pair = AdmissiblePair(q=8.0, r=8.0, d=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scan = knapp_h_sharpness([1.0, 0.5, 0.25], 0.125, pair)
    assert np.all(np.isfinite(scan.column("ratio"))) and math.isfinite(scan.fits["ratio"]["slope"])


@pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf])
def test_knapp_rejects_non_finite_s(s):
    with pytest.raises(ConfigurationError, match="derivative weight s must be finite"):
        knapp_experiment(0.5, 0.04, s, AdmissiblePair(q=8.0, r=8.0, d=1), M=4096)


@pytest.mark.parametrize("s,left", [(1e308, "0.0"), (-400.0, "inf")])
def test_knapp_rejects_a_weight_that_vanishes_or_overflows(s, left):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigurationError, match=rf"left side is {left} at the derivative weight s = "):
            knapp_experiment(0.5, 0.04, s, AdmissiblePair(q=8.0, r=8.0, d=1), M=4096, n_t=21, u_window=10.0,
                             x_window=8.0)


def test_knapp_constraint_validation():
    pair = AdmissiblePair(q=8.0, r=8.0, d=1)
    with pytest.raises(ConfigurationError, match="constraint"):
        knapp_experiment(0.25, 0.2, 0.125, pair, M=4096)
    with pytest.raises(ConfigurationError):
        knapp_experiment(0.5, 0.02, 1.0 / 6.0, AdmissiblePair(q=6.0, r=math.inf, d=1), M=4096)


@pytest.mark.parametrize("window", [{"n_t": 1}, {"u_window": 0.0}, {"x_window": -5.0}, {"x_window": math.inf}])
def test_knapp_rejects_degenerate_quadrature(window):
    pair = AdmissiblePair(q=8.0, r=8.0, d=1)
    with pytest.raises(ConfigurationError, match="quadrature"):
        knapp_experiment(0.5, 0.04, 0.125, pair, M=4096, **window)


@pytest.mark.parametrize("rejected, accepted, named", [
    ({"u_window": 3.14}, {"u_window": math.pi}, "u_window = 3.14 is less than pi"),
    ({"x_window": 3.14}, {"x_window": math.pi}, "x_window = 3.14 is less than pi"),
    ({"u_window": 10.0, "n_t": 4}, {"u_window": 9.0, "n_t": 4}, "n_t = 4 spaces the right side's u-grid 6.66667"),
    ({"n_t": 96}, {"n_t": 97}, "n_t = 96 spaces the right side's u-grid 6.31579"),
])
def test_knapp_rejects_a_quadrature_that_misses_a_lobe_or_a_period(rejected, accepted, named):
    # each pair brackets a bound: pi for the two windows, one period 2 pi of sin u for the u-grid spacing
    pair = AdmissiblePair(q=8.0, r=8.0, d=1)
    with pytest.raises(ConfigurationError, match=re.escape(named)):
        knapp_experiment(0.5, 0.04, 0.125, pair, M=4096, **rejected)
    assert 0 < knapp_experiment(0.5, 0.04, 0.125, pair, M=4096, **accepted).right_norm < math.inf


@pytest.mark.parametrize("pair, M", [(AdmissiblePair(q=8.0, r=8.0, d=1), 2**15),
                                     (AdmissiblePair(q=6.0, r=4.0, d=2), 2**10)])
def test_knapp_default_M_depends_on_d(pair, M):
    rep = knapp_experiment(0.5, 0.04, 0.1, pair, n_t=21, u_window=10.0, x_window=8.0)
    assert rep.metadata["M"] == M and rep.metadata["surface_points"] > 0


def test_knapp_report_contents():
    pair = AdmissiblePair(q=8.0, r=8.0, d=1)
    rep = knapp_experiment(0.5, 0.04, 0.125, pair, M=2**13, n_t=401, u_window=100.0, x_window=64.0)
    assert rep.left_norm > 0 and rep.right_norm > 0
    assert rep.metadata["surface_points"] > 0
    assert rep.predicted_left_scaling == pytest.approx(0.5**0.125 * (0.04 / 0.5) ** 0.5)


def test_knapp_eps_exponent_fit_smoke():
    pair = AdmissiblePair(q=8.0, r=8.0, d=1)
    reps = [knapp_experiment(0.5, eps, 0.125, pair, M=2**14, n_t=601, u_window=150.0, x_window=128.0)
            for eps in (0.04, 0.02)]
    fits = knapp_eps_exponents(reps)
    assert fits["left"]["slope"] == pytest.approx(0.5, abs=0.1)
    assert fits["right"]["slope"] == pytest.approx(0.5, abs=0.1)
    with pytest.raises(ConfigurationError):
        knapp_eps_exponents(reps[:1])


def test_knapp_h_sharpness_direction():
    pair = AdmissiblePair(q=8.0, r=8.0, d=1)
    scan = knapp_h_sharpness([0.5, 0.25, 0.125], s=0.0, pair=pair,
                             M=2**14, n_t=601, u_window=150.0, x_window=128.0)
    assert scan.fits["ratio"]["slope"] > 0.05  # below-threshold weight: no uniform constant
