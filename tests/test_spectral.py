import multiprocessing
import threading
import time
import weakref
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticewave.lattice import GridFunction, Lattice, lp_norm, plane_wave, point_mass
from latticewave.spectral import (
    _inverse_rows,
    apply_multiplier,
    band_bank,
    band_projection,
    band_scales,
    band_symbol,
    bessel_derivative,
    continuum_symbol_grid,
    discrete_laplacian,
    forward_difference,
    forward_transform,
    fractional_derivative,
    inverse_transform,
    laplacian_power,
    laplacian_symbol_grid,
    lattice_symbol,
    phi1,
    sobolev_norm,
    varphi,
)


@dataclass
class Symbol:
    """Oracle: a scalar frequency-domain function evaluated on broadcastable frequency arrays."""

    evaluator: Callable[..., np.ndarray]
    label: str = ""

    def on_grid(self, lattice: Lattice) -> np.ndarray:
        vals = np.broadcast_to(self.evaluator(*lattice.frequency_grids()), lattice.shape)
        vals = np.asarray(vals, dtype=complex)
        if not np.all(np.isfinite(vals)):
            raise ValueError(f"symbol {self.label!r} is undefined at a dual-grid frequency")
        return vals


def widened_band_projection(f, N):
    """Oracle: projection with symbol covering scales N/2, N, 2N (identity on the band at N).

    The 2N term is dropped at the N = 1 edge of the dyadic range; ``band_symbol`` checks N.
    """
    sym = band_symbol(f.lattice, N) + band_symbol(f.lattice, N / 2.0)
    if 2.0 * N <= 1.0:
        sym = sym + band_symbol(f.lattice, 2.0 * N)
    return apply_multiplier(sym, f)


def random_field(lat, seed, mean_zero=False):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(lat.shape) + 1j * rng.standard_normal(lat.shape)
    if mean_zero:
        v = v - v.mean()
    return GridFunction(lat, v)


# ---------------------------------------------------------------------------
# transforms

def test_point_mass_transform_is_flat():
    lat = Lattice(h=0.5, d=1, M=16)
    F = forward_transform(point_mass(lat))
    np.testing.assert_allclose(F.coefficients, lat.cell_volume, atol=1e-14)


def test_plane_wave_transform_is_peaked():
    lat = Lattice(h=0.5, d=1, M=16)
    F = forward_transform(plane_wave(lat, 3))
    expected = np.zeros(16, dtype=complex)
    expected[3] = lat.cell_volume * lat.site_count
    np.testing.assert_allclose(F.coefficients, expected, atol=1e-10)


@pytest.mark.parametrize("d,M", [(1, 64), (2, 16), (3, 8)])
def test_parseval_and_roundtrip(d, M):
    lat = Lattice(h=0.7, d=d, M=M)
    f = random_field(lat, d)
    F = forward_transform(f)
    quad = np.sum(np.abs(F.coefficients) ** 2) * lat.frequency_cell_volume()
    assert (2 * np.pi) ** (-d) * quad == pytest.approx(lp_norm(f, 2) ** 2, rel=1e-12)
    back = inverse_transform(F)
    np.testing.assert_allclose(back.values, f.values, atol=1e-12 * np.abs(f.values).max())


def test_inverse_of_flat_coefficients():
    lat = Lattice(h=0.5, d=1, M=16)
    from latticewave.spectral import SpectralFunction

    F = SpectralFunction(lat, np.full(16, lat.cell_volume, dtype=complex))
    f = inverse_transform(F)
    np.testing.assert_allclose(f.values, point_mass(lat).values, atol=1e-14)


def test_inverse_linearity():
    lat = Lattice(h=0.5, d=1, M=16)
    from latticewave.spectral import SpectralFunction

    F = forward_transform(random_field(lat, 1))
    G = forward_transform(random_field(lat, 2))
    comb = SpectralFunction(lat, 2.0 * F.coefficients - 1j * G.coefficients)
    lhs = inverse_transform(comb).values
    rhs = 2.0 * inverse_transform(F).values - 1j * inverse_transform(G).values
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


# ---------------------------------------------------------------------------
# multipliers

def test_identity_multiplier():
    lat = Lattice(h=0.5, d=1, M=16)
    f = random_field(lat, 3)
    out = apply_multiplier(Symbol(lambda x: np.ones_like(x), "one").on_grid(lat), f)
    np.testing.assert_allclose(out.values, f.values, atol=1e-13)


def test_multiplier_composition():
    lat = Lattice(h=0.5, d=2, M=8)
    f = random_field(lat, 4)
    m1 = Symbol(lambda x, y: np.cos(x) + 0.5, "m1")
    m2 = Symbol(lambda x, y: 1.0 + 0.2j * y, "m2")
    lhs = apply_multiplier(m1.on_grid(lat), apply_multiplier(m2.on_grid(lat), f))
    m12 = Symbol(lambda x, y: (np.cos(x) + 0.5) * (1.0 + 0.2j * y), "m1*m2")
    rhs = apply_multiplier(m12.on_grid(lat), f)
    np.testing.assert_allclose(lhs.values, rhs.values, atol=1e-10)


def test_shift_multiplier():
    lat = Lattice(h=0.5, d=1, M=16)
    f = random_field(lat, 5)
    out = apply_multiplier(Symbol(lambda x: np.exp(1j * lat.h * x), "shift").on_grid(lat), f)
    np.testing.assert_allclose(out.values, np.roll(f.values, -1), atol=1e-12)


def test_multiplier_rejects_nan_symbol():
    lat = Lattice(h=0.5, d=1, M=16)
    bad = Symbol(lambda x: np.where(x == 0.0, np.nan, 1.0), "bad")
    with pytest.raises(ValueError, match="undefined"):
        apply_multiplier(bad.on_grid(lat), point_mass(lat))


# ---------------------------------------------------------------------------
# bump profile and band projections

def test_bump_properties():
    t = np.linspace(-3, 3, 601)
    vals = phi1(t)
    assert np.all((0 <= vals) & (vals <= 1))
    assert np.all(vals[np.abs(t) <= 1.0] == 1.0)
    assert np.all(vals[np.abs(t) >= 2.0] == 0.0)
    # difference profile supported in the closed annulus only
    var = varphi(t)
    assert np.all(var[np.abs(t) < 0.5] == 0.0)
    assert np.all(var[np.abs(t) > 2.0] == 0.0)


def test_bump_telescoping_sum():
    pts = np.linspace(1e-4, 1.0, 787)
    total = np.zeros_like(pts)
    N = 1.0
    while N * 1e-4 > 0 and N > 1e-7:
        total += varphi(pts / N)
        N /= 2
    assert np.abs(total - 1.0).max() < 1e-10


@pytest.mark.parametrize("d,M", [(1, 64), (2, 16), (1, 6), (1, 12), (1, 20), (1, 48), (1, 96), (1, 384), (2, 12)])
def test_band_partition_of_unity(d, M):
    lat = Lattice(h=0.5, d=d, M=M)
    total = np.zeros(lat.shape)
    for N in band_scales(lat):
        total += band_symbol(lat, N)
    k = np.rint(np.fft.fftfreq(M) * M)
    nz = np.zeros(lat.shape, dtype=bool)
    for ax in range(d):
        sh = [1] * d
        sh[ax] = M
        nz |= (k != 0).reshape(sh)
    assert np.abs(total[nz] - 1.0).max() < 1e-12
    assert total[(0,) * d] == 0.0


_BANK_MAX_HALF_M = {1: 256, 2: 24, 3: 8}


@st.composite
def bank_lattices(draw):
    """A small lattice with even M >= 4 (power of two or not) and a spacing h > 0."""
    d = draw(st.sampled_from((1, 2, 3)))
    M = 2 * draw(st.integers(2, _BANK_MAX_HALF_M[d]))
    h = draw(st.floats(1e-3, 1e3))
    return Lattice(h=h, d=d, M=M)


@settings(max_examples=60)
@given(bank_lattices())
def test_band_bank_properties(lat):
    scales = band_scales(lat)
    bank = band_bank(lat)
    assert bank.shape == (len(scales), *lat.shape)
    total = np.zeros(lat.shape)
    for N, row, cumulative in zip(scales, bank, np.cumsum(bank, axis=0)):
        np.testing.assert_array_equal(row, band_symbol(lat, N))
        total += band_symbol(lat, N)
        np.testing.assert_array_equal(cumulative, total)
    # the smallest scale is the largest dyadic N <= 1/M, so the bank tiles every nonzero frequency
    assert scales[0] * lat.M <= 1.0 < 2.0 * scales[0] * lat.M
    assert scales == sorted(scales) and scales[-1] == 1.0
    if lat.M & (lat.M - 1) == 0:  # a power of two: exactly 1/M, ..., 1/2, 1
        assert scales == [2.0**-j for j in range(lat.M.bit_length() - 1, -1, -1)]
    k = np.abs(np.rint(np.fft.fftfreq(lat.M) * lat.M))
    kmax = np.maximum.reduce(np.meshgrid(*([k] * lat.d), indexing="ij"))
    assert np.abs(total[kmax > 0] - 1.0).max() < 1e-12
    assert total[(0,) * lat.d] == 0.0


def test_band_projection_fixes_interior_plane_wave():
    lat = Lattice(h=0.5, d=1, M=64)
    # pick k with |k|/M = N so varphi argument is exactly 1 (value 1)
    N = 0.25
    k = int(N * lat.M)
    pw = plane_wave(lat, k)
    out = band_projection(pw, N)
    np.testing.assert_allclose(out.values, pw.values, atol=1e-12)


def test_band_projection_kills_constants():
    lat = Lattice(h=0.5, d=1, M=32)
    c = GridFunction(lat, np.full(32, 1.7, dtype=complex))
    for N in (1.0, 0.5, 0.125):
        assert np.abs(band_projection(c, N).values).max() < 1e-14


def test_band_projection_rejects_bad_scale():
    lat = Lattice(h=0.5, d=1, M=32)
    f = point_mass(lat)
    with pytest.raises(ValueError):
        band_projection(f, 2.0)
    with pytest.raises(ValueError):
        band_projection(f, 0.3)


def test_widened_projection_is_identity_on_band():
    lat = Lattice(h=0.5, d=1, M=64)
    f = random_field(lat, 6)
    for N in (1.0, 0.5, 0.25, 0.125):
        pn = band_projection(f, N)
        np.testing.assert_allclose(widened_band_projection(pn, N).values, pn.values, atol=1e-12)
    c = GridFunction(lat, np.ones(64, dtype=complex))
    assert np.abs(widened_band_projection(c, 0.25).values).max() < 1e-14


# ---------------------------------------------------------------------------
# derivatives

def test_fractional_derivative_eigenvalue():
    lat = Lattice(h=0.5, d=1, M=32)
    k = 5
    pw = plane_wave(lat, k)
    xi = 2 * np.pi * k / (lat.h * lat.M)
    for s in (0.5, 1.0, -1.0):
        out = fractional_derivative(pw, s)
        np.testing.assert_allclose(out.values, abs(xi) ** s * pw.values, atol=1e-10)


def test_fractional_derivative_s0_and_halves():
    lat = Lattice(h=0.5, d=1, M=32)
    f = random_field(lat, 7, mean_zero=True)
    np.testing.assert_allclose(fractional_derivative(f, 0.0).values, f.values, atol=1e-12)
    halves = fractional_derivative(fractional_derivative(f, 0.5), 0.5)
    np.testing.assert_allclose(halves.values, fractional_derivative(f, 1.0).values, atol=1e-10)


def test_fractional_derivative_rejects_dc():
    lat = Lattice(h=0.5, d=1, M=32)
    c = GridFunction(lat, np.ones(32, dtype=complex))
    with pytest.raises(ValueError, match="singular at DC"):
        fractional_derivative(c, -0.5)


def test_bessel_derivative_properties():
    lat = Lattice(h=0.5, d=1, M=32)
    c = GridFunction(lat, np.full(32, 2.0 - 1j))
    np.testing.assert_allclose(bessel_derivative(c, 1.3).values, c.values, atol=1e-12)
    f = random_field(lat, 8)
    np.testing.assert_allclose(bessel_derivative(f, 0.0).values, f.values, atol=1e-13)
    round_trip = bessel_derivative(bessel_derivative(f, 0.8), -0.8)
    np.testing.assert_allclose(round_trip.values, f.values, atol=1e-10)


def test_laplacian_stencil_and_symbol():
    lat = Lattice(h=1.0, d=1, M=8)
    out = discrete_laplacian(point_mass(lat))
    expected = np.zeros(8)
    expected[0] = -2.0
    expected[1] = expected[-1] = 1.0
    np.testing.assert_allclose(out.values.real, expected)
    # multiplier representation agrees
    lat2 = Lattice(h=0.5, d=2, M=8)
    f = random_field(lat2, 9)
    via_symbol = apply_multiplier(-laplacian_symbol_grid(lat2).astype(complex), f)
    np.testing.assert_allclose(discrete_laplacian(f).values, via_symbol.values, atol=1e-10)


def _written_out_laplacian_symbol_grid(lattice):
    """Oracle: the lattice symbol written out per axis and summed on the full grid."""
    h = lattice.h
    out = np.zeros(lattice.shape, dtype=float)
    for g in lattice.frequency_grids():
        out = out + (4.0 / h**2) * np.sin(0.5 * h * g) ** 2
    return out


@pytest.mark.parametrize("d,M,h", [(1, 64, 0.5), (1, 30, 0.3), (2, 32, 0.3), (3, 16, 1.0)])
def test_symbol_grids_equal_their_written_out_sums(d, M, h):
    """Both symbol grids are bit-equal to the per-axis sums they replace, on the full grid."""
    lat = Lattice(h=h, d=d, M=M)
    xi = lat.axis_frequencies()
    assert np.array_equal(lattice_symbol(xi, h), (4.0 / h**2) * np.sin(0.5 * h * xi) ** 2)
    assert np.array_equal(laplacian_symbol_grid(lat), _written_out_laplacian_symbol_grid(lat))
    r2 = continuum_symbol_grid(lat)
    assert r2.shape == lat.shape
    assert np.array_equal(r2, np.broadcast_to(sum(g**2 for g in lat.frequency_grids()), lat.shape))


def test_laplacian_plane_wave_eigenvalue():
    lat = Lattice(h=0.5, d=1, M=32)
    k = 7
    pw = plane_wave(lat, k)
    xi = 2 * np.pi * k / (lat.h * lat.M)
    ev = -(4.0 / lat.h**2) * np.sin(lat.h * xi / 2) ** 2
    np.testing.assert_allclose(discrete_laplacian(pw).values, ev * pw.values, atol=1e-10)
    c = GridFunction(lat, np.ones(32, dtype=complex))
    assert np.abs(discrete_laplacian(c).values).max() < 1e-13


def test_laplacian_power():
    lat = Lattice(h=0.5, d=1, M=32)
    f = random_field(lat, 10, mean_zero=True)
    np.testing.assert_allclose(laplacian_power(f, 2.0).values, -discrete_laplacian(f).values, atol=1e-10)
    np.testing.assert_allclose(laplacian_power(f, 0.0).values, f.values, atol=1e-12)
    k = 3
    pw = plane_wave(lat, k)
    xi = 2 * np.pi * k / (lat.h * lat.M)
    ev = ((4.0 / lat.h**2) * np.sin(lat.h * xi / 2) ** 2) ** 0.75
    np.testing.assert_allclose(laplacian_power(pw, 1.5).values, ev * pw.values, atol=1e-10)


def test_forward_difference():
    lat = Lattice(h=0.5, d=1, M=8)
    f = GridFunction(lat, np.array([0, 1, 0, 0, 0, 0, 0, 0], dtype=complex))
    out = forward_difference(f, 0)
    assert out.values[0] == pytest.approx(2.0)
    c = GridFunction(lat, np.full(8, 5.0, dtype=complex))
    assert np.abs(forward_difference(c, 0).values).max() == 0.0
    with pytest.raises(ValueError, match="out of range"):
        forward_difference(f, 1)
    # plane-wave eigenvalue (e^{ih xi} - 1)/h
    lat2 = Lattice(h=0.5, d=2, M=16)
    pw = plane_wave(lat2, (3, 5))
    xi1 = 2 * np.pi * 5 / (lat2.h * lat2.M)
    ev = (np.exp(1j * lat2.h * xi1) - 1.0) / lat2.h
    np.testing.assert_allclose(forward_difference(pw, 1).values, ev * pw.values, atol=1e-10)


def test_sobolev_norm():
    lat = Lattice(h=0.5, d=1, M=32)
    f = random_field(lat, 11)
    assert sobolev_norm(f, 0.0, 2.0) == pytest.approx(lp_norm(f, 2), rel=1e-12)
    k = 4
    pw = plane_wave(lat, k)
    xi = 2 * np.pi * k / (lat.h * lat.M)
    expected = (1 + xi**2) ** 0.5 * lp_norm(pw, 2)
    assert sobolev_norm(pw, 1.0, 2.0) == pytest.approx(expected, rel=1e-10)
    # L^p is controlled by the inhomogeneous norm for s >= 0
    for seed in range(5):
        g = random_field(lat, 20 + seed)
        assert lp_norm(g, 2) <= sobolev_norm(g, 1.0, 2.0) * (1 + 1e-12)


# ---------------------------------------------------------------------------
# inverse-transform rows of 256 KiB or more: each is transformed on the worker thread while the
# caller fills the next one

LARGE_ROW = (16384,)  # the smallest d = 1 row of 256 KiB


def _random_rows(n, seed=3):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(LARGE_ROW) + 1j * rng.standard_normal(LARGE_ROW) for _ in range(n)]


def test_large_rows_are_transformed_off_the_caller_thread_in_order(monkeypatch):
    data = _random_rows(5)
    want = [np.fft.ifft(v) for v in data]
    transformed_on, filled_on, alive, filled = [], [], [], []

    def recorded(*args, _fn=np.fft.ifftn, **kwargs):
        transformed_on.append(threading.get_ident())
        return _fn(*args, **kwargs)

    def live():
        return sum(ref() is not None for ref in filled)

    def writer(v):
        def write(row):
            filled_on.append(threading.get_ident())
            if live() >= 2:  # give the worker time to drop a finished row before counting again
                time.sleep(0.05)
            alive.append(live() + 1)
            filled.append(weakref.ref(row.base))
            np.copyto(row, v)
        return write

    monkeypatch.setattr(np.fft, "ifftn", recorded)
    rows = _inverse_rows(LARGE_ROW, map(writer, data))
    # each row is dropped as soon as it is compared, so only the generator keeps rows alive
    assert [np.array_equal(next(rows), w) for w in want] == [True] * len(data)
    assert next(rows, None) is None
    caller = threading.get_ident()
    assert filled_on == [caller] * len(data)
    assert len(transformed_on) == len(data) and caller not in transformed_on
    assert max(alive) == 2  # the row in flight and the row being filled


@pytest.mark.parametrize("where", ["fill", "transform"])
def test_a_large_row_overflow_raises_on_the_caller_under_its_errstate(where):
    """The worker runs in a copy of the caller's context: without it an overflow in the transform
    would only warn, and the row would fail the finiteness check instead."""
    huge = np.full(LARGE_ROW, 1e308, dtype=complex)
    if where == "fill":
        def write(row):
            np.multiply(huge, 10.0, out=row)
    else:  # a finite row whose inverse transform overflows
        def write(row):
            np.copyto(row, huge)
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError, match="overflow"):
            list(_inverse_rows(LARGE_ROW, iter([write, write, write])))


def test_a_non_finite_large_row_raises_after_the_rows_before_it():
    data = _random_rows(4)
    data[2][7] = np.nan
    rows = _inverse_rows(LARGE_ROW, (lambda row, v=v: np.copyto(row, v) for v in data))
    assert np.array_equal(next(rows), np.fft.ifft(data[0]))
    assert np.array_equal(next(rows), np.fft.ifft(data[1]))
    with pytest.raises(ValueError, match="^grid function contains non-finite entries$"):
        next(rows)
    # the worker is free for the next call
    rows = _inverse_rows(LARGE_ROW, (lambda row, v=v: np.copyto(row, v) for v in data[:2]))
    assert [np.array_equal(r, np.fft.ifft(v)) for r, v in zip(rows, data[:2])] == [True, True]


def _sum_of_large_rows():
    rows = _inverse_rows(LARGE_ROW, (lambda row: row.fill(1.0) for _ in range(3)))
    return sum(complex(row[0]) for row in rows)


@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
def test_a_forked_child_gets_its_own_row_worker():
    """A child forked after the worker started has no copy of its thread; it starts its own."""
    assert _sum_of_large_rows() == 3.0
    with multiprocessing.get_context("fork").Pool(1) as pool:
        assert pool.apply_async(_sum_of_large_rows).get(timeout=30) == 3.0
