import math
import tracemalloc
from collections.abc import Sequence

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from latticewave.errors import ConfigurationError
from latticewave.lattice import (
    MAX_SITES,
    GridFunction,
    Lattice,
    boundary_mask,
    boundary_mass_fraction,
    convolve,
    cz_decompose,
    dyadic_average,
    dyadic_maximal,
    dyadic_site_scales,
    gaussian,
    inner_product,
    lp_norm,
    point_mass,
    weak_lp_norm,
)
from latticewave.spectral import forward_transform


def random_field(lat, seed, real=False, nonneg=False):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(lat.shape)
    if not real:
        v = v + 1j * rng.standard_normal(lat.shape)
    if nonneg:
        v = np.abs(v)
    return GridFunction(lat, v.astype(complex))


# ---------------------------------------------------------------------------
# lattice geometry

def test_lattice_validation():
    with pytest.raises(ValueError):
        Lattice(h=0.0, d=1, M=8)
    with pytest.raises(ValueError):
        Lattice(h=1.0, d=4, M=8)
    with pytest.raises(ValueError):
        Lattice(h=1.0, d=1, M=7)
    with pytest.raises(ValueError):
        Lattice(h=1.0, d=1, M=2)


def test_lattice_for_box_sizing_and_validation():
    assert Lattice.for_box(0.25, 2, 16.0) == Lattice(h=0.25, d=2, M=64)
    assert Lattice.for_box(0.3, 1, 6.0).M == 20
    for h, box in [(0.0, 8.0), (-0.5, 8.0), (math.nan, 8.0)]:
        with pytest.raises(ValueError, match="spacing h must be positive"):
            Lattice.for_box(h, 1, box)
    for box in (0.0, -8.0, math.inf):
        with pytest.raises(ValueError, match="box length"):
            Lattice.for_box(0.5, 1, box)


def test_lattice_site_count_cap():
    # the largest lattices the experiments use stay well inside the cap
    assert Lattice(h=1.0, d=1, M=65536).site_count * 16 <= MAX_SITES
    assert Lattice(h=1.0, d=2, M=512).site_count * 16 <= MAX_SITES
    assert Lattice(h=1.0, d=1, M=MAX_SITES).site_count == MAX_SITES
    for d, M in [(1, MAX_SITES + 2), (2, 2050), (3, 162), (2, 2**15), (3, 10**100)]:
        with pytest.raises(ConfigurationError, match="site count"):
            Lattice(h=1.0, d=d, M=M)
    for h in (1e-3, 1e-300, 5e-324):  # box / h large, astronomically large, infinite
        with pytest.raises(ConfigurationError, match="site count"):
            Lattice.for_box(h, 2, 4096.0)
    with pytest.raises(ConfigurationError, match="site count"):
        Lattice.for_box(1.0, 1, 1e308)


def test_site_and_frequency_grids():
    lat = Lattice(h=0.5, d=1, M=8)
    assert list(lat.site_indices()) == [0, 1, 2, 3, -4, -3, -2, -1]
    xi = lat.axis_frequencies()
    assert xi.max() <= np.pi / lat.h + 1e-12
    assert xi.min() >= -np.pi / lat.h - 1e-12
    # spacing 2*pi/(h*M)
    assert xi[1] == pytest.approx(2 * np.pi / (lat.h * lat.M))


def test_grid_function_validation():
    lat = Lattice(h=1.0, d=1, M=8)
    with pytest.raises(ValueError):
        GridFunction(lat, np.zeros(7))
    with pytest.raises(ValueError):
        GridFunction(lat, np.full(8, np.nan))


# ---------------------------------------------------------------------------
# norms

def test_lp_norm_point_mass():
    lat = Lattice(h=0.5, d=1, M=8)
    f = point_mass(lat)
    assert lp_norm(f, 2) == pytest.approx(math.sqrt(0.5))
    assert lp_norm(f, math.inf) == 1.0


def test_lp_norm_constant():
    lat = Lattice(h=1.0, d=1, M=8)
    f = GridFunction(lat, np.ones(8))
    assert lp_norm(f, 1) == pytest.approx(8.0)


def test_lp_norm_rejects_small_p():
    lat = Lattice(h=1.0, d=1, M=8)
    with pytest.raises(ValueError):
        lp_norm(point_mass(lat), 0.5)


def test_weak_norm_point_mass_and_zero():
    lat = Lattice(h=0.5, d=1, M=8)
    assert weak_lp_norm(point_mass(lat), 1) == pytest.approx(0.5)
    assert weak_lp_norm(GridFunction(lat, np.zeros(8)), 1) == 0.0


def test_weak_norm_level_enumeration():
    # oracle: brute-force maximum over every positive level
    lat = Lattice(h=1.0, d=1, M=8)
    f = GridFunction(lat, np.array([2, 1, 1, 1, 0, 0, 0, 0], dtype=complex))
    a = np.abs(f.values)
    brute = max(lam * float((a >= lam).sum()) for lam in np.unique(a) if lam > 0)
    assert brute == 4.0
    assert weak_lp_norm(f, 1) == pytest.approx(brute)


def test_weak_norm_rejects_bad_p():
    lat = Lattice(h=1.0, d=1, M=8)
    with pytest.raises(ValueError):
        weak_lp_norm(point_mass(lat), math.inf)


def test_weak_norm_below_strong_norm():
    lat = Lattice(h=0.5, d=2, M=8)
    for seed in range(20):
        f = random_field(lat, seed)
        for p in (1.0, 1.5, 2.0, 3.0):
            assert weak_lp_norm(f, p) <= lp_norm(f, p) * (1 + 1e-12)


def test_holder_inequality():
    lat = Lattice(h=0.5, d=1, M=32)
    for seed in range(20):
        f = random_field(lat, seed)
        g = random_field(lat, seed + 100)
        fg = GridFunction(lat, f.values * g.values)
        for (p1, p2) in ((2.0, 2.0), (3.0, 1.5), (4.0, 4.0)):
            p = 1.0 / (1.0 / p1 + 1.0 / p2)
            assert lp_norm(fg, p) <= lp_norm(f, p1) * lp_norm(g, p2) * (1 + 1e-12)


# ---------------------------------------------------------------------------
# inner product and convolution

def test_inner_product_examples():
    lat = Lattice(h=0.5, d=1, M=8)
    f = point_mass(lat)
    assert inner_product(f, f) == pytest.approx(0.5)
    g = point_mass(lat, site=3)
    assert inner_product(f, g) == 0.0
    h = random_field(lat, 7)
    assert inner_product(h, h).real == pytest.approx(lp_norm(h, 2) ** 2)
    other = Lattice(h=0.5, d=1, M=16)
    with pytest.raises(ValueError):
        inner_product(f, point_mass(other))


def test_convolution_identity_element():
    lat = Lattice(h=0.25, d=1, M=16)
    f = random_field(lat, 3)
    delta = point_mass(lat, value=1.0 / lat.cell_volume)
    out = convolve(f, delta)
    np.testing.assert_allclose(out.values, f.values, atol=1e-12)


def test_convolution_commutes_and_transforms():
    lat = Lattice(h=0.5, d=2, M=8)
    f = random_field(lat, 1)
    g = random_field(lat, 2)
    np.testing.assert_allclose(convolve(f, g).values, convolve(g, f).values, atol=1e-12)
    lhs = forward_transform(convolve(f, g)).coefficients
    rhs = forward_transform(f).coefficients * forward_transform(g).coefficients
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_convolution_of_point_masses():
    lat = Lattice(h=1.0, d=1, M=8)
    d0 = point_mass(lat)
    out = convolve(d0, d0)
    expected = np.zeros(8, dtype=complex)
    expected[0] = 1.0  # h^d = 1
    np.testing.assert_allclose(out.values, expected, atol=1e-14)


def test_young_inequality():
    lat = Lattice(h=0.5, d=1, M=32)
    for seed in range(20):
        f = random_field(lat, seed)
        g = random_field(lat, seed + 50)
        for (p, q) in ((1.0, 2.0), (2.0, 2.0), (1.5, 3.0)):
            inv_r = 1.0 / p + 1.0 / q - 1.0
            r = math.inf if inv_r == 0.0 else 1.0 / inv_r
            assert lp_norm(convolve(f, g), r) <= lp_norm(f, p) * lp_norm(g, q) * (1 + 1e-12)


# ---------------------------------------------------------------------------
# dyadic averaging and the maximal function

def brute_average(values, N):
    M = values.shape[0]
    d = values.ndim
    out = np.empty_like(values)
    for idx in np.ndindex(values.shape):
        block = tuple(slice((i // N) * N, (i // N) * N + N) for i in idx)
        out[idx] = values[block].mean()
    return out


def test_dyadic_scales():
    assert dyadic_site_scales(8) == [1, 2, 4, 8]
    assert dyadic_site_scales(12) == [1, 2, 4]


def test_average_identity_and_constant():
    lat = Lattice(h=0.5, d=2, M=8)
    f = random_field(lat, 5)
    np.testing.assert_allclose(dyadic_average(f, 1).values, f.values)
    c = GridFunction(lat, np.full(lat.shape, 2.5 + 1j))
    np.testing.assert_allclose(dyadic_average(c, 4).values, c.values, atol=1e-14)


def test_average_spike():
    lat = Lattice(h=1.0, d=1, M=8)
    f = point_mass(lat)
    out = dyadic_average(f, 2)
    expected = np.zeros(8)
    expected[0] = expected[1] = 0.5
    np.testing.assert_allclose(out.values.real, expected)
    np.testing.assert_allclose(out.values, brute_average(f.values, 2))


def test_average_matches_bruteforce():
    lat = Lattice(h=0.5, d=2, M=8)
    f = random_field(lat, 11)
    for N in (2, 4, 8):
        np.testing.assert_allclose(dyadic_average(f, N).values, brute_average(f.values, N), atol=1e-13)


def test_average_projection_and_nesting():
    lat = Lattice(h=1.0, d=1, M=16)
    f = random_field(lat, 4)
    for N in (2, 4, 8):
        once = dyadic_average(f, N)
        np.testing.assert_allclose(dyadic_average(once, N).values, once.values, atol=1e-13)
    e2 = dyadic_average(f, 2)
    np.testing.assert_allclose(dyadic_average(e2, 8).values, dyadic_average(f, 8).values, atol=1e-13)


def test_average_rejects_bad_scales():
    lat = Lattice(h=1.0, d=1, M=8)
    f = point_mass(lat)
    with pytest.raises(ValueError):
        dyadic_average(f, 3)
    with pytest.raises(ValueError):
        dyadic_average(f, 16)
    lat12 = Lattice(h=1.0, d=1, M=12)
    with pytest.raises(ValueError):
        dyadic_average(point_mass(lat12), 8)


def test_maximal_dominates_and_constant():
    lat = Lattice(h=1.0, d=1, M=16)
    f = random_field(lat, 9, real=True, nonneg=True)
    m = dyadic_maximal(f)
    assert np.all(m.values.real >= f.values.real - 1e-13)
    c = GridFunction(lat, np.full(16, 3.0, dtype=complex))
    np.testing.assert_allclose(dyadic_maximal(c).values.real, 3.0)


def test_maximal_spike_value():
    # oracle: scan the averages over N in {1, 2, 4, 8} directly
    lat = Lattice(h=1.0, d=1, M=8)
    f = point_mass(lat)
    brute = np.zeros(8)
    for N in (1, 2, 4, 8):
        brute = np.maximum(brute, np.abs(brute_average(f.values, N)))
    assert brute[1] == pytest.approx(0.5)
    np.testing.assert_allclose(dyadic_maximal(f).values.real, brute)


def test_maximal_weak_bound():
    lat = Lattice(h=0.5, d=1, M=32)
    rng = np.random.default_rng(0)
    for _ in range(50):
        f = GridFunction(lat, np.abs(rng.standard_normal(32)).astype(complex))
        m = dyadic_maximal(f).values.real
        norm1 = lp_norm(f, 1)
        for lam in (0.25, 0.5, 1.0):
            measure = lat.cell_volume * float((m > lam).sum())
            assert measure <= norm1 / lam * (1 + 1e-12)


# ---------------------------------------------------------------------------
# stopping-time decomposition

def reference_cubes(values, h, lam):
    """Oracle: site-wise smallest dyadic scale whose average exceeds lam."""
    M = values.shape[0]
    scales = dyadic_site_scales(M)
    avgs = {N: brute_average(values, N) for N in scales}
    cubes = set()
    for idx in np.ndindex(values.shape):
        chosen = None
        for N in scales:
            larger_ok = all(avgs[Np][idx].real <= lam for Np in scales if Np > N)
            if avgs[N][idx].real > lam and larger_ok:
                chosen = N
        if chosen is not None:
            cubes.add((tuple((i // chosen) * chosen for i in idx), chosen))
    return cubes


def test_cz_below_threshold():
    lat = Lattice(h=1.0, d=1, M=8)
    f = GridFunction(lat, 0.3 * np.ones(8, dtype=complex))
    dec = cz_decompose(f, 1.0)
    assert dec.cubes == []
    np.testing.assert_allclose(dec.good.values, f.values)


def test_cz_spike():
    lat = Lattice(h=1.0, d=1, M=8)
    f = GridFunction(lat, np.array([4, 0, 0, 0, 0, 0, 0, 0], dtype=complex))
    dec = cz_decompose(f, 1.0)
    assert len(dec.cubes) == 1
    cube = dec.cubes[0]
    assert cube.corner == (0,) and cube.scale == 2
    # average over the selected cube sits in (lam, 2^d lam]
    assert dec.good.values[0].real == pytest.approx(2.0)
    raw = {((c % 8),): s for (c,), s in [(cb.corner, cb.scale) for cb in dec.cubes]}
    assert reference_cubes(f.values, 1.0, 1.0) == {((0,), 2)}


def test_cz_matches_reference_cubes():
    lat = Lattice(h=0.5, d=1, M=16)
    rng = np.random.default_rng(42)
    for _ in range(30):
        f = GridFunction(lat, np.abs(rng.standard_normal(16)).astype(complex))
        lam = float(f.values.real.mean()) * rng.uniform(1.0, 3.0)
        dec = cz_decompose(f, lam)
        got = {(tuple(c % 16 for c in cb.corner), cb.scale) for cb in dec.cubes}
        assert got == reference_cubes(f.values, 0.5, lam)


def test_cz_properties_fuzz():
    rng = np.random.default_rng(7)
    for d, M in ((1, 32), (2, 8)):
        lat = Lattice(h=0.5, d=d, M=M)
        for _ in range(100):
            f = GridFunction(lat, rng.exponential(size=lat.shape).astype(complex))
            lam = float(f.values.real.mean()) * rng.uniform(1.0, 4.0)
            dec = cz_decompose(f, lam)
            covered = np.zeros(lat.shape, dtype=bool)
            for cube, bad in zip(dec.cubes, dec.bads):
                raw = tuple(slice(c % M, (c % M) + cube.scale) for c in cube.corner)
                covered[raw] = True
                avg = float(f.values[raw].real.mean())
                assert lam < avg <= 2**d * lam * (1 + 1e-12)
                assert abs(bad.values.sum()) <= 1e-12 * max(1.0, np.abs(f.values).sum())
                outside = bad.values.copy()
                outside[raw] = 0.0
                assert np.all(outside == 0.0)  # supported on the cube only
            # (1) small off the cubes
            assert np.all(f.values.real[~covered] <= lam + 1e-14)
            # (2) total cube measure
            measure = lat.cell_volume * float(covered.sum())
            assert measure <= lp_norm(f, 1) / lam * (1 + 1e-12)
            # exact reconstruction
            rec = dec.good.values + sum(b.values for b in dec.bads)
            np.testing.assert_allclose(rec, f.values, atol=1e-12 * max(1.0, np.abs(f.values).max()))


def dense_cz_bads(values, lam):
    """Oracle: the dense per-cube construction, one full M^d array per selected cube."""
    v = values.real
    d, M = v.ndim, v.shape[0]
    covered = np.zeros(v.shape, dtype=bool)
    bads = []
    N = M // 2
    while N >= 1:
        avg = v.reshape([M // N, N] * d).mean(axis=tuple(range(1, 2 * d, 2)))
        select = (avg > lam) & ~covered[(slice(0, None, N),) * d]
        for coarse in np.argwhere(select):
            block = tuple(slice(c * N, (c + 1) * N) for c in coarse)
            b = np.zeros(v.shape, dtype=complex)
            b[block] = v[block] - avg[tuple(coarse)]
            covered[block] = True
            bads.append(b)
        N //= 2
    return bads


@pytest.mark.parametrize("d,M", [(1, 64), (2, 32), (3, 8)])
def test_cz_bad_parts_match_dense_oracle(d, M):
    lat = Lattice(h=0.5, d=d, M=M)
    rng = np.random.default_rng(11 + d)
    for trial in range(6):
        v = rng.exponential(size=lat.shape) if trial % 2 else rng.uniform(size=lat.shape) ** 4
        f = GridFunction(lat, v.astype(complex))
        lam = float(v.mean()) * rng.uniform(1.0, 4.0)
        dec = cz_decompose(f, lam)
        dense = dense_cz_bads(f.values, lam)
        assert len(dec.bads) == len(dense) == len(dec.cubes)
        for i, expected in enumerate(dense):
            assert np.array_equal(dec.bads[i].values, expected)


def test_cz_bad_parts_sequence():
    lat = Lattice(h=1.0, d=2, M=16)
    f = GridFunction(lat, np.random.default_rng(5).exponential(size=lat.shape).astype(complex))
    dec = cz_decompose(f, 2.0 * float(f.values.real.mean()))
    dense = dense_cz_bads(f.values, dec.lam)
    n = len(dec.bads)
    assert isinstance(dec.bads, Sequence) and n == len(dense) >= 4
    assert [b.values.tolist() for b in dec.bads] == [b.tolist() for b in dense]
    assert np.array_equal(dec.bads[-1].values, dense[-1])
    assert np.array_equal(dec.bads[-n].values, dense[0])
    for sl in (slice(1, 4), slice(None, None, -2), slice(n, None), slice(-3, None)):
        got = dec.bads[sl]
        assert isinstance(got, list)
        assert len(got) == len(dense[sl])
        assert all(np.array_equal(g.values, e) for g, e in zip(got, dense[sl]))
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            dec.bads[i]
    with pytest.raises(TypeError):
        dec.bads[0] = dec.good
    # each access builds a fresh array, so editing one part changes no other
    dec.bads[0].values[:] = 7.0
    assert np.array_equal(dec.bads[0].values, dense[0])


def test_cz_memory_stays_within_a_few_grids():
    lat = Lattice(h=1.0, d=2, M=64)
    f = GridFunction(lat, np.random.default_rng(8).exponential(size=lat.shape).astype(complex))
    lam = 2.0 * float(f.values.real.mean())
    tracemalloc.start()
    try:
        dec = cz_decompose(f, lam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(dec.cubes) > 100
    # one dense complex grid per cube would be len(cubes) * M^d * 16 B
    assert peak < 16 * lat.site_count * 16


_CZ_SIZES = {1: (4, 8, 16, 32, 64), 2: (4, 8, 16), 3: (4, 8)}


@st.composite
def cz_inputs(draw):
    """A nonnegative field on a small lattice and a threshold in (mean, 4 mean]."""
    d = draw(st.sampled_from((1, 2, 3)))
    M = draw(st.sampled_from(_CZ_SIZES[d]))
    values = draw(hnp.arrays(np.float64, (M,) * d,
                             elements=st.one_of(st.just(0.0), st.floats(1e-3, 1e3))))
    mean = float(values.mean())
    assume(mean > 0)
    lam = mean * draw(st.floats(1.0, 4.0, exclude_min=True))
    return GridFunction(Lattice(h=0.5, d=d, M=M), values.astype(complex)), lam


@settings(max_examples=150)
@given(cz_inputs())
def test_cz_decomposition_properties(case):
    f, lam = case
    lat = f.lattice
    v = f.values.real
    dec = cz_decompose(f, lam)
    assert len(dec.bads) == len(dec.cubes)
    hits = np.zeros(lat.shape, dtype=int)
    total = dec.good.values.copy()
    for cube, bad in zip(dec.cubes, dec.bads):
        raw = tuple(slice(c % lat.M, c % lat.M + cube.scale) for c in cube.corner)
        hits[raw] += 1
        outside = bad.values.copy()
        outside[raw] = 0.0
        assert not outside.any()  # lives only on its cube
        assert abs(bad.values.sum()) <= 1e-12 * float(v.sum())  # mean zero
        avg = dec.good.values[raw].real  # the average the stopping rule compared with lam
        assert np.all(avg == avg.flat[0])
        assert avg.flat[0] == pytest.approx(float(v[raw].mean()), rel=1e-12)
        assert lam < avg.flat[0] <= 2**lat.d * lam * (1 + 1e-12)
        total += bad.values
    assert hits.max() <= 1  # disjoint cubes
    np.testing.assert_allclose(total, f.values, rtol=0, atol=1e-12 * float(v.max()))


def test_cz_rejects_bad_input():
    lat = Lattice(h=1.0, d=1, M=8)
    with pytest.raises(ValueError):
        cz_decompose(GridFunction(lat, -np.ones(8, dtype=complex)), 1.0)
    for lam in (0.0, -1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="threshold lambda"):
            cz_decompose(GridFunction(lat, 0.1 * np.ones(8, dtype=complex)), lam)
    with pytest.raises(ValueError, match="threshold too small"):
        cz_decompose(GridFunction(lat, 5.0 * np.ones(8, dtype=complex)), 1.0)
    lat12 = Lattice(h=1.0, d=1, M=12)
    with pytest.raises(ValueError, match="power-of-two"):
        cz_decompose(GridFunction(lat12, np.ones(12, dtype=complex) * 0.1), 1.0)


# ---------------------------------------------------------------------------
# boundary monitor

def test_boundary_mass_fraction():
    lat = Lattice(h=1.0, d=1, M=32)
    center = point_mass(lat)
    assert boundary_mass_fraction(center) == 0.0
    edge = point_mass(lat, site=15)
    assert boundary_mass_fraction(edge) == 1.0
    assert boundary_mass_fraction(GridFunction(lat, np.zeros(32))) == 0.0


def test_boundary_mask_counts_edge_layers():
    assert boundary_mask(Lattice(h=1.0, d=1, M=32)).sum() == 4  # max(1, 32 // 16) layers at each end
    assert boundary_mask(Lattice(h=1.0, d=2, M=32), width=3).sum() == 32**2 - 26**2
    mask = boundary_mask(Lattice(h=1.0, d=1, M=8))
    assert mask.tolist() == [False, False, False, True, True, False, False, False]  # FFT order: sites 3, -4


@pytest.mark.parametrize("width", [0.0, -4.0, math.nan, math.inf])
def test_gaussian_rejects_a_width_that_is_not_positive_and_finite(width):
    with pytest.raises(ConfigurationError, match=f"width={width!r}"):
        gaussian(Lattice(h=1.0, d=1, M=16), width)
