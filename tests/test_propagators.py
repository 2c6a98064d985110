import dataclasses
import math
from functools import reduce

import numpy as np
import pytest

from latticewave.errors import ConfigurationError
from latticewave.lattice import GridFunction, Lattice, gaussian, lp_norm, plane_wave, point_mass
from latticewave.propagators import (
    DISPERSIONS,
    FLOW_KINDS,
    PhaseSpec,
    degenerate_points,
    dispersion,
    kg_phase_curvature,
    schrodinger_flow,
)
from latticewave.spectral import (
    apply_multiplier,
    band_projection,
    band_symbol,
    laplacian_symbol_grid,
    lattice_symbol,
)


# oracles: the per-sample flow, the half-wave symbol on the full grid, and flows built from it and from
# band projections

def flow(kind, spectrum, lattice, t):
    """The ``kind`` flow at time t of the datum whose forward transform is ``spectrum``.

    The per-sample path that the row-batched time loop of ``latticewave.harness``
    must equal bit for bit: one phase grid and one inverse transform per sample,
    written into the product it transforms.

    Keep the product expression as written.  For operands of 256 KiB or more
    numpy elides the temporary phase grid and multiplies into it with the
    operands swapped, and complex products can differ in the last bit with
    the operand order; ``np.multiply(spectrum, phase, out=...)`` would move
    sup norms by ~1e-17 against every earlier result.
    """
    product = spectrum * PhaseSpec(kind, lattice).multiplier_grid(t)
    return GridFunction(lattice, np.fft.ifftn(product, out=product))


def kg_dispersion_grid(lattice):
    """sqrt(1 + (4/h^2) sin^2(h xi / 2)) on the dual grid."""
    return np.sqrt(1.0 + laplacian_symbol_grid(lattice))


def klein_gordon_flow(f, t):
    """Half-wave flow with multiplier exp(i t sqrt(1 + (4/h^2) sin^2(h xi/2))), d = 1."""
    return apply_multiplier(PhaseSpec("klein_gordon", f.lattice).multiplier_grid(t), f)


def localized_flow(f, t, N):
    """Free flow applied to the scale-N dyadic band of f."""
    return schrodinger_flow(band_projection(f, N), t)


def random_field(lat, seed):
    rng = np.random.default_rng(seed)
    return GridFunction(lat, rng.standard_normal(lat.shape) + 1j * rng.standard_normal(lat.shape))


def test_flows_at_time_zero():
    lat = Lattice(h=0.5, d=1, M=32)
    f = random_field(lat, 0)
    np.testing.assert_allclose(schrodinger_flow(f, 0.0).values, f.values, atol=1e-13)
    np.testing.assert_allclose(klein_gordon_flow(f, 0.0).values, f.values, atol=1e-13)
    np.testing.assert_allclose(localized_flow(f, 0.0, 0.25).values, band_projection(f, 0.25).values, atol=1e-13)


def test_unitarity_and_group_law():
    lat = Lattice(h=0.5, d=2, M=16)
    f = random_field(lat, 1)
    for t in (0.3, 1.7, -2.4):
        assert lp_norm(schrodinger_flow(f, t), 2) == pytest.approx(lp_norm(f, 2), rel=1e-12)
    two_step = schrodinger_flow(schrodinger_flow(f, 0.4), 1.1)
    np.testing.assert_allclose(two_step.values, schrodinger_flow(f, 1.5).values, atol=1e-10)
    lat1 = Lattice(h=0.5, d=1, M=32)
    g = random_field(lat1, 2)
    assert lp_norm(klein_gordon_flow(g, 2.2), 2) == pytest.approx(lp_norm(g, 2), rel=1e-12)
    kg2 = klein_gordon_flow(klein_gordon_flow(g, 0.9), 0.6)
    np.testing.assert_allclose(kg2.values, klein_gordon_flow(g, 1.5).values, atol=1e-10)


def test_schrodinger_plane_wave_phase():
    lat = Lattice(h=0.5, d=1, M=32)
    k, t = 6, 1.3
    pw = plane_wave(lat, k)
    xi = 2 * np.pi * k / (lat.h * lat.M)
    phase = np.exp(-1j * t * (4.0 / lat.h**2) * np.sin(lat.h * xi / 2.0) ** 2)
    np.testing.assert_allclose(schrodinger_flow(pw, t).values, phase * pw.values, atol=1e-12)


@pytest.mark.parametrize("d, sources", [(1, [((5,), 1.0)]), (2, [((3, -5), 1.0), ((-6, 2), 0.5 - 1.0j)])],
                         ids=["d1-one-mass", "d2-two-masses"])
def test_schrodinger_flow_of_point_masses_equals_shifted_bessel_products(d, sources):
    """The flow of c delta_s / h^d is c h^-d e^(-2idt/h^2) prod_j i^(m_j) J_(m_j)(2t/h^2) at n = s + m (Jacobi-Anger
    on each axis's multiplier e^(-2it/h^2) e^(i (2t/h^2) cos h xi); Stefanov-Kevrekidis, Nonlinearity 18 (2005)).
    Two masses off the diagonal make a datum that is no outer product.  At 2t/h^2 = 4 an image one box away
    sits at |m| >= 32, where J_32(4) < 1e-25, so the periodic field is the sum of the shifted kernels."""
    from scipy.special import jv

    h, M, t = 0.5, 64, 0.5
    lat, z = Lattice(h=h, d=d, M=M), 2.0 * t / h**2
    u0 = GridFunction(lat, sum(point_mass(lat, site, c / h**d).values for site, c in sources))
    expected = 0.0
    for site, c in sources:
        offsets = [(np.arange(M) - s + M // 2) % M - M // 2 for s in site]  # the nearest image of n - s
        factors = [np.array([1.0, 1.0j, -1.0, -1.0j])[m % 4] * jv(m, z) for m in offsets]
        expected = expected + c / h**d * np.exp(-2.0j * d * t / h**2) * reduce(np.multiply.outer, factors)
    error = np.abs(schrodinger_flow(u0, t).values - expected).max()
    assert error <= 1e-13 * np.abs(expected).max()


def test_flow_commutes_with_band_projection():
    lat = Lattice(h=0.5, d=1, M=64)
    f = random_field(lat, 3)
    a = schrodinger_flow(band_projection(f, 0.25), 0.8)
    b = band_projection(schrodinger_flow(f, 0.8), 0.25)
    assert np.abs(a.values - b.values).max() < 1e-12


def test_localized_flow_preserves_projected_mass():
    lat = Lattice(h=0.5, d=1, M=64)
    f = random_field(lat, 4)
    pn = band_projection(f, 0.125)
    assert lp_norm(localized_flow(f, 2.0, 0.125), 2) == pytest.approx(lp_norm(pn, 2), rel=1e-12)


def test_klein_gordon_constant_rotates():
    lat = Lattice(h=0.5, d=1, M=32)
    c = GridFunction(lat, np.full(32, 1.0 + 0.0j))
    out = klein_gordon_flow(c, 0.7)
    np.testing.assert_allclose(out.values, np.exp(0.7j) * c.values, atol=1e-13)


def test_klein_gordon_scope():
    lat = Lattice(h=0.5, d=2, M=8)
    with pytest.raises(ValueError, match="d = 1"):
        klein_gordon_flow(random_field(lat, 5), 1.0)
    with pytest.raises(ValueError):
        PhaseSpec("klein_gordon", lat)
    with pytest.raises(ValueError):
        PhaseSpec("wave", Lattice(h=1.0, d=1, M=8))


def test_phase_spec_checks_against_flow_kinds():
    lat = Lattice(h=1.0, d=1, M=8)
    for kind in FLOW_KINDS:
        assert PhaseSpec(kind, lat).multiplier_grid(0.0).shape == lat.shape
    with pytest.raises(ConfigurationError, match="unknown flow kind"):
        PhaseSpec("wave", lat)
    with pytest.raises(ConfigurationError, match="d = 1"):
        PhaseSpec("klein_gordon", Lattice(h=1.0, d=2, M=8))


def test_dispersion_accessor_checks_the_kind_and_its_dimension():
    assert FLOW_KINDS == tuple(DISPERSIONS) == ("schrodinger", "klein_gordon")
    for kind in FLOW_KINDS:
        assert dispersion(kind, 1) is DISPERSIONS[kind]
        for d in (2, 3):
            if DISPERSIONS[kind].additive:
                assert dispersion(kind, d) is DISPERSIONS[kind]
            else:
                with pytest.raises(ConfigurationError, match="d = 1"):
                    dispersion(kind, d)
    with pytest.raises(ConfigurationError, match="unknown flow kind 'wave'"):
        dispersion("wave", 1)


@pytest.mark.parametrize("kind", FLOW_KINDS)
@pytest.mark.parametrize("t", [0.7, -2.5])
def test_additive_flag_is_true_to_the_phase(kind, t):
    """At d = 2 the phase of the summed symbol is the outer product of the one-axis phases
    exactly when the kind says it is additive."""
    lat = Lattice(h=0.5, d=2, M=16)
    flow = DISPERSIONS[kind]
    axis = np.exp(-1j * t * flow.frequency(lattice_symbol(lat.axis_frequencies(), lat.h)))
    summed = np.exp(-1j * t * flow.frequency(laplacian_symbol_grid(lat)))
    assert np.allclose(summed, np.multiply.outer(axis, axis), rtol=0, atol=1e-12) == DISPERSIONS[kind].additive


@pytest.mark.parametrize("kind,d", [("schrodinger", 1), ("schrodinger", 2), ("schrodinger", 3),
                                    ("klein_gordon", 1)])
@pytest.mark.parametrize("h", [1.0, 0.3])
@pytest.mark.parametrize("t", [0.0, 0.7, -0.7, 3e4])
def test_separable_phase_matches_full_grid_exp(kind, d, h, t):
    """The per-axis outer product against the exponential of the summed symbol."""
    lat = Lattice(h=h, d=d, M=16)
    if kind == "schrodinger":
        sym = laplacian_symbol_grid(lat)
        oracle = np.exp(-1j * t * sym)
    else:
        sym = kg_dispersion_grid(lat)
        oracle = np.exp(1j * t * sym)
    phase = PhaseSpec(kind, lat).multiplier_grid(t)
    assert phase.shape == lat.shape
    if d == 1:
        assert np.array_equal(phase, oracle)
    else:
        atol = 16 * np.finfo(float).eps * (1.0 + abs(t) * sym.max())
        np.testing.assert_allclose(phase, oracle, rtol=0, atol=atol)


@pytest.mark.parametrize("kind", FLOW_KINDS)
@pytest.mark.parametrize("t", [0.0, 1.3, -1.3, 3e4])
def test_half_axis_phase_equals_full_axis_formula(kind, t):
    """The phase mirrored from its first M/2+1 entries is the full-axis exponential, bit for bit."""
    # every even M up to 1024, then every 30th even M (none a power of two) and the powers 2048, 4096
    for M in [*range(4, 1025, 2), *range(1026, 4096, 60), 2048, 4096]:
        lat = Lattice(h=0.3, d=1, M=M)
        sym = (4.0 / lat.h**2) * np.sin(0.5 * lat.h * lat.axis_frequencies()) ** 2
        full = np.exp(-1j * t * sym) if kind == "schrodinger" else np.exp(1j * t * np.sqrt(1.0 + sym))
        assert np.array_equal(PhaseSpec(kind, lat).multiplier_grid(t), full), M


@pytest.mark.parametrize("kind", FLOW_KINDS)
def test_phase_spec_takes_the_frequency_once(kind, monkeypatch):
    """The dispersion relation is evaluated on the half axis when the flow is built, never per time."""
    row, sizes = DISPERSIONS[kind], []
    counting = dataclasses.replace(row, frequency=lambda s: sizes.append(s.size) or row.frequency(s))
    monkeypatch.setitem(DISPERSIONS, kind, counting)
    lat = Lattice(h=0.5, d=1, M=64)
    spec = PhaseSpec(kind, lat)
    for t in (0.5, -2.0):
        spec.multiplier_grid(t)
    spec.phases_into(np.array([1.0, 3.0]), np.empty((2,) + lat.shape, dtype=complex))
    assert sizes == [lat.M // 2 + 1]


@pytest.mark.parametrize("kind,d", [("schrodinger", 1), ("schrodinger", 2), ("schrodinger", 3),
                                    ("klein_gordon", 1)])
def test_block_phases_equal_phase_into_at_each_time_bit_for_bit(kind, d):
    """One broadcast evaluation for a vector of times writes, in each row, the bits multiplier_grid returns at
    that time, and the bits of the scalar-t full-axis phase multiplied out over the axes."""
    lat = Lattice(h=0.3, d=d, M=16 if d < 3 else 10)
    times = np.array([0.0, 1.3, -1.3, -0.0, 3e4, -2.5e-3, 7.0])
    spec, flow = PhaseSpec(kind, lat), DISPERSIONS[kind]
    block = spec.phases_into(times, np.empty((times.size,) + lat.shape, dtype=complex))
    axis_symbol = lattice_symbol(lat.axis_frequencies(), lat.h)
    for t, row in zip(times, block):
        alone = spec.multiplier_grid(float(t))
        dense = reduce(np.multiply.outer, [np.exp(-1j * float(t) * flow.frequency(axis_symbol))] * d)
        for want in (alone, dense):
            assert np.array_equal(row.view(np.uint64), want.view(np.uint64)), t


ELISION_CASES = {
    # 1 MiB complex grids, above numpy's 256 KiB temporary-elision threshold
    "klein_gordon-d1-M65536": ("klein_gordon", Lattice(h=1.0, d=1, M=65536),
                               lambda lat: band_projection(point_mass(lat), 0.25), 300.0),
    "schrodinger-d2-M256": ("schrodinger", Lattice(h=0.5, d=2, M=256), lambda lat: gaussian(lat, 4.0), 2.5),
}


@pytest.mark.parametrize("case", list(ELISION_CASES))
def test_in_place_inverse_transform_is_bit_identical(case):
    """flow and apply_multiplier transform into their product and still equal the plain expression."""
    kind, lat, datum, t = ELISION_CASES[case]
    f = datum(lat)
    spectrum = np.fft.fftn(f.values)
    grid = PhaseSpec(kind, lat).multiplier_grid(t)
    # the oracles stay out of the asserts: pytest's assertion rewriting keeps the temporaries alive,
    # which switches numpy's elision off
    expected_flow = np.fft.ifftn(spectrum * PhaseSpec(kind, lat).multiplier_grid(t))
    expected_multiplier = np.fft.ifftn(grid * np.fft.fftn(f.values))
    assert np.array_equal(flow(kind, spectrum, lat, t).values, expected_flow)
    assert np.array_equal(apply_multiplier(grid, f).values, expected_multiplier)


def test_degenerate_points_schrodinger():
    pts = degenerate_points("schrodinger", 1.0)
    np.testing.assert_allclose(pts, [-np.pi / 2, np.pi / 2])
    np.testing.assert_allclose(degenerate_points("schrodinger", 0.25), [-2 * np.pi, 2 * np.pi])


def bisect_curvature_root(h):
    """Oracle: root of the finite-difference second derivative of the dispersion relation."""

    def omega(xi):
        return math.sqrt(1.0 + (4.0 / h**2) * math.sin(h * xi / 2.0) ** 2)

    def om_pp(xi, d=1e-4):
        # step large enough that roundoff in the second difference stays small
        return (omega(xi + d) - 2 * omega(xi) + omega(xi - d)) / d**2

    lo, hi = 1e-3, math.pi / h - 1e-3
    assert om_pp(lo) > 0 > om_pp(hi)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if om_pp(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("h", [1.0, 0.5, 0.25])
def test_degenerate_point_klein_gordon(h):
    (neg, pos) = degenerate_points("klein_gordon", h)
    assert neg == -pos
    assert pos == pytest.approx(bisect_curvature_root(h), abs=1e-5)
    # closed-form curvature vanishes there
    assert abs(kg_phase_curvature(np.array([pos]), h)[0]) < 1e-12


def test_degenerate_point_exceeds_one():
    for h in np.linspace(0.01, 1.0, 50):
        assert degenerate_points("klein_gordon", h)[1] > 1.0


def test_degenerate_points_rejects_bad_args():
    with pytest.raises(ValueError):
        degenerate_points("schrodinger", 0.0)
    for h in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            degenerate_points("schrodinger", h)
        with pytest.raises(ValueError):
            degenerate_points("klein_gordon", h)
    with pytest.raises(ValueError):
        degenerate_points("wave", 1.0)


# oracle: the cosine product that the free flow's phase Hessian factors into

def hessian_cosine_product_min(lattice, N):
    """min over the scale-N band of |prod_j 2 cos(h xi_j)|.

    The phase Hessian of the free flow factors as t^d times this product, so a
    positive, h-stable minimum certifies non-degeneracy on the band.
    """
    mask = band_symbol(lattice, N) > 1e-12
    if not mask.any():
        raise ValueError(f"band at scale N={N} has no dual-grid support")
    prod = np.ones(lattice.shape, dtype=float)
    for g in lattice.frequency_grids():
        prod = prod * 2.0 * np.cos(lattice.h * g)
    return float(np.abs(prod[mask]).min())


@pytest.mark.parametrize("d", [1, 2])
def test_hessian_product_bound(d):
    # away from the quarter-frequency the cosine product has an h-independent floor
    mins = []
    for h in (1.0, 0.5, 0.25, 0.125):
        lat = Lattice(h=h, d=d, M=256 if d == 1 else 64)
        m = hessian_cosine_product_min(lat, 1.0 / 16.0)
        assert m >= (2.0 * math.cos(math.pi / 4.0)) ** d
        mins.append(m)
        assert hessian_cosine_product_min(lat, 1.0 / 8.0) > 0.0
    assert max(mins) / min(mins) < 1.5


def test_kg_curvature_floor_on_unit_ball():
    # |curvature| at |xi| <= 1 stays above an h-independent constant
    floors = []
    for h in (1.0, 0.5, 0.25, 0.125, 0.0625):
        lat = Lattice(h=h, d=1, M=int(64 / h))
        xi = lat.axis_frequencies()
        sel = np.abs(xi) <= 1.0
        floors.append(np.abs(kg_phase_curvature(xi[sel], h)).min())
    assert min(floors) > 0.1


def test_kg_dispersion_grid_matches_symbol():
    lat = Lattice(h=0.5, d=1, M=32)
    xi = lat.axis_frequencies()
    expected = np.sqrt(1.0 + (4.0 / lat.h**2) * np.sin(lat.h * xi / 2) ** 2)
    np.testing.assert_allclose(kg_dispersion_grid(lat), expected)
