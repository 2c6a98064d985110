"""Property tests on random small lattices: the transform pair, the free flows, one Strang step, its monitors."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from latticewave.dnls import NlsConfig, energy, evolve, mass, step_strang
from latticewave.lattice import GridFunction, Lattice, boundary_mask, inner_product, lp_norm
from latticewave.propagators import FLOW_KINDS
from latticewave.spectral import (
    SpectralFunction,
    discrete_laplacian,
    forward_transform,
    inverse_transform,
    laplacian_symbol_grid,
)
from test_propagators import flow

EPS = np.finfo(float).eps
_MAX_HALF_M = {1: 64, 2: 12, 3: 6}

_values = st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False)


@st.composite
def fields(draw, dims=(1, 2, 3)):
    """A complex field on a lattice with even M >= 4 (power of two or not) and h in [0.1, 10]."""
    d = draw(st.sampled_from(dims))
    M = 2 * draw(st.integers(2, _MAX_HALF_M[d]))
    lat = Lattice(h=draw(st.floats(0.1, 10.0)), d=d, M=M)
    return GridFunction(lat, draw(hnp.arrays(complex, lat.shape, elements=_values)))


@settings(max_examples=80)
@given(fields())
def test_parseval_and_transform_pair_are_inverse(f):
    lat = f.lattice
    F = forward_transform(f)
    norm = lp_norm(f, 2)
    # h^d sum |f|^2 = (2 pi)^-d * (dual cell volume) * sum |F|^2
    spectral = np.sqrt(lat.frequency_cell_volume() * np.sum(np.abs(F.coefficients) ** 2)) / (2.0 * np.pi) ** (lat.d / 2)
    assert abs(spectral - norm) <= 1e-13 * norm
    tol = 64 * EPS * max(float(np.abs(f.values).max()), 1e-300)
    np.testing.assert_allclose(inverse_transform(F).values, f.values, rtol=0, atol=tol)
    back = forward_transform(inverse_transform(SpectralFunction(lat, f.values)))
    np.testing.assert_allclose(back.coefficients, f.values, rtol=0, atol=tol)


@st.composite
def flow_cases(draw):
    """A flow kind (the half-wave flow only in d = 1), a field, and two times in [-10, 10]."""
    kind = draw(st.sampled_from(FLOW_KINDS))
    f = draw(fields(dims=(1,) if kind == "klein_gordon" else (1, 2, 3)))
    times = st.floats(-10.0, 10.0)
    return kind, f, draw(times), draw(times)


@settings(max_examples=80)
@given(flow_cases())
def test_flows_are_unitary_groups(case):
    kind, f, s, t = case
    lat = f.lattice
    norm = lp_norm(f, 2)
    spectrum = np.fft.fftn(f.values)
    ft = flow(kind, spectrum, lat, t)
    assert abs(lp_norm(ft, 2) - norm) <= 1e-12 * norm
    # the phase error grows with |time| * largest symbol value
    sym_max = float(laplacian_symbol_grid(lat).max())
    if kind == "klein_gordon":
        sym_max = np.sqrt(1.0 + sym_max)
    tol = 64 * EPS * (1.0 + (abs(s) + abs(t)) * sym_max) * norm
    composed = flow(kind, np.fft.fftn(ft.values), lat, s)
    assert lp_norm(composed - flow(kind, spectrum, lat, s + t), 2) <= tol
    # and flow(-t) undoes flow(t)
    assert lp_norm(flow(kind, np.fft.fftn(ft.values), lat, -t) - f, 2) <= tol


@settings(max_examples=80)
@given(flow_cases())
def test_flows_of_real_data_are_time_reversal_symmetric(case):
    # the invariant the space-time norm's time fold rests on: u(-t) = conj u(t) for a real datum
    kind, f, _, t = case
    spectrum = np.fft.fftn(f.values.real)
    backward = flow(kind, spectrum, f.lattice, -t).values
    forward = flow(kind, spectrum, f.lattice, t).values
    np.testing.assert_allclose(backward, np.conj(forward), rtol=0, atol=1e-12)


@settings(max_examples=60)
@given(fields(), st.floats(-5.0, 5.0), st.floats(1.0, 7.0, exclude_min=True), st.floats(1e-3, 1.0))
def test_strang_step_conserves_mass(f, lam, p, dt):
    cfg = NlsConfig(lam=lam, p=p, dt=dt, T=dt)
    m0 = mass(f)
    assert abs(mass(step_strang(f, dt, cfg)) - m0) <= 1e-12 * m0


@settings(max_examples=60)
@given(fields(), st.floats(-5.0, 5.0), st.floats(1.0, 7.0, exclude_min=True))
def test_parseval_monitors_match_physical_sums(f, lam, p):
    # evolve reads mass and the kinetic energy from the spectrum; these are the physical-space sums
    lat = f.lattice
    # no mass on the edge layers and one short step (dt h^-2 = 1e-4), so the boundary-mass window holds
    f = GridFunction(lat, np.where(boundary_mask(lat), 0.0, f.values))
    dt = 1e-4 * lat.h**2
    cfg = NlsConfig(lam=lam, p=p, dt=dt, T=dt, snapshot_stride=1)
    traj = evolve(f, cfg)
    for k, u in enumerate(traj.states):
        m = mass(u)
        kinetic = 0.5 * inner_product(-discrete_laplacian(u), u).real
        potential = lam / (p + 1.0) * lat.cell_volume * float(np.sum(np.abs(u.values) ** (p + 1.0)))
        # the kinetic energy is at most (2d/h^2) times the mass
        kinetic_scale = 2.0 * lat.d / lat.h**2 * m
        assert abs(traj.monitors["mass"][k] - m) <= 1e-12 * m
        assert abs(traj.monitors["energy"][k] - energy(u, lam, p)) <= 1e-12 * (kinetic_scale + abs(potential))
        assert abs(0.5 * traj.monitors["kinetic_h1"][k] ** 2 - kinetic) <= 1e-12 * kinetic_scale
