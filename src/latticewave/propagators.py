"""Exact spectral propagators for the lattice dispersive flows.

Time evolution is applied as a unimodular Fourier multiplier, so there is no
integrator error: t enters only through symbol evaluation.  Decay experiments
that consume these flows must keep the solution's mass away from the periodic
boundary (see :func:`latticewave.lattice.boundary_mass_fraction`).

Each flow kind is one :data:`DISPERSIONS` row, read through the checked
accessor :func:`dispersion`.  Every symbol in the table is real and even in
the frequency, so the flow of a real datum satisfies u(-t) = conj u(t); the
space-time norm loop in :mod:`latticewave.harness` relies on this to flow a
real datum once per distinct |t|, so a kind added to the table must keep it.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .lattice import GridFunction, Lattice
from .spectral import apply_multiplier, band_symbol, bessel_derivative, fractional_derivative, lattice_symbol

__all__ = [
    "Dispersion",
    "DISPERSIONS",
    "FLOW_KINDS",
    "dispersion",
    "PhaseSpec",
    "half_axis_symbol",
    "phase_into",
    "schrodinger_flow",
    "kg_phase_curvature",
    "degenerate_points",
    "hessian_cosine_product_min",
]


@dataclass(frozen=True)
class Dispersion:
    """One flow kind, in terms of the one-axis lattice symbol s = (4/h^2) sin^2(h xi / 2).

    ``phase(t, s, out)`` is the multiplier at time t, written into ``out``
    (a new array when ``out`` is None).  ``additive``: the phase of a
    sum of one-axis symbols is the product of their phases, so the flow maps
    an outer product of one-axis data to the outer product of their flows; a
    kind without it runs in d = 1 only.  ``degenerate(h)`` is the positive
    frequency where the phase loses convexity along an axis, and
    ``weight(u, q)`` the derivative-weighted datum whose L^2 norm bounds the
    space-time norm uniformly in h.
    """

    phase: Callable[..., np.ndarray]
    additive: bool
    degenerate: Callable[[float], float]
    weight: Callable[[GridFunction, float], GridFunction]


DISPERSIONS = {
    # the free lattice flow exp(-i t sum_j s_j)
    "schrodinger": Dispersion(
        phase=lambda t, s, out=None: np.exp(-1j * t * s, out=out),
        additive=True,
        degenerate=lambda h: np.pi / (2.0 * h),
        weight=lambda u, q: fractional_derivative(u, 0.0 if math.isinf(q) else 1.0 / q),
    ),
    # the d = 1 half-wave flow exp(i t sqrt(1 + s)) of Stefanov-Kevrekidis
    "klein_gordon": Dispersion(
        phase=lambda t, s, out=None: np.exp(1j * t * np.sqrt(1.0 + s), out=out),
        additive=False,
        degenerate=lambda h: np.arccos(((h**2 + 2.0) - h * np.sqrt(h**2 + 4.0)) / 2.0) / h,
        weight=lambda u, q: bessel_derivative(fractional_derivative(u, 1.0 / 3.0), 1.0),
    ),
}

FLOW_KINDS = tuple(DISPERSIONS)


def dispersion(kind: str, d: int) -> Dispersion:
    """The table row of ``kind`` on a d-dimensional lattice; ConfigurationError for an
    unknown kind, or for a kind that is not additive over the axes at d != 1."""
    if kind not in DISPERSIONS:
        raise ConfigurationError(f"unknown flow kind {kind!r}")
    if not DISPERSIONS[kind].additive and d != 1:
        raise ConfigurationError(f"the {kind} flow is not additive over the axes and is implemented for d = 1 only")
    return DISPERSIONS[kind]


@dataclass(frozen=True)
class PhaseSpec:
    """Which flow, at what time, on which lattice."""

    kind: str
    t: float
    lattice: Lattice

    def __post_init__(self):
        dispersion(self.kind, self.lattice.d)

    def multiplier_grid(self) -> np.ndarray:
        """The kind's phase of the lattice symbol at time t on the dual grid (see :func:`phase_into`)."""
        return phase_into(self.kind, self.t, self.lattice, half_axis_symbol(self.lattice),
                          np.empty(self.lattice.shape, dtype=complex))


def half_axis_symbol(lattice: Lattice) -> np.ndarray:
    """The one-axis lattice symbol on the first M/2+1 dual-grid frequencies (FFT order); it does not depend on t."""
    return lattice_symbol(lattice.axis_frequencies()[: lattice.M // 2 + 1], lattice.h)


def phase_into(kind: str, t: float, lattice: Lattice, half_symbol: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the ``kind`` phase at time t on the dual grid of ``lattice`` into ``out`` and return it.

    The one-axis symbol is exactly even in FFT order (sym[k] == sym[M-k]: the
    frequencies are exact negatives and sine is odd), so the phase is
    evaluated on ``half_symbol`` (:func:`half_axis_symbol`) straight into the
    first M/2+1 entries and mirrored onto the rest.  In d >= 2 it is the
    outer product of d one-axis phases: M*d exponentials instead of M^d.
    """
    axis = out if lattice.d == 1 else np.empty(lattice.M, dtype=complex)
    n = half_symbol.size
    DISPERSIONS[kind].phase(t, half_symbol, axis[:n])
    axis[n:] = axis[n - 2 : 0 : -1]
    if lattice.d > 1:
        np.multiply.outer(functools.reduce(np.multiply.outer, [axis] * (lattice.d - 1)), axis, out=out)
    return out


def schrodinger_flow(f: GridFunction, t: float) -> GridFunction:
    """Free flow with multiplier exp(-i t (4/h^2) sum_j sin^2(h xi_j / 2))."""
    return apply_multiplier(PhaseSpec("schrodinger", t, f.lattice).multiplier_grid(), f)


def kg_phase_curvature(xi: np.ndarray, h: float) -> np.ndarray:
    """Second derivative in xi of sqrt(1 + (4/h^2) sin^2(h xi / 2)).

    Closed form: (-(cos h xi)^2 + (h^2+2) cos h xi - 1) / (h^2 A^(3/2)) with
    A = 1 + (4/h^2) sin^2(h xi / 2).  Vanishes exactly at the degenerate
    frequency returned by :func:`degenerate_points`.
    """
    xi = np.asarray(xi, dtype=float)
    c = np.cos(h * xi)
    A = 1.0 + lattice_symbol(xi, h)
    return (-(c**2) + (h**2 + 2.0) * c - 1.0) / (h**2 * A**1.5)


def degenerate_points(kind: str, h: float) -> np.ndarray:
    """Frequencies +-x where the phase loses convexity, per axis, x the kind's ``degenerate(h)``.

    For the free flow the Hessian degenerates at xi = +-pi/(2h).  For the
    half-wave the curvature vanishes where cos(h xi) solves
    c^2 - (h^2+2) c + 1 = 0, i.e. c = ((h^2+2) - h sqrt(h^2+4)) / 2; that
    frequency exceeds 1 in absolute value for every h in (0, 1].
    """
    disp = dispersion(kind, 1)
    if not 0 < h < math.inf:  # also rejects NaN, for which every comparison is false
        raise ValueError(f"h must be positive and finite, got {h!r}")
    x = disp.degenerate(h)
    return np.array([-x, x])


def hessian_cosine_product_min(lattice: Lattice, N: float) -> float:
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
