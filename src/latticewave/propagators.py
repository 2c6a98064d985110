"""Exact spectral propagators for the lattice dispersive flows.

Time evolution is applied as a unimodular Fourier multiplier, so there is no
integrator error: t enters only through symbol evaluation.  Decay experiments
that consume these flows must keep the solution's mass away from the periodic
boundary (see :func:`latticewave.lattice.density_mass_fraction`, and
:func:`latticewave.harness._outer_edge_fractions` for a flow read as one-axis
factors).

Each flow kind is one :data:`DISPERSIONS` row, read through the checked
accessor :func:`dispersion`, and every flow is the multiplier exp(-i t omega)
of its row's signed frequency omega; a :class:`PhaseSpec` is that multiplier
on one lattice at any t.  Every frequency in the table is real and even in
the dual variable, so the flow of a real datum satisfies u(-t) = conj u(t); the
space-time norm loop in :mod:`latticewave.harness` relies on this to flow a
real datum once per distinct |t|, so a kind added to the table must keep it.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .lattice import GridFunction, Lattice
from .spectral import apply_multiplier, lattice_symbol, radial_power

__all__ = [
    "Dispersion",
    "DISPERSIONS",
    "FLOW_KINDS",
    "dispersion",
    "PhaseSpec",
    "schrodinger_flow",
    "kg_phase_curvature",
    "degenerate_points",
]


@dataclass(frozen=True)
class Dispersion:
    """One flow kind, in terms of the one-axis lattice symbol s = (4/h^2) sin^2(h xi / 2).

    ``frequency(s)`` is the signed dispersion relation omega(s): the flow at
    time t is the multiplier exp(-i t omega) for every kind, so the sign of
    omega states the direction of the flow.  ``additive``: the
    phase of a sum of one-axis symbols is the product of their phases, so
    the flow maps an outer product of one-axis data to the outer product of
    their flows; a kind without it runs in d = 1 only.  ``degenerate(h)`` is
    the positive frequency where the phase loses convexity along an axis,
    and ``weight(xi2, q)`` the uniform bound's derivative loss: a symbol of
    the continuum |xi|^2 grid ``xi2`` that weights the datum's L^2 norm.
    """

    frequency: Callable[[np.ndarray], np.ndarray]
    additive: bool
    degenerate: Callable[[float], float]
    weight: Callable[[np.ndarray, float], np.ndarray]


DISPERSIONS = {
    # the free lattice flow exp(-i t sum_j s_j)
    "schrodinger": Dispersion(
        frequency=lambda s: s,
        additive=True,
        degenerate=lambda h: np.pi / (2.0 * h),
        weight=lambda xi2, q: radial_power(xi2, 1.0 / q),
    ),
    # the d = 1 half-wave flow exp(i t sqrt(1 + s)) of Stefanov-Kevrekidis
    "klein_gordon": Dispersion(
        frequency=lambda s: -np.sqrt(1.0 + s),
        additive=False,
        degenerate=lambda h: np.arccos(((h**2 + 2.0) - h * np.sqrt(h**2 + 4.0)) / 2.0) / h,
        weight=lambda xi2, q: radial_power(1.0 + xi2, 1.0) * radial_power(xi2, 1.0 / 3.0),
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


class PhaseSpec:
    """The ``kind`` flow on ``lattice``, checked by :func:`dispersion`: its multiplier exp(-i t omega) at any
    time t, or at a vector of times at once.

    The kind's frequency omega of the one-axis lattice symbol on the first
    M/2+1 dual-grid frequencies (FFT order) does not depend on t, so the
    constructor builds it once, with its largest modulus.
    """

    def __init__(self, kind: str, lattice: Lattice):
        self.lattice = lattice
        flow = dispersion(kind, lattice.d)
        half_axis = lattice.axis_frequencies()[: lattice.M // 2 + 1]
        self._half_omega = flow.frequency(lattice_symbol(half_axis, lattice.h))
        self._max_omega = float(np.abs(self._half_omega).max())

    def phases_into(self, times: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write the phase at each of ``times`` into the rows of ``out`` (shape (len(times),) + the
        lattice's shape) and return it; ConfigurationError when some t * omega is past the float range.

        The one-axis symbol is exactly even in FFT order (sym[k] == sym[M-k]:
        the frequencies are exact negatives and sine is odd), and so is its
        frequency, so one broadcast evaluation writes every time's phase on
        the half-axis frequency straight into the first M/2+1 entries of its
        row, which are mirrored onto the rest.  In d >= 2 each row is the
        outer product of d one-axis phases: M*d exponentials per time instead
        of M^d.
        """
        lat = self.lattice
        t = np.asarray(times, dtype=float)[:, np.newaxis]
        t_max = float(np.abs(t).max())
        if not math.isfinite(t_max * self._max_omega):
            raise ConfigurationError(f"the phase t * omega is not finite at |t| = {t_max:.3g} "
                                     f"(max |omega| = {self._max_omega:.3g} on this lattice)")
        axes = out if lat.d == 1 else np.empty((t.shape[0], lat.M), dtype=complex)
        n = self._half_omega.size
        np.exp(-1j * t * self._half_omega, out=axes[:, :n])
        axes[:, n:] = axes[:, n - 2 : 0 : -1]
        grid = axes
        for j in range(1, lat.d):  # grid[k, i_1, ..., i_j] = prod over the axes of axes[k, i_axis], folded left
            last = axes.reshape((-1,) + (1,) * j + (lat.M,))
            grid = np.multiply(grid[..., np.newaxis], last, out=out if j == lat.d - 1 else None)
        return out

    def multiplier_grid(self, t: float) -> np.ndarray:
        """The phase at time t on a new dual grid (see :meth:`phases_into`)."""
        out = np.empty(self.lattice.shape, dtype=complex)
        self.phases_into([t], out[np.newaxis])
        return out


def schrodinger_flow(f: GridFunction, t: float) -> GridFunction:
    """Free flow with multiplier exp(-i t (4/h^2) sum_j sin^2(h xi_j / 2))."""
    return apply_multiplier(PhaseSpec("schrodinger", f.lattice).multiplier_grid(t), f)


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

