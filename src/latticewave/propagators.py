"""Exact spectral propagators for the lattice dispersive flows.

Time evolution is applied as a unimodular Fourier multiplier, so there is no
integrator error: t enters only through symbol evaluation.  Decay experiments
that consume these flows must keep the solution's mass away from the periodic
boundary (see :func:`latticewave.lattice.boundary_mass_fraction`).

Every symbol in ``FLOW_KINDS`` is real and even in the frequency, so the flow
of a real datum satisfies u(-t) = conj u(t).  The space-time norm loop in
:mod:`latticewave.harness` relies on this to flow a real datum once per
distinct |t|, so a flow kind added there must keep this invariant.

The Schrodinger symbol is also additive over the axes, so its flow is the
tensor product of the one-axis flows and maps an outer product of one-axis
data to the outer product of their flows.  The same loop relies on this to
flow such a datum as d one-axis transforms.  The half-wave symbol
sqrt(1 + sum_j) is not additive, and the loop flows every datum of any other
kind on the full grid.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .lattice import GridFunction, Lattice
from .spectral import BumpProfile, apply_multiplier, band_symbol, default_bump

__all__ = [
    "FLOW_KINDS",
    "PhaseSpec",
    "flow",
    "schrodinger_flow",
    "kg_phase_curvature",
    "degenerate_points",
    "hessian_cosine_product_min",
]


FLOW_KINDS = ("schrodinger", "klein_gordon")


@dataclass(frozen=True)
class PhaseSpec:
    """Which flow, at what time, on which lattice."""

    kind: str
    t: float
    lattice: Lattice

    def __post_init__(self):
        if self.kind not in FLOW_KINDS:
            raise ConfigurationError(f"unknown flow kind {self.kind!r}")
        if self.kind == "klein_gordon" and self.lattice.d != 1:
            raise ConfigurationError("the half-wave flow is implemented for d = 1 only")

    def multiplier_grid(self) -> np.ndarray:
        """exp(-i t symbol) (Schrodinger) or exp(i t symbol) (half-wave) on the dual grid.

        The symbol is a sum over axes, so the phase is the outer product of d
        one-axis phases: M*d exponentials instead of M^d.  The one-axis symbol
        is exactly even in FFT order (sym[k] == sym[M-k]: the frequencies are
        exact negatives and sine is odd), so the phase is evaluated on the
        first M/2+1 entries and mirrored onto the rest.
        """
        h, M = self.lattice.h, self.lattice.M
        sym = (4.0 / h**2) * np.sin(0.5 * h * self.lattice.axis_frequencies()[: M // 2 + 1]) ** 2
        if self.kind == "schrodinger":
            half = np.exp(-1j * self.t * sym)
        else:
            half = np.exp(1j * self.t * np.sqrt(1.0 + sym))
        phase = np.concatenate([half, half[M // 2 - 1 : 0 : -1]])
        return functools.reduce(np.multiply.outer, [phase] * self.lattice.d)


def flow(kind: str, spectrum: np.ndarray, lattice: Lattice, t: float) -> GridFunction:
    """The ``kind`` flow at time t of the datum whose forward transform is ``spectrum``.

    Time loops transform their datum once with ``np.fft.fftn`` and call this
    per sample, so each sample costs one inverse transform, written into the
    product it transforms (no further M^d allocation).

    Keep the product expression as written.  For operands of 256 KiB or more
    numpy elides the temporary phase grid and multiplies into it with the
    operands swapped, and complex products can differ in the last bit with
    the operand order; ``np.multiply(spectrum, phase, out=...)`` would move
    sup norms by ~1e-17 against every earlier result.
    """
    product = spectrum * PhaseSpec(kind, t, lattice).multiplier_grid()
    return GridFunction(lattice, np.fft.ifftn(product, out=product))


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
    A = 1.0 + (4.0 / h**2) * np.sin(0.5 * h * xi) ** 2
    return (-(c**2) + (h**2 + 2.0) * c - 1.0) / (h**2 * A**1.5)


def degenerate_points(kind: str, h: float) -> np.ndarray:
    """Frequencies where the phase loses convexity, per axis.

    For the free flow the Hessian degenerates at xi = +-pi/(2h).  For the
    half-wave the curvature vanishes where cos(h xi) solves
    c^2 - (h^2+2) c + 1 = 0, i.e. c = ((h^2+2) - h sqrt(h^2+4)) / 2; that
    frequency exceeds 1 in absolute value for every h in (0, 1].
    """
    if h <= 0:
        raise ValueError("h must be positive")
    if kind == "schrodinger":
        x = np.pi / (2.0 * h)
    elif kind == "klein_gordon":
        c = ((h**2 + 2.0) - h * np.sqrt(h**2 + 4.0)) / 2.0
        x = np.arccos(c) / h
    else:
        raise ValueError(f"unknown flow kind {kind!r}")
    return np.array([-x, x])


def hessian_cosine_product_min(lattice: Lattice, N: float, bump: BumpProfile = default_bump,
                               support_cutoff: float = 1e-12) -> float:
    """min over the scale-N band of |prod_j 2 cos(h xi_j)|.

    The phase Hessian of the free flow factors as t^d times this product, so a
    positive, h-stable minimum certifies non-degeneracy on the band.
    """
    sym = band_symbol(lattice, N, bump)
    mask = sym > support_cutoff
    if not mask.any():
        raise ValueError(f"band at scale N={N} has no dual-grid support")
    prod = np.ones(lattice.shape, dtype=float)
    for g in lattice.frequency_grids():
        prod = prod * 2.0 * np.cos(lattice.h * g)
    return float(np.abs(prod[mask]).min())
