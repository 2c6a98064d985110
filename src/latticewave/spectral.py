"""FFT calculus on the lattice: transforms, multipliers, dyadic band projections, derivatives.

Conventions: the forward transform is h^d times the DFT, the inverse is the
uniform dual-grid Riemann sum of the inversion integral (cell volume
(2*pi/(h*M))^d), which makes the pair an exact mutual inverse and Parseval
exact up to roundoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import GridFunction, Lattice, lp_norm

__all__ = [
    "SpectralFunction",
    "BumpProfile",
    "default_bump",
    "forward_transform",
    "inverse_transform",
    "apply_multiplier",
    "band_scales",
    "band_symbol",
    "band_bank",
    "band_projection",
    "fractional_derivative",
    "bessel_derivative",
    "discrete_laplacian",
    "lattice_symbol",
    "laplacian_symbol_grid",
    "continuum_symbol_grid",
    "laplacian_power",
    "forward_difference",
    "sobolev_norm",
]


@dataclass
class SpectralFunction:
    """Coefficients on the dual grid, FFT frequency order, same cardinality as the sites."""

    lattice: Lattice
    coefficients: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=complex)
        if c.shape != self.lattice.shape:
            raise ValueError(f"coefficient shape {c.shape} != lattice shape {self.lattice.shape}")
        self.coefficients = c


def forward_transform(f: GridFunction) -> SpectralFunction:
    """h^d-weighted transform evaluated at the dual-grid frequencies."""
    return SpectralFunction(f.lattice, f.lattice.cell_volume * np.fft.fftn(f.values))


def inverse_transform(F: SpectralFunction) -> GridFunction:
    """Dual-grid Riemann sum of the inversion integral."""
    return GridFunction(F.lattice, np.fft.ifftn(F.coefficients) / F.lattice.cell_volume)


def apply_multiplier(grid: np.ndarray, f: GridFunction) -> GridFunction:
    """Transform, multiply pointwise by the dual-grid symbol ``grid``, transform back into the product.

    The product expression stays as written (see :func:`latticewave.propagators.flow`).
    """
    product = grid * np.fft.fftn(f.values)
    return GridFunction(f.lattice, np.fft.ifftn(product, out=product))


# ---------------------------------------------------------------------------
# smooth dyadic bump

class BumpProfile:
    """Smooth cutoff phi with phi = 1 on [-1,1]^d, phi = 0 off [-2,2]^d.

    Built per axis from the standard C-infinity transition
    t -> e^(-1/t) / (e^(-1/t) + e^(-1/(1-t))) and multiplied across axes.
    The dyadic difference varphi = phi - phi(2 .) then tiles: the sum of
    varphi(xi/N) over dyadic N <= 1 equals 1 for 0 < |xi|_inf <= 1.
    """

    @staticmethod
    def _step(t: np.ndarray) -> np.ndarray:
        t = np.clip(t, 0.0, 1.0)
        with np.errstate(divide="ignore", over="ignore"):
            a = np.where(t > 0, np.exp(-1.0 / np.maximum(t, 1e-300)), 0.0)
            b = np.where(t < 1, np.exp(-1.0 / np.maximum(1.0 - t, 1e-300)), 0.0)
        return a / (a + b)

    def phi1(self, t: np.ndarray) -> np.ndarray:
        """One-axis profile: 1 for |t| <= 1, 0 for |t| >= 2, smooth between."""
        return self._step(2.0 - np.abs(np.asarray(t, dtype=float)))

    def phi(self, *coords: np.ndarray) -> np.ndarray:
        out = self.phi1(coords[0])
        for c in coords[1:]:
            out = out * self.phi1(c)
        return out

    def varphi(self, *coords: np.ndarray) -> np.ndarray:
        return self.phi(*coords) - self.phi(*(2.0 * np.asarray(c, dtype=float) for c in coords))


default_bump = BumpProfile()


def _require_dyadic_leq_one(N: float) -> None:
    if not (N > 0 and N <= 1):
        raise ValueError("band scale N must be dyadic with N <= 1")
    j = math.log2(N)
    if abs(j - round(j)) > 1e-12:
        raise ValueError("band scale N must be a power of two")


def band_scales(lattice: Lattice) -> list[float]:
    """Dyadic scales N <= 1 whose frequency annulus meets the dual grid, ascending.

    The bands telescope to phi(u) - phi(2u / N_min), which is 1 at every
    nonzero dual-grid frequency (|u|_inf >= 1/M) exactly when N_min <= 1/M;
    the smallest scale is the largest such dyadic.
    """
    scales = [1.0]
    while scales[-1] * lattice.M > 1.0:
        scales.append(scales[-1] / 2.0)
    return scales[::-1]


def band_symbol(lattice: Lattice, N: float) -> np.ndarray:
    """Real symbol of the scale-N dyadic band: varphi(h xi / (2 pi N)) on the dual grid."""
    _require_dyadic_leq_one(N)
    u = np.fft.fftfreq(lattice.M) / N  # h*xi/(2*pi*N) along one axis
    grids = np.meshgrid(*([u] * lattice.d), indexing="ij", sparse=True)
    return np.broadcast_to(default_bump.varphi(*grids), lattice.shape).astype(float)


def band_bank(lattice: Lattice) -> np.ndarray:
    """Every ``band_symbol`` of ``band_scales(lattice)``, stacked in that order along axis 0."""
    return np.stack([band_symbol(lattice, N) for N in band_scales(lattice)])


def band_projection(f: GridFunction, N: float) -> GridFunction:
    """Smooth projection onto the dyadic frequency band at scale N (N dyadic, <= 1)."""
    return apply_multiplier(band_symbol(f.lattice, N), f)


# ---------------------------------------------------------------------------
# derivatives

_DC_TOLERANCE = 1e-12


def _check_mean_zero(f: GridFunction) -> None:
    dc = abs(complex(f.values.sum()))
    scale = float(np.abs(f.values).sum())
    if dc > _DC_TOLERANCE * max(scale, 1e-300):
        raise ValueError("homogeneous symbol singular at DC: input must be mean-zero")


def _radial_power_grid(lattice: Lattice, radial2: np.ndarray, s: float) -> np.ndarray:
    """radial2^(s/2) with the zero-frequency entry forced to 0."""
    out = np.zeros(lattice.shape, dtype=float)
    nz = radial2 > 0
    out[nz] = radial2[nz] ** (0.5 * s)
    return out


def fractional_derivative(f: GridFunction, s: float) -> GridFunction:
    """Multiplier |xi|^s; the DC coefficient is dropped, and s < 0 demands mean-zero input."""
    if s < 0:
        _check_mean_zero(f)
    return apply_multiplier(_radial_power_grid(f.lattice, continuum_symbol_grid(f.lattice), s), f)


def bessel_derivative(f: GridFunction, s: float) -> GridFunction:
    """Multiplier (1 + |xi|^2)^(s/2)."""
    return apply_multiplier((1.0 + continuum_symbol_grid(f.lattice)) ** (0.5 * s), f)


def discrete_laplacian(f: GridFunction) -> GridFunction:
    """Nearest-neighbour second difference sum_j (f(x+he_j) + f(x-he_j) - 2 f(x)) / h^2."""
    v = f.values
    out = np.zeros_like(v)
    for ax in range(f.lattice.d):
        out += np.roll(v, -1, axis=ax) + np.roll(v, 1, axis=ax) - 2.0 * v
    return GridFunction(f.lattice, out / f.lattice.h**2)


def lattice_symbol(xi: np.ndarray, h: float) -> np.ndarray:
    """One-axis symbol of the negated second difference at the frequencies xi: (4/h^2) sin^2(h xi / 2)."""
    return (4.0 / h**2) * np.sin(0.5 * h * xi) ** 2


def laplacian_symbol_grid(lattice: Lattice) -> np.ndarray:
    """Symbol of the negated second-difference operator: the sum over axes of :func:`lattice_symbol`."""
    out = np.zeros(lattice.shape, dtype=float)
    for g in lattice.frequency_grids():
        out = out + lattice_symbol(g, lattice.h)
    return out


def continuum_symbol_grid(lattice: Lattice) -> np.ndarray:
    """Symbol of the continuum negated Laplacian on the dual grid: |xi|^2 = sum_j xi_j^2, full shape."""
    return sum(g**2 for g in lattice.frequency_grids())


def laplacian_power(f: GridFunction, s: float) -> GridFunction:
    """Multiplier ((4/h^2) sum_j sin^2(h xi_j/2))^(s/2); s < 0 demands mean-zero input."""
    if s < 0:
        _check_mean_zero(f)
    return apply_multiplier(_radial_power_grid(f.lattice, laplacian_symbol_grid(f.lattice), s), f)


def forward_difference(f: GridFunction, axis: int) -> GridFunction:
    """One-sided difference (f(x + h e_axis) - f(x)) / h, axis counted from 0."""
    if not 0 <= axis < f.lattice.d:
        raise ValueError(f"axis {axis} out of range for dimension {f.lattice.d}")
    v = f.values
    return GridFunction(f.lattice, (np.roll(v, -1, axis=axis) - v) / f.lattice.h)


def sobolev_norm(f: GridFunction, s: float, p: float, homogeneous: bool = False) -> float:
    """Lp norm of the fractional (homogeneous) or Bessel (inhomogeneous) derivative."""
    g = fractional_derivative(f, s) if homogeneous else bessel_derivative(f, s)
    return lp_norm(g, p)
