"""Periodic lattice geometry, complex grid functions, and h-weighted measure operations.

The spatial domain is a periodic truncation of the infinite grid with spacing
``h``: sites are x = h*n with integer coordinates n in {-M/2, ..., M/2-1} per
axis.  Arrays are stored in FFT order (0, 1, ..., M/2-1, -M/2, ..., -1) along
every axis so transforms need no reshuffling.  All norms and inner products carry
the cell volume h^d so that values are stable as h shrinks with the physical
box held fixed.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "BOUNDARY_THRESHOLD",
    "MAX_SITES",
    "check_sites",
    "Lattice",
    "GridFunction",
    "DyadicCube",
    "CZBadParts",
    "CZDecomposition",
    "lp_norm",
    "modulus_lp_norm",
    "inner_product",
    "cz_decompose",
    "point_mass",
    "plane_wave",
    "continuum_gaussian",
    "gaussian",
    "from_function",
    "boundary_mask",
    "density_mass_fraction",
    "boundary_mass_fraction",
]


MAX_SITES = 2**22
"""Cap on the site count M^d: 16 times the largest lattice the experiments use (512^2 in d=2),
so a tiny spacing fails with a named error before any grid is allocated."""


def check_sites(count: float, what: str) -> None:
    """The one bound on a count of sites, samples or steps: ConfigurationError "<what> exceeds MAX_SITES" (NaN too)."""
    if not count <= MAX_SITES:
        raise ConfigurationError(f"{what} exceeds MAX_SITES = {MAX_SITES}")


@dataclass(frozen=True)
class Lattice:
    """Uniform periodic grid: spacing ``h``, dimension ``d``, ``M`` sites per axis."""

    h: float
    d: int
    M: int

    def __post_init__(self):
        if not 0 < self.h < math.inf:  # also rejects NaN
            raise ValueError(f"lattice spacing h must be positive and finite, got h={self.h!r}")
        if self.d not in (1, 2, 3):
            raise ValueError("dimension d must be 1, 2 or 3")
        if self.M < 4 or self.M % 2 != 0:
            raise ValueError("M must be an even integer >= 4")
        check_sites(int(self.M) ** self.d, f"site count M^d = {self.M}^{self.d}")
        h2, volume = self.h * self.h, math.prod([self.h] * self.d)  # products reach inf where ** would raise
        if not max(h2, volume, self.h * self.M) < math.inf:
            raise ConfigurationError(f"lattice spacing h={self.h!r} is too large: h^2, the cell volume h^{self.d} "
                                     f"or the box h*M = {self.h!r}*{self.M} is not finite")
        if volume < sys.float_info.min or h2 == 0.0 or math.isinf(4.0 / h2):
            raise ConfigurationError(f"lattice spacing h={self.h!r} is too small: the cell volume h^{self.d} is "
                                     "below the smallest normal float or the symbol scale 4/h^2 overflows")

    @classmethod
    def for_box(cls, h: float, d: int, box: float) -> "Lattice":
        """The lattice of spacing ``h`` whose periodic box is nearest ``box``: M = round(box / h)."""
        if not 0 < h < math.inf:
            raise ValueError(f"lattice spacing h must be positive and finite, got h={h!r}")
        if not 0 < box < math.inf:
            raise ValueError("box length must be positive and finite")
        M = box / h  # over the cap in every d; the check also keeps an infinite box / h from round()
        check_sites(M, f"site count: box / h = {M:.3g} sites per axis")
        M = int(round(M))
        if M < 4 or M % 2 != 0:
            raise ConfigurationError(f"box / h = {box!r} / {h!r} rounds to M = {M} sites per axis; "
                                     "the lattice needs an even M >= 4")
        return cls(h=h, d=d, M=M)

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.M,) * self.d

    @property
    def site_count(self) -> int:
        return self.M**self.d

    @property
    def cell_volume(self) -> float:
        return self.h**self.d

    @property
    def box_length(self) -> float:
        return self.h * self.M

    def site_indices(self) -> np.ndarray:
        """Integer site coordinates along one axis, FFT order."""
        return np.rint(np.fft.fftfreq(self.M) * self.M).astype(np.int64)

    def axis_coordinates(self) -> np.ndarray:
        return self.h * self.site_indices().astype(float)

    def axis_frequencies(self) -> np.ndarray:
        """Dual-grid frequencies 2*pi*k/(h*M) along one axis, FFT order."""
        return 2.0 * np.pi * np.fft.fftfreq(self.M) / self.h

    def coordinate_grids(self) -> list[np.ndarray]:
        """Broadcastable physical coordinates, one array per axis."""
        c = self.axis_coordinates()
        return list(np.meshgrid(*([c] * self.d), indexing="ij", sparse=True))

    def frequency_grids(self) -> list[np.ndarray]:
        """Broadcastable dual-grid frequencies, one array per axis."""
        f = self.axis_frequencies()
        return list(np.meshgrid(*([f] * self.d), indexing="ij", sparse=True))

    def frequency_cell_volume(self) -> float:
        """Volume of one dual-grid quadrature cell, (2*pi/(h*M))^d."""
        return (2.0 * np.pi / (self.h * self.M)) ** self.d


@dataclass
class GridFunction:
    """Complex field sampled on the sites of a :class:`Lattice`."""

    lattice: Lattice
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.shape != self.lattice.shape:
            raise ValueError(f"values shape {v.shape} != lattice shape {self.lattice.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("grid function contains non-finite entries")
        self.values = v

    def copy(self) -> "GridFunction":
        return GridFunction(self.lattice, self.values.copy())

    def __add__(self, other: "GridFunction") -> "GridFunction":
        _check_same_lattice(self, other)
        return GridFunction(self.lattice, self.values + other.values)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        _check_same_lattice(self, other)
        return GridFunction(self.lattice, self.values - other.values)

    def __mul__(self, scalar: complex) -> "GridFunction":
        return GridFunction(self.lattice, self.values * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "GridFunction":
        return GridFunction(self.lattice, -self.values)


def _check_same_lattice(f: GridFunction, g: GridFunction) -> None:
    if f.lattice != g.lattice:
        raise ValueError("grid functions live on different lattices")


# ---------------------------------------------------------------------------
# constructors

def point_mass(lattice: Lattice, site: tuple[int, ...] | int = 0, value: complex = 1.0) -> GridFunction:
    """Single nonzero entry at the given integer site coordinates."""
    if isinstance(site, int):
        site = (site,) * lattice.d
    idx = tuple(int(s) % lattice.M for s in site)
    v = np.zeros(lattice.shape, dtype=complex)
    v[idx] = value
    return GridFunction(lattice, v)


def plane_wave(lattice: Lattice, k: tuple[int, ...] | int) -> GridFunction:
    """exp(i x . xi_k) for the dual-grid frequency with integer index ``k``."""
    if isinstance(k, int):
        k = (k,) + (0,) * (lattice.d - 1)
    coords = lattice.coordinate_grids()
    freqs = [2.0 * np.pi * kj / (lattice.h * lattice.M) for kj in k]
    phase = sum(c * f for c, f in zip(coords, freqs))
    return GridFunction(lattice, np.exp(1j * np.broadcast_to(phase, lattice.shape)))


def continuum_gaussian(amplitude: complex = 1.0, width: float = 2.0):
    """The continuum profile amplitude * exp(-|x|^2 / (2 width^2)), to sample with :func:`from_function`."""
    if not (np.isfinite(amplitude) and width > 0 and 0 < 2.0 * width * width < math.inf):  # NaN fails too
        raise ConfigurationError(f"the Gaussian needs a finite amplitude and a positive width with 2 width^2 "
                                 f"positive and finite, got amplitude={amplitude!r}, width={width!r}")

    def profile(*coords):
        r2 = sum(np.asarray(c, dtype=float) ** 2 for c in coords)
        with np.errstate(over="ignore"):  # off the centre of a tiny width, -r2 / (2 width^2) = -inf and exp gives 0
            return amplitude * np.exp(-r2 / (2.0 * width**2))

    return profile


def gaussian(lattice: Lattice, width: float, amplitude: complex = 1.0) -> GridFunction:
    """:func:`continuum_gaussian` sampled on ``lattice``: centred on the site x = 0 (the middle of the box)."""
    return from_function(lattice, continuum_gaussian(amplitude, width))


def from_function(lattice: Lattice, fn) -> GridFunction:
    """Sample ``fn(*coords)`` on the site grid."""
    coords = lattice.coordinate_grids()
    return GridFunction(lattice, np.broadcast_to(fn(*coords), lattice.shape).astype(complex))


# ---------------------------------------------------------------------------
# norms and bilinear operations

def lp_norm(f: GridFunction, p: float) -> float:
    """h-weighted lattice p-norm: (h^d sum |f|^p)^(1/p), sup norm for p = inf."""
    if not p >= 1:
        raise ValueError("p must satisfy p >= 1")
    return modulus_lp_norm(np.abs(f.values), f.lattice, p)


def modulus_lp_norm(a: np.ndarray, lattice: Lattice, p: float) -> float:
    """:func:`lp_norm` of a field on ``lattice`` from its modulus ``a`` = |f|, p >= 1."""
    if math.isinf(p):
        return float(a.max()) if a.size else 0.0
    return float((lattice.cell_volume * np.sum(a if p == 1 else a**p)) ** (1.0 / p))  # a**1 is a, bit for bit


def inner_product(f: GridFunction, g: GridFunction) -> complex:
    """h^d sum f conj(g)."""
    _check_same_lattice(f, g)
    return complex(f.lattice.cell_volume * np.vdot(g.values, f.values))


# ---------------------------------------------------------------------------
# dyadic block averages and the stopping-time decomposition

def _block_averages(values: np.ndarray, N: int) -> np.ndarray:
    """Mean over each aligned N^d block; returns the coarse (M/N)^d array."""
    d = values.ndim
    M = values.shape[0]
    shape = []
    for _ in range(d):
        shape.extend([M // N, N])
    blocks = values.reshape(shape)
    return blocks.mean(axis=tuple(range(1, 2 * d, 2)))


def _upsample(coarse: np.ndarray, N: int) -> np.ndarray:
    out = coarse
    for ax in range(coarse.ndim):
        out = np.repeat(out, N, axis=ax)
    return out


@dataclass(frozen=True)
class DyadicCube:
    """Axis-aligned dyadic cube: low-corner site index per axis and side N sites."""

    corner: tuple[int, ...]
    scale: int
    h: float

    @property
    def side_length(self) -> float:
        return self.scale * self.h


class CZBadParts(Sequence[GridFunction]):
    """Read-only sequence of CZ bad parts, each built on access.

    The selected cubes are disjoint, so one residual array ``f - good`` (zero
    off the covered set) holds every bad part: part ``i`` is that residual
    restricted to cube ``i``.  Memory stays O(M^d) however many cubes there are.
    """

    def __init__(self, lattice: Lattice, residual: np.ndarray, cubes: tuple[DyadicCube, ...]):
        residual.flags.writeable = False
        self._lattice = lattice
        self._residual = residual
        self._cubes = cubes

    def __len__(self) -> int:
        return len(self._cubes)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        cube = self._cubes[index]
        M = self._lattice.M
        block = tuple(slice(c % M, c % M + cube.scale) for c in cube.corner)
        b = np.zeros(self._lattice.shape, dtype=complex)
        b[block] = self._residual[block]
        return GridFunction(self._lattice, b)


@dataclass
class CZDecomposition:
    """Split f = good + sum(bads) at threshold lambda over maximal dyadic cubes."""

    good: GridFunction
    bads: Sequence[GridFunction]
    cubes: list[DyadicCube]
    lam: float


def cz_decompose(f: GridFunction, lam: float) -> CZDecomposition:
    """Stopping-time decomposition of a nonnegative grid function at level ``lam``.

    Selected cubes are the maximal dyadic cubes whose average exceeds ``lam``
    while every strictly larger containing dyadic cube has average <= ``lam``.
    On each selected cube the good part equals the cube average and the bad
    part carries the mean-zero remainder; off the cubes good = f <= lam.  The
    bad parts are built on access from one residual array (see
    :class:`CZBadParts`).

    Requires a finite ``lam > 0``, a power-of-two M so the chain of parent
    cubes reaches the full grid, and a global average <= lam so maximal cubes
    exist strictly inside.
    """
    lat = f.lattice
    if not 0 < lam < math.inf:
        raise ValueError(f"threshold lambda must be positive and finite, got {lam!r}")
    v = f.values
    if np.any(v.imag != 0):
        raise ValueError("decomposition requires a real-valued input")
    v = v.real
    if np.any(v < 0):
        raise ValueError("decomposition requires a nonnegative input")
    if lat.M & (lat.M - 1) != 0:
        raise ValueError("decomposition requires a power-of-two grid size M")
    if float(v.mean()) > lam:
        raise ValueError("threshold too small for truncation: global average exceeds lambda")

    site_idx = lat.site_indices()
    good = v.astype(float)
    covered = np.zeros(lat.shape, dtype=bool)
    cubes: list[DyadicCube] = []

    N = lat.M // 2
    while N >= 1:
        avg = _block_averages(v, N)
        corner_slices = tuple([slice(0, None, N)] * lat.d)
        select = (avg > lam) & ~covered[corner_slices]
        if select.any():
            sel_up = _upsample(select, N)
            good = np.where(sel_up, _upsample(avg, N), good)
            covered |= sel_up
            corners = site_idx[np.argwhere(select) * N].tolist()
            cubes.extend(DyadicCube(corner=tuple(c), scale=N, h=lat.h) for c in corners)
        N //= 2

    # off the covered set good = v, so the residual there is exactly 0
    bads = CZBadParts(lat, v - good, tuple(cubes))
    return CZDecomposition(good=GridFunction(lat, good.astype(complex)), bads=bads, cubes=cubes, lam=lam)


# ---------------------------------------------------------------------------
# boundary monitor

BOUNDARY_THRESHOLD = 1e-6  # largest boundary-mass fraction a decay or evolution sample may carry


def boundary_mask(lattice: Lattice) -> np.ndarray:
    """Boolean grid of the sites within max(1, M/16) layers of the box edge.

    Loops that monitor many fields on one lattice build this once.
    """
    width = max(1, lattice.M // 16)
    n = lattice.site_indices()
    near = (n >= lattice.M // 2 - width) | (n < -lattice.M // 2 + width)
    return reduce(np.logical_or, np.meshgrid(*[near] * lattice.d, indexing="ij", sparse=True))


def density_mass_fraction(density: np.ndarray, mask: np.ndarray) -> float:
    """Share of the total of ``density`` = |f|^2 that sits on ``mask``; 0 for a zero field."""
    total = float(density.sum())
    if total == 0.0:
        return 0.0
    return float(density[mask].sum()) / total


def boundary_mass_fraction(f: GridFunction) -> float:
    """Fraction of the L^2 mass sitting on :func:`boundary_mask`, the edge layers of the box.

    Decay and evolution experiments are valid only while this stays below a
    small threshold (:data:`BOUNDARY_THRESHOLD`); past that, periodic wraparound
    contaminates sup norms.
    """
    return density_mass_fraction(np.square(np.abs(f.values)), boundary_mask(f.lattice))
