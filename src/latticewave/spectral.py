"""FFT calculus on the lattice: transforms, multipliers, dyadic band projections, derivative symbols.

Conventions: the forward transform is h^d times the DFT, the inverse is the
uniform dual-grid Riemann sum of the inversion integral (cell volume
(2*pi/(h*M))^d), which makes the pair an exact mutual inverse and Parseval
exact up to roundoff.  A derivative weight is a real dual-grid symbol w
(:func:`radial_power` of a squared radial symbol); by Parseval the
w-weighted L^2 norm is sqrt(h^d / M^d sum w^2 |fftn f|^2).
"""

from __future__ import annotations

import contextvars
import functools
import math
import os
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .lattice import GridFunction, Lattice

__all__ = [
    "SpectralFunction",
    "phi1",
    "phi",
    "varphi",
    "forward_transform",
    "inverse_transform",
    "apply_multiplier",
    "symbol_parts",
    "band_scales",
    "band_symbol",
    "band_bank",
    "band_projection",
    "discrete_laplacian",
    "lattice_symbol",
    "laplacian_symbol_grid",
    "continuum_symbol_grid",
    "radial_power",
    "forward_difference",
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
    """Transform, multiply pointwise by the dual-grid symbol ``grid``, transform back into the product."""
    product = grid * np.fft.fftn(f.values)
    return GridFunction(f.lattice, np.fft.ifftn(product, out=product))


_CHUNK_BYTES = 256 * 1024  # largest inverse-transform block: numpy's temporary-elision threshold


@functools.cache
def _row_worker():
    """The package's one worker thread, started on first use: it transforms the rows of :func:`_inverse_rows`
    of 256 KiB or more."""
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(max_workers=1, thread_name_prefix="latticewave-rows")


# a forked child has no copy of the parent's worker thread, and would queue its rows for it forever
os.register_at_fork(after_in_child=_row_worker.cache_clear)


def _transform(block: np.ndarray) -> np.ndarray:
    """Inverse-transform each row of ``block`` in place over its trailing axes and check it is finite."""
    np.fft.ifftn(block, axes=tuple(range(1, block.ndim)), out=block)
    if not np.isfinite(block).all():
        raise ValueError("grid function contains non-finite entries")
    return block


def _inverse_rows(shape: tuple[int, ...], count: int, fill, group: int = 1) -> Iterator[np.ndarray]:
    """Yield, in order, the blocks of ``count`` rows of ``shape`` that ``fill`` writes, inverse-transformed.

    ``fill(start, block)`` writes rows start, start + 1, ... into the new
    ``block`` (shape ``(rows,) + shape``), and the caller gets the block back
    with each row transformed in place (:func:`_transform`: bit for bit one
    transform per row).  A block holds a multiple of ``group`` rows, so a
    caller whose items span ``group`` rows gets whole items, and at most
    256 KiB where one group fits.  Blocks of rows below ``_CHUNK_BYTES`` are
    transformed inline, since their fill is too short for a handoff to hide.
    A row of 256 KiB or more is a block of its own (at ``group`` 1): the
    caller fills block k+1 while the worker thread transforms block k, so at
    most two blocks are alive here.  That worker (:func:`_row_worker`) is
    the package's only thread.  Scan cells still run serially.
    Each job runs in a copy of the caller's context, which carries its
    ``np.errstate``; a block still in flight when the caller stops early is
    finished and dropped.
    """
    row_bytes = 16 * math.prod(shape)
    per = group * max(1, _CHUNK_BYTES // (group * row_bytes))

    def filled():
        for start in range(0, count, per):
            block = np.empty((min(per, count - start),) + shape, dtype=complex)
            fill(start, block)
            yield block

    if row_bytes < _CHUNK_BYTES:
        yield from map(_transform, filled())
        return
    jobs = []  # the block being handed back, then the block in flight
    try:
        for block in filled():
            jobs.append(_row_worker().submit(contextvars.copy_context().run, _transform, block))
            if len(jobs) == 2:
                yield jobs.pop(0).result()
        if jobs:
            yield jobs.pop().result()
    finally:
        for job in jobs:  # wait for a block the caller no longer wants, so no transform outlives the call
            job.exception()


def _multiply_into(x: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """rows <- x * rows for a stack ``rows`` of rows of x's shape, in numpy's operand order for one temporary row.

    From 256 KiB up numpy elides the temporary of ``x * temporary`` and
    multiplies into it with the operands swapped, and a product of two
    complex operands can differ in the last bit with the order (a real times
    a complex one cannot).
    """
    return np.multiply(rows, x, out=rows) if x.nbytes >= _CHUNK_BYTES else np.multiply(x, rows, out=rows)


def symbol_parts(fields: list[GridFunction], symbols) -> Iterator[list[np.ndarray]]:
    """Per field of ``fields`` (one lattice), the values of :func:`apply_multiplier` for each real symbol of
    ``symbols``, bit for bit: each field is transformed once, and its products with the symbols are the
    rows of the blocks that :func:`_inverse_rows` fills and transforms."""
    products = ((sym, spectrum) for spectrum in (np.fft.fftn(f.values) for f in fields) for sym in symbols)

    def fill(start, block):
        for row, (sym, spectrum) in zip(block, products):
            np.multiply(sym, spectrum, out=row)

    rows = (row for block in _inverse_rows(fields[0].lattice.shape, len(fields) * len(symbols), fill)
            for row in block)
    for _ in fields:
        yield [next(rows) for _ in symbols]


# ---------------------------------------------------------------------------
# smooth dyadic bump

def _step(t: np.ndarray) -> np.ndarray:
    """The C-infinity transition t -> e^(-1/t) / (e^(-1/t) + e^(-1/(1-t))), 0 below t = 0 and 1 above t = 1."""
    t = np.clip(t, 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        a = np.where(t > 0, np.exp(-1.0 / np.maximum(t, 1e-300)), 0.0)
        b = np.where(t < 1, np.exp(-1.0 / np.maximum(1.0 - t, 1e-300)), 0.0)
    return a / (a + b)


def phi1(t: np.ndarray) -> np.ndarray:
    """One-axis profile: 1 for |t| <= 1, 0 for |t| >= 2, smooth between."""
    return _step(2.0 - np.abs(np.asarray(t, dtype=float)))


def phi(*coords: np.ndarray) -> np.ndarray:
    """Smooth cutoff with phi = 1 on [-1,1]^d and phi = 0 off [-2,2]^d: the product of :func:`phi1` over the axes."""
    out = phi1(coords[0])
    for c in coords[1:]:
        out = out * phi1(c)
    return out


def varphi(*coords: np.ndarray) -> np.ndarray:
    """The dyadic difference phi - phi(2 .); the sum of varphi(xi/N) over dyadic N <= 1 is 1 for 0 < |xi|_inf <= 1."""
    return phi(*coords) - phi(*(2.0 * np.asarray(c, dtype=float) for c in coords))


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


def _orthant_mirror(M: int) -> np.ndarray:
    """Per axis position in FFT order, the index k -> min(k, M - k) of its frequency's modulus among the first
    M/2+1 frequencies.  The axis frequencies are exact negatives in FFT order, so a symbol even in each axis,
    evaluated on that orthant and indexed by this map, is its full-grid evaluation bit for bit."""
    n = M // 2 + 1
    return np.r_[:n, n - 2 : 0 : -1]


def band_symbol(lattice: Lattice, N: float) -> np.ndarray:
    """Real symbol of the scale-N dyadic band: varphi(h xi / (2 pi N)) on the dual grid.

    The axis frequencies are exact negatives in FFT order and :func:`phi1`
    takes their modulus, so varphi is evaluated on the first M/2+1 of them
    along each axis and mirrored onto the rest, bit for bit.
    """
    _require_dyadic_leq_one(N)
    u = np.fft.fftfreq(lattice.M)[: lattice.M // 2 + 1] / N  # h*xi/(2*pi*N) along one axis
    half = varphi(*np.meshgrid(*([u] * lattice.d), indexing="ij", sparse=True))
    return half[np.ix_(*[_orthant_mirror(lattice.M)] * lattice.d)]


def band_bank(lattice: Lattice) -> np.ndarray:
    """Every ``band_symbol`` of ``band_scales(lattice)``, stacked in that order along axis 0."""
    return np.stack([band_symbol(lattice, N) for N in band_scales(lattice)])


def band_projection(f: GridFunction, N: float) -> GridFunction:
    """Smooth projection onto the dyadic frequency band at scale N (N dyadic, <= 1)."""
    return apply_multiplier(band_symbol(f.lattice, N), f)


# ---------------------------------------------------------------------------
# derivative symbols and differences

_DC_TOLERANCE = 1e-12


def _check_mean_zero(f: GridFunction) -> None:
    dc = abs(complex(f.values.sum()))
    scale = float(np.abs(f.values).sum())
    if dc > _DC_TOLERANCE * max(scale, 1e-300):
        raise ValueError("homogeneous symbol singular at DC: input must be mean-zero")


def radial_power(radial2: np.ndarray, s: float) -> np.ndarray:
    """radial2^(s/2) with the zero entries kept 0: the order-s symbol of a squared radial symbol such as
    |xi|^2; ConfigurationError naming s where the power overflows."""
    out = np.zeros(radial2.shape)
    nz = radial2 > 0
    with np.errstate(over="ignore"):
        out[nz] = radial2[nz] ** (0.5 * s)
    if not np.isfinite(out).all():
        raise ConfigurationError(f"the derivative symbol overflows at the order s = {s!r}")
    return out


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
    return sum(lattice_symbol(g, lattice.h) for g in lattice.frequency_grids())


def continuum_symbol_grid(lattice: Lattice, orthant: bool = False) -> np.ndarray:
    """Symbol of the continuum negated Laplacian on the dual grid: |xi|^2 = sum_j xi_j^2, full shape, or with
    ``orthant`` on the first M/2+1 frequencies of each axis only (see :func:`_orthant_mirror`)."""
    xi = lattice.axis_frequencies()[: lattice.M // 2 + 1 if orthant else None]
    return sum(g**2 for g in np.meshgrid(*([xi] * lattice.d), indexing="ij", sparse=True))


def forward_difference(f: GridFunction, axis: int) -> GridFunction:
    """One-sided difference (f(x + h e_axis) - f(x)) / h, axis counted from 0."""
    if not 0 <= axis < f.lattice.d:
        raise ValueError(f"axis {axis} out of range for dimension {f.lattice.d}")
    v = f.values
    return GridFunction(f.lattice, (np.roll(v, -1, axis=axis) - v) / f.lattice.h)
