"""Experiment drivers: decay-exponent fits, space-time norms, constant scans, sharpness tests.

Every scan samples a deterministic ensemble (per-cell seeds spawned from one
base seed), records the raw operands of each measured ratio so results are
recomputable, and reports ordinary least-squares fits on log-log data.

Every scan over a spacing list runs through one skeleton, :func:`scan_result`
(here and in :mod:`latticewave.dnls`): a driver checks its own parameters,
then hands the list and a cell body to it.  It rejects a repeated spacing,
then an empty list, runs the cells serially in list order and fits the named
columns against 1/h.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import reduce
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, WindowError
from .lattice import (
    BOUNDARY_THRESHOLD,
    GridFunction,
    Lattice,
    boundary_mask,
    check_sites,
    gaussian,
    lp_norm,
    modulus_lp_norm,
    point_mass,
)
from .propagators import DISPERSIONS, PhaseSpec, dispersion
from .spectral import (
    _CHUNK_BYTES,
    _check_mean_zero,
    _inverse_rows,
    _multiply_into,
    _orthant_mirror,
    band_bank,
    band_scales,
    band_symbol,
    continuum_symbol_grid,
    forward_difference,
    laplacian_symbol_grid,
    lattice_symbol,
    radial_power,
    symbol_parts,
)

__all__ = [
    "CONSTANT_KINDS",
    "AdmissiblePair",
    "admissible_pairs",
    "DecayFit",
    "ScanResult",
    "scan_result",
    "KnappReport",
    "loglog_fit",
    "decay_data",
    "dispersive_decay_scan",
    "decay_time_grid",
    "strichartz_norm",
    "symmetric_time_grid",
    "uniformity_scan",
    "random_ensemble",
    "inequality_constant_scan",
    "knapp_experiment",
    "knapp_eps_exponents",
    "knapp_h_sharpness",
]

# ---------------------------------------------------------------------------
# fits

def loglog_fit(x: np.ndarray, y: np.ndarray) -> dict:
    """OLS fit of log(y) against log(x); returns slope, intercept and r^2.

    ValueError unless log(x) takes at least two distinct values: over one
    abscissa the slope is lstsq's minimum-norm solution and r^2 reads 1.
    """
    lx = np.log(np.asarray(x, dtype=float))
    ly = np.log(np.asarray(y, dtype=float))
    if lx.size < 2 or np.all(lx == lx[0]):  # not a plain np.unique, which imports numpy.ma (1.7 MiB of RSS)
        raise ValueError("a log-log fit needs at least two distinct abscissae")
    A = np.vstack([lx, np.ones_like(lx)]).T
    coef, *_ = np.linalg.lstsq(A, ly, rcond=None)
    resid = ly - A @ coef
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return {"slope": float(coef[0]), "intercept": float(coef[1]), "r_squared": r2}


def _require_distinct(values: list[float], name: str) -> None:
    """ConfigurationError naming the list ``name`` when it repeats a value: the scans fit their
    cells against it, which needs distinct abscissae (see :func:`loglog_fit`)."""
    repeated = [v for v, n in Counter(values).items() if n > 1]
    if repeated:
        raise ConfigurationError(f"{name} repeats {repeated[0]!r}: a log-log fit over it needs distinct values")


# ---------------------------------------------------------------------------
# admissible exponent pairs

@dataclass(frozen=True)
class AdmissiblePair:
    """Space-time exponents with 3/q + d/r = d/2, 2 <= q, r <= inf."""

    q: float
    r: float
    d: int

    def __post_init__(self):
        if not (self.q >= 2 and self.r >= 2):
            raise ConfigurationError("admissible pairs need q, r >= 2")
        inv_q, inv_r = 1.0 / self.q, 1.0 / self.r
        if abs(3.0 * inv_q + self.d * inv_r - 0.5 * self.d) > 1e-12:
            raise ConfigurationError("pair violates 3/q + d/r = d/2")
        if self.d == 3 and self.q == 2 and math.isinf(self.r):
            raise ConfigurationError("(q, r) = (2, inf) is excluded in d = 3")

    @property
    def q_conjugate(self) -> float:
        return 1.0 if math.isinf(self.q) else self.q / (self.q - 1.0)

    @property
    def r_conjugate(self) -> float:
        return 1.0 if math.isinf(self.r) else self.r / (self.r - 1.0)


def admissible_pairs(d: int, count: int, r_max: float = 100.0) -> list[AdmissiblePair]:
    """Evenly sample 1/r over its closed admissible range and solve for q.

    In d = 3 the endpoint r = inf is excluded, so 1/r runs over
    [1/r_max, 1/2] with a configurable finite cap.
    """
    if d not in (1, 2, 3):
        raise ConfigurationError("d must be 1, 2 or 3")
    if count < 2:
        raise ConfigurationError("need count >= 2")
    check_sites(count, f"count = {count} exponent pairs")
    if not r_max >= 2:  # also rejects NaN
        raise ConfigurationError(f"r_max must be >= 2, got r_max={r_max!r}")
    if d == 3 and math.isinf(r_max):
        raise ConfigurationError(f"r_max must be finite in d = 3, where r = inf is excluded, got r_max={r_max!r}")
    inv_r_lo = 1.0 / r_max if d == 3 else 0.0
    pairs = []
    for inv_r in np.linspace(inv_r_lo, 0.5, count):
        gap = 0.5 * d - d * inv_r
        q = math.inf if gap <= 1e-15 else 3.0 / gap
        r = math.inf if inv_r == 0.0 else 1.0 / inv_r
        pairs.append(AdmissiblePair(q=q, r=r, d=d))
    return pairs


# ---------------------------------------------------------------------------
# dispersive decay

@dataclass
class DecayFit:
    """Measured sup norms along a time grid and the fitted log-log decay exponent."""

    times: np.ndarray
    sup_norms: np.ndarray
    slope: float
    intercept: float
    r_squared: float


def decay_data(lattice: Lattice, kind: str = "point", width: float | None = None) -> GridFunction:
    """Initial data for decay experiments, normalised in the h-weighted L^1 norm."""
    if kind == "point":
        f = point_mass(lattice)
    elif kind == "gaussian":
        f = gaussian(lattice, width if width is not None else lattice.box_length / 32.0)
    else:
        raise ConfigurationError(f"unknown data kind {kind!r}")
    return f * (1.0 / lp_norm(f, 1))


def _checked_time_grid(t_grid, positive: bool) -> np.ndarray:
    """``t_grid`` as a float array, or ConfigurationError unless it is 1-D with at least 2
    finite, strictly increasing (and, if ``positive``, positive) times."""
    t_grid = np.asarray(t_grid, dtype=float)
    if (t_grid.ndim != 1 or t_grid.size < 2 or not np.all(np.isfinite(t_grid))
            or (positive and t_grid[0] <= 0) or np.any(np.diff(t_grid) <= 0)):
        raise ConfigurationError(f"the time grid must be 1-D with at least 2 finite, "
                                 f"{'positive, ' if positive else ''}strictly increasing times")
    return t_grid


def _axis_factors(u0: GridFunction, kind: str) -> tuple[complex, list[GridFunction]]:
    """``u0`` as (c, d one-axis factors on ``Lattice(h, 1, M)``) when it is c times their outer product, else (1, [u0]).

    c is the value of ``u0`` at its largest-modulus site and the factors are
    the slices through that site divided by c, so each is 1 there; they are
    kept only if c times their outer product rebuilds ``u0`` exactly.  Only
    the flow of a kind whose symbol is additive over the axes maps an outer
    product to the outer product of the one-axis flows (see
    :mod:`latticewave.propagators`).  The product is checked a block of at
    most 256 KiB of axis-0 slices at a time, row i as c u_1[i] times the outer
    product of the other factors (the full product's row bit for bit).
    """
    lat, v = u0.lattice, u0.values
    if lat.d == 1 or not DISPERSIONS[kind].additive:
        return 1.0, [u0]
    pivot = np.unravel_index(np.argmax(np.abs(v)), v.shape)
    c = v[pivot]
    if c == 0:
        return 1.0, [u0]
    units = [v[pivot[:ax] + (slice(None),) + pivot[ax + 1:]] / c for ax in range(lat.d)]
    rows = max(1, _CHUNK_BYTES // v[0].nbytes)
    for i in range(0, lat.M, rows):
        if not np.array_equal(reduce(np.multiply.outer, units[1:], c * units[0][i : i + rows]), v[i : i + rows]):
            return 1.0, [u0]
    axis = Lattice(h=lat.h, d=1, M=lat.M)
    return c, [GridFunction(axis, s) for s in units]


class _Spectra(NamedTuple):
    """A datum c f_1 x ... x f_d on ``lattice`` as the time loop flows it: its scale ``c``, the forward
    transforms ``spectra`` of its distinct factors on ``Lattice(h, 1, M)``, the spectrum ``slot[j]`` of
    each factor j, and whether the datum is ``real``.  A datum that is not an outer product is its own
    single factor (``slot == [0]``), transformed on ``lattice``."""

    c: complex
    lattice: Lattice
    spectra: list[np.ndarray]
    slot: list[int]
    real: bool


def _spectra(u0: GridFunction, kind: str, scale: float = 1.0, weight: np.ndarray | None = None) -> _Spectra:
    """``scale`` times ``u0`` as its :func:`_axis_factors`, ``scale`` folded into c; equal factors share a transform.

    A real symbol ``weight`` on ``u0``'s lattice multiplies the spectrum of
    ``u0`` kept whole (a band symbol does not factor in d >= 2).  Only a
    datum kept whole is scaled and read for an imaginary part as M^d values;
    a factored datum is real when c and its factors are.  A scaled datum
    with a non-finite entry, or a non-finite scaled c, is a ValueError, as
    for a :class:`GridFunction`.
    """
    c, factors = (1.0, [u0]) if weight is not None else _axis_factors(u0, kind)
    if len(factors) == 1:
        v = u0.values if scale == 1.0 else GridFunction(u0.lattice, u0.values * scale).values
        spectrum = np.fft.fftn(v)
        if weight is not None:  # a real symbol times a complex spectrum: no operand order changes a bit
            np.multiply(weight, spectrum, out=spectrum)
        return _Spectra(1.0, u0.lattice, [spectrum], [0], not np.any(v.imag))
    values = [f.values for f in factors]
    index = [next(k for k, g in enumerate(values) if np.array_equal(g, f)) for f in values]
    distinct = sorted(set(index))
    if not np.isfinite(c := c * scale):
        raise ValueError("grid function contains non-finite entries")
    return _Spectra(c, u0.lattice, [np.fft.fftn(values[k]) for k in distinct],
                    [distinct.index(k) for k in index], not (np.imag(c) or any(np.any(f.imag) for f in values)))


def _outer_lp_norms(c: complex, moduli: np.ndarray, slot: list[int], lattice: Lattice, p: float) -> np.ndarray:
    """Per sample, the l^p norm of c times the outer product of its factors' moduli.

    ``moduli`` holds each sample's distinct factors' |f| on ``lattice``
    (samples, distinct factors, sites), and factor j is ``moduli[:, slot[j]]``.
    The norm is |c| times the product of the factors' norms, the product of
    their maxima for p = inf, each a :func:`modulus_lp_norm` bit for bit: the
    sum of a contiguous row along the last axis is its sum alone, and each
    root is taken on its own float64 sum (an array power may round the last
    bit differently).
    """
    if math.isinf(p):
        norms = moduli.max(axis=-1)
    else:
        sums = lattice.cell_volume * np.sum(moduli**p, axis=-1)
        norms = np.array([s ** (1.0 / p) for s in sums.flat]).reshape(sums.shape)
    return abs(c) * reduce(np.multiply, [norms[:, k] for k in slot])


def _outer_edge_fractions(moduli: np.ndarray, slot: list[int], edge: np.ndarray) -> np.ndarray:
    """Per sample, the boundary-mass fraction of the outer product of its factors' moduli against the
    edge mask of their lattice, whose flat site indices are ``edge`` (``moduli`` and ``slot`` as in
    :func:`_outer_lp_norms`): 1 - prod(1 - b_j), b_j the share of factor j's squared modulus on the
    mask (0 for a zero factor).

    The d-dimensional edge mask is the union of the axes' edge layers, so the
    mass off it is the product of the one-axis masses off them.  The product
    is folded as f + b - f*b, which keeps small fractions accurate and is b
    itself for one factor.
    """
    density = np.square(moduli)
    total = density.sum(axis=-1)
    shares = np.divide(density.take(edge, axis=-1).sum(axis=-1), total, out=np.zeros_like(total), where=total != 0.0)
    return reduce(lambda f, b: f + b - f * b, [shares[:, k] for k in slot])


def _time_samples(kind: str, u0: GridFunction | _Spectra, t_grid: np.ndarray, p: float) -> np.ndarray:
    """The l^p norm of the ``kind`` flow of ``u0`` at each time of ``t_grid``, each field window-checked.

    ``u0`` is a grid function, read as its :func:`_spectra`, or a datum
    already in that form: its scale c, its factors' spectra and whether it
    is real.  Times are walked in ascending |t| and the norms are scattered
    back.  A real datum is flowed once per distinct |t| (see
    :func:`strichartz_norm`), a complex one at every time (a stable sort
    keeps -t before t).  A window failure names the largest |t| below the
    failing one at which every sample passed.

    Each distinct factor spectrum is flowed once per sample (a point mass on
    the diagonal costs one row of M points per sample).  A sample is one row
    per distinct factor in a block of
    :func:`latticewave.spectral._inverse_rows` that holds whole samples.
    Each block is filled by one :meth:`PhaseSpec.phases_into` for its times
    and one product with each spectrum, and reduced by one modulus pass and
    one boundary-fraction and one norm reduction along its last axis, so no
    M^d array is built for a factored datum.
    """
    if not isinstance(u0, _Spectra):
        u0 = _spectra(u0, kind)
    if u0.real:
        times, inverse = np.unique(np.abs(t_grid), return_inverse=True)
    else:
        order = np.argsort(np.abs(t_grid), kind="stable")
        times, inverse = t_grid[order], np.argsort(order)
    spectra, slot = u0.spectra, u0.slot
    lat = u0.lattice if len(slot) == 1 else Lattice(h=u0.lattice.h, d=1, M=u0.lattice.M)
    edge = np.flatnonzero(boundary_mask(lat))
    flow = PhaseSpec(kind, lat)
    rows = len(spectra)  # per sample

    def fill(start, block):
        samples = block.reshape((-1, rows) + lat.shape)
        flow.phases_into(times[start // rows : start // rows + len(samples)], samples[:, 0])
        samples[:, 1:] = samples[:, :1]
        for j, spectrum in enumerate(spectra):
            _multiply_into(spectrum, samples[:, j])

    norms = np.empty(times.size)
    done = 0
    for block in _inverse_rows(lat.shape, rows * times.size, fill, group=rows):
        moduli = np.abs(block).reshape(-1, rows, lat.site_count)
        failed = np.flatnonzero(_outer_edge_fractions(moduli, slot, edge) > BOUNDARY_THRESHOLD)
        if failed.size:
            i = done + failed[0]
            passed = np.abs(times[:i])
            passed = passed[passed < abs(times[i])]
            largest_ok = float(passed[-1]) if passed.size else None
            raise WindowError(
                f"solution reached the boundary at t={times[i]:g}; largest admissible |t| is "
                f"{largest_ok if largest_ok is not None else 'none'}",
                largest_valid_t=largest_ok,
            )
        norms[done : done + len(moduli)] = _outer_lp_norms(u0.c, moduli, slot, lat, p)
        done += len(moduli)
    return norms[inverse]


def decay_time_grid(t_min: float, t_max: float, n_t: int = 25) -> np.ndarray:
    if n_t < 2 or not 0 < t_min < t_max < math.inf:
        raise ConfigurationError(
            f"decay times need n_t >= 2 and 0 < t_min < t_max < inf, got n_t={n_t}, "
            f"t_min={t_min!r}, t_max={t_max!r}")
    check_sites(n_t, f"n_t = {n_t} decay times")
    return np.geomspace(t_min, t_max, n_t)


def dispersive_decay_scan(kind: str, data: GridFunction, t_grid: np.ndarray,
                          N: float | None = None) -> DecayFit:
    """Fit the log-log slope of t -> sup norm of the evolved data, normalised in l^1.

    ``N`` selects a dyadic frequency band first; ``None`` evolves the full
    spectrum.  Each sampled time is checked against the boundary-mass monitor
    and the scan aborts (reporting the largest admissible |t|) once wraparound
    contaminates the box.  The kind, and a scale ``N`` below the lattice's
    smallest band scale (its band holds no dual-grid frequency), are checked
    before any transform.  The data is flowed as its :func:`_spectra`: the
    l^1 normalisation is folded into the scale c of a factored datum, and the
    band symbol multiplies the datum's spectrum, so no M^d copy is scaled and
    no band projection is transformed back and forth.
    """
    dispersion(kind, data.lattice.d)
    t_grid = _checked_time_grid(t_grid, positive=True)
    if N is not None and N < (n_min := band_scales(data.lattice)[0]):
        raise ConfigurationError(f"band scale N={N:g} is below the smallest band scale {n_min:g} of an "
                                 f"M = {data.lattice.M} lattice, so its band holds no dual-grid frequency")
    weight = None if N is None else band_symbol(data.lattice, N)
    sups = _time_samples(kind, _spectra(data, kind, 1.0 / lp_norm(data, 1), weight), t_grid, math.inf)
    fit = loglog_fit(t_grid, sups)
    return DecayFit(times=t_grid, sup_norms=sups,
                    slope=fit["slope"], intercept=fit["intercept"], r_squared=fit["r_squared"])


# ---------------------------------------------------------------------------
# space-time norms

def symmetric_time_grid(T: float, n_t: int, t_min: float) -> np.ndarray:
    """0 plus geometrically spaced positive and negative nodes out to +-T."""
    pos = np.geomspace(t_min, T, n_t)
    return np.concatenate([-pos[::-1], [0.0], pos])


def _check_quadrature_nodes(n_t: int) -> None:
    """ConfigurationError naming ``n_t`` unless a Strichartz time quadrature has 64 to MAX_SITES nodes."""
    if n_t < 64:
        raise ConfigurationError(f"need n_t >= 64 quadrature nodes, got n_t={n_t}")
    check_sites(n_t, f"n_t = {n_t} quadrature nodes")


def strichartz_norm(u0: GridFunction | _Spectra, pair: AdmissiblePair, T: float, n_t: int = 96,
                    t_grid: np.ndarray | None = None, kind: str = "schrodinger") -> float:
    """Truncated mixed norm: trapezoid in t over [-T, T] of the spatial r-norm to the q.

    For q = inf the supremum over the sampled grid is returned; with the pair
    (inf, 2) that equals the conserved L^2 norm exactly up to roundoff.  A
    caller's ``t_grid`` must be 1-D, finite and strictly increasing (negative
    times allowed); it is checked before any transform.

    A real datum is folded in time: its flow at -t is the conjugate of its
    flow at t, so each distinct |t| is flowed, window-checked and normed once
    (6 flows instead of 11 on ``symmetric_time_grid(T, 5, t_min)``), walking
    |t| upwards; a window failure then names the largest admissible |t|.  A
    complex datum is flowed at every node of the grid.  The kind is checked
    before any transform.  ``u0`` may be given as its :func:`_spectra`.
    """
    dispersion(kind, u0.lattice.d)
    if t_grid is None:
        _check_quadrature_nodes(n_t)
        if not 0 < T < math.inf:
            raise ConfigurationError(f"the time horizon T must be positive and finite, got {T!r}")
        t_grid = symmetric_time_grid(T, n_t, T / (8.0 * n_t))
    t_grid = _checked_time_grid(t_grid, positive=False)
    return _time_norm(_time_samples(kind, u0, t_grid, pair.r), t_grid, pair.q)


def _time_norm(rnorms: np.ndarray, t_grid: np.ndarray, q: float) -> float:
    """The trapezoid L^q norm over ``t_grid`` of the spatial norms ``rnorms`` sampled on it; their sup at q = inf."""
    if math.isinf(q):
        return float(rnorms.max())
    return float(np.trapezoid(rnorms**q, t_grid) ** (1.0 / q))


# ---------------------------------------------------------------------------
# scan container

@dataclass
class ScanResult:
    """Tabular scan output: one row per cell plus log-log fits and reproducibility metadata."""

    kind: str
    columns: list[str]
    rows: list[list]
    fits: dict[str, dict] = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)

    def column(self, name: str) -> np.ndarray:
        j = self.columns.index(name)
        return np.array([row[j] for row in self.rows], dtype=float)


def scan_result(kind: str, h_list: list[float], cell, columns: list[str], metadata: dict,
                fits: dict[str, str]) -> ScanResult:
    """Run a spacing scan: the one loop over a spacing list, one row per spacing.

    In order: a repeated spacing is a ConfigurationError naming it (a fit
    against 1/h needs distinct abscissae), and so is an empty list; then
    ``cell(index, h)`` returns the row of each spacing, in list order; then
    each column named in ``fits`` (a fit name -> column map) is fitted
    against 1/h.  Fits need at least two rows, and a column holding a value
    that is not finite and positive (a degenerate minimum of a one-sided
    scan, or an infinite or NaN ratio) has no log-log fit and is skipped.
    """
    _require_distinct(h_list, "h_list")
    if not h_list:
        raise ConfigurationError(f"{kind} scan has no cells: pass at least one spacing")
    rows = [cell(index, h) for index, h in enumerate(h_list)]
    result = ScanResult(kind=kind, columns=columns, rows=rows, metadata=metadata)
    if len(rows) >= 2:
        inv_h = 1.0 / result.column("h")
        for name, column in fits.items():
            y = result.column(column)
            if np.all(np.isfinite(y) & (y > 0)):
                result.fits[name] = loglog_fit(inv_h, y)
    return result


# ---------------------------------------------------------------------------
# uniformity of the space-time bound across the spacing scan

def uniformity_scan(kind: str, h_list: list[float], pair: AdmissiblePair, *,
                    box: float = 64.0, data: str = "point",
                    horizon_fraction: float = 0.15, n_t: int = 96) -> ScanResult:
    """Ratio of the truncated space-time norm to two candidate data norms, per spacing.

    Mode "with" divides by the derivative-weighted L^2 norm of the data (the
    uniform bound: fitted h-exponent should be ~0); mode "without" divides by
    the plain L^2 norm (on broadband data the constant grows like h^(-1/q)).
    The per-spacing horizon is ``horizon_fraction * box * h`` so the fastest
    band (group speed ~ 2/h) stays inside the box; the tail it cuts is a
    vanishing fraction of the q-th power integral and is recorded in metadata.
    The datum is d equal one-axis factors g (a point mass, or a Gaussian of
    width box/16, normalised in l^2), flowed as one factor with no M^d array;
    ``rhs_without`` is the product of their norms.  The derivative weight is
    the flow kind's ``weight`` symbol w, read (and the kind and its dimension
    checked) before the first cell; ``rhs_with`` is sqrt(h^d / M^d sum w^2
    |g^|^2 x ... x |g^|^2), by Parseval, with w^2 on the (M/2+1)^d orthant
    (w is even in each axis) contracted with |g^|^2 one axis at a time
    through :func:`latticewave.spectral._orthant_mirror`: on the full grid
    the weight alone peaks at four M^d real arrays.
    """
    if data not in ("point", "gaussian"):
        raise ConfigurationError(f"unknown data kind {data!r}")
    if not 0 < horizon_fraction < math.inf:
        raise ConfigurationError(f"horizon_fraction must be positive and finite, got {horizon_fraction!r}")
    _check_quadrature_nodes(n_t)
    h_max = max((h for h in h_list if math.isfinite(h)), default=0.0)
    if math.isfinite(box * h_max) and not horizon_fraction * box * h_max < math.inf:  # else the cells name box, h
        raise ConfigurationError(f"horizon_fraction = {horizon_fraction!r} makes the horizon T = horizon_fraction "
                                 f"* box * h infinite at box = {box!r}, h = {h_max!r}")
    weight = dispersion(kind, pair.d).weight

    def cell(index: int, h: float) -> list:
        lat = Lattice.for_box(h, pair.d, box)
        axis = Lattice(h=h, d=1, M=lat.M)
        g = point_mass(axis) if data == "point" else gaussian(axis, box / 16.0)
        g = g * (1.0 / lp_norm(g, 2))
        spectrum = np.fft.fftn(g.values)
        T = horizon_fraction * box * h
        S = strichartz_norm(_Spectra(1.0, lat, [spectrum], [0] * pair.d, True), pair, T,
                            t_grid=symmetric_time_grid(T, n_t, h * h / 16.0), kind=kind)
        w2 = np.square(weight(continuum_symbol_grid(lat, orthant=True), pair.q))
        density, mirror = np.square(np.abs(spectrum)), _orthant_mirror(lat.M)
        for _ in range(pair.d):  # w^2 over the full last axis, contracted with |g^|^2
            w2 = w2[..., mirror] @ density
        rhs_with = math.sqrt(lat.cell_volume / lat.site_count * float(w2))
        rhs_without = math.prod([lp_norm(g, 2)] * pair.d)
        return [h, lat.M, T, S, rhs_with, rhs_without, S / rhs_with, S / rhs_without]

    return scan_result(
        "uniformity", h_list, cell,
        ["h", "M", "T", "strichartz", "rhs_with", "rhs_without", "ratio_with", "ratio_without"],
        {"flow": kind, "q": pair.q, "r": pair.r, "d": pair.d, "box": box,
         "data": data, "horizon_fraction": horizon_fraction, "n_t": n_t},
        {"with": "ratio_with", "without": "ratio_without"},
    )


# ---------------------------------------------------------------------------
# random ensembles for constant scans

def _check_ensemble(lattice: Lattice, size: int) -> None:
    """ConfigurationError naming the ensemble when ``size`` fields of ``lattice`` hold more than ``MAX_SITES`` sites."""
    check_sites(size * lattice.site_count, f"ensemble = {size} fields of {lattice.site_count} sites")


def random_ensemble(lattice: Lattice, size: int, seed: int, cell_key: int = 0,
                    bank: np.ndarray | None = None) -> list[GridFunction]:
    """Deterministic mix of band-limited complex noise and structured candidates, each mean-zero.

    Structured members (a point mass and an off-axis frequency block) probe
    the extremes that white noise rarely reaches; the rest is complex Gaussian
    noise low-passed at a random band.  Constants are suprema, so the ensemble
    yields lower bounds that must stay stable across the spacing scan.

    Each noise member draws its field, then its band, into a row of a block
    of :func:`latticewave.spectral._inverse_rows`, and the block is
    transformed and low-passed at once; a round draws only the members still
    missing.  The low-pass filters are summed from ``bank``, the lattice's
    :func:`band_bank` (built here when it is not given).  An ensemble of
    more than ``MAX_SITES`` sites in all is a ConfigurationError naming its
    size, raised before any draw.
    """
    _check_ensemble(lattice, size)
    rng = np.random.default_rng(np.random.SeedSequence([seed, cell_key]))
    # row k keeps every band at or below the k-th scale, summed in ascending order
    lowpass = np.cumsum(band_bank(lattice) if bank is None else bank, axis=0)

    def normalized(fields) -> list[GridFunction]:
        """Each field made mean-zero and scaled to sup norm 1, in order; a zero field is dropped."""
        out = []
        for v in fields:
            v = v - v.mean()
            scale = float(np.abs(v).max())
            if scale > 0.0:
                out.append(GridFunction(lattice, v / scale))
        return out

    def draw(start, block):
        bands = []
        for row in block:
            np.add(rng.standard_normal(lattice.shape), 1j * rng.standard_normal(lattice.shape), out=row)
            bands.append(rng.integers(max(1, len(lowpass) // 2), len(lowpass)))
        np.fft.fftn(block, axes=tuple(range(1, block.ndim)), out=block)
        # a real row times a complex one: no operand order changes a bit (see _multiply_into)
        np.multiply(lowpass[bands], block, out=block)

    # frequency block centred at a quarter of the axis Nyquist (off DC, off the edge)
    F = np.zeros(lattice.shape, dtype=complex)
    kc = lattice.M // 4
    w = max(1, lattice.M // 16)
    sl = tuple([slice(kc - w // 2, kc + w // 2 + 1)] * lattice.d)
    F[sl] = 1.0
    out = normalized([point_mass(lattice).values.astype(complex), np.fft.ifftn(F, out=F)])
    while len(out) < size:  # a zero member is replaced in a further round
        out += normalized(row for block in _inverse_rows(lattice.shape, size - len(out), draw) for row in block)
    return out[:size]


# ---------------------------------------------------------------------------
# inequality constant scans

CONSTANT_KINDS = ("bernstein", "gagliardo_nirenberg", "sobolev_endpoint", "norm_equivalence", "square_function")


def _validate_constants_config(kind: str, d: int, p: float, q: float | None,
                               s: float | None, theta: float | None) -> None:
    if kind not in CONSTANT_KINDS:
        raise ConfigurationError(f"unknown scan kind {kind!r}")
    if s is not None and not math.isfinite(s):  # theta is checked to lie in (0, 1) where it is used
        raise ConfigurationError(f"the derivative order s must be finite, got s = {s!r}")
    if kind == "bernstein":
        if q is None or not (1 <= p <= q):
            raise ConfigurationError("bernstein needs 1 <= p <= q")
    elif kind == "gagliardo_nirenberg":
        if q is None or s is None or theta is None:
            raise ConfigurationError("gagliardo_nirenberg needs p, q, s, theta")
        if not (0 < theta < 1):
            raise ConfigurationError("gagliardo_nirenberg needs 0 < theta < 1")
        if not (1 <= p <= q):
            raise ConfigurationError("gagliardo_nirenberg needs 1 <= p <= q")
        if not abs(1.0 / q - (1.0 / p - theta * s / d)) <= 1e-12:
            raise ConfigurationError("gagliardo_nirenberg needs 1/q = 1/p - theta*s/d")
    elif kind == "sobolev_endpoint":
        if q is None or s is None:
            raise ConfigurationError("sobolev_endpoint needs p, q, s")
        if not (1 < p < q) or math.isinf(q):
            raise ConfigurationError("sobolev_endpoint needs 1 < p < q < inf")
        if not abs(1.0 / q - (1.0 / p - s / d)) <= 1e-12:
            raise ConfigurationError("sobolev_endpoint needs 1/q = 1/p - s/d")
    elif kind == "norm_equivalence":
        if s is None or not (1 < p) or math.isinf(p):
            raise ConfigurationError("norm_equivalence needs s and 1 < p < inf")
    elif kind == "square_function":
        if not (1 < p) or math.isinf(p):
            raise ConfigurationError("square_function needs 1 < p < inf")


def inequality_constant_scan(kind: str, h_list: list[float], *, box: float = 16.0, d: int = 1,
                             p: float = 2.0, q: float | None = None, s: float | None = None,
                             theta: float | None = None, ensemble: int = 64, seed: int = 0) -> ScanResult:
    """Extremal observed LHS/RHS ratio of one functional inequality, per spacing.

    kinds: ``bernstein`` (band projection Lp -> Lq), ``gagliardo_nirenberg``,
    ``sobolev_endpoint``, ``norm_equivalence`` (both equivalence ratios),
    ``square_function`` (two-sided).  Exponent hypotheses are validated up
    front and a violation names the constraint.  Random fields are mean-zero:
    on the periodic truncation a nonzero mean lies outside every homogeneous
    norm, which the infinite lattice excludes automatically.  Each cell
    builds its symbols once and reads the fields' parts from
    :func:`symbol_parts`; an overflowing symbol or weighted norm names s.
    """
    _validate_constants_config(kind, d, p, q, s, theta)
    gn_theta = 1.0 if kind == "sobolev_endpoint" else theta  # the Sobolev endpoint is Gagliardo-Nirenberg at theta = 1

    def cell(idx: int, h: float) -> list:
        lat = Lattice.for_box(h, d, box)
        _check_ensemble(lat, ensemble)  # before the bank: up to 23 real symbols of the lattice's shape
        bank = band_bank(lat)  # the ensemble's low-pass filters, and the band loop's symbols
        fields = random_ensemble(lat, ensemble, seed, cell_key=idx, bank=bank)
        if kind in ("bernstein", "square_function"):
            scales = band_scales(lat)
            first = sum(N * lat.M < 4 for N in scales) if kind == "bernstein" else 0  # keep bands with solid support
            symbols = bank[first:]
        else:
            if s < 0:  # a homogeneous symbol of negative order is singular at DC
                for f in fields:
                    _check_mean_zero(f)
            xi2 = continuum_symbol_grid(lat)
            symbols = [radial_power(xi2, s)]
            if kind == "norm_equivalence":
                symbols += [radial_power(laplacian_symbol_grid(lat), s), radial_power(xi2, 1.0)]
        ratios = []
        with np.errstate(over="raise"):  # an overflowing weighted part or norm is reported with s below
            for f, parts in zip(fields, symbol_parts(fields, symbols)):
                if kind == "square_function":
                    parts = [np.sqrt(sum(np.abs(part) ** 2 for part in parts))]
                norms = [modulus_lp_norm(np.abs(part), lat, q if kind == "bernstein" else p) for part in parts]
                if kind == "bernstein":
                    best, denom = 0.0, lp_norm(f, p)
                    for N, lhs in zip(scales[first:], norms):
                        rhs = (N / h) ** (d * (1.0 / p - 1.0 / q)) * denom
                        if rhs > 0:
                            best = max(best, lhs / rhs)
                    ratios.append((best,))
                elif kind in ("gagliardo_nirenberg", "sobolev_endpoint"):
                    rhs = lp_norm(f, p) ** (1.0 - gn_theta) * norms[0] ** gn_theta
                    if rhs > 0:
                        ratios.append((lp_norm(f, q) / rhs,))
                elif kind == "norm_equivalence":
                    num2 = sum(lp_norm(forward_difference(f, ax), p) for ax in range(d))
                    if norms[0] > 0 and norms[2] > 0:
                        ratios.append((norms[1] / norms[0], num2 / norms[2]))
                elif kind == "square_function":
                    denom = lp_norm(f, p)
                    if denom > 0:
                        ratios.append((norms[0] / denom,))
        if not ratios:
            raise ConfigurationError(f"no field of the ensemble has a positive right side at h = {h!r}")
        return [h, lat.M, *(extreme(column) for column in zip(*ratios) for extreme in (max, min))]

    if kind == "norm_equivalence":
        columns = ["h", "M", "max_ratio_power", "min_ratio_power", "max_ratio_difference", "min_ratio_difference"]
    else:
        columns = ["h", "M", "max_ratio", "min_ratio"]
    try:
        return scan_result(f"constants:{kind}", h_list, cell, columns,
                           {"box": box, "d": d, "p": p, "q": q, "s": s, "theta": theta,
                            "ensemble": ensemble, "seed": seed},
                           {name: name for name in columns[2:]})
    except FloatingPointError:  # a weighted part or norm past the float range, not a non-finite row or field
        raise ConfigurationError(f"a derivative-weighted norm overflows at s = {s!r}") from None


# ---------------------------------------------------------------------------
# frequency-block sharpness experiment

@dataclass
class KnappReport:
    """One cell of the sharpness experiment: both sides of the dual bound and their predictions."""

    h: float
    epsilon: float
    s: float
    q: float
    r: float
    d: int
    left_norm: float
    right_norm: float
    predicted_left_scaling: float
    predicted_right_scaling: float
    metadata: dict = field(default_factory=dict)


def _knapp_window(h: float, d1: float, x_window: float,
                  cosines: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """The axis-norm window xk = h (-n ... n), n = ceil(x_window / (d1 h)), with sin(d1 xk) and, if
    ``cosines``, cos(d1 xk) (else None).

    Each table is evaluated on k >= 0 only and mirrored onto k < 0, negated
    for the sine: d1 xk is exactly antisymmetric, and sine is odd and cosine
    even, so each equals its full-window evaluation bit for bit.
    """
    n_win = int(math.ceil(x_window / (d1 * h)))
    xk = np.arange(-n_win, n_win + 1) * h
    half = d1 * xk[n_win:]
    sk = np.empty_like(xk)
    np.sin(half, out=sk[n_win:])
    np.negative(sk[:n_win:-1], out=sk[:n_win])
    if not cosines:
        return xk, sk, None
    ck = np.empty_like(xk)
    np.cos(half, out=ck[n_win:])
    ck[:n_win] = ck[:n_win:-1]
    return xk, sk, ck


def _knapp_axis_norms(h: float, d1: float, centers: np.ndarray, rp: float, x_window: float) -> np.ndarray:
    """h-weighted l^rp sums of |sin(d1 (x - c)) / (x - c)| over a lattice window, one per centre c.

    The window spans ``x_window`` main-lobe widths h/eps around the lattice
    site nearest each centre, so the neglected tail is the same fixed fraction
    for every epsilon.  A centre enters only through its sub-lattice offset
    delta = c - h round(c/h): with x - c = k h - delta, angle addition gives
    sin(d1 (k h - delta)) from the fixed vectors sin(d1 k h), cos(d1 k h), so
    each centre costs a few in-place passes and no sine.  x - c vanishes only
    at k = 0 when delta is exactly 0, where the kernel takes its limit d1.
    The summand is even in x - c and the window is symmetric about the nearest
    site (np.round is symmetric, so delta(-c) = -delta(c) exactly), so the
    norm at -c is the norm at c.  The distinct |c| are then folded by their
    delta, since magnitudes sharing a delta give the kernel identical inputs:
    the kernel runs once per distinct delta (once for the 751 magnitudes of a
    criterion 08 cell, whose centres :func:`knapp_experiment` puts on sites).
    At delta = 0 the cos(d1 k h) term drops out, sin(d1 k h) cos 0 being
    sin(d1 k h) bit for bit, so its vector is built only for a nonzero delta.

    The vectors come from :func:`_knapp_window`, which evaluates them on the
    window's k >= 0 half only.  At delta = 0 the summand |sin(d1 k h) / (k h)|
    is itself exactly even in k, so the divide, modulus and power run on the
    k >= 0 half (k = 0 taking d1) and that half is copied mirrored onto
    k < 0: the window holds the values the full passes would write.

    A nonzero delta runs the angle-addition passes over the whole window, its
    second operand in one more window-length buffer that exists only when some
    delta is nonzero.  The deltas run one after another, and each pass takes
    its delta's cosine and sine, delta = 0 included, so one cosine counts
    one pass.
    """
    magnitudes, inverse = np.unique(np.abs(centers), return_inverse=True)
    deltas, by_delta = np.unique(magnitudes - h * np.round(magnitudes / h), return_inverse=True)
    inverse = by_delta[inverse]
    xk, sk, ck = _knapp_window(h, d1, x_window, cosines=bool(deltas.any()))
    n_win = xk.size // 2
    num = np.empty_like(xk)
    den = None if ck is None else np.empty_like(xk)
    norms = np.empty(deltas.size)
    with np.errstate(invalid="ignore"):
        for i, delta in enumerate(deltas):
            cos_delta, sin_delta = math.cos(d1 * delta), math.sin(d1 * delta)
            if delta == 0.0:  # sk cos 0 - ck sin 0 is sk and xk - 0 is xk, bit for bit
                half = num[n_win:]
                np.divide(sk[n_win:], xk[n_win:], out=half)
                half[0] = d1
                np.abs(half, out=half)
                np.power(half, rp, out=half)
                num[:n_win] = half[:0:-1]
            else:
                np.multiply(sk, cos_delta, out=num)
                np.multiply(ck, sin_delta, out=den)
                np.subtract(num, den, out=num)
                np.subtract(xk, delta, out=den)
                np.divide(num, den, out=num)
                np.abs(num, out=num)
                np.power(num, rp, out=num)
            norms[i] = num.sum()
    return (h * norms[inverse]) ** (1.0 / rp)


def _knapp_block_frequencies(h: float, epsilon: float, M: int) -> np.ndarray:
    """The frequencies of :meth:`Lattice.axis_frequencies` (spacing h, M sites) that the frequency block
    |(h xi / 2 - pi/4) / eps| < 1 keeps, in FFT order.

    h xi_k / 2 = pi k / M, so the block holds the k within eps M / pi of
    M / 4.  Only that index range, widened by one site on each side against
    rounding and clipped to the FFT indices -(M//2) ... (M-1)//2, is
    evaluated, by the method's own formula 2 pi (k / M) / h, and masked: the
    method's masked axis bit for bit, without its M frequencies.
    """
    reach = epsilon * M / math.pi
    lo = max(-(M // 2), math.floor(M / 4.0 - reach) - 1)
    hi = min((M - 1) // 2, math.ceil(M / 4.0 + reach) + 1)
    k = np.concatenate([np.arange(max(lo, 0), hi + 1), np.arange(lo, min(hi + 1, 0))])  # k >= 0 first
    xi = 2.0 * np.pi * (k * (1.0 / M)) / h
    return xi[np.abs((0.5 * h * xi - np.pi / 4.0) / epsilon) < 1.0]


def knapp_experiment(h: float, epsilon: float, s: float, pair: AdmissiblePair, *,
                     M: int | None = None, u_window: float = 300.0, n_t: int = 1501,
                     x_window: float = 512.0) -> KnappReport:
    """Evaluate both sides of the dual space-time bound on the frequency-block example.

    The left side is exact on the dual grid: the block's space-time transform
    restricted to the dispersion surface, weighted by |xi|^(-s) with xi = 0
    dropped, summed with the dual-grid quadrature over the block's own
    dual-grid points, so no M^d array is built; only the block's index range
    of the axis is evaluated (:func:`_knapp_block_frequencies`), not its M
    frequencies.  The right side takes the closed-form modulus of the block
    in physical variables (a product of Dirichlet-type kernels whose first
    factor scales the time axis by eps^3/h^2) and quadratures the mixed norm
    with conjugate exponents.
    Truncations are fixed in the scaled variables, so they cancel from fitted
    epsilon-exponents; each window must cover at least pi (one main lobe) and
    the u-grid spacing be at most 2 pi (one period of sin u).  ``M`` defaults
    to 2^15 sites per axis in d = 1 and 2^10 in d = 2.

    A centre c = 2u/(a h), a = eps^3/h^2, carries the rounding of its time
    sample: one ulp of ``u_window`` is 2 ulp(u_window)/(a h) in c, and the
    divisions by a and h and the doubling round once each.  A centre within
    four of these units of the site h round(c/h) is put on that site, so a
    grid whose centres step by whole sites (criterion 08's cells) has the one
    offset 0.  The genuine offsets measured (eps = 0.03 and 0.015 at h = 1/2,
    and :func:`knapp_h_sharpness`'s eps) lie at least 10^6 units away, and the
    axis norm is even in the offset, so the snap moves a norm by second-order
    rounding.
    """
    d = pair.d
    if d not in (1, 2):
        raise ConfigurationError("the sharpness experiment is implemented for d in {1, 2}")
    if M is None:
        M = 2**15 if d == 1 else 2**10
    if not (n_t >= 2 and 0 < u_window < math.inf and 0 < x_window < math.inf):
        raise ConfigurationError("the right-side quadrature needs n_t >= 2 and finite u_window, x_window > 0")
    if not math.isfinite(s):
        raise ConfigurationError(f"the derivative weight s must be finite, got {s!r}")
    check_sites(n_t, f"n_t = {n_t} right-side time samples")
    Lattice(h=h, d=d, M=M)  # checks h and M
    if not (epsilon > 0 and epsilon / h**2 <= np.pi / 2.0 + 1e-12):  # NaN fails too
        raise ConfigurationError("constraint violated: need 0 < epsilon <= pi * h^2 / 2")
    with np.errstate(over="ignore"):  # the right side's time scale; a float epsilon**3 would raise on overflow
        a = float(np.float64(epsilon) ** 3 / h**2)
    if not 0 < a < math.inf:
        raise ConfigurationError(f"eps = {epsilon:g} makes the right side's time scale eps^3/h^2 = {a!r} at h = {h!r}")
    d1 = epsilon / h
    sites = 2.0 * np.ceil(x_window / (d1 * h)) + 1.0  # the right-side window, as _knapp_axis_norms sizes it
    check_sites(sites, f"x_window = {x_window:g} spans {sites:.3g} right-side window sites at eps = {epsilon:g}")
    qp, rp = pair.q_conjugate, pair.r_conjugate
    if qp <= 1.0:
        raise ConfigurationError("right-side time norm diverges at q = inf (q' = 1)")
    if rp <= 1.0:
        raise ConfigurationError("right-side spatial norm diverges at r = inf (r' = 1)")

    # left side: the block's own dual-grid points, kept where they lie on the dispersion surface
    axis_xi = _knapp_block_frequencies(h, epsilon, M)
    grids = np.meshgrid(*[axis_xi] * d, indexing="ij", sparse=True)
    om = sum(lattice_symbol(g, h) for g in grids)
    arg = (h**2 / epsilon**3) * (-om + d * (2.0 - np.pi) / h**2 + (2.0 / h) * sum(grids))
    K = np.abs(arg) < 1.0
    r2 = sum(g**2 for g in grids)[K]
    with np.errstate(over="ignore"):  # an overflowing weight is rejected below
        wgt = r2[r2 > 0] ** (-s)  # the homogeneous weight drops xi = 0
    left = float(np.sqrt(np.sum(wgt)) / (h * M) ** (d / 2.0))
    if not 0 < left < math.inf:
        raise ConfigurationError(f"the left side is {left!r} at the derivative weight s = {s!r}: "
                                 f"|xi|^(-2s) underflows or overflows on the block, or the block misses the surface")

    # right side: |f(t, x)| = |sin(a t)/t| * prod_i |sin(d1 (x_i - 2t/h)) / (x_i - 2t/h)|
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # non-finite samples are rejected below
        us = np.linspace(-u_window, u_window, n_t)
        us = 0.5 * (us - us[::-1])  # exactly antisymmetric, so the centres +-c pair up in the axis norms
        ts = us / a
        centers = 2.0 * ts / h
        tf = np.abs(np.sin(us) / np.where(us == 0.0, 1.0, ts))
    if not np.isfinite(centers).all():
        raise ConfigurationError(f"u_window = {u_window:g} puts a right-side time sample t = u / (eps^3/h^2) "
                                 f"or its centre 2t/h past the float range at eps = {epsilon:g}")
    for name, window in (("u_window", u_window), ("x_window", x_window)):
        if window < math.pi:
            raise ConfigurationError(f"{name} = {window:g} is less than pi: the right-side quadrature window "
                                     f"misses the main lobe of its sine kernel")
    if u_window / (n_t - 1) > math.pi:
        raise ConfigurationError(f"n_t = {n_t} spaces the right side's u-grid {2.0 * u_window / (n_t - 1):g} "
                                 f"apart over u_window = {u_window:g}: more than one period 2 pi of sin u")
    tf = np.where(us == 0.0, a, tf)
    sites = h * np.round(centers / h)
    centers = np.where(np.abs(centers - sites) <= 8.0 * np.spacing(u_window) / (a * h), sites, centers)
    xnorms = _knapp_axis_norms(h, d1, centers, rp, x_window) ** d
    right = _time_norm(tf * xnorms, ts, qp)
    if not 0 < right < math.inf:
        raise ConfigurationError(f"the right side is {right!r} at eps = {epsilon:g}: the quadrature windows "
                                 f"u_window = {u_window:g}, x_window = {x_window:g} underflow or overflow it")

    predicted_left = h**s * (epsilon / h) ** (d / 2.0)
    predicted_right = (epsilon / h) ** (d * (1.0 - 1.0 / rp)) * (epsilon**3 / h**2) ** (1.0 - 1.0 / qp)
    return KnappReport(
        h=h, epsilon=epsilon, s=s, q=pair.q, r=pair.r, d=d,
        left_norm=left, right_norm=right,
        predicted_left_scaling=predicted_left, predicted_right_scaling=predicted_right,
        metadata={"M": M, "u_window": u_window, "n_t": n_t, "x_window": x_window,
                  "surface_points": int(np.count_nonzero(K))},
    )


def knapp_eps_exponents(reports: list[KnappReport]) -> dict[str, dict]:
    """Fit the epsilon-exponents of both measured norms over a fixed-h report list."""
    if len(reports) < 2:
        raise ConfigurationError("need at least two epsilon values to fit")
    eps = np.array([r.epsilon for r in reports])
    fits = {
        "left": loglog_fit(eps, np.array([r.left_norm for r in reports])),
        "right": loglog_fit(eps, np.array([r.right_norm for r in reports])),
    }
    return fits


KNAPP_COUPLING = 0.9  # epsilon as a share of its largest admissible value pi h^2 / 2


def knapp_h_sharpness(h_list: list[float], s: float, pair: AdmissiblePair, **kwargs) -> ScanResult:
    """Couple epsilon to :data:`KNAPP_COUPLING` times its largest admissible value per h; fit the ratio.

    With the derivative weight below the sharp threshold (s < 1/q) the ratio
    grows like a positive power of 1/h, exhibiting the failure of any uniform
    constant; at s = 1/q it stays flat.
    """
    def cell(index: int, h: float) -> list:
        eps = KNAPP_COUPLING * np.pi * h * h / 2.0
        rep = knapp_experiment(h, eps, s, pair, **kwargs)
        return [h, eps, rep.left_norm, rep.right_norm, rep.left_norm / rep.right_norm]

    return scan_result("knapp_h_sharpness", h_list, cell, ["h", "epsilon", "left_norm", "right_norm", "ratio"],
                       {"s": s, "q": pair.q, "r": pair.r, "d": pair.d, "coupling": KNAPP_COUPLING},
                       {"ratio": "ratio"})
