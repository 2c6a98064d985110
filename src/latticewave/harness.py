"""Experiment drivers: decay-exponent fits, space-time norms, constant scans, sharpness tests.

Every scan samples a deterministic ensemble (per-cell seeds spawned from one
base seed), records the raw operands of each measured ratio so results are
recomputable, and reports ordinary least-squares fits on log-log data.  Cells
run serially in spacing order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .errors import ConfigurationError, WindowError
from .lattice import (
    MAX_SITES,
    GridFunction,
    Lattice,
    boundary_mask,
    density_mass_fraction,
    gaussian,
    lp_norm,
    modulus_lp_norm,
    point_mass,
)
from .propagators import DISPERSIONS, dispersion, flow
from .spectral import (
    band_bank,
    band_projection,
    band_scales,
    continuum_symbol_grid,
    forward_difference,
    laplacian_power,
    laplacian_symbol_grid,
    sobolev_norm,
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

BOUNDARY_THRESHOLD = 1e-6


# ---------------------------------------------------------------------------
# fits

def loglog_fit(x: np.ndarray, y: np.ndarray) -> dict:
    """OLS fit of log(y) against log(x); returns slope, intercept and r^2."""
    lx = np.log(np.asarray(x, dtype=float))
    ly = np.log(np.asarray(y, dtype=float))
    if lx.size < 2:
        raise ValueError("need at least two points to fit")
    A = np.vstack([lx, np.ones_like(lx)]).T
    coef, *_ = np.linalg.lstsq(A, ly, rcond=None)
    resid = ly - A @ coef
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return {"slope": float(coef[0]), "intercept": float(coef[1]), "r_squared": r2}


# ---------------------------------------------------------------------------
# admissible exponent pairs

@dataclass(frozen=True)
class AdmissiblePair:
    """Space-time exponents with 3/q + d/r = d/2, 2 <= q, r <= inf."""

    q: float
    r: float
    d: int

    def __post_init__(self):
        inv_q = 0.0 if math.isinf(self.q) else 1.0 / self.q
        inv_r = 0.0 if math.isinf(self.r) else 1.0 / self.r
        if not (self.q >= 2 and self.r >= 2):
            raise ConfigurationError("admissible pairs need q, r >= 2")
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

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t.size < 2 or np.any(np.diff(t) <= 0):
            raise ValueError("times must be strictly increasing")


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


def _axis_factors(u0: GridFunction, kind: str) -> list[GridFunction]:
    """The d one-axis factors of ``u0`` on ``Lattice(h, 1, M)`` when it is an exact outer product, else [u0].

    The factors are the slices of ``u0`` through its largest-modulus site,
    all but the first divided by the value there, and are kept only if
    their outer product rebuilds ``u0`` exactly.  Only the flow of a kind
    whose symbol is additive over the axes maps an outer product to the outer
    product of the one-axis flows (see :mod:`latticewave.propagators`).
    """
    lat, v = u0.lattice, u0.values
    if lat.d == 1 or not DISPERSIONS[kind].additive:
        return [u0]
    pivot = np.unravel_index(np.argmax(np.abs(v)), v.shape)
    if v[pivot] == 0:
        return [u0]
    slices = [v[pivot[:ax] + (slice(None),) + pivot[ax + 1:]] for ax in range(lat.d)]
    slices[1:] = [s / v[pivot] for s in slices[1:]]
    if not np.array_equal(reduce(np.multiply.outer, slices), v):
        return [u0]
    axis = Lattice(h=lat.h, d=1, M=lat.M)
    return [GridFunction(axis, s) for s in slices]


def _time_samples(kind: str, u0: GridFunction, t_grid: np.ndarray, p: float,
                  check_window: bool = True) -> np.ndarray:
    """The l^p norm of the ``kind`` flow of ``u0`` at each time of ``t_grid``, each field window-checked.

    Times are walked in ascending |t| and the norms are scattered back.  A
    real datum is flowed once per distinct |t| (see :func:`strichartz_norm`),
    a complex one at every time (a stable sort keeps -t before t).  A window
    failure names the largest |t| below the failing one at which every
    sample passed.  Each sample takes the modulus once, for both the
    boundary-mass check and the norm, against an edge mask built once.

    The datum is flowed as its :func:`_axis_factors`: an exact outer product
    (a point mass, say) costs d one-axis transforms of M points per sample
    and the modulus is the outer product of the factors' moduli; any other
    datum is its own single factor and is flowed on the full grid.
    """
    lat = u0.lattice
    if not np.any(u0.values.imag):
        times, inverse = np.unique(np.abs(t_grid), return_inverse=True)
    else:
        order = np.argsort(np.abs(t_grid), kind="stable")
        times, inverse = t_grid[order], np.argsort(order)
    mask = boundary_mask(lat) if check_window else None
    factors = [(f.lattice, np.fft.fftn(f.values)) for f in _axis_factors(u0, kind)]
    norms = np.empty(times.size)
    for i, t in enumerate(times):
        a = reduce(np.multiply.outer, [np.abs(flow(kind, spectrum, axis, float(t)).values)
                                       for axis, spectrum in factors])
        if check_window and density_mass_fraction(np.square(a), mask) > BOUNDARY_THRESHOLD:
            passed = np.abs(times[:i])
            passed = passed[passed < abs(t)]
            largest_ok = float(passed[-1]) if passed.size else None
            raise WindowError(
                f"solution reached the boundary at t={t:g}; largest admissible |t| is "
                f"{largest_ok if largest_ok is not None else 'none'}",
                largest_valid_t=largest_ok,
            )
        norms[i] = modulus_lp_norm(a, lat, p)
    return norms[inverse]


def decay_time_grid(t_min: float, t_max: float, n_t: int = 25) -> np.ndarray:
    if n_t < 2 or not 0 < t_min < t_max < math.inf:
        raise ConfigurationError(
            f"decay times need n_t >= 2 and 0 < t_min < t_max < inf, got n_t={n_t}, "
            f"t_min={t_min!r}, t_max={t_max!r}")
    return np.geomspace(t_min, t_max, n_t)


def dispersive_decay_scan(kind: str, data: GridFunction, t_grid: np.ndarray,
                          N: float | None = None) -> DecayFit:
    """Fit the log-log slope of t -> sup norm of the evolved data.

    ``N`` selects a dyadic frequency band first; ``None`` evolves the full
    spectrum.  Each sampled time is checked against the boundary-mass monitor
    and the scan aborts (reporting the largest admissible |t|) once wraparound
    contaminates the box.  The kind is checked before the band projection.
    """
    dispersion(kind, data.lattice.d)
    t_grid = _checked_time_grid(t_grid, positive=True)
    f = data * (1.0 / lp_norm(data, 1))
    if N is not None:
        f = band_projection(f, N)
    sups = _time_samples(kind, f, t_grid, math.inf)
    fit = loglog_fit(t_grid, sups)
    return DecayFit(times=t_grid, sup_norms=sups,
                    slope=fit["slope"], intercept=fit["intercept"], r_squared=fit["r_squared"])


# ---------------------------------------------------------------------------
# space-time norms

def symmetric_time_grid(T: float, n_t: int, t_min: float) -> np.ndarray:
    """0 plus geometrically spaced positive and negative nodes out to +-T."""
    pos = np.geomspace(t_min, T, n_t)
    return np.concatenate([-pos[::-1], [0.0], pos])


def strichartz_norm(u0: GridFunction, pair: AdmissiblePair, T: float, n_t: int = 96,
                    t_grid: np.ndarray | None = None, kind: str = "schrodinger",
                    check_window: bool = True) -> float:
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
    before any transform.
    """
    dispersion(kind, u0.lattice.d)
    if t_grid is None:
        if n_t < 64:
            raise ConfigurationError("need n_t >= 64 quadrature nodes")
        if not 0 < T < math.inf:
            raise ConfigurationError(f"the time horizon T must be positive and finite, got {T!r}")
        t_grid = symmetric_time_grid(T, n_t, T / (8.0 * n_t))
    t_grid = _checked_time_grid(t_grid, positive=False)
    rnorms = _time_samples(kind, u0, t_grid, pair.r, check_window=check_window)
    if math.isinf(pair.q):
        return float(rnorms.max())
    return float(np.trapezoid(rnorms**pair.q, t_grid) ** (1.0 / pair.q))


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


def scan_result(kind: str, columns: list[str], rows: list[list], metadata: dict,
                fits: dict[str, str]) -> ScanResult:
    """Wrap the rows of a spacing scan and fit each named column against 1/h.

    ``fits`` maps a fit name to the column it fits.  Fits need at least two
    rows, and a column holding a value that is not finite and positive (a
    degenerate minimum of a one-sided scan, or an infinite or NaN ratio) has
    no log-log fit and is skipped.  A scan with no rows (an empty spacing
    list) is a configuration error.
    """
    if not rows:
        raise ConfigurationError(f"{kind} scan has no cells: pass at least one spacing")
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
                    box: float = 64.0, data: str = "point", width: float | None = None,
                    horizon_fraction: float = 0.15, n_t: int = 96) -> ScanResult:
    """Ratio of the truncated space-time norm to two candidate data norms, per spacing.

    Mode "with" divides by the derivative-weighted L^2 norm of the data (the
    uniform bound: fitted h-exponent should be ~0); mode "without" divides by
    the plain L^2 norm (on broadband data the constant grows like h^(-1/q)).
    The per-spacing horizon is ``horizon_fraction * box * h`` so the fastest
    band (group speed ~ 2/h) stays inside the box; the tail it cuts is a
    vanishing fraction of the q-th power integral and is recorded in metadata.
    The derivative weight is the flow kind's ``weight`` row, read (and the
    kind and its dimension checked) before the first cell.
    """
    if data not in ("point", "gaussian"):
        raise ConfigurationError(f"unknown data kind {data!r}")
    if not 0 < horizon_fraction < math.inf:
        raise ConfigurationError(f"horizon_fraction must be positive and finite, got {horizon_fraction!r}")
    if n_t < 64:
        raise ConfigurationError(f"need n_t >= 64 quadrature nodes, got n_t={n_t}")
    weight = dispersion(kind, pair.d).weight
    rows = []
    for h in h_list:
        lat = Lattice.for_box(h, pair.d, box)
        u0 = point_mass(lat) if data == "point" else gaussian(lat, width if width is not None else box / 16.0)
        u0 = u0 * (1.0 / lp_norm(u0, 2))
        T = horizon_fraction * box * h
        grid = symmetric_time_grid(T, n_t, h * h / 16.0)
        S = strichartz_norm(u0, pair, T, t_grid=grid, kind=kind)
        rhs_with = lp_norm(weight(u0, pair.q), 2)
        rhs_without = lp_norm(u0, 2)
        rows.append([h, lat.M, T, S, rhs_with, rhs_without, S / rhs_with, S / rhs_without])
    return scan_result(
        "uniformity",
        ["h", "M", "T", "strichartz", "rhs_with", "rhs_without", "ratio_with", "ratio_without"],
        rows,
        {"flow": kind, "q": pair.q, "r": pair.r, "d": pair.d, "box": box,
         "data": data, "horizon_fraction": horizon_fraction, "n_t": n_t},
        {"with": "ratio_with", "without": "ratio_without"},
    )


# ---------------------------------------------------------------------------
# random ensembles for constant scans

def random_ensemble(lattice: Lattice, size: int, seed: int, cell_key: int = 0,
                    mean_zero: bool = True) -> list[GridFunction]:
    """Deterministic mix of band-limited complex noise and structured candidates.

    Structured members (a point mass and an off-axis frequency block) probe
    the extremes that white noise rarely reaches; the rest is complex Gaussian
    noise low-passed at a random band.  Constants are suprema, so the ensemble
    yields lower bounds that must stay stable across the spacing scan.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, cell_key]))
    out: list[GridFunction] = []
    # row k keeps every band at or below the k-th scale, summed in ascending order
    lowpass = np.cumsum(band_bank(lattice), axis=0)

    def normalize(v: np.ndarray) -> GridFunction | None:
        if mean_zero:
            v = v - v.mean()
        scale = float(np.abs(v).max())
        if scale == 0.0:
            return None
        return GridFunction(lattice, v / scale)

    f = point_mass(lattice).values.astype(complex)
    g = normalize(f)
    if g is not None:
        out.append(g)

    # frequency block centred at a quarter of the axis Nyquist (off DC, off the edge)
    F = np.zeros(lattice.shape, dtype=complex)
    kc = lattice.M // 4
    w = max(1, lattice.M // 16)
    sl = tuple([slice(kc - w // 2, kc + w // 2 + 1)] * lattice.d)
    F[sl] = 1.0
    g = normalize(np.fft.ifftn(F))
    if g is not None:
        out.append(g)

    while len(out) < size:
        noise = rng.standard_normal(lattice.shape) + 1j * rng.standard_normal(lattice.shape)
        k = rng.integers(max(1, len(lowpass) // 2), len(lowpass))
        g = normalize(np.fft.ifftn(lowpass[k] * np.fft.fftn(noise)))
        if g is not None:
            out.append(g)
    return out[:size]


# ---------------------------------------------------------------------------
# inequality constant scans

CONSTANT_KINDS = ("bernstein", "gagliardo_nirenberg", "sobolev_endpoint", "norm_equivalence", "square_function")


def _validate_constants_config(kind: str, d: int, p: float, q: float | None,
                               s: float | None, theta: float | None) -> None:
    if kind not in CONSTANT_KINDS:
        raise ConfigurationError(f"unknown scan kind {kind!r}")
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
        inv_q = 0.0 if math.isinf(q) else 1.0 / q
        if abs(inv_q - (1.0 / p - theta * s / d)) > 1e-12:
            raise ConfigurationError("gagliardo_nirenberg needs 1/q = 1/p - theta*s/d")
    elif kind == "sobolev_endpoint":
        if q is None or s is None:
            raise ConfigurationError("sobolev_endpoint needs p, q, s")
        if not (1 < p < q) or math.isinf(q):
            raise ConfigurationError("sobolev_endpoint needs 1 < p < q < inf")
        if abs(1.0 / q - (1.0 / p - s / d)) > 1e-12:
            raise ConfigurationError("sobolev_endpoint needs 1/q = 1/p - s/d")
    elif kind == "norm_equivalence":
        if s is None or not (1 < p) or math.isinf(p):
            raise ConfigurationError("norm_equivalence needs s and 1 < p < inf")
    elif kind == "square_function":
        if not (1 < p) or math.isinf(p):
            raise ConfigurationError("square_function needs 1 < p < inf")


def _square_function(f: GridFunction, bank: np.ndarray) -> GridFunction:
    """(sum over the bank's bands of |band part of f|^2)^(1/2): one forward FFT, one inverse per band."""
    spectrum = np.fft.fftn(f.values)
    acc = np.zeros(f.lattice.shape)
    for sym in bank:
        acc += np.abs(GridFunction(f.lattice, np.fft.ifftn(sym * spectrum)).values) ** 2
    return GridFunction(f.lattice, np.sqrt(acc))


def inequality_constant_scan(kind: str, h_list: list[float], *, box: float = 16.0, d: int = 1,
                             p: float = 2.0, q: float | None = None, s: float | None = None,
                             theta: float | None = None, ensemble: int = 64, seed: int = 0) -> ScanResult:
    """Extremal observed LHS/RHS ratio of one functional inequality, per spacing.

    kinds: ``bernstein`` (band projection Lp -> Lq), ``gagliardo_nirenberg``,
    ``sobolev_endpoint``, ``norm_equivalence`` (both equivalence ratios),
    ``square_function`` (two-sided).  Exponent hypotheses are validated up
    front and a violation names the constraint.  Random fields are mean-zero:
    on the periodic truncation a nonzero mean lies outside every homogeneous
    norm, which the infinite lattice excludes automatically.
    """
    _validate_constants_config(kind, d, p, q, s, theta)

    def cell(idx: int, h: float) -> list:
        lat = Lattice.for_box(h, d, box)
        M = lat.M
        fields = random_ensemble(lat, ensemble, seed, cell_key=idx)
        bank = band_bank(lat) if kind in ("bernstein", "square_function") else None
        ratios = []
        for f in fields:
            if kind == "bernstein":
                best = 0.0
                denom = lp_norm(f, p)
                spectrum = np.fft.fftn(f.values)
                for N, sym in zip(band_scales(lat), bank):
                    if N * M < 4:  # keep bands with solid dual-grid support
                        continue
                    lhs = lp_norm(GridFunction(lat, np.fft.ifftn(sym * spectrum)), q)
                    rhs = (N / h) ** (d * (1.0 / p - (0.0 if math.isinf(q) else 1.0 / q))) * denom
                    if rhs > 0:
                        best = max(best, lhs / rhs)
                ratios.append(best)
            elif kind == "gagliardo_nirenberg":
                rhs = lp_norm(f, p) ** (1.0 - theta) * sobolev_norm(f, s, p, homogeneous=True) ** theta
                if rhs > 0:
                    ratios.append(lp_norm(f, q) / rhs)
            elif kind == "sobolev_endpoint":
                rhs = sobolev_norm(f, s, p, homogeneous=True)
                if rhs > 0:
                    ratios.append(lp_norm(f, q) / rhs)
            elif kind == "norm_equivalence":
                denom = sobolev_norm(f, s, p, homogeneous=True)
                num1 = lp_norm(laplacian_power(f, s), p)
                num2 = sum(lp_norm(forward_difference(f, ax), p) for ax in range(d))
                denom2 = sobolev_norm(f, 1.0, p, homogeneous=True)
                if denom > 0 and denom2 > 0:
                    ratios.append((num1 / denom, num2 / denom2))
            elif kind == "square_function":
                denom = lp_norm(f, p)
                if denom > 0:
                    ratios.append(lp_norm(_square_function(f, bank), p) / denom)
        if kind == "norm_equivalence":
            r1 = [a for a, _ in ratios]
            r2 = [b for _, b in ratios]
            return [h, M, max(r1), min(r1), max(r2), min(r2)]
        return [h, M, max(ratios), min(ratios)]

    rows = [cell(idx, h) for idx, h in enumerate(h_list)]
    if kind == "norm_equivalence":
        columns = ["h", "M", "max_ratio_power", "min_ratio_power", "max_ratio_difference", "min_ratio_difference"]
    else:
        columns = ["h", "M", "max_ratio", "min_ratio"]
    return scan_result(f"constants:{kind}", columns, rows,
                       {"box": box, "d": d, "p": p, "q": q, "s": s, "theta": theta,
                        "ensemble": ensemble, "seed": seed},
                       {name: name for name in columns[2:]})


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


def _knapp_axis_norms(h: float, d1: float, centers: np.ndarray, rp: float, x_window: float) -> np.ndarray:
    """h-weighted l^rp sums of |sin(d1 (x - c)) / (x - c)| over a lattice window, one per centre c.

    The window spans ``x_window`` main-lobe widths h/eps around the lattice
    site nearest each centre, so the neglected tail is the same fixed fraction
    for every epsilon.  A centre enters only through its sub-lattice offset
    delta = c - h round(c/h): with x - c = k h - delta, angle addition gives
    sin(d1 (k h - delta)) from the fixed vectors sin(d1 k h), cos(d1 k h), so
    each centre costs a few in-place passes over two scratch buffers and no
    sine.  x - c vanishes only at k = 0 when delta is exactly 0, where the
    kernel takes its limit d1.  The summand is even in x - c and the window is
    symmetric about the nearest site (np.round is symmetric, so delta(-c) =
    -delta(c) exactly), so the norm at -c is the norm at c.  The distinct |c|
    are then folded by their delta, since magnitudes sharing a delta give the
    kernel identical inputs: the kernel runs once per distinct delta (28 for
    the 751 magnitudes of a criterion 08 cell, whose centres step by whole
    sites).
    """
    n_win = int(math.ceil(x_window / (d1 * h)))
    xk = np.arange(-n_win, n_win + 1) * h
    sk = np.sin(d1 * xk)
    ck = np.cos(d1 * xk)
    num = np.empty_like(xk)
    den = np.empty_like(xk)
    magnitudes, inverse = np.unique(np.abs(centers), return_inverse=True)
    deltas, by_delta = np.unique(magnitudes - h * np.round(magnitudes / h), return_inverse=True)
    inverse = by_delta[inverse]
    norms = np.empty(deltas.size)
    with np.errstate(invalid="ignore"):
        for i, delta in enumerate(deltas):
            np.multiply(sk, math.cos(d1 * delta), out=num)
            np.multiply(ck, math.sin(d1 * delta), out=den)
            np.subtract(num, den, out=num)
            np.subtract(xk, delta, out=den)
            np.divide(num, den, out=num)
            if delta == 0.0:
                num[n_win] = d1
            np.abs(num, out=num)
            np.power(num, rp, out=num)
            norms[i] = num.sum()
    return (h * norms[inverse]) ** (1.0 / rp)


def knapp_experiment(h: float, epsilon: float, s: float, pair: AdmissiblePair, *,
                     M: int | None = None, u_window: float = 300.0, n_t: int = 1501,
                     x_window: float = 512.0) -> KnappReport:
    """Evaluate both sides of the dual space-time bound on the frequency-block example.

    The left side is exact on the dual grid: the block's space-time transform
    restricted to the dispersion surface, weighted by |xi|^(-s) with xi = 0
    dropped, summed with the dual-grid quadrature.  The right side takes the
    closed-form modulus of the block in physical variables (a product of
    Dirichlet-type kernels whose first factor scales the time axis by
    eps^3/h^2) and quadratures the mixed norm with conjugate exponents.
    Truncations are fixed in the scaled variables, so they cancel from fitted
    epsilon-exponents.  ``M`` defaults to 2^15 sites per axis in d = 1 and
    2^10 in d = 2.
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
    if n_t > MAX_SITES:
        raise ConfigurationError(f"n_t = {n_t} right-side time samples exceeds MAX_SITES = {MAX_SITES}")
    lat = Lattice(h=h, d=d, M=M)
    if not (epsilon > 0 and epsilon / h**2 <= np.pi / 2.0 + 1e-12):  # NaN fails too
        raise ConfigurationError("constraint violated: need 0 < epsilon <= pi * h^2 / 2")
    d1 = epsilon / h
    half_window = x_window / (d1 * h)  # sites either side of a centre, as _knapp_axis_norms sizes its window
    if not half_window <= (MAX_SITES - 1) // 2:  # 2 * ceil(half_window) + 1 sites at most MAX_SITES
        raise ConfigurationError(f"x_window = {x_window:g} spans {2.0 * half_window + 1.0:.3g} right-side "
                                 f"window sites at eps = {epsilon:g}, over MAX_SITES = {MAX_SITES}")
    qp, rp = pair.q_conjugate, pair.r_conjugate
    if qp <= 1.0:
        raise ConfigurationError("right-side time norm diverges at q = inf (q' = 1)")
    if rp <= 1.0:
        raise ConfigurationError("right-side spatial norm diverges at r = inf (r' = 1)")

    # left side: indicator of the block intersected with the dispersion surface
    axis_xi = lat.axis_frequencies()
    y = 0.5 * h * axis_xi
    block_axis = np.abs((y - np.pi / 4.0) / epsilon) < 1.0
    om = laplacian_symbol_grid(lat)
    xi_sum = sum(np.broadcast_to(g, lat.shape) for g in lat.frequency_grids())
    arg = (h**2 / epsilon**3) * (-om + d * (2.0 - np.pi) / h**2 + (2.0 / h) * xi_sum)
    block = np.ones(lat.shape, dtype=bool)
    for ax in range(d):
        sh = [1] * d
        sh[ax] = M
        block &= block_axis.reshape(sh)
    K = block & (np.abs(arg) < 1.0)
    r2 = continuum_symbol_grid(lat)
    weighted = K & (r2 > 0)  # the homogeneous weight drops xi = 0
    wgt = np.zeros(lat.shape)
    with np.errstate(over="ignore"):  # an overflowing weight is rejected below
        wgt[weighted] = r2[weighted] ** (-s)
    left = float(np.sqrt(np.sum(wgt)) / (h * M) ** (d / 2.0))
    if not 0 < left < math.inf:
        raise ConfigurationError(f"the left side is {left!r} at the derivative weight s = {s!r}: "
                                 f"|xi|^(-2s) underflows or overflows on the block, or the block misses the surface")

    # right side: |f(t, x)| = |sin(a t)/t| * prod_i |sin(d1 (x_i - 2t/h)) / (x_i - 2t/h)|
    a = epsilon**3 / h**2
    us = np.linspace(-u_window, u_window, n_t)
    us = 0.5 * (us - us[::-1])  # exactly antisymmetric, so the centres +-c pair up in the axis norms
    ts = us / a
    with np.errstate(invalid="ignore", divide="ignore"):
        tf = np.abs(np.sin(us) / np.where(us == 0.0, 1.0, ts))
    tf = np.where(us == 0.0, a, tf)
    xnorms = _knapp_axis_norms(h, d1, 2.0 * ts / h, rp, x_window) ** d
    right = float(np.trapezoid((tf * xnorms) ** qp, ts) ** (1.0 / qp))

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


def knapp_h_sharpness(h_list: list[float], s: float, pair: AdmissiblePair, *,
                      coupling: float = 0.9, **kwargs) -> ScanResult:
    """Couple epsilon to the largest admissible value per h and fit the left/right ratio.

    With the derivative weight below the sharp threshold (s < 1/q) the ratio
    grows like a positive power of 1/h, exhibiting the failure of any uniform
    constant; at s = 1/q it stays flat.
    """
    rows = []
    for h in h_list:
        eps = coupling * np.pi * h * h / 2.0
        rep = knapp_experiment(h, eps, s, pair, **kwargs)
        rows.append([h, eps, rep.left_norm, rep.right_norm, rep.left_norm / rep.right_norm])
    return scan_result("knapp_h_sharpness", ["h", "epsilon", "left_norm", "right_norm", "ratio"], rows,
                       {"s": s, "q": pair.q, "r": pair.r, "d": pair.d, "coupling": coupling},
                       {"ratio": "ratio"})
