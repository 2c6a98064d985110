"""Split-step evolution of the focusing/defocusing power nonlinearity on the lattice.

Both sub-flows are exact: the linear half-step is a unimodular multiplier and
the nonlinear step is a pointwise phase rotation that conserves the modulus,
so the composition conserves mass to roundoff and is time-reversible.  Energy
is conserved to second order in the step size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DivergenceError, WindowError
from .harness import (
    AdmissiblePair,
    ScanResult,
    _time_norm,
    admissible_pairs,
    random_ensemble,
    scan_result,
)
from .lattice import (
    BOUNDARY_THRESHOLD,
    GridFunction,
    Lattice,
    boundary_mask,
    check_sites,
    continuum_gaussian,
    density_mass_fraction,
    from_function,
    gaussian,
    inner_product,
    lp_norm,
    modulus_lp_norm,
)
from .propagators import PhaseSpec
from .spectral import continuum_symbol_grid, discrete_laplacian, laplacian_symbol_grid, radial_power, symbol_parts

__all__ = [
    "NlsConfig",
    "Trajectory",
    "mass",
    "energy",
    "step_strang",
    "evolve",
    "s1_norm",
    "continuum_gaussian",
    "interpolation_constant",
    "uniform_bound_experiment",
    "KNOWN_MONITORS",
]

KNOWN_MONITORS = ("mass", "energy", "s1_norm", "boundary_mass")


@dataclass(frozen=True)
class NlsConfig:
    """Coupling, nonlinearity power, step size, horizon, and monitor selection.

    ``lam > 0`` is defocusing for the energy written here, ``lam < 0``
    focusing.  The ``s1_norm`` monitor records the instantaneous inhomogeneous
    H^1 norm plus the lattice-native kinetic norm |sqrt(-Lap) u|_2 (series
    ``kinetic_h1``) that the conservation bounds control exactly; the full
    space-time norm is computed from snapshots afterwards via :func:`s1_norm`.
    The validity window is not a setting: :func:`evolve` stops once the mass on
    :func:`latticewave.lattice.boundary_mask` exceeds
    :data:`latticewave.lattice.BOUNDARY_THRESHOLD`.
    """

    lam: float
    p: float
    dt: float
    T: float
    monitors: frozenset[str] = frozenset(KNOWN_MONITORS)
    snapshot_stride: int = 16

    def __post_init__(self):
        if not 1 < self.p < math.inf:
            raise ConfigurationError(f"nonlinearity power must satisfy 1 < p < inf, got p={self.p!r}")
        if not (0 < self.dt < math.inf and 0 < self.T < math.inf):
            raise ConfigurationError(f"dt and T must be positive and finite, got dt={self.dt!r}, T={self.T!r}")
        if not self.T / self.dt < math.inf:  # the step count is checked before any step is allocated
            raise ConfigurationError(f"the step count T/dt must be finite, got T={self.T!r}, dt={self.dt!r}")
        check_sites(self.T / self.dt, f"the step count T/dt = {self.T / self.dt:.3g} (T={self.T!r}, dt={self.dt!r})")
        if not math.isfinite(self.lam):
            raise ConfigurationError(f"the coupling lam must be finite, got {self.lam!r}")
        unknown = set(self.monitors) - set(KNOWN_MONITORS)
        if unknown:
            raise ConfigurationError(f"unknown monitors: {sorted(unknown)}")
        if self.snapshot_stride < 1:
            raise ConfigurationError("snapshot stride must be >= 1")


@dataclass
class Trajectory:
    """Per-step monitor series plus strided state snapshots."""

    lattice: Lattice
    config: NlsConfig
    times: np.ndarray
    monitors: dict[str, np.ndarray]
    snapshot_times: np.ndarray
    states: list[GridFunction]


def mass(u: GridFunction) -> float:
    """Conserved L^2 mass h^d sum |u|^2."""
    return float(u.lattice.cell_volume * np.sum(np.abs(u.values) ** 2))


def energy(u: GridFunction, lam: float, p: float) -> float:
    """Kinetic part 1/2 <-Lap u, u> plus potential lam/(p+1) * h^d sum |u|^(p+1)."""
    if not p > 1:
        raise ConfigurationError("nonlinearity power must satisfy p > 1")
    kinetic = 0.5 * inner_product(-discrete_laplacian(u), u).real
    potential = lam / (p + 1.0) * float(u.lattice.cell_volume * np.sum(np.abs(u.values) ** (p + 1.0)))
    return kinetic + potential


def _rotate_phase(values: np.ndarray, tau: float, lam: float, p: float) -> np.ndarray:
    """The exact nonlinear sub-flow on site values, values * exp(-i lam |values|^(p-1) tau): it conserves |values|.

    This is the flow of the nonlinear part of i u_t + Lap u = lam |u|^(p-1) u,
    the sign for which lam > 0 is defocusing and :func:`energy` is conserved.
    """
    return values * np.exp(-1j * lam * tau * np.abs(values) ** (p - 1.0))


def _strang_step(values: np.ndarray, half: np.ndarray, dt: float, lam: float, p: float):
    """The Strang step on site values, given the half-step multiplier: the new values and their spectrum.

    The last inverse transform leaves the spectrum intact for the monitors.
    """
    product = half * np.fft.fftn(values)
    values = np.fft.ifftn(product, out=product)
    values = _rotate_phase(values, dt, lam, p)
    spectrum = half * np.fft.fftn(values)
    return np.fft.ifftn(spectrum), spectrum


def _half_step(lattice: Lattice, dt: float) -> np.ndarray:
    """The linear multiplier of half a step ``dt``; a phase past the float range is an error naming dt."""
    try:
        return PhaseSpec("schrodinger", lattice).multiplier_grid(0.5 * dt)
    except ConfigurationError as exc:
        raise ConfigurationError(f"dt = {dt:g}: {exc}") from None


def step_strang(u: GridFunction, dt: float, cfg: NlsConfig) -> GridFunction:
    """Symmetric composition: half linear flow, full nonlinear phase, half linear flow."""
    return GridFunction(u.lattice, _strang_step(u.values, _half_step(u.lattice, dt), dt, cfg.lam, cfg.p)[0])


def evolve(u0: GridFunction, cfg: NlsConfig) -> Trajectory:
    """Run the split-step scheme to the horizon, sampling monitors every step.

    Mass, the kinetic part of the energy, ``s1_norm`` and ``kinetic_h1`` are
    Parseval sums over the spectrum the last half-step already holds, so they
    cost no transform; the boundary mass and the potential energy are sums
    over |u|^2 in physical space, taken once per step with the window check.

    Raises :class:`DivergenceError` on non-finite values and
    :class:`WindowError` when the boundary-mass monitor trips; both carry the
    last valid time.
    """
    n_steps = max(1, int(round(cfg.T / cfg.dt)))
    times = np.arange(n_steps + 1) * cfg.dt
    series: dict[str, list[float]] = {name: [] for name in KNOWN_MONITORS if name in cfg.monitors}
    if "s1_norm" in cfg.monitors:
        series["kinetic_h1"] = []

    # the half-step multiplier, the edge mask and the Parseval weights, built once per run;
    # h^d sum |u|^2 = c sum |fftn u|^2 with c = h^d / M^d
    lat = u0.lattice
    half = _half_step(lat, cfg.dt)
    mask = boundary_mask(lat)
    lap = laplacian_symbol_grid(lat)
    bessel = 1.0 + continuum_symbol_grid(lat)
    c = lat.cell_volume / lat.site_count

    def record(density: np.ndarray, fraction: float, spectrum: np.ndarray) -> None:
        if cfg.monitors & {"mass", "energy", "s1_norm"}:
            power = np.square(np.abs(spectrum))
            kinetic = c * float(np.vdot(lap, power))
        if "mass" in cfg.monitors:
            series["mass"].append(c * float(power.sum()))
        if "energy" in cfg.monitors:
            potential = lat.cell_volume * float(np.sum(density ** (0.5 * (cfg.p + 1.0))))
            series["energy"].append(0.5 * kinetic + cfg.lam / (cfg.p + 1.0) * potential)
        if "s1_norm" in cfg.monitors:
            series["s1_norm"].append(math.sqrt(c * float(np.vdot(bessel, power))))
            series["kinetic_h1"].append(math.sqrt(kinetic))
        if "boundary_mass" in cfg.monitors:
            series["boundary_mass"].append(fraction)

    # a huge finite state may overflow in the step or a monitor: the step is caught by the
    # finiteness check below, and an overflowing monitor is recorded as inf
    with np.errstate(over="ignore", invalid="ignore"):
        values = u0.values
        density = np.square(np.abs(values))
        record(density, density_mass_fraction(density, mask), np.fft.fftn(values))
        snapshot_times = [0.0]
        states = [u0.copy()]
        for k in range(1, n_steps + 1):
            values, spectrum = _strang_step(values, half, cfg.dt, cfg.lam, cfg.p)
            if not np.all(np.isfinite(values)):
                raise DivergenceError(f"non-finite state at t={times[k]:g}", last_valid_time=float(times[k - 1]))
            density = np.square(np.abs(values))
            fraction = density_mass_fraction(density, mask)
            if fraction > BOUNDARY_THRESHOLD:
                raise WindowError(f"boundary-mass monitor tripped at t={times[k]:g}",
                                  largest_valid_t=float(times[k - 1]))
            record(density, fraction, spectrum)
            if k % cfg.snapshot_stride == 0 or k == n_steps:
                snapshot_times.append(float(times[k]))
                states.append(GridFunction(lat, values))

    return Trajectory(
        lattice=lat,
        config=cfg,
        times=times,
        monitors={name: np.array(vals) for name, vals in series.items()},
        snapshot_times=np.array(snapshot_times),
        states=states,
    )


def s1_norm(traj: Trajectory, pairs: list[AdmissiblePair]) -> float:
    """sup over pairs of the mixed norm of the (1 - 1/q)-derivative-weighted snapshots.

    Every pair's Bessel weight (1 + |xi|^2)^((1 - 1/q)/2) is built once, and
    the weighted snapshots are read from :func:`latticewave.spectral.symbol_parts`,
    which transforms each snapshot once.  The time quadrature runs over the
    snapshot grid; refine the snapshot stride until the value stops moving
    (self-convergence) before trusting it.
    """
    if not pairs:
        raise ConfigurationError("need a nonempty list of exponent pairs")
    lat = traj.lattice
    bessel = 1.0 + continuum_symbol_grid(lat)
    weights = [radial_power(bessel, 1.0 - 1.0 / pair.q) for pair in pairs]
    rnorms = np.array([[modulus_lp_norm(np.abs(part), lat, pair.r) for pair, part in zip(pairs, parts)]
                       for parts in symbol_parts(traj.states, weights)]).T
    return max(_time_norm(norms, traj.snapshot_times, pair.q) for pair, norms in zip(pairs, rnorms))


def interpolation_constant(h_list: list[float], *, d: int = 1, box: float = 32.0, p: float = 3.0,
                           ensemble: int = 24, seed: int = 11) -> float:
    """Largest observed constant in |f|_{p+1} <= C |f|_2^(1-th) |sqrt(-Lap) f|_2^th.

    th = d(p-1)/(2(p+1)), measured across the spacing scan over band-limited
    noise plus Gaussian bumps of widths 0.5 to 4 (those at least h) and their
    modulations exp(i kappa sum_j x_j), kappa in {0.5, 1, 2}: the class evolved
    trajectories live in.  Feeds the focusing a-priori bound; kept
    independent of any trajectory it is later compared against.  The kinetic
    norm is a Parseval sum of the Laplacian's symbol, one forward transform
    per candidate.  An empty or repeated spacing list is a ConfigurationError
    (see :func:`latticewave.harness.scan_result`), not a constant of 0.
    """
    th = d * (p - 1.0) / (2.0 * (p + 1.0))

    def cell(index: int, h: float) -> list:
        lat = Lattice.for_box(h, d, box)
        candidates = list(random_ensemble(lat, ensemble, seed, cell_key=index))
        phase = sum(lat.coordinate_grids())
        for w in (0.5, 1.0, 2.0, 4.0):
            if w < h:
                continue
            candidates += [gaussian(lat, w) * np.exp(1j * kappa * phase) for kappa in (0.0, 0.5, 1.0, 2.0)]
        c, lap = lat.cell_volume / lat.site_count, laplacian_symbol_grid(lat)
        best = 0.0
        for f in candidates:
            kinetic = math.sqrt(c * float(np.vdot(lap, np.square(np.abs(np.fft.fftn(f.values))))))
            rhs = lp_norm(f, 2.0) ** (1.0 - th) * kinetic**th
            if rhs > 0:
                best = max(best, lp_norm(f, p + 1.0) / rhs)
        return [h, best]

    return float(scan_result("interpolation", h_list, cell, ["h", "constant"], {}, {}).column("constant").max())


def _focusing_bound(e0: float, mass0: float, gn_constant: float, p: float, d: int) -> float:
    """Largest y with y^2/2 - K y^beta <= E0, the self-bound from the interpolation chain."""
    beta = 0.5 * d * (p - 1.0)
    if not beta < 2.0:
        raise ConfigurationError("self-bound needs d(p-1)/2 < 2, i.e. p < 1 + 4/d")
    if e0 <= 0:
        raise ConfigurationError("self-bound derivation assumes positive initial energy")
    K = gn_constant ** (p + 1.0) / (p + 1.0) * mass0 ** (0.5 * (p + 1.0 - beta))

    def G(y: float) -> float:
        return 0.5 * y * y - K * y**beta - e0

    hi = 1.0
    while G(hi) <= 0.0:
        hi *= 2.0
        if hi > 1e12:
            raise ConfigurationError("self-bound root escaped; check the measured constant")
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if G(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    return hi


def uniform_bound_experiment(h_list: list[float], profile, *, d: int = 1, box: float = 32.0,
                             lam: float = 1.0, p: float = 3.0, dt: float = 0.002, T: float = 0.75,
                             pairs_count: int = 6, r_max: float = 100.0,
                             snapshot_stride: int = 8, gn_constant: float | None = None) -> ScanResult:
    """Evolve one continuum profile across the spacing scan and track the space-time norm.

    Per spacing the row records the initial mass and energy, the measured
    space-time norm, the supremum of the kinetic-norm series
    |sqrt(-Lap) u(t)|_2, and the conservation-derived a-priori bound on it:
    sqrt(2 E0) in the defocusing case (exact, drop the nonnegative potential),
    and in the mass-subcritical focusing case the self-bound computed from a
    supplied interpolation constant (pass ``gn_constant`` from
    :func:`interpolation_constant`; without it the bound column is NaN).
    """
    pairs = admissible_pairs(d, pairs_count, r_max=r_max)

    def cell(index: int, h: float) -> list:
        lat = Lattice.for_box(h, d, box)
        u0 = from_function(lat, profile)
        cfg = NlsConfig(lam=lam, p=p, dt=dt, T=T, monitors=frozenset({"s1_norm"}), snapshot_stride=snapshot_stride)
        traj = evolve(u0, cfg)
        e0 = energy(u0, lam, p)
        m0 = mass(u0)
        s1 = s1_norm(traj, pairs)
        h1_sup = float(traj.monitors["kinetic_h1"].max())
        if lam > 0:
            bound = math.sqrt(2.0 * max(e0, 0.0))
        elif gn_constant is not None:
            bound = _focusing_bound(e0, m0, gn_constant, p, d)
        else:
            bound = float("nan")
        return [h, lat.M, m0, e0, s1, h1_sup, bound]

    return scan_result("uniform_bound", h_list, cell, ["h", "M", "mass0", "energy0", "s1", "h1_sup", "h1_bound"],
                       {"d": d, "box": box, "lam": lam, "p": p, "dt": dt, "T": T,
                        "pairs_count": pairs_count, "r_max": r_max,
                        "snapshot_stride": snapshot_stride, "gn_constant": gn_constant},
                       {"s1": "s1"})
