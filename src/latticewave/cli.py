"""Command-line surface for the experiment drivers.

Exit codes: 0 success, 1 unknown command, 2 configuration error, 3 runtime
(validity-window or divergence) error.  Identical config + seed produces
byte-identical CSV output; metadata (full config, artifact version, seed)
rides in the leading comment line of every file.

Each command is one :data:`COMMANDS` entry: its flag rows and a body mapping
the parsed flags to ``(extra metadata, columns, rows)``; only :func:`run`
parses, maps errors to exit codes and writes the output.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import __version__
from .dnls import KNOWN_MONITORS, NlsConfig, continuum_gaussian, evolve, s1_norm
from .errors import ConfigurationError, DivergenceError, WindowError
from .harness import (
    CONSTANT_KINDS,
    AdmissiblePair,
    _require_distinct,
    admissible_pairs,
    decay_data,
    decay_time_grid,
    dispersive_decay_scan,
    inequality_constant_scan,
    knapp_eps_exponents,
    knapp_experiment,
    strichartz_norm,
    uniformity_scan,
)
from .lattice import GridFunction, Lattice, cz_decompose, from_function, gaussian, lp_norm, point_mass
from .propagators import FLOW_KINDS
from .reporting import render_csv, render_json, trajectory_rows, write_snapshots, write_text


def _dyadic(text: str) -> float:
    if "/" in text:
        num, den = text.split("/", 1)
        if float(den) == 0.0:
            raise ValueError(f"zero denominator in {text!r}")
        return float(num) / float(den)
    return float(text)


def _float_list(text: str) -> list[float]:
    values = [_dyadic(tok) for tok in text.split(",") if tok.strip()]
    if not values:
        raise ValueError("empty list")
    return values


def _resolve_out(path: str | None) -> str | None:
    outdir = os.environ.get("LATTICEWAVE_OUTDIR")
    if path is not None and outdir and not os.path.isabs(path):
        return os.path.join(outdir, path)
    return path


def _lattice(args) -> Lattice:
    """``--M`` sites per axis when given, else the lattice sized to ``--box``."""
    if args.M is None:
        return Lattice.for_box(args.h, args.d, args.box)
    return Lattice(h=args.h, d=args.d, M=args.M)


def _trajectory(args, monitors: frozenset[str] = frozenset(KNOWN_MONITORS)):
    """The DNLS trajectory of the continuum Gaussian shared by ``dnls`` and ``s1``."""
    u0 = from_function(_lattice(args), continuum_gaussian(args.amplitude, args.width))
    cfg = NlsConfig(lam=args.lam, p=args.p, dt=args.dt, T=args.T, monitors=monitors, snapshot_stride=args.stride)
    return evolve(u0, cfg)


# ---------------------------------------------------------------------------
# command bodies: parsed args -> (extra metadata, columns, rows)

def _pairs(args):
    pairs = admissible_pairs(args.d, args.count, r_max=args.r_max)
    return {}, ["index", "q", "r", "d"], [[i, p.q, p.r, args.d] for i, p in enumerate(pairs)]


def _decay(args):
    if not args.full and args.N is None:
        raise ConfigurationError("pass --full or a band scale --N")
    data = decay_data(_lattice(args), args.data, args.width)
    grid = decay_time_grid(args.t_min, args.t_max, args.n_t)
    fitres = dispersive_decay_scan(args.kind, data, grid, N=None if args.full else args.N)
    rows = [[float(t), float(s)] for t, s in zip(fitres.times, fitres.sup_norms)]
    fit = {"slope": fitres.slope, "intercept": fitres.intercept, "r_squared": fitres.r_squared}
    return {"fit": fit}, ["t", "sup_norm"], rows


def _strichartz(args):
    lat = _lattice(args)
    pair = AdmissiblePair(q=args.q, r=args.r, d=args.d)
    width = lat.box_length / 16.0 if args.width is None else args.width
    u0 = point_mass(lat) if args.data == "point" else gaussian(lat, width)
    u0 = u0 * (1.0 / lp_norm(u0, 2))
    value = strichartz_norm(u0, pair, args.T, n_t=args.n_t, kind=args.kind)
    return {}, ["h", "M", "q", "r", "T", "value"], [[args.h, lat.M, pair.q, pair.r, args.T, value]]


def _uniformity(args):
    pair = AdmissiblePair(q=args.q, r=args.r, d=args.d)
    scan = uniformity_scan(args.kind, args.h_list, pair, box=args.box, data=args.data,
                           horizon_fraction=args.horizon_fraction, n_t=args.n_t)
    return {"fits": scan.fits, "scan": scan.metadata}, scan.columns, scan.rows


def _constants(args):
    if args.ensemble < 1:
        raise ConfigurationError(f"--ensemble must be at least 1, got {args.ensemble}")
    scan = inequality_constant_scan(args.kind, args.h_list, box=args.box, d=args.d,
                                    p=args.p, q=args.q, s=args.s, theta=args.theta,
                                    ensemble=args.ensemble, seed=args.seed)
    return {"fits": scan.fits, "scan": scan.metadata}, scan.columns, scan.rows


def _knapp(args):
    pair = AdmissiblePair(q=args.q, r=args.r, d=args.d)
    _require_distinct(args.eps_list, "eps_list")
    reports = [knapp_experiment(args.h, eps, args.s, pair, M=args.M, u_window=args.u_window,
                                n_t=args.n_t, x_window=args.x_window)
               for eps in args.eps_list]
    args.M = reports[0].metadata["M"]  # the config records the M used, d-dependent when --M is not given
    rows = [[r.h, r.epsilon, r.s, r.q, r.r, r.left_norm, r.right_norm,
             r.predicted_left_scaling, r.predicted_right_scaling] for r in reports]
    fits = knapp_eps_exponents(reports) if len(reports) >= 2 else {}
    return {"fits": fits}, ["h", "epsilon", "s", "q", "r", "left_norm", "right_norm",
                            "predicted_left", "predicted_right"], rows


def _czdemo(args):
    if not 0 < args.lam < math.inf:
        raise ConfigurationError(f"--lam must be positive and finite, got {args.lam!r}")
    lat = Lattice(h=args.h, d=args.d, M=args.M)
    rng = np.random.default_rng(np.random.SeedSequence([args.seed]))
    samples = rng.exponential(scale=args.lam, size=lat.shape)
    threshold = 2.0 * args.lam
    with np.errstate(over="ignore"):  # the samples are >= 0: a finite sum means every sample is finite
        total = samples.sum()
    if not (threshold < math.inf and total < math.inf):
        raise ConfigurationError(f"--lam {args.lam!r} is too large: 2*lam or the sampled field's sum overflows")
    dec = cz_decompose(GridFunction(lat, samples.astype(complex)), threshold)
    rows = []
    for cube in dec.cubes:
        raw = tuple(c % lat.M for c in cube.corner)
        avg = float(dec.good.values[raw].real)
        rows.append([";".join(str(c) for c in cube.corner), cube.scale, cube.side_length, avg])
    return ({"n_cubes": len(dec.cubes), "threshold": threshold},
            ["corner", "scale", "side_length", "cube_average"], rows)


def _dnls(args):
    traj = _trajectory(args)
    columns, rows = trajectory_rows(traj)
    if args.snapshots:
        write_snapshots(_resolve_out(args.snapshots), traj)
    return {}, columns, rows


def _s1(args):
    pairs = admissible_pairs(args.d, args.pairs_count, r_max=args.r_max)  # checked before the run
    traj = _trajectory(args, monitors=frozenset())  # reads the snapshots only
    value = s1_norm(traj, pairs)
    return {}, ["h", "M", "lam", "p", "T", "s1"], [[args.h, traj.lattice.M, args.lam, args.p, args.T, value]]


# ---------------------------------------------------------------------------
# the command table: flag rows (flag, type, default[, help]) in --help order;
# a tuple type lists the choices, ``bool`` is a switch, REQUIRED a mandatory flag

REQUIRED = object()

_KIND = ("--kind", FLOW_KINDS, "schrodinger")
_D = ("--d", int, 1)
_DATA = ("--data", ("point", "gaussian"), "point")
_PAIR = [("--q", float, REQUIRED), ("--r", float, REQUIRED)]
_NLS = [_D, ("--h", float, 0.5), ("--M", int, None), ("--box", float, 32.0), ("--lam", float, 1.0),
        ("--p", float, 3.0), ("--dt", float, 0.005), ("--T", float, 1.0), ("--amplitude", float, 1.0),
        ("--width", float, 2.0)]
_COMMON = [("--out", str, None, "output path (default: stdout)"), ("--format", ("csv", "json"), "csv"),
           ("--seed", int, 0),
           ("--threads", int, 1, "accepted and ignored: scan cells run serially, and one worker thread overlaps "
                                 "each inverse transform of a row of 256 KiB or more with the next row's fill "
                                 "and runs half of the knapp right side's distinct centre offsets")]

COMMANDS = {
    "pairs": (_pairs, [_D, ("--count", int, 5), ("--r-max", float, 100.0)]),
    "decay": (_decay, [
        _KIND, _D, ("--h", float, 1.0), ("--M", int, None), ("--box", float, 4096.0), _DATA,
        ("--width", float, None), ("--full", bool, False, "evolve the full spectrum"),
        ("--N", _dyadic, None, "dyadic band scale, e.g. 1/8"),
        ("--t-min", float, 1.0), ("--t-max", float, 100.0), ("--n-t", int, 25)]),
    "strichartz": (_strichartz, [
        _KIND, _D, ("--h", float, 1.0), ("--M", int, None), ("--box", float, 64.0), *_PAIR,
        ("--T", float, 8.0), ("--n-t", int, 96), _DATA, ("--width", float, None)]),
    "uniformity": (_uniformity, [
        _KIND, _D, ("--h-list", _float_list, REQUIRED), *_PAIR, ("--box", float, 64.0), _DATA,
        ("--horizon-fraction", float, 0.15), ("--n-t", int, 96)]),
    "constants": (_constants, [
        ("--kind", CONSTANT_KINDS, REQUIRED), _D, ("--h-list", _float_list, REQUIRED),
        ("--box", float, 16.0), ("--p", float, 2.0), ("--q", float, None),
        ("--s", float, None), ("--theta", float, None), ("--ensemble", int, 64)]),
    "knapp": (_knapp, [
        _D, ("--h", float, REQUIRED), ("--eps-list", _float_list, REQUIRED), *_PAIR, ("--s", float, REQUIRED),
        ("--M", int, None, "sites per axis (default: 2^15 in d=1, 2^10 in d=2)"), ("--n-t", int, 1501),
        ("--u-window", float, 300.0), ("--x-window", float, 512.0)]),
    "czdemo": (_czdemo, [_D, ("--h", float, 1.0), ("--M", int, 64), ("--lam", float, 1.0)]),
    "dnls": (_dnls, [*_NLS, ("--stride", int, 16),
                     ("--snapshots", str, None, "optional binary snapshot dump path")]),
    "s1": (_s1, [*_NLS, ("--stride", int, 8), ("--pairs-count", int, 6), ("--r-max", float, 100.0)]),
}

USAGE = (
    "usage: latticewave COMMAND [options]\n"
    "commands: " + " | ".join(COMMANDS) + "\n"
    "run 'latticewave COMMAND --help' for per-command flags\n"
)


def _parser(command: str) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog=f"latticewave {command}")
    for flag, kind, default, *help_text in COMMANDS[command][1] + _COMMON:
        options = {"help": help_text[0] if help_text else None}
        if kind is bool:
            options["action"] = "store_true"
        elif isinstance(kind, tuple):
            options["choices"] = kind
        else:
            options["type"] = kind
        if default is REQUIRED:
            options["required"] = True
        else:
            options["default"] = default
        parser.add_argument(flag, **options)
    return parser


def run(argv: list[str]) -> int:
    if not argv or argv[0] in ("-h", "--help"):
        sys.stdout.write(USAGE)
        return 0 if argv else 1
    command, rest = argv[0], argv[1:]
    if command not in COMMANDS:
        sys.stderr.write(f"unknown command: {command}\n{USAGE}")
        return 1
    try:
        args = _parser(command).parse_args(rest)
        extra, columns, rows = COMMANDS[command][0](args)
        config = {k: v for k, v in vars(args).items() if k not in ("out", "format")}
        meta = {"command": command, "version": __version__, "config": config,
                "seed": args.seed, "threads": args.threads, **extra}
        render = render_json if args.format == "json" else render_csv
        write_text(_resolve_out(args.out), render(meta, columns, rows))
    except SystemExit as exc:  # argparse flag errors and --help
        return 0 if exc.code == 0 else 2
    except ValueError as exc:  # ConfigurationError included
        sys.stderr.write(f"configuration error: {exc}\n")
        return 2
    except (WindowError, DivergenceError) as exc:
        sys.stderr.write(f"runtime error: {exc}\n")
        return 3
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
