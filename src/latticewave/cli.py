"""Command-line surface for the experiment drivers.

Exit codes: 0 success, 1 unknown command, 2 configuration error, 3 runtime
(validity-window or divergence) error.  Identical config + seed produces
byte-identical CSV output; metadata (full config, artifact version, seed)
rides in the leading comment line of every file.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import __version__
from .dnls import NlsConfig, continuum_gaussian, evolve, s1_norm
from .errors import ConfigurationError, DivergenceError, WindowError
from .harness import (
    AdmissiblePair,
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
from .lattice import Lattice, cz_decompose, from_function, gaussian, lp_norm, point_mass
from .propagators import FLOW_KINDS
from .reporting import render_csv, render_json, trajectory_rows, write_snapshots, write_text

COMMANDS = ("pairs", "decay", "strichartz", "uniformity", "constants", "knapp", "czdemo", "dnls", "s1")

USAGE = (
    "usage: latticewave COMMAND [options]\n"
    "commands: " + " | ".join(COMMANDS) + "\n"
    "run 'latticewave COMMAND --help' for per-command flags\n"
)


def _float_or_inf(text: str) -> float:
    if text.strip().lower() in ("inf", "infinity"):
        return math.inf
    return float(text)


def _dyadic(text: str) -> float:
    if "/" in text:
        num, den = text.split("/", 1)
        return float(num) / float(den)
    return float(text)


def _float_list(text: str) -> list[float]:
    return [_dyadic(tok) for tok in text.split(",") if tok.strip()]


def _resolve_out(path: str | None) -> str | None:
    if path is None:
        return None
    outdir = os.environ.get("LATTICEWAVE_OUTDIR")
    if outdir and not os.path.isabs(path):
        return os.path.join(outdir, path)
    return path


def _emit(args, metadata: dict, columns: list[str], rows: list[list]) -> None:
    text = render_json(metadata, columns, rows) if args.format == "json" else render_csv(metadata, columns, rows)
    write_text(_resolve_out(args.out), text)


def _common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default=None, help="output path (default: stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--threads", type=int, default=1, help="accepted and ignored; scans run serially")


def _metadata(args, command: str, **extra) -> dict:
    config = {k: v for k, v in vars(args).items() if k not in ("out", "format")}
    meta = {"command": command, "version": __version__, "config": config,
            "seed": getattr(args, "seed", 0), "threads": getattr(args, "threads", 1)}
    meta.update(extra)
    return meta


def _fmt_exponent(v: float) -> str | float:
    return "inf" if math.isinf(v) else v


# ---------------------------------------------------------------------------
# command handlers

def _cmd_pairs(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="latticewave pairs")
    parser.add_argument("--d", type=int, default=1)
    parser.add_argument("--count", type=int, default=5)
    parser.add_argument("--r-max", type=float, default=100.0)
    _common(parser)
    args = parser.parse_args(argv)
    pairs = admissible_pairs(args.d, args.count, r_max=args.r_max)
    rows = [[i, _fmt_exponent(p.q), _fmt_exponent(p.r), args.d] for i, p in enumerate(pairs)]
    _emit(args, _metadata(args, "pairs"), ["index", "q", "r", "d"], rows)
    return 0


def _make_lattice(args) -> Lattice:
    M = args.M if args.M else int(round(args.box / args.h))
    return Lattice(h=args.h, d=args.d, M=M)


def _cmd_decay(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="latticewave decay")
    parser.add_argument("--kind", choices=FLOW_KINDS, default="schrodinger")
    parser.add_argument("--d", type=int, default=1)
    parser.add_argument("--h", type=float, default=1.0)
    parser.add_argument("--M", type=int, default=None)
    parser.add_argument("--box", type=float, default=4096.0)
    parser.add_argument("--data", choices=("point", "gaussian"), default="point")
    parser.add_argument("--width", type=float, default=None)
    parser.add_argument("--full", action="store_true", help="evolve the full spectrum")
    parser.add_argument("--N", type=_dyadic, default=None, help="dyadic band scale, e.g. 1/8")
    parser.add_argument("--t-min", type=float, default=1.0)
    parser.add_argument("--t-max", type=float, default=100.0)
    parser.add_argument("--n-t", type=int, default=25)
    _common(parser)
    args = parser.parse_args(argv)
    if not args.full and args.N is None:
        raise ConfigurationError("pass --full or a band scale --N")
    lat = _make_lattice(args)
    data = decay_data(lat, args.data, args.width)
    grid = decay_time_grid(args.t_min, args.t_max, args.n_t)
    fitres = dispersive_decay_scan(args.kind, data, grid, N=None if args.full else args.N)
    rows = [[float(t), float(s)] for t, s in zip(fitres.times, fitres.sup_norms)]
    meta = _metadata(args, "decay",
                     fit={"slope": fitres.slope, "intercept": fitres.intercept,
                          "r_squared": fitres.r_squared})
    _emit(args, meta, ["t", "sup_norm"], rows)
    return 0


def _parse_pair(args) -> AdmissiblePair:
    return AdmissiblePair(q=args.q, r=args.r, d=args.d)


def _cmd_strichartz(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="latticewave strichartz")
    parser.add_argument("--kind", choices=FLOW_KINDS, default="schrodinger")
    parser.add_argument("--d", type=int, default=1)
    parser.add_argument("--h", type=float, default=1.0)
    parser.add_argument("--M", type=int, default=None)
    parser.add_argument("--box", type=float, default=64.0)
    parser.add_argument("--q", type=_float_or_inf, required=True)
    parser.add_argument("--r", type=_float_or_inf, required=True)
    parser.add_argument("--T", type=float, default=8.0)
    parser.add_argument("--n-t", type=int, default=96)
    parser.add_argument("--data", choices=("point", "gaussian"), default="point")
    parser.add_argument("--width", type=float, default=None)
    _common(parser)
    args = parser.parse_args(argv)
    lat = _make_lattice(args)
    pair = _parse_pair(args)
    u0 = point_mass(lat) if args.data == "point" else gaussian(lat, args.width or lat.box_length / 16.0)
    u0 = u0 * (1.0 / lp_norm(u0, 2))
    value = strichartz_norm(u0, pair, args.T, n_t=args.n_t, kind=args.kind)
    rows = [[args.h, lat.M, _fmt_exponent(pair.q), _fmt_exponent(pair.r), args.T, value]]
    _emit(args, _metadata(args, "strichartz"), ["h", "M", "q", "r", "T", "value"], rows)
    return 0


def _cmd_uniformity(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="latticewave uniformity")
    parser.add_argument("--kind", choices=FLOW_KINDS, default="schrodinger")
    parser.add_argument("--d", type=int, default=1)
    parser.add_argument("--h-list", type=_float_list, required=True)
    parser.add_argument("--q", type=_float_or_inf, required=True)
    parser.add_argument("--r", type=_float_or_inf, required=True)
    parser.add_argument("--box", type=float, default=64.0)
    parser.add_argument("--data", choices=("point", "gaussian"), default="point")
    parser.add_argument("--horizon-fraction", type=float, default=0.15)
    parser.add_argument("--n-t", type=int, default=96)
    _common(parser)
    args = parser.parse_args(argv)
    pair = _parse_pair(args)
    scan = uniformity_scan(args.kind, args.h_list, pair, box=args.box, data=args.data,
                           horizon_fraction=args.horizon_fraction, n_t=args.n_t)
    _emit(args, _metadata(args, "uniformity", fits=scan.fits, scan=scan.metadata),
          scan.columns, scan.rows)
    return 0


def _cmd_constants(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="latticewave constants")
    parser.add_argument("--kind", required=True,
                        choices=("bernstein", "gagliardo_nirenberg", "sobolev_endpoint",
                                 "norm_equivalence", "square_function"))
    parser.add_argument("--d", type=int, default=1)
    parser.add_argument("--h-list", type=_float_list, required=True)
    parser.add_argument("--box", type=float, default=16.0)
    parser.add_argument("--p", type=_float_or_inf, default=2.0)
    parser.add_argument("--q", type=_float_or_inf, default=None)
    parser.add_argument("--s", type=float, default=None)
    parser.add_argument("--theta", type=float, default=None)
    parser.add_argument("--ensemble", type=int, default=64)
    _common(parser)
    args = parser.parse_args(argv)
    scan = inequality_constant_scan(args.kind, args.h_list, box=args.box, d=args.d,
                                    p=args.p, q=args.q, s=args.s, theta=args.theta,
                                    ensemble=args.ensemble, seed=args.seed)
    _emit(args, _metadata(args, "constants", fits=scan.fits, scan=scan.metadata),
          scan.columns, scan.rows)
    return 0


def _cmd_knapp(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="latticewave knapp")
    parser.add_argument("--d", type=int, default=1)
    parser.add_argument("--h", type=float, required=True)
    parser.add_argument("--eps-list", type=_float_list, required=True)
    parser.add_argument("--q", type=_float_or_inf, required=True)
    parser.add_argument("--r", type=_float_or_inf, required=True)
    parser.add_argument("--s", type=float, required=True)
    parser.add_argument("--M", type=int, default=2**15)
    parser.add_argument("--n-t", type=int, default=1501)
    parser.add_argument("--u-window", type=float, default=300.0)
    parser.add_argument("--x-window", type=float, default=512.0)
    _common(parser)
    args = parser.parse_args(argv)
    pair = _parse_pair(args)
    reports = [knapp_experiment(args.h, eps, args.s, pair, M=args.M, u_window=args.u_window,
                                n_t=args.n_t, x_window=args.x_window)
               for eps in args.eps_list]
    rows = [[r.h, r.epsilon, r.s, _fmt_exponent(r.q), _fmt_exponent(r.r),
             r.left_norm, r.right_norm, r.predicted_left_scaling, r.predicted_right_scaling]
            for r in reports]
    fits = knapp_eps_exponents(reports) if len(reports) >= 2 else {}
    _emit(args, _metadata(args, "knapp", fits=fits),
          ["h", "epsilon", "s", "q", "r", "left_norm", "right_norm",
           "predicted_left", "predicted_right"], rows)
    return 0


def _cmd_czdemo(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="latticewave czdemo")
    parser.add_argument("--d", type=int, default=1)
    parser.add_argument("--h", type=float, default=1.0)
    parser.add_argument("--M", type=int, default=64)
    parser.add_argument("--lam", type=float, default=1.0)
    _common(parser)
    args = parser.parse_args(argv)
    lat = Lattice(h=args.h, d=args.d, M=args.M)
    rng = np.random.default_rng(np.random.SeedSequence([args.seed]))
    from .lattice import GridFunction

    f = GridFunction(lat, rng.exponential(scale=args.lam, size=lat.shape).astype(complex))
    threshold = 2.0 * args.lam
    dec = cz_decompose(f, threshold)
    rows = []
    for cube in dec.cubes:
        raw = tuple(c % lat.M for c in cube.corner)
        avg = float(dec.good.values[raw].real)
        rows.append([";".join(str(c) for c in cube.corner), cube.scale, cube.side_length, avg])
    meta = _metadata(args, "czdemo", n_cubes=len(dec.cubes), threshold=threshold)
    _emit(args, meta, ["corner", "scale", "side_length", "cube_average"], rows)
    return 0


def _cmd_dnls(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="latticewave dnls")
    parser.add_argument("--d", type=int, default=1)
    parser.add_argument("--h", type=float, default=0.5)
    parser.add_argument("--M", type=int, default=None)
    parser.add_argument("--box", type=float, default=32.0)
    parser.add_argument("--lam", type=float, default=1.0)
    parser.add_argument("--p", type=float, default=3.0)
    parser.add_argument("--dt", type=float, default=0.005)
    parser.add_argument("--T", type=float, default=1.0)
    parser.add_argument("--amplitude", type=float, default=1.0)
    parser.add_argument("--width", type=float, default=2.0)
    parser.add_argument("--stride", type=int, default=16)
    parser.add_argument("--snapshots", default=None, help="optional binary snapshot dump path")
    _common(parser)
    args = parser.parse_args(argv)
    lat = _make_lattice(args)
    u0 = from_function(lat, continuum_gaussian(args.amplitude, args.width))
    cfg = NlsConfig(lam=args.lam, p=args.p, dt=args.dt, T=args.T, snapshot_stride=args.stride)
    traj = evolve(u0, cfg)
    columns, rows = trajectory_rows(traj)
    if args.snapshots:
        write_snapshots(_resolve_out(args.snapshots), traj)
    _emit(args, _metadata(args, "dnls"), columns, rows)
    return 0


def _cmd_s1(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="latticewave s1")
    parser.add_argument("--d", type=int, default=1)
    parser.add_argument("--h", type=float, default=0.5)
    parser.add_argument("--M", type=int, default=None)
    parser.add_argument("--box", type=float, default=32.0)
    parser.add_argument("--lam", type=float, default=1.0)
    parser.add_argument("--p", type=float, default=3.0)
    parser.add_argument("--dt", type=float, default=0.005)
    parser.add_argument("--T", type=float, default=1.0)
    parser.add_argument("--amplitude", type=float, default=1.0)
    parser.add_argument("--width", type=float, default=2.0)
    parser.add_argument("--stride", type=int, default=8)
    parser.add_argument("--pairs-count", type=int, default=6)
    parser.add_argument("--r-max", type=float, default=100.0)
    _common(parser)
    args = parser.parse_args(argv)
    lat = _make_lattice(args)
    u0 = from_function(lat, continuum_gaussian(args.amplitude, args.width))
    cfg = NlsConfig(lam=args.lam, p=args.p, dt=args.dt, T=args.T, snapshot_stride=args.stride)
    traj = evolve(u0, cfg)
    pairs = admissible_pairs(args.d, args.pairs_count, r_max=args.r_max)
    value = s1_norm(traj, pairs)
    rows = [[args.h, lat.M, args.lam, args.p, args.T, value]]
    _emit(args, _metadata(args, "s1"), ["h", "M", "lam", "p", "T", "s1"], rows)
    return 0


_HANDLERS = {
    "pairs": _cmd_pairs,
    "decay": _cmd_decay,
    "strichartz": _cmd_strichartz,
    "uniformity": _cmd_uniformity,
    "constants": _cmd_constants,
    "knapp": _cmd_knapp,
    "czdemo": _cmd_czdemo,
    "dnls": _cmd_dnls,
    "s1": _cmd_s1,
}


def run(argv: list[str]) -> int:
    if not argv or argv[0] in ("-h", "--help"):
        sys.stdout.write(USAGE)
        return 0 if argv else 1
    command, rest = argv[0], argv[1:]
    handler = _HANDLERS.get(command)
    if handler is None:
        sys.stderr.write(f"unknown command: {command}\n{USAGE}")
        return 1
    try:
        return handler(rest)
    except SystemExit as exc:  # argparse flag errors
        code = exc.code if isinstance(exc.code, int) else 2
        return 2 if code != 0 else 0
    except (ConfigurationError, ValueError) as exc:
        sys.stderr.write(f"configuration error: {exc}\n")
        return 2
    except (WindowError, DivergenceError) as exc:
        sys.stderr.write(f"runtime error: {exc}\n")
        return 3


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
