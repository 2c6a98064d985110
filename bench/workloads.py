"""The benchmark's workloads: fixed sets of latticewave experiments with their checks.

A workload is a list of operations.  An operation is one experiment call; it
fails if it raises or if its result misses the check's tolerance.  Calls go
through module attributes (``harness.knapp_experiment``), never through names
bound at import, so the traced run sees every call the workload makes.

The seed reaches only the random inputs: the constants-scan ensemble and the
czdemo field of the ``cli`` workload.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, field
from typing import Callable

import latticewave.cli as cli
import latticewave.reporting as reporting
from latticewave import dnls, harness, lattice

import checks


@dataclass
class Op:
    """One experiment call and the check its result must pass.

    ``call`` gets the results of the pass's earlier operations by name;
    ``check`` gets the result and the workload (for untimed reference data).
    """

    name: str
    call: Callable[[dict], object]
    check: Callable[[object, "Workload"], str | None]


@dataclass
class Workload:
    ops: list[Op]
    warmup_ops: int  # leading operations run once, untimed, before the timed passes
    cache: dict = field(default_factory=dict)  # untimed reference results, kept across passes
    nonstrict_outputs: int = 0  # outputs of the latest pass whose metadata is not RFC JSON


# ---------------------------------------------------------------------------

def _knapp(seed: int, outdir: str) -> Workload:
    """Criterion 08 at q = r = 8: nearly all time is the harness right-side axis-norm sum, no FFT."""
    pair = harness.AdmissiblePair(q=8.0, r=8.0, d=1)
    eps_list = [0.04, 0.02, 0.01]
    names = [f"knapp_experiment eps={eps:g}" for eps in eps_list]
    ops = [Op(name, lambda res, eps=eps: harness.knapp_experiment(0.5, eps, 1.0 / 8.0, pair, M=2**15),
              lambda rep, wl: checks.knapp_report(rep))
           for name, eps in zip(names, eps_list)]
    ops.append(Op("knapp_eps_exponents",
                  lambda res: harness.knapp_eps_exponents([res[n] for n in names]),
                  lambda fits, wl: checks.knapp_fit(fits)))
    return Workload(ops, warmup_ops=1)


def _scan(seed: int, outdir: str) -> Workload:
    """Criteria 05/06/07 on large grids: few big FFTs, a fresh phase multiplier per time sample."""
    pair = harness.AdmissiblePair(q=3.0, r=math.inf, d=2)
    data_d2 = harness.decay_data(lattice.Lattice(h=1.0, d=2, M=512))
    grid_d2 = harness.decay_time_grid(1.5, 60.0, 20)
    data_kg = harness.decay_data(lattice.Lattice(h=1.0, d=1, M=65536))
    grid_kg = harness.decay_time_grid(300.0, 30000.0, 25)
    ops = [
        Op("uniformity_scan d=2 q=3",
           lambda res: harness.uniformity_scan("schrodinger", [1.0, 0.5, 0.25, 0.125], pair, box=48.0,
                                               horizon_fraction=0.1, n_t=72),
           lambda scan, wl: checks.uniformity(scan.fits, 3.0)),
        Op("dispersive_decay_scan schrodinger d=2 M=512",
           lambda res: harness.dispersive_decay_scan("schrodinger", data_d2, grid_d2),
           lambda fit, wl: checks.decay(fit.slope, None, -2.0 / 3.0, 0.08)),
        Op("dispersive_decay_scan klein_gordon M=65536 N=1/4",
           lambda res: harness.dispersive_decay_scan("klein_gordon", data_kg, grid_kg, N=0.25),
           lambda fit, wl: checks.decay(fit.slope, fit.r_squared, -1.0 / 3.0, 0.05)),
    ]
    return Workload(ops, warmup_ops=len(ops))


def _cli_op(name: str, argv: list[str], content: Callable) -> Op:
    """Run one CLI command in-process; the check parses its output and applies ``content``."""
    out = argv[argv.index("--out") + 1]

    def check(result, wl: Workload) -> str | None:
        if result != 0:
            return f"exit code {result}"
        try:
            meta_text, meta, columns, rows = checks.parse_output(out)
        except (OSError, ValueError, KeyError) as exc:
            return f"output {os.path.basename(out)} does not parse: {exc}"
        if not checks.strict_json(meta_text):
            wl.nonstrict_outputs += 1
        return content(meta, columns, rows, wl)

    return Op(name, lambda res: cli.run(argv), check)


def _dnls_reference(wl: Workload):
    """The trajectory the ``dnls`` README example computes, built untimed for the read-back check."""
    ref = wl.cache.get("dnls reference")
    if ref is None:
        u0 = lattice.from_function(lattice.Lattice(h=0.5, d=1, M=64), dnls.continuum_gaussian(1.0, 2.0))
        cfg = dnls.NlsConfig(lam=1.0, p=3.0, dt=0.005, T=1.0, snapshot_stride=16)
        ref = wl.cache["dnls reference"] = dnls.evolve(u0, cfg)
    return ref


def _cli(seed: int, outdir: str) -> Workload:
    """README CLI examples minus knapp, plus czdemo d=2 and a --threads 2 constants rerun.

    The only workload that runs ``cli``, ``reporting``, ``cz_decompose`` and
    ``random_ensemble``; czdemo d=2 shows the dense CZ bad parts in peak RSS.
    """
    rng = random.Random(seed)
    constants_seed, cz1_seed, cz2_seed = (str(rng.randrange(2**31)) for _ in range(3))

    def out(name: str) -> list[str]:
        return ["--out", os.path.join(outdir, name)]

    constants = ["constants", "--kind", "bernstein", "--d", "1", "--h-list", "1,0.5,0.25", "--box", "16",
                 "--p", "2", "--q", "inf", "--ensemble", "32", "--seed", constants_seed]
    nls = ["--d", "1", "--h", "0.5", "--box", "32", "--lam", "1", "--p", "3", "--dt", "0.005", "--T", "1"]
    snapshots = os.path.join(outdir, "states.bin")

    def constants_t1(meta, columns, rows, wl):
        wl.cache["constants rows"] = rows
        return checks.bernstein_output(meta, columns, rows)

    def constants_t2(meta, columns, rows, wl):
        if rows != wl.cache.pop("constants rows", None):
            return "--threads 2 rows differ from the --threads 1 rows"
        return checks.bernstein_output(meta, columns, rows)

    def dnls_output(meta, columns, rows, wl):
        try:
            read_back = reporting.read_snapshots(snapshots)
        except (OSError, ValueError) as exc:
            return f"snapshot file does not read back: {exc}"
        return checks.first_failure(checks.mass_drift(checks.column(columns, rows, "mass")),
                                    checks.snapshots_equal(read_back, _dnls_reference(wl)))

    ops = [
        _cli_op("pairs", ["pairs", "--d", "1", "--count", "5", "--format", "json", *out("pairs.json")],
                lambda meta, c, r, wl: checks.pairs_output(meta, c, r)),
        _cli_op("decay full", ["decay", "--kind", "schrodinger", "--d", "1", "--h", "1", "--M", "4096", "--full",
                               "--t-min", "1", "--t-max", "100", "--n-t", "25", *out("decay_full.csv")],
                lambda meta, c, r, wl: checks.decay(meta["fit"]["slope"], meta["fit"]["r_squared"], -1.0 / 3.0, 0.05)),
        _cli_op("decay band", ["decay", "--d", "1", "--h", "1", "--M", "16384", "--N", "1/8",
                               "--t-min", "30", "--t-max", "3000", *out("decay_band.csv")],
                lambda meta, c, r, wl: checks.decay(meta["fit"]["slope"], meta["fit"]["r_squared"], -0.5, 0.05)),
        _cli_op("uniformity d=1", ["uniformity", "--kind", "schrodinger", "--d", "1",
                                   "--h-list", "1,0.5,0.25,0.125,0.0625", "--q", "6", "--r", "inf", "--box", "64",
                                   "--format", "json", *out("uniformity.json")],
                lambda meta, c, r, wl: checks.uniformity(meta["fits"], 6.0)),
        _cli_op("constants threads=1", [*constants, "--threads", "1", *out("constants_t1.csv")], constants_t1),
        _cli_op("czdemo d=1", ["czdemo", "--d", "1", "--M", "64", "--seed", cz1_seed, *out("czdemo_d1.csv")],
                lambda meta, c, r, wl: checks.czdemo_output(meta, c, r)),
        _cli_op("dnls", ["dnls", *nls, "--snapshots", snapshots, *out("dnls.csv")], dnls_output),
        _cli_op("s1", ["s1", *nls, *out("s1.csv")],
                lambda meta, c, r, wl: checks.positive("s1", checks.column(c, r, "s1")[0])),
        _cli_op("czdemo d=2 M=128", ["czdemo", "--d", "2", "--M", "128", "--seed", cz2_seed,
                                     *out("czdemo_d2.csv")],
                lambda meta, c, r, wl: checks.czdemo_output(meta, c, r)),
        _cli_op("constants threads=2", [*constants, "--threads", "2", *out("constants_t2.csv")], constants_t2),
    ]
    return Workload(ops, warmup_ops=len(ops))


_WORKLOADS = {"knapp": _knapp, "scan": _scan, "cli": _cli}


def build(name: str, seed: int, outdir: str) -> Workload:
    """Build the named workload's inputs from ``seed``; CLI outputs go under ``outdir``."""
    return _WORKLOADS[name](seed, outdir)
