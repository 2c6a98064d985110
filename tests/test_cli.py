import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

from latticewave import cli
from latticewave.cli import run
from latticewave.dnls import KNOWN_MONITORS, s1_norm
from latticewave.harness import CONSTANT_KINDS, admissible_pairs


def read_csv(path):
    lines = path.read_text().splitlines()
    meta = json.loads(lines[0][2:])
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return meta, header, rows


def test_unknown_command_exits_one(capsys):
    assert run(["frobnicate"]) == 1
    assert "unknown command" in capsys.readouterr().err


def test_no_args_prints_usage(capsys):
    assert run([]) == 1
    assert "usage" in capsys.readouterr().out


# each command with its required flags (plus small sizes for speed) and the config keys it records
TABLE_CASES = {
    "pairs": ([], "d count r_max"),
    "decay": (["--M", "64", "--full", "--t-max", "4", "--n-t", "4"],
              "kind d h M box data width full N t_min t_max n_t"),
    "strichartz": (["--q", "inf", "--r", "2"], "kind d h M box q r T n_t data width"),
    "uniformity": (["--h-list", "1", "--q", "inf", "--r", "2"],
                   "kind d h_list q r box data horizon_fraction n_t"),
    "constants": (["--kind", "square_function", "--h-list", "1", "--box", "8", "--ensemble", "4"],
                  "kind d h_list box p q s theta ensemble"),
    "knapp": (["--h", "0.5", "--eps-list", "0.04", "--q", "8", "--r", "8", "--s", "0.125", "--M", "1024",
               "--n-t", "21", "--u-window", "10", "--x-window", "8"],
              "d h eps_list q r s M n_t u_window x_window"),
    "czdemo": (["--M", "16"], "d h M lam"),
    "dnls": (["--T", "0.05", "--dt", "0.01"], "d h M box lam p dt T amplitude width stride snapshots"),
    "s1": (["--T", "0.05", "--dt", "0.01"], "d h M box lam p dt T amplitude width stride pairs_count r_max"),
}


@pytest.mark.parametrize("command", list(TABLE_CASES))
def test_command_table_records_every_flag(command, tmp_path, capsys):
    argv, keys = TABLE_CASES[command]
    out = tmp_path / "out.csv"
    assert run([command, *argv, "--out", str(out)]) == 0
    meta, _, _ = read_csv(out)
    assert meta["command"] == command
    assert set(meta["config"]) == set(keys.split()) | {"seed", "threads"}
    capsys.readouterr()
    assert run([command, "--help"]) == 0
    help_text = capsys.readouterr().out
    assert help_text.startswith(f"usage: latticewave {command} ")
    if command == "constants":
        assert "{" + ",".join(CONSTANT_KINDS) + "}" in help_text


KNAPP = ["knapp", "--h", "0.5", "--q", "8", "--r", "8", "--s", "0.125"]
# two small cells, so a rejected --s given after these flags is the only fault
KNAPP_SMALL = [*KNAPP, "--eps-list", "0.04,0.02", "--M", "4096", "--n-t", "21", "--u-window", "10",
               "--x-window", "8"]
# small constant scans, so a rejected --s given after these flags is the only fault
NORM_EQUIVALENCE = ["constants", "--kind", "norm_equivalence", "--h-list", "1,0.5", "--ensemble", "4"]
GAGLIARDO_NIRENBERG = ["constants", "--kind", "gagliardo_nirenberg", "--h-list", "1,0.5", "--p", "2", "--q", "inf",
                       "--theta", "0.5", "--ensemble", "4"]
SOBOLEV_ENDPOINT = ["constants", "--kind", "sobolev_endpoint", "--h-list", "1,0.5", "--p", "2", "--q", "4",
                    "--ensemble", "4"]


@pytest.mark.parametrize("argv", [
    ["decay", "--h", "0", "--full"],
    ["uniformity", "--h-list", "0", "--q", "6", "--r", "inf"],
    ["constants", "--kind", "bernstein", "--h-list", "0", "--q", "inf"],
    ["strichartz", "--q", "6", "--r", "inf", "--M", "0"],
    ["decay", "--h", "1", "--M", "4096", "--N", "1/0"],
    [*KNAPP, "--eps-list", "1/0"],
    ["uniformity", "--h-list", "", "--q", "6", "--r", "inf"],
    ["constants", "--kind", "bernstein", "--h-list", "", "--q", "inf"],
    [*KNAPP, "--eps-list", ""],
    [*KNAPP, "--eps-list", "0.04", "--n-t", "1"],
    [*KNAPP, "--eps-list", "0.04", "--u-window", "0"],
    [*KNAPP, "--eps-list", "0.04", "--x-window", "-5"],
    [*KNAPP, "--eps-list", "0.04", "--x-window", "1e15"],
    [*KNAPP, "--eps-list", "0.04", "--n-t", "10000000000"],
    [*KNAPP, "--eps-list", "nan"],
    ["strichartz", "--q", "6", "--r", "inf", "--T", "-1"],
    ["strichartz", "--q", "6", "--r", "inf", "--T", "0"],
    ["uniformity", "--h-list", "1", "--q", "6", "--r", "inf", "--horizon-fraction", "0"],
    ["uniformity", "--h-list", "1", "--q", "6", "--r", "inf", "--horizon-fraction", "-0.1"],
    ["decay", "--full", "--t-min", "-1"],
    ["decay", "--full", "--t-min", "nan"],
    ["decay", "--full", "--t-max", "inf"],
    ["decay", "--full", "--t-min", "0"],
    ["decay", "--full", "--t-min", "10", "--t-max", "1"],
    ["decay", "--full", "--n-t", "1"],
    ["czdemo", "--lam", "-1"],
    ["czdemo", "--lam", "nan"],
    ["czdemo", "--lam", "inf"],
    ["czdemo", "--lam", "1e308"],
    [*KNAPP, "--eps-list", "0.04,0.02", "--s", "nan"],
    ["dnls", "--T", "inf"],
    ["dnls", "--lam", "nan"],
    ["constants", "--kind", "bernstein", "--h-list", "1,0.5", "--q", "inf", "--ensemble", "0"],
    ["dnls", "--T", "1e308", "--dt", "1e-300"],
    ["dnls", "--p", "inf"],
    [*KNAPP_SMALL, "--s", "1e308"],
    [*KNAPP_SMALL, "--s", "-400"],
    ["uniformity", "--h-list", "1", "--q", "6", "--r", "inf", "--n-t", "1"],
    ["strichartz", "--q", "6", "--r", "inf", "--data", "gaussian", "--width", "0"],
    ["strichartz", "--q", "6", "--r", "inf", "--data", "gaussian", "--width", "-4"],
    ["decay", "--full", "--data", "gaussian", "--width", "0"],
    ["dnls", "--width", "0"],
    ["s1", "--amplitude", "inf"],
    [*NORM_EQUIVALENCE, "--s", "-400"],
    [*NORM_EQUIVALENCE, "--s", "nan"],
    [*NORM_EQUIVALENCE, "--s", "inf"],
    [*NORM_EQUIVALENCE, "--s", "1e6"],
    [*GAGLIARDO_NIRENBERG, "--s", "nan"],
    [*SOBOLEV_ENDPOINT, "--s", "nan"],
    ["strichartz", "--q", "0", "--r", "inf"],
    ["strichartz", "--q", "6", "--r", "0"],
    ["uniformity", "--h-list", "1", "--q", "0", "--r", "2"],
    ["knapp", "--h", "0.5", "--eps-list", "0.04", "--q", "8", "--r", "0", "--s", "0.1"],
    ["pairs", "--d", "3", "--count", "3", "--r-max", "0"],
    ["pairs", "--d", "1", "--r-max", "0"],
    ["decay", "--d", "1", "--h", "inf", "--M", "256", "--full", "--t-min", "1", "--t-max", "10", "--n-t", "5"],
    ["strichartz", "--h", "inf", "--M", "64", "--q", "6", "--r", "inf"],
    ["pairs", "--count", "1000000000"],
    ["dnls", "--dt", "1e-9", "--T", "1"],
    ["strichartz", "--q", "6", "--r", "inf", "--n-t", "100000000"],
    ["decay", "--d", "1", "--h", "1", "--M", "64", "--full", "--n-t", "100000000"],
    [*KNAPP, "--eps-list", "0.04,0.04"],
    ["uniformity", "--d", "1", "--h-list", "0.5,0.5", "--q", "6", "--r", "inf"],
    ["constants", "--kind", "bernstein", "--h-list", "1", "--q", "inf", "--ensemble", "100000000"],
    ["uniformity", "--h-list", "1", "--q", "6", "--r", "inf", "--horizon-fraction", "1e-4"],
], ids=["decay-h0", "uniformity-h0", "constants-h0", "strichartz-M0", "decay-N-1/0", "knapp-eps-1/0",
        "uniformity-empty", "constants-empty", "knapp-empty", "knapp-n_t-1", "knapp-u-window-0",
        "knapp-x-window-negative", "knapp-x-window-huge", "knapp-n_t-huge", "knapp-eps-nan",
        "strichartz-T-negative", "strichartz-T0", "uniformity-horizon-0",
        "uniformity-horizon-negative", "decay-t-min-negative", "decay-t-min-nan", "decay-t-max-inf",
        "decay-t-min-0", "decay-t-reversed", "decay-n_t-1", "czdemo-lam-negative", "czdemo-lam-nan",
        "czdemo-lam-inf", "czdemo-lam-overflow", "knapp-s-nan", "dnls-T-inf", "dnls-lam-nan",
        "constants-ensemble-0", "dnls-steps-overflow", "dnls-p-inf", "knapp-s-huge", "knapp-s-negative-huge",
        "uniformity-n_t-1", "strichartz-width-0", "strichartz-width-negative", "decay-width-0", "dnls-width-0",
        "s1-amplitude-inf", "constants-s-norm-overflow", "constants-s-nan", "constants-s-inf",
        "constants-s-symbol-overflow", "constants-gn-s-nan", "constants-sobolev-s-nan", "strichartz-q0",
        "strichartz-r0", "uniformity-q0", "knapp-r0", "pairs-d3-r-max-0", "pairs-d1-r-max-0", "decay-h-inf",
        "strichartz-h-inf", "pairs-count-over-cap", "dnls-steps-over-cap", "strichartz-n_t-over-cap",
        "decay-n_t-over-cap", "knapp-eps-repeated", "uniformity-h-repeated", "constants-ensemble-over-cap",
        "uniformity-horizon-below-first-node"])
def test_rejected_input_exits_two(argv, capsys):
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert "configuration error:" in err or "error: argument" in err


@pytest.mark.parametrize("argv,named", [
    (["czdemo", "--lam", "1e308"], "--lam"),
    (["czdemo", "--d", "2", "--M", "128", "--lam", "1e305"], "--lam"),
    (["decay", "--h", "1e-300", "--full"], "site count"),
    (["strichartz", "--q", "6", "--r", "inf", "--d", "2", "--M", "4096"], "site count"),
    ([*KNAPP, "--eps-list", "0.04", "--x-window", "1e15"], "x_window = 1e+15"),
    ([*KNAPP, "--eps-list", "0.04", "--n-t", "10000000000"], "n_t = 10000000000"),
    ([*KNAPP, "--eps-list", "nan"], "epsilon"),
    ([*KNAPP, "--eps-list", "0.04,0.02", "--s", "nan"], "weight s"),
    (["dnls", "--T", "inf"], "T=inf"),
    (["dnls", "--lam", "nan"], "lam"),
    (["constants", "--kind", "bernstein", "--h-list", "1,0.5", "--q", "inf", "--ensemble", "0"], "--ensemble"),
    (["dnls", "--T", "1e308", "--dt", "1e-300"], "T/dt"),
    (["dnls", "--p", "inf"], "p=inf"),
    ([*KNAPP_SMALL, "--s", "1e308"], "s = 1e+308"),
    ([*KNAPP_SMALL, "--s", "-400"], "s = -400.0"),
    (["uniformity", "--h-list", "1", "--q", "6", "--r", "inf", "--n-t", "1"], "n_t"),
    (["strichartz", "--q", "6", "--r", "inf", "--data", "gaussian", "--width", "0"], "width=0.0"),
    (["strichartz", "--q", "6", "--r", "inf", "--data", "gaussian", "--width", "-4"], "width=-4.0"),
    (["decay", "--full", "--data", "gaussian", "--width", "0"], "width=0.0"),
    (["dnls", "--width", "0"], "width=0.0"),
    (["s1", "--amplitude", "inf"], "amplitude=inf"),
    ([*NORM_EQUIVALENCE, "--s", "-400"], "s = -400.0"),
    ([*NORM_EQUIVALENCE, "--s", "nan"], "s = nan"),
    ([*NORM_EQUIVALENCE, "--s", "1e6"], "s = 1000000.0"),
    (["constants", "--kind", "norm_equivalence", "--h-list", "1", "--s", "620", "--ensemble", "3", "--seed", "1"],
     "s = 620.0"),
    ([*GAGLIARDO_NIRENBERG, "--s", "nan"], "s = nan"),
    (["strichartz", "--q", "0", "--r", "inf"], "q, r >= 2"),
    (["knapp", "--h", "0.5", "--eps-list", "0.04", "--q", "8", "--r", "0", "--s", "0.1"], "q, r >= 2"),
    (["pairs", "--d", "3", "--count", "3", "--r-max", "0"], "r_max"),
    (["pairs", "--d", "3", "--r-max", "inf"], "r_max"),
    (["s1", "--d", "3", "--r-max", "inf"], "r_max"),
    (["decay", "--d", "1", "--h", "1", "--M", "64", "--N", "1/128", "--t-min", "1", "--t-max", "2", "--n-t", "3"],
     "N=0.0078125"),
    (["decay", "--d", "1", "--h", "inf", "--M", "256", "--full", "--t-min", "1", "--t-max", "10", "--n-t", "5"],
     "spacing h must be positive and finite, got h=inf"),
    (["strichartz", "--h", "inf", "--M", "64", "--q", "6", "--r", "inf"], "spacing h"),
    (["pairs", "--count", "1000000000"], "count = 1000000000"),
    (["dnls", "--dt", "1e-9", "--T", "1"], "T/dt = 1e+09"),
    (["strichartz", "--q", "6", "--r", "inf", "--n-t", "100000000"], "n_t = 100000000"),
    (["decay", "--d", "1", "--h", "1", "--M", "64", "--full", "--n-t", "100000000"], "n_t = 100000000"),
    ([*KNAPP, "--eps-list", "0.04,0.02,0.04"], "eps_list repeats 0.04"),
    (["uniformity", "--d", "1", "--h-list", "0.5,0.5", "--q", "6", "--r", "inf"], "h_list repeats 0.5"),
    (["constants", "--kind", "bernstein", "--h-list", "1", "--q", "inf", "--ensemble", "100000000"],
     "ensemble = 100000000"),
    (["decay", "--full", "--M", "64", "--t-min", "1", "--t-max", "1e308", "--n-t", "3"], "|t| = 1e+308"),
    (["strichartz", "--q", "6", "--r", "inf", "--T", "1e308"], "|t| = 1e+308"),
    (["dnls", "--h", "0.01", "--M", "64", "--dt", "1e305", "--T", "1e305"], "|t| = 5e+304"),
    (["dnls", "--h", "0.01", "--M", "64", "--dt", "1e305", "--T", "1e305"], "dt = 1e+305"),
    (["decay", "--kind", "klein_gordon", "--h", "1e-150", "--M", "64", "--full", "--t-min", "1", "--t-max", "1e160",
      "--n-t", "3"], "|t| = 1e+160"),
    (["uniformity", "--h-list", "1,0.3", "--q", "6", "--r", "inf", "--box", "64"],
     "box / h = 64.0 / 0.3 rounds to M = 213"),
    (["strichartz", "--q", "6", "--r", "inf", "--box", "5", "--h", "1"], "box / h = 5.0 / 1.0 rounds to M = 5"),
    (["decay", "--full", "--box", "4097", "--h", "1"], "box / h = 4097.0 / 1.0 rounds to M = 4097"),
    (["strichartz", "--q", "6", "--r", "inf", "--box", "1e-300"], "box / h = 1e-300 / 1.0 rounds to M = 0"),
    (["decay", "--h", "1e-200", "--M", "64", "--full"], "h=1e-200"),
    (["decay", "--h", "1e-160", "--M", "64", "--full"], "h=1e-160"),
    (["decay", "--d", "2", "--h", "1e-160", "--M", "64", "--full"], "h=1e-160"),
    (["decay", "--d", "3", "--h", "1e-120", "--M", "8", "--full"], "h=1e-120"),
    (["decay", "--h", "1e308", "--M", "256", "--full"], "h=1e+308"),
    (["decay", "--h", "1e155", "--M", "64", "--full"], "h=1e+155"),
    (["decay", "--d", "2", "--h", "1e200", "--M", "64", "--full"], "h=1e+200"),
    (["czdemo", "--h", "1e308"], "h=1e+308"),
    ([*KNAPP, "--h", "1e308", "--eps-list", "0.04,0.02", "--M", "4096"], "h=1e+308"),
    (["strichartz", "--q", "6", "--r", "inf", "--data", "gaussian", "--width", "1e200"], "width=1e+200"),
    (["strichartz", "--q", "6", "--r", "inf", "--data", "gaussian", "--width", "1e-200"], "width=1e-200"),
    (["decay", "--data", "gaussian", "--width", "1e-200", "--M", "256", "--full"], "width=1e-200"),
    (["dnls", "--width", "1e308"], "width=1e+308"),
    (["s1", "--width", "1e-200"], "width=1e-200"),
    ([*KNAPP_SMALL, "--u-window", "1e308"], "u_window = 1e+308"),
    (["uniformity", "--h-list", "1,0.5", "--q", "6", "--r", "inf", "--box", "16", "--n-t", "64",
      "--horizon-fraction", "1e308"], "horizon_fraction = 1e+308"),
    (["knapp", "--h", "1e-50", "--eps-list", "1e-120", "--q", "8", "--r", "8", "--s", "0", "--M", "4096",
      "--x-window", "1e-120"], "eps = 1e-120"),
    (["knapp", "--h", "1e100", "--eps-list", "1e150", "--q", "8", "--r", "8", "--s", "0", "--M", "4096"],
     "eps = 1e+150"),
    ([*KNAPP, "--eps-list", "0.04", "--M", "4096", "--n-t", "2"], "n_t = 2"),
    ([*KNAPP, "--eps-list", "0.04", "--M", "4096", "--n-t", "5"], "n_t = 5"),
    ([*KNAPP, "--eps-list", "0.04", "--M", "4096", "--x-window", "1e-300"], "x_window = 1e-300"),
    ([*KNAPP, "--eps-list", "0.04", "--M", "4096", "--u-window", "1e-300"], "u_window = 1e-300"),
], ids=["czdemo-lam-overflow", "czdemo-sum-overflow", "decay-h-tiny", "strichartz-M-over-cap",
        "knapp-x-window-over-cap", "knapp-n_t-over-cap", "knapp-eps-nan", "knapp-s-nan", "dnls-T-inf",
        "dnls-lam-nan", "constants-ensemble-0", "dnls-steps-overflow", "dnls-p-inf", "knapp-s-huge",
        "knapp-s-negative-huge", "uniformity-n_t-1", "strichartz-width-0", "strichartz-width-negative",
        "decay-width-0", "dnls-width-0", "s1-amplitude-inf", "constants-s-norm-overflow", "constants-s-nan",
        "constants-s-symbol-overflow", "constants-s-part-overflow", "constants-gn-s-nan", "strichartz-q0",
        "knapp-r0", "pairs-r-max-0", "pairs-d3-r-max-inf", "s1-d3-r-max-inf", "decay-N-below-smallest-scale",
        "decay-h-inf", "strichartz-h-inf", "pairs-count-over-cap", "dnls-steps-over-cap",
        "strichartz-n_t-over-cap", "decay-n_t-over-cap", "knapp-eps-repeated", "uniformity-h-repeated",
        "constants-ensemble-over-cap", "decay-phase-overflow", "strichartz-phase-overflow", "dnls-phase-overflow", "dnls-phase-overflow-names-dt",
        "decay-kg-phase-overflow", "uniformity-box-odd-M", "strichartz-box-odd-M", "decay-box-odd-M",
        "strichartz-box-M-0", "decay-h-squared-underflow", "decay-4-over-h-squared-overflow",
        "decay-d2-cell-volume-subnormal", "decay-d3-cell-volume-underflow", "decay-h-squared-overflow",
        "decay-h-1e155-squared-overflow", "decay-d2-cell-volume-overflow", "czdemo-h-squared-overflow",
        "knapp-h-squared-overflow", "strichartz-width-squared-overflow", "strichartz-width-squared-underflow",
        "decay-width-squared-underflow", "dnls-width-squared-overflow", "s1-width-squared-underflow",
        "knapp-u-window-overflow", "uniformity-horizon-fraction-overflow", "knapp-eps-cubed-underflow",
        "knapp-eps-cubed-overflow", "knapp-n_t-2-past-a-period", "knapp-n_t-5-past-a-period",
        "knapp-x-window-below-a-lobe", "knapp-u-window-below-a-lobe"])
def test_overflowing_input_names_its_cause(argv, named, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("configuration error:") and named in err


@pytest.mark.parametrize("lam", ["-1", "0", "nan", "inf"])
def test_czdemo_checks_lam_before_sampling(lam, capsys, monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before checking --lam")
    monkeypatch.setattr(np.random, "default_rng", no_sampling)
    assert run(["czdemo", "--lam", lam]) == 2
    assert "configuration error: --lam must be positive and finite" in capsys.readouterr().err


def test_pairs_rows_satisfy_identity(tmp_path):
    out = tmp_path / "pairs.csv"
    assert run(["pairs", "--d", "1", "--count", "5", "--out", str(out)]) == 0
    meta, header, rows = read_csv(out)
    assert header == ["index", "q", "r", "d"]
    assert len(rows) == 5
    for row in rows:
        q = math.inf if row[1] == "inf" else float(row[1])
        r = math.inf if row[2] == "inf" else float(row[2])
        inv_q = 0.0 if math.isinf(q) else 1.0 / q
        inv_r = 0.0 if math.isinf(r) else 1.0 / r
        assert abs(3 * inv_q + inv_r - 0.5) < 1e-12


def test_decay_command_reports_slope(tmp_path):
    out = tmp_path / "decay.csv"
    code = run(["decay", "--kind", "schrodinger", "--d", "1", "--h", "1", "--M", "1024",
                "--full", "--t-min", "2", "--t-max", "60", "--n-t", "12", "--out", str(out)])
    assert code == 0
    meta, header, rows = read_csv(out)
    assert header == ["t", "sup_norm"]
    assert len(rows) == 12
    assert abs(meta["fit"]["slope"] + 1.0 / 3.0) < 0.1


def test_decay_requires_band_or_full():
    assert run(["decay", "--d", "1", "--h", "1", "--M", "128"]) == 2


def test_decay_window_violation_exits_three(tmp_path):
    code = run(["decay", "--d", "1", "--h", "1", "--M", "64", "--full",
                "--t-min", "1", "--t-max", "500", "--n-t", "8",
                "--out", str(tmp_path / "x.csv")])
    assert code == 3


def test_dnls_overflow_exits_three_naming_the_time(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["dnls", "--d", "1", "--h", "0.5", "--box", "32", "--lam=-1", "--p", "7",
                    "--amplitude", "1e60", "--dt", "0.5", "--T", "5"]) == 3
    assert "runtime error: non-finite state at t=0.5" in capsys.readouterr().err


def test_constants_bad_hypothesis_exits_two():
    assert run(["constants", "--kind", "gagliardo_nirenberg", "--h-list", "1",
                "--p", "2", "--q", "4", "--s", "1", "--theta", "0.3"]) == 2


def test_constants_runs_and_is_byte_identical(tmp_path):
    args = ["constants", "--kind", "square_function", "--d", "1", "--h-list", "1,0.5",
            "--box", "16", "--p", "2", "--ensemble", "8", "--seed", "5"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_constants_threads_flag_is_accepted_and_ignored(tmp_path):
    args = ["constants", "--kind", "bernstein", "--d", "1", "--h-list", "1,0.5", "--box", "8",
            "--p", "2", "--q", "inf", "--ensemble", "8", "--seed", "3"]
    out1, out2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
    assert run(args + ["--threads", "1", "--out", str(out1)]) == 0
    assert run(args + ["--threads", "2", "--out", str(out2)]) == 0
    meta1, header1, rows1 = read_csv(out1)
    meta2, header2, rows2 = read_csv(out2)
    assert header1 == header2 and rows1 == rows2
    assert meta2["threads"] == 2 and "threads" not in meta2["scan"]


def _reject_constant(name):
    raise ValueError(f"non-RFC JSON constant {name}")


def test_infinite_exponents_give_strict_json(tmp_path):
    csv_out, json_out = tmp_path / "s.csv", tmp_path / "c.json"
    assert run(["strichartz", "--q", "inf", "--r", "2", "--out", str(csv_out)]) == 0
    assert run(["constants", "--kind", "bernstein", "--h-list", "1,0.5", "--box", "8", "--p", "2",
                "--q", "inf", "--ensemble", "8", "--format", "json", "--out", str(json_out)]) == 0
    meta = json.loads(csv_out.read_text().splitlines()[0][2:], parse_constant=_reject_constant)
    assert meta["config"]["q"] == "inf"
    doc = json.loads(json_out.read_text(), parse_constant=_reject_constant)
    assert doc["metadata"]["scan"]["q"] == "inf"


def test_strichartz_command(tmp_path):
    out = tmp_path / "s.csv"
    code = run(["strichartz", "--d", "1", "--h", "0.5", "--box", "32", "--q", "inf",
                "--r", "2", "--T", "1.0", "--data", "gaussian", "--out", str(out)])
    assert code == 0
    meta, header, rows = read_csv(out)
    assert float(rows[0][header.index("value")]) > 0


def test_knapp_command_fits_exponents(tmp_path):
    out = tmp_path / "k.csv"
    code = run(["knapp", "--h", "0.5", "--eps-list", "0.04,0.02", "--q", "8", "--r", "8",
                "--s", "0.125", "--M", "8192", "--n-t", "301", "--u-window", "60",
                "--x-window", "64", "--out", str(out)])
    assert code == 0
    meta, header, rows = read_csv(out)
    assert len(rows) == 2
    assert "left" in meta["fits"] and "right" in meta["fits"]


def test_knapp_d2_runs_at_its_default_M(tmp_path):
    out = tmp_path / "k2.csv"
    assert run(["knapp", "--d", "2", "--q", "6", "--r", "4", "--h", "0.5", "--eps-list", "0.04",
                "--s", "0.1", "--out", str(out)]) == 0
    meta, header, rows = read_csv(out)
    assert meta["config"]["M"] == 1024
    assert float(rows[0][header.index("left_norm")]) > 0 and float(rows[0][header.index("right_norm")]) > 0


def test_knapp_block_holding_zero_frequency_has_a_finite_left_side(tmp_path):
    out = tmp_path / "k0.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["knapp", "--h", "1", "--eps-list", "1.4,0.7", "--q", "8", "--r", "8", "--s", "0.125",
                    "--M", "4096", "--out", str(out)]) == 0
    meta, header, rows = read_csv(out)
    assert all(math.isfinite(float(row[header.index("left_norm")])) for row in rows)
    assert math.isfinite(meta["fits"]["left"]["slope"])


def test_knapp_constraint_violation_exits_two(tmp_path):
    assert run(["knapp", "--h", "0.25", "--eps-list", "0.2", "--q", "8", "--r", "8",
                "--s", "0.125"]) == 2


def test_czdemo_runs(tmp_path):
    out = tmp_path / "cz.csv"
    assert run(["czdemo", "--d", "1", "--M", "64", "--seed", "3", "--out", str(out)]) == 0
    meta, header, rows = read_csv(out)
    assert header == ["corner", "scale", "side_length", "cube_average"]
    for row in rows:
        avg = float(row[3])
        assert meta["threshold"] < avg <= 2 * meta["threshold"] + 1e-9


def test_dnls_command_with_snapshots(tmp_path):
    out = tmp_path / "traj.csv"
    snaps = tmp_path / "traj.bin"
    code = run(["dnls", "--d", "1", "--h", "0.5", "--box", "32", "--lam", "1", "--p", "3",
                "--dt", "0.05", "--T", "0.3", "--snapshots", str(snaps), "--out", str(out)])
    assert code == 0
    meta, header, rows = read_csv(out)
    assert "mass" in header and len(rows) == 7
    assert snaps.exists()


def test_s1_command(tmp_path):
    out = tmp_path / "s1.json"
    code = run(["s1", "--d", "1", "--h", "0.5", "--box", "32", "--lam", "1", "--p", "3",
                "--dt", "0.05", "--T", "0.3", "--format", "json", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    s1_col = doc["columns"].index("s1")
    assert doc["rows"][0][s1_col] > 0


def test_s1_command_asks_for_no_monitor_series(tmp_path, monkeypatch):
    calls = []
    original = cli.evolve

    def recorded(u0, cfg):
        calls.append((u0, cfg))
        return original(u0, cfg)

    monkeypatch.setattr(cli, "evolve", recorded)
    out = tmp_path / "s1.json"
    assert run(["s1", "--d", "1", "--h", "0.5", "--box", "32", "--lam", "1", "--p", "3",
                "--dt", "0.05", "--T", "0.3", "--format", "json", "--out", str(out)]) == 0
    [(u0, cfg)] = calls
    assert cfg.monitors == frozenset()
    # the value is the one a fully monitored trajectory gives, bit for bit
    full = original(u0, dataclasses.replace(cfg, monitors=frozenset(KNOWN_MONITORS)))
    doc = json.loads(out.read_text())
    assert doc["rows"][0][doc["columns"].index("s1")] == s1_norm(full, admissible_pairs(1, 6, r_max=100.0))


def test_outdir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("LATTICEWAVE_OUTDIR", str(tmp_path))
    assert run(["pairs", "--d", "1", "--count", "3", "--out", "sub.csv"]) == 0
    assert (tmp_path / "sub.csv").exists()
