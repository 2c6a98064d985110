"""The benchmark still runs against the package: its workloads pass and its per-layer metrics name
functions the package still defines.

``bench/workloads.py`` calls harness drivers, reads result fields and runs CLI
commands by name, so one untimed pass of each workload catches a rename or a
removal that would otherwise show only as a failed benchmark operation.

``bench/spans.py`` wraps every public function of the seven ``latticewave``
modules, plus ``GridFunction.__post_init__`` and ``PhaseSpec.multiplier_grid``,
and ``BENCHMARK.json`` declares a metric ``<layer>.<name>.self_s`` or
``<layer>.<name>.calls`` for some of them.  A traced run reports no value for
the metric of a function that was deleted or renamed, so these tests keep the
two in step.
"""

import importlib
import inspect
import json
from pathlib import Path

import pytest

LAYERS = ("lattice", "spectral", "propagators", "harness", "dnls", "reporting", "cli")
# span names the tracer gives a method instead of a module function: (class, method)
EXTRAS = {
    "lattice.GridFunction": ("GridFunction", "__post_init__"),
    "propagators.multiplier_grid": ("PhaseSpec", "multiplier_grid"),
}

ROOT = Path(__file__).parents[1]
METRICS = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
SPANS = sorted({name.rsplit(".", 1)[0] for name in METRICS
                if name.count(".") == 2 and name.split(".")[0] in LAYERS and name.endswith((".self_s", ".calls"))})


def test_the_contract_names_function_spans():
    assert SPANS, "BENCHMARK.json declares no per-function metric"
    assert set(EXTRAS) <= set(SPANS)


@pytest.mark.parametrize("span", SPANS)
def test_each_traced_span_is_a_function_of_its_module(span):
    layer, name = span.split(".")
    module = importlib.import_module(f"latticewave.{layer}")
    if span in EXTRAS:
        owner, method = EXTRAS[span]
        assert inspect.isfunction(getattr(getattr(module, owner), method))
    else:
        fn = getattr(module, name, None)
        assert not name.startswith("_")
        assert inspect.isfunction(fn) and fn.__module__ == module.__name__, span


@pytest.mark.parametrize("name", [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]])
def test_each_workload_passes_its_checks_once(name, tmp_path, monkeypatch):
    """Every operation of the workload runs in order and meets its check, with strict JSON outputs."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    workloads = importlib.import_module("workloads")
    wl = workloads.build(name, seed=0, outdir=str(tmp_path))
    results = {}
    for op in wl.ops:
        results[op.name] = op.call(results)
        assert op.check(results[op.name], wl) is None, op.name
    assert wl.nonstrict_outputs == 0
