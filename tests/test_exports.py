"""Each module's ``__all__`` is its public surface: every listed name is bound in the module, and every
public function or class the module defines is listed.

A name deleted or moved to another module without its ``__all__`` entry, or a
new public definition left out of it, fails here rather than at a caller's
``from latticewave.<module> import *``.  Names a module imports from another
(such as ``dnls``'s ``continuum_gaussian``, defined in ``lattice``) may be
listed as re-exports.

Every listed name is also read somewhere in ``src/`` outside its own
definition, or sits on a short list that gives the reason it stays public.
"""

import ast
import importlib
import inspect
import pathlib

import pytest


@pytest.mark.parametrize("name", ["lattice", "spectral", "propagators", "harness", "dnls", "reporting"])
def test_all_lists_exactly_the_bound_public_names(name):
    module = importlib.import_module(f"latticewave.{name}")
    listed = module.__all__
    assert len(set(listed)) == len(listed), f"{module.__name__}.__all__ repeats a name"
    unbound = [entry for entry in listed if not hasattr(module, entry)]
    assert not unbound, f"{module.__name__}.__all__ lists names it does not bind: {unbound}"
    defined = [key for key, obj in vars(module).items()
               if not key.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
               and obj.__module__ == module.__name__]
    unlisted = sorted(set(defined) - set(listed))
    assert not unlisted, f"{module.__name__} defines public names its __all__ leaves out: {unlisted}"


ACCEPTANCE = "acceptance API: tests/test_acceptance.py imports it"
BENCHMARK = "benchmark contract: bench/ calls it or BENCHMARK.json traces it"
TEST_ONLY = "test-only, pending its move into the tests"

# the __all__ names that nothing in src/ reads, each with the reason it stays public
UNREFERENCED_IN_SRC = {
    "forward_transform": ACCEPTANCE,
    "inverse_transform": ACCEPTANCE,
    "plane_wave": ACCEPTANCE,
    "step_strang": ACCEPTANCE,
    "interpolation_constant": ACCEPTANCE,
    "uniform_bound_experiment": ACCEPTANCE,
    "boundary_mass_fraction": BENCHMARK,
    "read_snapshots": BENCHMARK,
    "band_projection": TEST_ONLY,
    "schrodinger_flow": TEST_ONLY,
    "kg_phase_curvature": TEST_ONLY,
    "degenerate_points": TEST_ONLY,
    "knapp_h_sharpness": TEST_ONLY,
}


def _defined_names(statement: ast.stmt) -> set[str]:
    """The names a top-level statement defines: a def's or class's name, a plain assignment's targets."""
    if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
        return {statement.name}
    targets = statement.targets if isinstance(statement, ast.Assign) else [getattr(statement, "target", None)]
    return {target.id for target in targets if isinstance(target, ast.Name)}


def _exports_and_reads() -> tuple[set[str], set[str]]:
    """Every ``__all__`` name of the package's modules, and every name src/ reads outside its own definition.

    A read is a loaded name or attribute in the syntax tree.  ``__all__`` and
    docstrings hold strings, and an import binds an alias, so none of them
    reads a name.
    """
    package = pathlib.Path(importlib.import_module("latticewave").__file__).parent
    exported, read = set(), set()
    for path in sorted(package.glob("*.py")):
        for statement in ast.parse(path.read_text()).body:
            own = _defined_names(statement)
            if "__all__" in own:
                exported.update(ast.literal_eval(statement.value))
                continue
            read |= {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(statement)
                     if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)} - own
    return exported, read


def test_every_export_is_read_in_src_or_listed_with_its_reason():
    exported, read = _exports_and_reads()
    unread = exported - read
    assert not unread - set(UNREFERENCED_IN_SRC), (
        f"__all__ names nothing in src/ reads: {sorted(unread - set(UNREFERENCED_IN_SRC))}; "
        "move each into the tests, or list it in UNREFERENCED_IN_SRC with its reason")
    stale = set(UNREFERENCED_IN_SRC) - unread
    assert not stale, f"UNREFERENCED_IN_SRC lists names src/ reads or no __all__ holds: {sorted(stale)}"
