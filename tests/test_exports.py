"""Each module's ``__all__`` is its public surface: every listed name is bound in the module, and every
public function or class the module defines is listed.

A name deleted or moved to another module without its ``__all__`` entry, or a
new public definition left out of it, fails here rather than at a caller's
``from latticewave.<module> import *``.  Names a module imports from another
(such as ``dnls``'s ``continuum_gaussian``, defined in ``lattice``) may be
listed as re-exports.
"""

import importlib
import inspect

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
