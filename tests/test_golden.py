"""The committed output manifest: every pinned output recomputes to the same bits.

An output that moves on purpose is recorded by rerunning
``python tests/golden/regen.py`` and listing each changed entry in ``CHANGES.md``.
"""

import json

import numpy as np

from golden import regen


def test_outputs_match_the_manifest():
    pinned = json.loads(regen.MANIFEST.read_text())
    assert pinned["numpy"] == np.__version__, (
        f"the manifest was written with numpy {pinned['numpy']}, this run has numpy {np.__version__}: "
        f"rerun tests/golden/regen.py on numpy {pinned['numpy']} to compare, or regenerate it")
    fresh = regen.manifest()
    names = sorted(set(pinned["entries"]) | set(fresh["entries"]))
    differing = [name for name in names if pinned["entries"].get(name) != fresh["entries"].get(name)]
    assert not differing, f"outputs differ from tests/golden/outputs.json: {', '.join(differing)}"


def test_manifest_file_is_its_own_rendering():
    text = regen.MANIFEST.read_text()
    assert regen.render(json.loads(text)) == text
