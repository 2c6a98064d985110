import json

import numpy as np
import pytest

from latticewave.dnls import NlsConfig, continuum_gaussian, evolve
from latticewave.lattice import Lattice, from_function
from latticewave.reporting import (
    read_snapshots,
    render_csv,
    render_json,
    trajectory_rows,
    write_snapshots,
)


def test_render_csv_layout():
    text = render_csv({"command": "demo", "seed": 1}, ["a", "b"], [[1, 2.5], [3, float("inf")]])
    lines = text.splitlines()
    assert lines[0].startswith("# ")
    meta = json.loads(lines[0][2:])
    assert meta["command"] == "demo"
    assert lines[1] == "a,b"
    assert lines[2] == "1,2.5"


def test_render_csv_is_deterministic():
    meta = {"z": 1, "a": {"nested": [1.5, 2]}}
    rows = [[0.1 + 0.2, 12345678901234.5]]
    assert render_csv(meta, ["x", "y"], rows) == render_csv(meta, ["x", "y"], rows)


def test_render_json_roundtrips():
    text = render_json({"k": 2}, ["c"], [[1.25]])
    doc = json.loads(text)
    assert doc["metadata"]["k"] == 2
    assert doc["rows"] == [[1.25]]


def test_trajectory_csv_and_snapshots(tmp_path):
    lat = Lattice(h=0.5, d=1, M=64)
    u0 = from_function(lat, continuum_gaussian(0.5, 2.0))
    traj = evolve(u0, NlsConfig(lam=1.0, p=3.0, dt=0.05, T=0.4, snapshot_stride=2))
    columns, rows = trajectory_rows(traj)
    assert columns[0] == "t" and len(rows) == traj.times.size

    path = str(tmp_path / "states.bin")
    write_snapshots(path, traj)
    lat2, times, states = read_snapshots(path)
    assert lat2 == lat
    np.testing.assert_allclose(times, traj.snapshot_times)
    for got, kept in zip(states, traj.states):
        np.testing.assert_array_equal(got, kept.values)


def test_render_writes_infinities_as_strings():
    meta = {"q": float("inf"), "lo": -np.inf, "gap": float("nan")}
    line = render_csv(meta, ["a"], [[1]]).splitlines()[0]
    assert json.loads(line[2:]) == {"q": "inf", "lo": "-inf", "gap": None}
    doc = json.loads(render_json(meta, ["a"], [[np.float64("inf")]]))
    assert doc["metadata"]["q"] == "inf" and doc["rows"] == [["inf"]]


@pytest.fixture
def snapshot_file(tmp_path):
    lat = Lattice(h=0.5, d=1, M=32)
    u0 = from_function(lat, continuum_gaussian(0.5, 1.0))
    traj = evolve(u0, NlsConfig(lam=1.0, p=3.0, dt=0.05, T=0.1, snapshot_stride=1))
    path = tmp_path / "states.bin"
    write_snapshots(str(path), traj)
    assert path.stat().st_size == 32 + 3 * (8 + 16 * 32)
    return path


@pytest.mark.parametrize("keep, message", [
    (20, "truncated"),          # inside the header
    (32 + 4, "truncated"),      # inside the first time field
    (32 + 8 + 100, "truncated"),  # inside the first state
])
def test_read_snapshots_rejects_truncated_file(snapshot_file, keep, message):
    snapshot_file.write_bytes(snapshot_file.read_bytes()[:keep])
    with pytest.raises(ValueError, match=message):
        read_snapshots(str(snapshot_file))


def test_read_snapshots_rejects_trailing_bytes(snapshot_file):
    snapshot_file.write_bytes(snapshot_file.read_bytes() + b"\0" * 3)
    with pytest.raises(ValueError, match="3 trailing bytes"):
        read_snapshots(str(snapshot_file))
