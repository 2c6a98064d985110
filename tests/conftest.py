"""Shared fixtures: the fixed-point integral-equation oracle, built once per session, and the FFT counter.

Also the one ``hypothesis`` profile every property test runs under: derandomized,
no example database, no deadline.  Tests set only ``max_examples``.
"""

import math

import numpy as np
import pytest
from hypothesis import settings

from latticewave.dnls import continuum_gaussian
from latticewave.lattice import GridFunction, Lattice, from_function
from latticewave.propagators import schrodinger_flow

settings.register_profile("latticewave", derandomize=True, database=None, deadline=None)
settings.load_profile("latticewave")


def picard_solution(u0, lam, p, T, n_s, tol=1e-12, max_iter=300):
    """Fixed-point iteration of the integral form on a uniform fine grid.

    u(t) = flow(t) u0 - i lam * flow(t) * cumtrapz_s flow(-s) (|u|^(p-1) u)(s),
    trapezoid in s.  Independent of the split-step path.
    """
    lat = u0.lattice
    ts = np.linspace(0.0, T, n_s + 1)
    ds = ts[1] - ts[0]
    lin = [schrodinger_flow(u0, float(t)).values for t in ts]
    u = [v.copy() for v in lin]
    for _ in range(max_iter):
        z = [schrodinger_flow(GridFunction(lat, np.abs(v) ** (p - 1.0) * v), -float(t)).values
             for v, t in zip(u, ts)]
        cums = [np.zeros_like(z[0])]
        for j in range(1, len(ts)):
            cums.append(cums[-1] + 0.5 * ds * (z[j - 1] + z[j]))
        new = [lin[j] - 1j * lam * schrodinger_flow(GridFunction(lat, cums[j]), float(ts[j])).values
               for j in range(len(ts))]
        delta = max(float(np.abs(a - b).max()) for a, b in zip(new, u))
        u = new
        if delta < tol:
            return ts, u
    raise RuntimeError("fixed-point iteration did not converge")


@pytest.fixture(scope="session")
def picard_reference():
    """Initial data and the oracle's endpoint for lam=1, p=3, T=0.25 on h=0.5, M=64 (n_s=2048)."""
    u0 = from_function(Lattice(h=0.5, d=1, M=64), continuum_gaussian(0.8, 2.0))
    _, ref = picard_solution(u0, 1.0, 3.0, 0.25, n_s=2048)
    return u0, ref[-1]


class TransformCounter:
    """The ``np.fft.fftn``/``ifftn`` calls made since the last :meth:`reset`.

    ``counts`` the calls and ``points`` the points they transform, per function;
    and per ``ifftn`` call, in call order, ``blocks`` holds (rows, bytes, in
    place): its rows are the leading entries its ``axes`` leave untransformed (1
    without ``axes``), and it is in place when it wrote into its input (``out is
    args[0]``), i.e. allocated no result array.
    """

    BLOCK_BYTES = 256 * 1024

    def __init__(self):
        self.counts = {"fftn": 0, "ifftn": 0}
        self.points = {"fftn": 0, "ifftn": 0}
        self.blocks = []

    def reset(self):
        self.counts.update(fftn=0, ifftn=0)
        self.points.update(fftn=0, ifftn=0)
        self.blocks.clear()

    def record(self, name, args, kwargs):
        self.counts[name] += 1
        self.points[name] += np.size(args[0])
        if name == "ifftn":
            axes = kwargs.get("axes")
            rows = 1 if axes is None else np.size(args[0]) // math.prod(np.shape(args[0])[a] for a in axes)
            self.blocks.append((rows, np.asarray(args[0]).nbytes, kwargs.get("out") is args[0]))

    def assert_row_blocks(self):
        """Every inverse transform is in place, and a block holds at most 256 KiB unless it is one row."""
        assert all(in_place for _, _, in_place in self.blocks)
        assert all(rows == 1 or size <= self.BLOCK_BYTES for rows, size, _ in self.blocks)

    @classmethod
    def rows_per_block(cls, lat):
        """The complex rows of ``lat``'s shape that one block holds (one row at least)."""
        return max(1, cls.BLOCK_BYTES // (16 * lat.site_count))


@pytest.fixture
def transforms(monkeypatch):
    """A :class:`TransformCounter` recording every ``np.fft.fftn``/``ifftn`` call of the test."""
    counter = TransformCounter()
    for name in counter.counts:
        def counted(*args, _name=name, _fn=getattr(np.fft, name), **kwargs):
            counter.record(_name, args, kwargs)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    return counter
