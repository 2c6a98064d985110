"""Shared fixtures: the fixed-point integral-equation oracle, built once per session.

Also the one ``hypothesis`` profile every property test runs under: derandomized,
no example database, no deadline.  Tests set only ``max_examples``.
"""

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
