"""A fixed piece of reference work that measures how fast the host runs now.

On a shared VM the same code can run up to twice as slow for seconds or
minutes at a time, and CPU time slows with wall time, so raw stage times
spread by more than any bound between runs. The workloads therefore time
this reference work before and after every stage and report the stages
made of many small calls in multiples of it (unit ``ref``). A change to
the package moves the stage time but not the reference, so a real gain or
loss still shows in full.

The reference mixes the three kinds of work the stages do, in about equal
shares on an idle host: brute-force kNN (``cdist`` plus a partial sort),
a small dense symmetric eigensolve, and a Python loop over small numpy
calls. Its inputs are fixed, whatever the seed. It uses numpy and scipy
only, never the package.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.spatial.distance import cdist

_RNG = np.random.default_rng(20150302)
_POINTS = _RNG.normal(size=(2000, 3))
_QUERIES = _RNG.normal(size=(300, 3))
_SYM = _RNG.normal(size=(220, 220))
_SYM = _SYM + _SYM.T
_SMALL = np.eye(4) + 0.1 * _RNG.normal(size=(4, 4))
REPEATS = 3


def reference_work() -> None:
    d2 = cdist(_QUERIES, _POINTS, metric="sqeuclidean")
    np.argpartition(d2, 10, axis=1)
    np.linalg.eigh(_SYM)
    x = np.ones(4)
    for _ in range(500):
        x = np.linalg.solve(_SMALL, x) / np.linalg.norm(x)


def reference_seconds() -> float:
    """Fastest of a few back-to-back timings of the reference work."""
    best = np.inf
    for _ in range(REPEATS):
        start = time.perf_counter()
        reference_work()
        best = min(best, time.perf_counter() - start)
    return best
