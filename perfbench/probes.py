"""Reference probes: fixed computations that run no noma_perf code.

How fast a shared host runs a given kind of code drifts by a third or
more over seconds to minutes, as neighbours come and go.  The benchmark
runs a probe right before every steady pass and reports the median over
passes of pass time divided by the probe time just before it, which
cancels most of that drift while staying proportional to the work
noma_perf does.  No change to noma_perf can change a probe.

A probe uses the resources its workload's passes use.  coop-deep and
oracle-gate run on one thread of interpreter, mpmath and scalar numpy
work, and use the interpreter loop; matching mpmath and QUADPACK slices
did not do reliably better.  mc-compare spends its CPU time on two
threads of numpy, and uses numpy draws on two threads: with the
interpreter loop its CPU ratio spread 8% over six runs, with the draws
1.4%.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np


def interpreter() -> None:
    """A fixed pure-Python loop.  A quarter of it ran in about 0.1 s, and
    pass-to-probe ratios over six to eight runs spread by 7-13% with
    that, 5-9% with the whole loop."""
    total = 0
    for i in range(4_000_000):
        total += i * i % 7


def _sample_and_sort(block: int) -> int:
    rng = np.random.default_rng(np.random.SeedSequence(1, spawn_key=(block,)))
    gains = np.sort(rng.standard_exponential((1 << 17, 5), method="inv"), axis=-1)
    return int((gains[:, 0] < 0.1).sum())


def draws() -> None:
    """Inverse-transform exponential draws sorted in pools of 5, on two
    worker threads like the Monte Carlo engine."""
    with ThreadPoolExecutor(max_workers=2) as pool:
        list(pool.map(_sample_and_sort, range(8)))


#: the probe each workload's passes are divided by
PROBES = {
    "coop-deep": interpreter,
    "mc-compare": draws,
    "oracle-gate": interpreter,
}
