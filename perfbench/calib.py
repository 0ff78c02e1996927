"""How fast the machine runs right now, from fixed reference kernels.

The benchmark runs on a few cores of a shared host whose speed swings by
tens of percent within a second and drifts between minutes, as other tenants
load it.  The swings move every timing by much the same factor whatever
stacky does, so the harness measures them: it runs three fixed kernels of
its own (no stacky code) between jobs and, from a timer signal, every
INTERVAL_S inside a job, and divides each job's time by the machine's
slowdown over it.  A reported time therefore reads as seconds on this
machine at its nominal speed, the speed at which the kernels take
NOMINAL_S.  The kernels' own time inside a job is taken off the job's time;
the raw wall-clock times are kept next to the normalised ones in the
per-run record.

The kernels do the kind of work stacky's layers do, small-object allocation
and Python-level calls.  Tight arithmetic loops track stacky worse.  Across
passes on the benchmark's 2-core VM, in log terms, the in-process workloads
slowed by about 0.6 times an integer loop's slowdown, and by about 1.1 times
these kernels' (the ``cli`` workload, whose jobs are child processes, by
about 0.8 times).

* ``closure``  the closure of S6 from two generators, as tuples and sets,
               like the permutation core;
* ``sort``     300 seeded random 8-tuples through ``random.sample``, a set
               and a sort;
* ``dict``     a 3000-entry dict of tuple keys and list values.

The cyclic garbage collector is off while a kernel runs, so a collection
owed by the job is not charged to the kernel.
"""

from __future__ import annotations

import gc
import math
import random
import signal
from time import perf_counter

from workloads import closure, sym_gens

# Kernel times at nominal speed, seconds: a round figure within the range each
# kernel takes under Python 3.11 on the 2-core VM the benchmark was written on
# (from about 0.6 to 1.2 times it as the host's load changes).  Only ratios
# between runs on one machine are compared, so the figures set the scale and
# nothing else.
NOMINAL_S = {"closure": 2.0e-3, "sort": 2.0e-3, "dict": 1.0e-3}
# A job's slowdown is the geometric mean of the samples taken inside it and
# the WINDOW samples taken last before it and first after it.
WINDOW = 2
# Seconds between samples inside a job; a sample takes 3 to 6 ms.
INTERVAL_S = 0.05

_S6 = sym_gens(6)


def _closure() -> int:
    return len(closure(_S6, 6))


def _sort() -> tuple:
    rng = random.Random(5)
    tuples = [tuple(rng.sample(range(8), 8)) for _ in range(300)]
    return len(set(tuples)), sorted(tuples)[0]


def _dict() -> int:
    table = {}
    for i in range(3000):
        table[(i, i * 7 % 1013)] = [i]
    return len(table)


KERNELS = {"closure": _closure, "sort": _sort, "dict": _dict}


def _timed(kernel) -> float:
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        kernel()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def speed_sample() -> float:
    """Slowdown against nominal speed now: 1.0 nominal, 1.3 when 30% slower.

    The geometric mean of the kernels' time ratios.
    """
    return geometric_mean(_timed(k) / NOMINAL_S[name] for name, k in KERNELS.items())


def geometric_mean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def job_factors(edges: list, inside: list) -> list:
    """The slowdown factor of each job.

    ``edges`` has one sample more than there are jobs: sample i is taken
    just before job i, the last one after the last job.  ``inside[i]`` holds
    the samples taken while job i ran.
    """
    if len(edges) != len(inside) + 1:
        raise ValueError(f"{len(inside)} jobs need {len(inside) + 1} edge samples, "
                         f"got {len(edges)}")
    return [geometric_mean(edges[max(0, i + 1 - WINDOW):i + 1 + WINDOW] + list(within))
            for i, within in enumerate(inside)]


class InJobSampler:
    """Takes speed samples from SIGALRM every INTERVAL_S while it is on.

    Only for jobs that run in this process: for a job that waits on a child
    on the same CPU, the samples would take the CPU from the child.
    """

    def __init__(self) -> None:
        self.samples: list = []
        self.spent = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame) -> None:
        start = perf_counter()
        self.samples.append(speed_sample())
        self.spent += perf_counter() - start

    def start(self) -> None:
        self.samples, self.spent = [], 0.0
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def close(self) -> None:
        self.stop()
        signal.signal(signal.SIGALRM, self._previous)
