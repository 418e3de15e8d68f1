"""Speed of the host CPU, from a fixed kernel that owes nothing to cornerindex.

On a shared host the CPU itself runs slower while neighbours load it: the
same pure-Python loop takes from 1x to about 3x its quiet CPU time, from
one minute to the next.  CPU time alone therefore moves with the
neighbours' load as much as with the program.  A probe runs a fixed piece
of work of the kind the program does (Gaussian elimination over a prime
field on lists of small integers; column operations on a larger integer
matrix stored as a list of rows, as a Smith normal form makes them;
building, sorting and indexing tuples and strings) and returns its CPU
time.  The probe time divided by ``REFERENCE_S`` is the host's slowness at
that moment, and a time divided by that slowness is the time the same work
takes on the quiet reference host.

On a loaded host the program's query times and the probe's time move
together: fitted as a power of the probe's slowness, the program's
slowness has an exponent between about 0.7 and 1.1 on the three workloads,
and the scaled times vary about half as much as the raw ones.  Kernels
that chase pointers through a table larger than the caches swing far more
than the program and were left out.

The kernel is the benchmark's own code, so a change to cornerindex cannot
speed up or slow down the probe.
"""

from __future__ import annotations

import random
from time import process_time

from oracles import rank_mod

# median probe time on a quiet 2-vCPU x86_64 host (Intel Xeon, Python 3.11)
REFERENCE_S = 0.00102


class Probe:
    """The fixed inputs of the kernel, built once."""

    def __init__(self):
        rng = random.Random(20260119)
        self.matrix = [[rng.randrange(-1, 2) for _ in range(22)] for _ in range(22)]
        self.words = [(i, str(rng.randrange(10**6)), [i]) for i in range(1_000)]
        self.wide = [[rng.randrange(-2, 3) for _ in range(200)] for _ in range(200)]

    def work(self) -> int:
        rank = rank_mod(self.matrix, 3)
        rows = sorted(self.words, key=lambda row: row[1])
        index = {row[1]: row for row in rows}
        wide = self.wide
        for t in range(12):  # add column k to column j, then take it off again
            j, k = 7 * t, 7 * t + 3
            for row in wide:
                row[j] += row[k]
            for row in wide:
                row[j] -= row[k]
        return rank + len(index)

    def __call__(self) -> float:
        """CPU seconds of one run of the kernel, after one untimed run that
        brings its data back into the caches the last query used."""
        self.work()
        start = process_time()
        self.work()
        return process_time() - start
