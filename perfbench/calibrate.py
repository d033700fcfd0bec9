"""Reference kernel that measures how fast the host runs at the moment.

On a shared host the speed of one core drifts by tens of percent over
minutes, as neighbours load the machine, and a whole run can fall in a
slow or a fast phase. The benchmark therefore times this fixed kernel
between the operations of its passes and scales every timing of the run
by REFERENCE_S / (mean kernel time). A timing then reads as seconds on a
host that runs the kernel in REFERENCE_S seconds, and a change to
orbitlab moves it while a change in host load mostly does not. The mean,
not the median, is taken because a slow phase that covers part of a run
raises the mean kernel time and the mean pass time in proportion to the
time it covers, so the two cancel; two medians can fall on different
sides of the phase.

The kernel imports nothing from orbitlab, so no change to the program
can change it. It does the same kinds of work as the workloads, in
about equal parts: a walk over the reduced words of a free group with
small numpy products, normalisations and singular values and a
rounding-hash dictionary, as in word enumeration and word_cartan; and
a pure-Python integer scan with gcds and a set of tuples, as in the
modular norm ball.
"""

import math
import statistics
import time

import numpy as np

# seconds the kernel takes on an idle 2-core Intel Xeon virtual machine;
# it only sets the scale of the reported times
REFERENCE_S = 0.1

_GENERATORS = np.array([[[1.3, 0.4, 0.0, 0.2], [0.1, 0.9, 0.3, 0.0],
                         [0.0, 0.2, 1.1, 0.5], [0.3, 0.0, 0.1, 0.8]],
                        [[0.7, 0.0, 0.6, 0.1], [0.2, 1.2, 0.0, 0.4],
                         [0.5, 0.1, 0.9, 0.0], [0.0, 0.3, 0.2, 1.4]]])


def kernel(depth=6, bound=200):
    """One fixed batch of work; returns a checksum of it."""
    gens = list(_GENERATORS) + [np.linalg.inv(g) for g in _GENERATORS]
    frontier = [(np.eye(4), -1)]
    seen = {}
    total = 0.0
    for level in range(depth):
        grown = []
        for mat, last in frontier:
            for i, g in enumerate(gens):
                if last >= 0 and (last + 2) % 4 == i:
                    continue
                prod = mat @ g
                prod = prod / np.abs(prod).max()
                s = np.linalg.svd(prod, compute_uv=False)
                total += math.log(s[0] / s[1])
                seen[tuple(np.round(prod, 6).ravel())] = level
                grown.append((prod, i))
        frontier = grown
    keys = set()
    for a in range(-bound, bound + 1):
        for c in range(-bound, bound + 1):
            if math.gcd(a, c) == 1:
                keys.add((abs(a), abs(c), (a * c) % 7))
    return total + len(seen) + len(keys)


class HostSpeed:
    """Kernel times sampled through a run, and the scale they give."""

    def __init__(self):
        self.checksum = kernel()  # warm-up, untimed
        self.samples = []

    def sample(self):
        started = time.perf_counter()
        checksum = kernel()
        self.samples.append(time.perf_counter() - started)
        if checksum != self.checksum:
            raise RuntimeError("reference kernel gave %r, then %r" % (self.checksum, checksum))

    def scale(self):
        """Factor that turns a timing of this run into reference seconds."""
        return REFERENCE_S / statistics.fmean(self.samples)
