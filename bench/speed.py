"""Machine-speed reference for the end-to-end timings.

The benchmark runs on shared hosts whose speed changes under it: the
machine the figures in README.md come from switches between a fast and a
slow state (up to 2x) every few seconds, and for minutes at a time it can
run 30-70 % slow throughout.  No statistic of one run's raw samples removes
a slowdown that lasts the whole run.  So the end-to-end run also times a
fixed reference computation that does not touch the package (JSON decode,
a small symmetric eigenproblem, a Python loop: the kinds of work a file op
does) in short blocks between the timed phases.  Each sample is divided by
the mean reference op of the blocks right before and after it, which ran
in the same state of the machine, and a timing is the median of these
ratios times ``NOMINAL_REF_S``: the time the sample would take on the
machine at its usual speed.  A change to the package moves these timings
as it moves the raw ones; the raw medians are in the ``details`` line.
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter

import numpy as np

#: mean reference op on the machine the README's figures come from (a
#: 2-vCPU Intel Xeon VM, Python 3.11.7, numpy 2.4.6, OpenBLAS); it sets
#: the scale of the reported timings only
NOMINAL_REF_S = 0.0008
#: reference ops in one block
BLOCK_OPS = 20

_MATRIX_TEXT = json.dumps(np.random.default_rng(20240601).standard_normal((32, 32)).tolist())


def reference_op() -> float:
    a = np.array(json.loads(_MATRIX_TEXT))
    top = float(np.linalg.eigvalsh(a @ a.T)[-1])
    acc = 0.0
    for x in a.ravel().tolist():
        acc += x * x
    return acc + top


class Reference:
    """Blocks of reference ops of one run."""

    def __init__(self):
        self.means: list[float] = []  # mean op of each block

    def block(self) -> float:
        """Run BLOCK_OPS reference ops; returns their mean time."""
        start = perf_counter()
        for _ in range(BLOCK_OPS):
            reference_op()
        self.means.append((perf_counter() - start) / BLOCK_OPS)
        return self.means[-1]

    def close(self) -> float:
        """Mean reference op around what ran since the last block: the mean
        of that block's and a new block's."""
        before = self.means[-1]
        return (before + self.block()) / 2

    def summary(self) -> dict:
        return {"nominal_ref_s": NOMINAL_REF_S, "blocks": len(self.means), "block_ops": BLOCK_OPS,
                "fastest_block_ref_s": min(self.means), "median_block_ref_s": statistics.median(self.means)}


def at_reference(ratios: list[float]) -> float:
    """A timing at the usual speed from its (sample / adjacent mean reference op) ratios."""
    return statistics.median(ratios) * NOMINAL_REF_S
