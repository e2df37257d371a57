"""How fast the shared machine runs right now, from a fixed reference kernel.

Other tenants of the benchmark machine slow every process on it by up to 2x
for seconds to minutes at a time: the same 201x201 sweep took 0.30 s and
0.60 s within one minute, with no steal time, and the process CPU time
tracked the wall time. The kernel below does the same kind of work as the
CLI (small numpy products in a Python loop, float formatting, JSON encoding)
and does not touch ``ptomech``, so a change to the program cannot change it.
Its time correlates at about 0.8 with the wall time of a CLI call next to
it. The worker times it before and after each call and scales the call's
wall time by ``NOMINAL_S`` over the mean of the two, which gives seconds at
the machine's quiet speed.

The garbage collector is off while the kernel runs, so its time does not
depend on how many objects the calling process holds.

Start-up in a fresh interpreter slows with the machine too, but the kernel
does not track it. Its reference is ``START_ARGV``, an interpreter that only
imports numpy, started before and after each timed start-up: over ten blocks
of nine start-ups, the block medians spread 29% unscaled and 4.5% scaled.
The scaled time still grows with anything the CLI adds to start-up, and
shrinks if the CLI stops importing numpy on that path.
"""

from __future__ import annotations

import gc
import json
import time

import numpy as np

# Median kernel time on the reference machine (2-core Xeon at 2.1 GHz, Python
# 3.11, numpy 2.4) when it was quiet. Only a scale: comparisons use one value.
NOMINAL_S = 0.013
_STEPS = 4000

# Interpreter arguments of the start-up reference, and its wall time on the
# reference machine when it was quiet.
START_ARGV = ("-c", "import numpy")
START_NOMINAL_S = 0.13


def _kernel() -> int:
    m = np.array([[0.999, 0.001j], [0.001j, 0.999]])
    z = np.ones(2, dtype=complex)
    cells = []
    for _ in range(_STEPS):
        z = m @ z
        cells.append(f"{z[0].real:.11e}")
    rows = [{"x": i * 0.5, "label": str(i)} for i in range(_STEPS)]
    return len(",".join(cells)) + len(json.dumps(rows))


def kernel_seconds() -> float:
    """Wall time of one kernel run."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
