"""A fixed piece of host work that measures how fast the host is right now.

The benchmark runs on shared hosts where other tenants slow a single
thread by up to 60%, in stretches of seconds to minutes.  Timing this
probe next to every question gives that question's slowdown: the
probe's work never changes (it uses only the standard library and
NumPy, no code of the program under test), so any change in its time is
the host's.  It mixes interpreter work (a JSON round trip, a loop) with
NumPy sorting and streaming over eight megabytes, like the stack it
stands next to.
"""

from __future__ import annotations

import json
import time

import numpy as np

#: the probe's time on the unloaded 2-vCPU x86-64 host the benchmark was
#: tuned on; corrected times are expressed in that host's seconds
NOMINAL_S = 0.025

_DATA = np.random.default_rng(0).random(1 << 20)
_LIST = _DATA[:20_000].tolist()


def probe_s() -> float:
    """Wall time of one run of the fixed probe work."""
    start = time.perf_counter()
    json.loads(json.dumps(_LIST))
    np.sort(_DATA[:200_000])
    (_DATA * 1.5 + 2.0).sum()
    total = 0
    for i in range(100_000):
        total += i & 7
    return time.perf_counter() - start
