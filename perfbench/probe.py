"""A fixed piece of pure-Python work that measures the host's speed now.

The machine the benchmark runs on is shared: for seconds to minutes at a
time, other tenants slow every process by up to 70 %.  Timing this probe
next to each timed pass gives the slow-down the pass ran under.  The
probe's code is part of the benchmark, not of the program, so it stays
the same from one version of the program to the next.
"""

from __future__ import annotations

import time


def probe() -> float:
    """Seconds taken by string formatting, dict, set and sort work."""
    t = time.perf_counter()
    d: dict[str, list[int]] = {}
    for i in range(30000):
        key = f"http://probe.example.org/onto#C{(i * 7919) % 200003:06d}"
        d.setdefault(key.rsplit("#", 1)[1], []).append(i)
    s: set[str] = set()
    for k, v in d.items():
        s |= {k[:3] + str(len(v))}
        s.add(k.lower())
    sorted(d)
    return time.perf_counter() - t
