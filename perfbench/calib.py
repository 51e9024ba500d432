"""Host-speed calibration of measured times.

On a shared virtual machine the same pure-Python work can run twice as
slowly from one moment to the next, for seconds at a time, so raw wall
times of two runs of the same code differ by more than a regression worth
catching. A fixed loop, timed right before and right after a measurement,
gives the host's speed at that moment. A measured time ``t`` then becomes
``t * REF_S / loop time``: the seconds the same work would take on a host
that runs the loop in exactly ``REF_S``. The loop touches nothing of
``bagconsist``, so a change to the program moves the adjusted time as much
as the raw one.
"""
from __future__ import annotations

from time import perf_counter

ROUNDS = 40_000
REF_S = 0.010   # about the loop's time on a 2.1 GHz VM under Python 3.11


def spin():
    """Seconds to run the fixed loop once: dict updates keyed by small
    tuples, the operations that dominate the package's pure-Python code."""
    t0 = perf_counter()
    acc = {}
    for i in range(ROUNDS):
        key = (i % 97, i % 89)
        acc[key] = acc.get(key, 0) + i
    return perf_counter() - t0


def adjust(seconds, before, after):
    """``seconds`` at the reference speed, given the loop times measured
    right before and right after them."""
    return seconds * 2 * REF_S / (before + after)
