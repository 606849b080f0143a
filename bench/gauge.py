"""A CPU-speed gauge that puts timings taken under varying host load on one scale.

On a shared VM the same job's wall time moves by 20 % and more over tens of
seconds because of load outside the VM.  The gauge is a fixed piece of work in
the program's style (``Fraction`` products summed into a dict keyed by
tuples) that uses only the standard library, so no change to ``symplaw`` can
alter it.  It runs just before every timed job; a time ``t`` measured beside
gauge readings ``g`` is reported as ``t * (REFERENCE_S / median(g)) ** ELASTICITY``,
the time the work takes when the gauge reads ``REFERENCE_S``.  The raw wall-clock
figures are printed beside the scaled ones.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# Median gauge reading on an unloaded core of the 2-core VM the baseline was
# measured on (Python 3.11.7).  It fixes the scale only: scaled and raw times
# agree whenever the gauge reads this.
REFERENCE_S = 0.0097

# A job's time moves by less than the gauge's under the same host load: over
# recorded runs of one fixed suite job, the least-squares slope of log(job
# time) on log(gauge reading) was 0.55-0.80.  Scaling by the full ratio
# over-corrects, so the ratio is raised to this power.
ELASTICITY = 0.75


def read() -> float:
    """Seconds taken by the fixed gauge work, timed now."""
    start = time.perf_counter()
    sums: dict = {}
    for i in range(2000):
        x = Fraction(i % 97 - 48, i % 13 + 1) * Fraction(i % 11 + 1, i % 7 + 2)
        key = (i % 5, i % 3)
        sums[key] = sums.get(key, Fraction(0)) + x
    return time.perf_counter() - start


def factor(readings) -> float:
    """Multiplier that scales a time measured beside ``readings`` to the reference speed."""
    return (REFERENCE_S / statistics.median(readings)) ** ELASTICITY
