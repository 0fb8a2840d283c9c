"""Timing helpers of the layer scripts.

A row a few ms long spreads about 2x between rounds when it is the best of
three or five runs, so such a row is the median of ``RUNS`` timed runs,
printed with the interquartile range of those runs beside it.
"""

import statistics
import time

RUNS = 21


def seconds(fn):
    """Wall time of one call of ``fn``, in s."""
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def median_ms(samples):
    """``{"ms": median, "iqr_ms": q3 - q1}`` of timings given in s."""
    q1, median, q3 = statistics.quantiles([1e3 * s for s in samples], n=4)
    return {"ms": round(median, 2), "iqr_ms": round(q3 - q1, 2)}


def timed_ms(fn):
    """:func:`median_ms` of ``RUNS`` calls of ``fn``."""
    return median_ms([seconds(fn) for _ in range(RUNS)])
