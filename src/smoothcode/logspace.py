"""Log-domain accumulation helpers."""

from __future__ import annotations

import itertools
import math
from operator import sub
from typing import Iterable

LN2 = math.log(2.0)


def logsumexp(values: Iterable[float]) -> float:
    """log(sum(exp(v))) with the usual max shift.

    Ignores -inf entries; an empty (or all -inf) input yields -inf.
    """
    vals = list(values)
    if -math.inf in vals:
        vals = list(filter((-math.inf).__ne__, vals))
    if not vals:
        return -math.inf
    m = max(vals)
    if m == math.inf:
        return math.inf
    return m + math.log(math.fsum(map(math.exp, map(sub, vals, itertools.repeat(m)))))


def ceil_exp(log_x: float) -> int:
    """ceil(exp(log_x)) as an exact integer, tolerating log_x beyond float range."""
    if log_x == -math.inf:
        return 0
    if log_x < 700.0:
        return math.ceil(math.exp(log_x))
    # exp would overflow: peel off a power of two and rebuild as a big int
    shift = int(log_x / LN2) - 53
    mantissa = math.exp(log_x - shift * LN2)
    return math.ceil(mantissa) << shift
