"""Extended-real arithmetic conventions used throughout.

All quantities are nonnegative extended reals.  The rules 1/inf = 0 and
1/0 = inf are applied, so that degenerate head/tail integrals drop out
of sums instead of poisoning them with NaNs; the 0 * inf = 0 rule on
log-values is ``grids.log_mul``.
"""

import math

INF = math.inf


def xrecip(a: float) -> float:
    """1/a with 1/inf = 0 and 1/0 = inf."""
    if a == 0.0:
        return INF
    if math.isinf(a):
        return 0.0
    return 1.0 / a


def xpow(a: float, e: float) -> float:
    """a**e for nonnegative extended a, nonzero real e."""
    if math.isinf(a):
        return INF if e > 0 else 0.0
    if a == 0.0:
        return 0.0 if e > 0 else INF
    return a ** e
