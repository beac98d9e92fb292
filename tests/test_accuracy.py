"""Accuracy of the space norms against exact relations and values.

Reflection.  Write g~(t) = g(1/t).  Substituting s -> 1/s inside and
t -> 1/t outside turns a Cesaro norm into a Copson norm:

    ces_{p,q}(u, v) f = cop_{p,q}(u~ t^(-2/q), v~ t^(-2/p)) f~.

The window's nodes are symmetric in s = log t, so both sides sum the
same terms, and they agree to rounding.

The Copson window.  cop_{1,inf}(e^t, 1) of e^-t is sup_t e^t e^-t = 1,
but the grid's inner tail integral of e^-t times the growing e^t reads a
value that grows with the window S.  It is a strict xfail until the inner
integral is taken in closed form (ROADMAP direction 13).
"""

import math

import numpy as np
import pytest

from cescop.realfun import ONE, QuadratureConfig, expfam, from_log_callable, power, product
from cescop.spaces import SpaceSpec, space_norm

EXPS = (0.5, 1.0, 2.0, 3.0)

# (u, v, f) with a finite, nonzero ces_{p,q}(u, v) f for every p, q in EXPS
TRIPLES = (
    (expfam(1.0, 0.0, -1.0), ONE, expfam(1.0, 1.0, -1.0)),
    (expfam(2.0, -0.5, -0.5), power(1.0, 0.5), product(power(1.0, 1.0), expfam(1.0, 0.0, -2.0))),
    (power(1.0, -3.0), expfam(1.0, 0.0, -1.0), power(3.0, 3.0)),
)


def _reflected(g, alpha=0.0):
    """g(1/t) t^alpha."""
    return from_log_callable(lambda t: g.logv(1.0 / t) + alpha * np.log(t),
                             label=f"reflected {g.describe()}")


@pytest.mark.parametrize("triple", range(len(TRIPLES)))
@pytest.mark.parametrize("p", EXPS)
@pytest.mark.parametrize("q", EXPS)
def test_reflection_turns_cesaro_into_copson(triple, p, q):
    u, v, f = TRIPLES[triple]
    ces = space_norm(SpaceSpec("ces", (p, q), (u, v), validate=False), f)
    cop = space_norm(SpaceSpec("cop", (p, q), (_reflected(u, -2.0 / q),
                                               _reflected(v, -2.0 / p)), validate=False),
                     _reflected(f))
    assert 0.0 < ces < math.inf
    assert cop == pytest.approx(ces, rel=1e-12, abs=0.0)


@pytest.mark.xfail(strict=True, reason="the grid's inner tail integral depends on the "
                   "window; closed-form inner integrals (ROADMAP direction 13) mend it")
@pytest.mark.parametrize("S", [10.0, 20.0, 30.0, 40.0])
def test_copson_sup_norm_with_a_growing_weight(S):
    spec = SpaceSpec("cop", (1, "inf"), (expfam(1.0, 0.0, 1.0), ONE), validate=False)
    value = space_norm(spec, expfam(1.0, 0.0, -1.0), QuadratureConfig(S=S))
    assert value == pytest.approx(1.0, rel=1e-6)
