"""Compositional verify plus check must grow polynomially in the scale
t: it works on one gadget of q+2 = O(t) vertices and O(t^2) edges,
never on the q^r copies.  Each row is timed with the template cache
cleared, so the gadget is laid out afresh, and the fitted log-log
exponent must stay below 2.5: on 2 vCPU and Python 3.11 it is about
1.6 for every case over t = 8..32."""

import json
import math
import time

import pytest

from unchoosable import (
    check_certificate,
    gadget_template,
    params_for,
    verify_construction,
)

SCALES = (8, 16, 32)
RUNS = 5


def _verify_and_check(case: str, t: int) -> float:
    """The fastest of RUNS compositional verifies plus checks of row
    (case, t), each starting from an empty template cache."""
    params = params_for(case, t)
    best = math.inf
    for _ in range(RUNS):
        gadget_template.cache_clear()
        t0 = time.perf_counter()
        bundle = verify_construction(params, mode="compositional")
        res = check_certificate(json.loads(json.dumps(bundle)))
        best = min(best, time.perf_counter() - t0)
        assert res.ok, (case, t, res.reason)
    return best


def _slope(xs, ys) -> float:
    """Least-squares slope of ys on xs."""
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum(
        (x - mx) ** 2 for x in xs
    )


@pytest.mark.parametrize("case", "abc")
def test_compositional_verify_and_check_is_polynomial_in_t(case):
    times = [_verify_and_check(case, t) for t in SCALES]
    exponent = _slope([math.log(t) for t in SCALES], [math.log(s) for s in times])
    assert exponent < 2.5, (case, dict(zip(SCALES, times)), exponent)
