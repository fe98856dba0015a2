import itertools
import math

import pytest

from gevreykit import numerics
from gevreykit.numerics import (
    log_factorial,
    multinomial,
)


def stirling_log_residual(n: int) -> float:
    """ln n! minus the Stirling main term n ln n - n + ln(2 pi n)/2.

    The residual r satisfies 0 < r < 1/(12 n) for every n >= 1.
    """
    main = n * math.log(n) - n + 0.5 * math.log(2.0 * math.pi * n)
    return log_factorial(n) - main


def test_log_factorial_examples():
    assert log_factorial(0) == 0.0
    assert math.isclose(log_factorial(5), math.log(120), rel_tol=1e-14)
    assert math.isclose(log_factorial(10), math.log(3628800), rel_tol=1e-14)


def test_log_factorial_chain_rule_to_1e4():
    # ln((n+1)!) = ln(n!) + ln(n+1) within 1e-12 relative error
    prev = log_factorial(0)
    for n in range(0, 10_000):
        nxt = log_factorial(n + 1)
        expect = prev + math.log(n + 1)
        assert abs(nxt - expect) <= 1e-12 * max(1.0, abs(expect))
        prev = nxt


def _ulps_off(x: float, ref: float) -> float:
    return abs(x - ref) / math.ulp(ref)


def test_log_factorial_is_within_8_ulp_of_the_exact_sum():
    # fsum rounds once, so its sum of the rounded ln k is the reference
    ns = [*range(3001), 70_000, 125_000, 64**3]
    logs = list(map(math.log, range(2, max(ns) + 1)))
    ref = {n: math.fsum(logs[: max(n - 1, 0)]) for n in ns}
    assert all(_ulps_off(log_factorial(n), ref[n]) <= 8 for n in ns)
    # the running sum of ln k, left to right, misses that bound
    sums = itertools.accumulate(map(math.log, range(1, max(ns) + 1)), initial=0.0)
    running = {n: v for n, v in enumerate(sums) if n in ref}
    assert any(_ulps_off(running[n], ref[n]) > 8 for n in ns)


def test_log_factorial_keeps_no_table():
    log_factorial(64**3)
    assert not [
        name for name, value in vars(numerics).items()
        if not name.startswith("__") and isinstance(value, (list, dict, set))
    ]


def test_log_factorial_rejects_a_negative_or_non_integer_n():
    with pytest.raises(ValueError):
        log_factorial(-1)
    for n in (2.0, 2.5, "3"):
        with pytest.raises(TypeError):
            log_factorial(n)


def test_multinomial_examples():
    assert multinomial((1, 1, 1)) == 6
    assert multinomial((7,)) == 1
    assert multinomial((2, 1)) == 3


def test_multinomial_recursion_exact():
    # multinomial(a) = sum_k multinomial(a with a_k - 1) when all a_k >= 1
    cases = [(1, 1, 1), (2, 1), (3, 2, 1), (2, 2, 2), (4, 3)]
    for a in cases:
        total = 0
        for k in range(len(a)):
            b = list(a)
            b[k] -= 1
            total += multinomial(b)
        assert multinomial(a) == total


def test_stirling_residual_examples():
    r1 = stirling_log_residual(1)
    assert math.isclose(r1, 0.08106, abs_tol=1e-5)
    assert 0 < r1 < 1 / 12
    assert 0 < stirling_log_residual(10) < 1 / 120
    assert 0 < stirling_log_residual(100) < 1 / 1200


def test_stirling_residual_bounds_to_1e4():
    # The strict margin 1/(12n) - r ~ 1/(360 n^3) is below float64
    # resolution of ln(n!) for large n, so the bound itself is verified
    # with an extended-precision oracle and the float value against it.
    import mpmath as mp

    mp.mp.dps = 40
    for n in range(1, 10_001):
        r = stirling_log_residual(n)
        main = mp.mpf(n) * mp.log(n) - n + mp.log(2 * mp.pi * n) / 2
        r_mp = mp.loggamma(n + 1) - main
        assert 0 < r_mp < mp.mpf(1) / (12 * n), n
        assert abs(r - float(r_mp)) <= 1e-9, n

