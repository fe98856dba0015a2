import math

import numpy as np
import pytest

from conftest import smooth_bump

from gevreykit.jets import jet_of, jet_partial
from gevreykit.multiindex import mi_of_order
from gevreykit.funcspec import ComposeSpec, ExpSpec, PolySpec
from gevreykit.regularity import (
    DerivativeGrowthData,
    fit_regularity,
    measure_derivative_growth,
    seminorm_log,
    synthetic_growth,
)

NEG_INF = float("-inf")


def gaussian_growth(n_max=24):
    gauss = ComposeSpec(ExpSpec(), PolySpec((0, 0, -1)))
    sups = [0.0] * (n_max + 1)
    for x in np.linspace(-1, 1, 41):
        j = jet_of(gauss, (float(x),), n_max)
        for n in range(n_max + 1):
            sups[n] = max(sups[n], abs(complex(jet_partial(j, (n,)))))
    return DerivativeGrowthData(tuple(math.log(s) for s in sups))


def test_seminorm_examples():
    # constant data: seminorm is the order-0 value
    const = DerivativeGrowthData((0.5,) + (NEG_INF,) * 10)
    assert seminorm_log(const, 1, 2, 1) == 0.5
    # exactly synthesized data has seminorm log 0
    data = synthetic_growth(1, 2, 1, 1, 24)
    assert seminorm_log(data, 1, 2, 1) == pytest.approx(0.0, abs=1e-12)
    # Gaussian data is dominated at (1, 2, 1)
    g = gaussian_growth()
    assert seminorm_log(g, 1, 2, 1) < float("inf")
    assert seminorm_log(g, 1, 2, 1) == pytest.approx(0.0, abs=1e-9)


def test_seminorm_monotone_in_h_and_tau():
    g = gaussian_growth()
    s1 = seminorm_log(g, 1, 2, 1)
    assert seminorm_log(g, 1, 2, 2) <= s1
    assert seminorm_log(g, 2, 2, 1) <= s1


def test_fit_round_trip():
    data = synthetic_growth(1, 2, 1, 1, 24)
    fit = fit_regularity(data, [1.5, 2, 2.5, 3])
    assert fit.sigma_hat == 2.0
    assert abs(fit.tau_hat - 1.0) <= 0.1
    assert fit.admissible and not fit.degenerate
    assert fit.log_h_hat == pytest.approx(0.0, abs=1e-6)
    assert fit.log_A_hat == pytest.approx(0.0, abs=1e-6)


def test_fit_round_trip_other_parameters():
    data = synthetic_growth(0.5, 2.5, 2.0, 3.0, 24)
    fit = fit_regularity(data, [1.5, 2, 2.5, 3])
    assert fit.sigma_hat == 2.5
    assert abs(fit.tau_hat - 0.5) <= 0.05
    assert fit.log_h_hat == pytest.approx(math.log(2.0), abs=1e-6)


def test_fit_gevrey_boundary_data():
    # n!^2 data: smallest grid sigma wins, still admissible
    vals = tuple(2 * math.lgamma(n + 1) for n in range(25))
    fit = fit_regularity(DerivativeGrowthData(vals), [1.5, 2, 2.5, 3])
    assert fit.sigma_hat == 1.5
    assert fit.admissible


def test_fit_degenerate_constant():
    fit = fit_regularity(
        DerivativeGrowthData((0.5,) + (NEG_INF,) * 10), [1.5, 2]
    )
    assert fit.degenerate and fit.admissible
    assert fit.log_A_hat == 0.5


def test_fit_errors():
    with pytest.raises(ValueError):
        fit_regularity(DerivativeGrowthData((0.0, 1.0, NEG_INF, 2.0)), [2])
    with pytest.raises(ValueError):
        fit_regularity(synthetic_growth(1, 2, 1, 1, 24), [0.9])


def test_fit_reports_h_past_float_range_as_its_log():
    # ln h = 1000 on exact data: h overflows a double, ln h does not;
    # tests/test_cli.py covers A_hat through `gevrey fit`
    entries = tuple(1000.0 * n * n for n in range(9))
    fit = fit_regularity(DerivativeGrowthData(entries), [1.5, 2])
    assert fit.sigma_hat == 2.0
    assert fit.log_h_hat == pytest.approx(1000.0, rel=1e-9)


def test_nesting_in_tau():
    # data admissible at (tau1, sigma) stays admissible at tau2 > tau1
    data = synthetic_growth(1, 2, 1, 1, 24)
    for tau2 in (1.5, 2.0, 4.0):
        env_ok = all(
            data.entries[n]
            <= (n**2.0) * 0.0 + tau2 * (n**2.0) * math.log(max(n, 1)) + 1e-9
            for n in range(len(data.entries))
        )
        assert env_ok


def test_measure_derivative_growth_polynomial():
    # cubic sampled on a grid: orders 0..3 nonzero, order 4 drops out
    xs = np.linspace(-1, 1, 201)
    data = measure_derivative_growth(xs**3, spacing=xs[1] - xs[0], n_max=6)
    assert data.n_max >= 3
    assert math.isclose(math.exp(data.entries[3]), 6.0, rel_tol=1e-6)


def test_measure_derivative_growth_2d():
    n = 64
    xs = np.linspace(-1, 1, n)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    vals = X**2 * Y
    data = measure_derivative_growth(vals, spacing=xs[1] - xs[0], n_max=3)
    # sup |d^(2,1)| = 2 appears at order 3
    assert math.isclose(math.exp(data.entries[3]), 2.0, rel_tol=1e-5)


def test_measured_bump_admissible():
    xs = np.linspace(-1, 1, 513)
    bump = smooth_bump(0.8)
    vals = np.where(
        np.abs(xs) < 0.8, [complex(bump.eval(float(x))).real if abs(x) < 0.8 else 0.0 for x in xs], 0.0
    )
    data = measure_derivative_growth(np.array(vals, dtype=float), xs[1] - xs[0], 8)
    assert data.n_max >= 8
    fit = fit_regularity(data, [1.5, 2.0, 2.5, 3.0])
    assert fit.admissible


def _reference_measure_derivative_growth(values, spacing, n_max):
    """The per-alpha difference chains measure_derivative_growth ran before
    it took each difference from its predecessor."""
    arr = np.asarray(values, dtype=float)
    d = arr.ndim
    if isinstance(spacing, (int, float)):
        spacing = (float(spacing),) * d
    scale = float(np.max(np.abs(arr))) if arr.size else 0.0

    def centered(a, axis):
        sl_hi = [slice(None)] * d
        sl_lo = [slice(None)] * d
        sl_hi[axis] = slice(2, None)
        sl_lo[axis] = slice(None, -2)
        return (a[tuple(sl_hi)] - a[tuple(sl_lo)]) / (2.0 * spacing[axis])

    entries = []
    h_min = min(spacing)
    for n in range(n_max + 1):
        sup = 0.0
        ok = True
        for alpha in mi_of_order(d, n):
            a = arr
            for axis, k in enumerate(alpha):
                for _ in range(k):
                    if a.shape[axis] < 3:
                        ok = False
                        break
                    a = centered(a, axis)
                if not ok:
                    break
            if not ok:
                break
            if a.size:
                sup = max(sup, float(np.max(np.abs(a))))
        if not ok:
            break
        noise = scale * 2.2e-16 * (1.0 / h_min) ** n
        if n > 0 and sup < 100.0 * noise:
            break
        entries.append(math.log(sup) if sup > 0 else NEG_INF)
    return tuple(entries)


def _growth_arrays():
    rng = np.random.default_rng(7)
    shapes = [(k,) for k in range(1, 5)] + [(a, b) for a in range(1, 5) for b in range(1, 5)]
    shapes += [(40,), (9, 7), (5, 11)]  # long enough to reach several orders
    yield "empty", np.zeros((0,))
    yield "empty_2d", np.zeros((0, 3))
    for shape in shapes:
        yield "x".join(map(str, shape)), rng.standard_normal(shape)
    xs = np.linspace(-1, 1, 17)
    yield "smooth_2d", np.sin(np.add.outer(xs, 2 * xs[:13]))
    # mixed differences carry the sup: the axis order shows in the bits
    yield "sin_xy", np.sin(3 * np.multiply.outer(xs, xs))


@pytest.mark.parametrize("values", [pytest.param(v, id=name) for name, v in _growth_arrays()])
def test_growth_from_predecessor_differences_is_bit_equal_to_the_per_alpha_chains(values):
    spacing = 0.125 if values.ndim == 1 else (0.125, 0.1)
    got = measure_derivative_growth(values, spacing, 8).entries
    want = _reference_measure_derivative_growth(values, spacing, 8)
    assert np.array(got).tobytes() == np.array(want).tobytes()
    if values.size == 0:
        assert got == (NEG_INF,)
