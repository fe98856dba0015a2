import math

import numpy as np
import pytest

from conftest import smooth_bump

from gevreykit.funcspec import (
    CosSpec,
    MVPolySpec,
    PolySpec,
    SinSpec,
    SumSpec,
)
from gevreykit.jets import jet_of, jet_partial
from gevreykit.parametrix import (
    DiffOperator,
    GridEvaluator,
    bound_audit,
    build_reduction_operators,
    ellipticity_bounds,
    enumerate_words,
    inv_pm_derivative,
    inv_pm_derivative_jet_check,
    neumann_sums,
    parse_operator,
    principal_symbol,
    residual_identity_check,
    transpose,
    word_count_recurrence,
    word_weight,
)
from gevreykit.wavefront import Cone, GridField, make_cutoff

X_GRID = np.linspace(-0.85, 0.85, 256)
XI_SAMPLES = [float(v) for v in np.geomspace(6.0, 64.0, 33)]
PHI = smooth_bump(1.5)


def op_d():
    return DiffOperator(1, 1, {(1,): PolySpec((1,))})


def op_d_plus_x():
    return DiffOperator(1, 1, {(1,): PolySpec((1,)), (0,): PolySpec((0, 1))})


def op_d2():
    return DiffOperator(2, 1, {(2,): PolySpec((1,))})


def op_sin():
    return DiffOperator(
        2, 1, {(2,): PolySpec((1,)), (1,): SinSpec(), (0,): PolySpec((1,))}
    )


def op_variable_principal():
    return DiffOperator(1, 1, {(1,): SumSpec(PolySpec((2,)), SinSpec())})


CATALOG_OPS = [op_d, op_d_plus_x, op_d2, op_sin, op_variable_principal]


def test_principal_symbol_examples():
    assert principal_symbol(op_d2(), 0.0, 3.0) == 9
    wave = DiffOperator(
        2,
        2,
        {
            (2, 0): MVPolySpec.from_dict(2, {(0, 0): 1}),
            (0, 2): MVPolySpec.from_dict(2, {(0, 0): -1}),
        },
    )
    assert principal_symbol(wave, (0.0, 0.0), (1.0, 1.0)) == 0
    p = DiffOperator(2, 1, {(2,): PolySpec((1, 0, 1))})
    assert principal_symbol(p, 1.0, 2.0) == 8


def test_ellipticity_examples():
    lap = DiffOperator(
        2,
        2,
        {
            (2, 0): MVPolySpec.from_dict(2, {(0, 0): 1}),
            (0, 2): MVPolySpec.from_dict(2, {(0, 0): 1}),
        },
    )
    r = ellipticity_bounds(lap, ((-1, 1), (-1, 1)), Cone((1.0, 0.0), math.pi / 8, 1.0), 17)
    assert r.char_hit is None
    assert math.isclose(r.C1, 1.0, rel_tol=1e-12) and math.isclose(r.C2, 1.0, rel_tol=1e-12)

    wave = DiffOperator(
        2,
        2,
        {
            (2, 0): MVPolySpec.from_dict(2, {(0, 0): 1}),
            (0, 2): MVPolySpec.from_dict(2, {(0, 0): -1}),
        },
    )
    r2 = ellipticity_bounds(wave, ((-1, 1), (-1, 1)), Cone((1.0, 0.0), math.pi / 8, 1.0), 17)
    assert r2.char_hit is None
    assert math.isclose(r2.C1, math.cos(math.pi / 4), rel_tol=1e-10)
    assert math.isclose(r2.C2, 1.0, rel_tol=1e-12)

    diag = 1 / math.sqrt(2)
    r3 = ellipticity_bounds(wave, ((-1, 1), (-1, 1)), Cone((diag, diag), math.pi / 8, 1.0), 17)
    assert r3.char_hit is not None


def test_transpose_examples():
    pt = transpose(op_d())
    assert pt.coeffs[(1,)].eval(0.3) == -1
    # multiplication operator is self-transpose
    mult = DiffOperator(0, 1, {(0,): PolySpec((0, 0, 1))})
    ptm = transpose(mult)
    assert ptm.coeffs[(0,)].eval(0.5) == pytest.approx(0.25)
    # P = x D: b1 = -x, b0 = i
    pxd = transpose(DiffOperator(1, 1, {(1,): PolySpec((0, 1))}))
    assert pxd.coeffs[(1,)].eval(2.0) == -2
    assert pxd.coeffs[(0,)].eval(2.0) == 1j


def test_transpose_adjoint_identity_by_quadrature():
    # int (Pu) v = int u (P^T v) with polynomial u, v vanishing at the ends
    P = DiffOperator(
        2, 1, {(2,): PolySpec((1, 0, 1)), (1,): PolySpec((0, 1)), (0,): PolySpec((2,))}
    )
    PT = transpose(P)
    nodes, weights = np.polynomial.legendre.leggauss(40)

    def apply(op, spec):
        out = None
        for a, c in op.coeffs.items():
            term = spec
            for _ in range(a[0]):
                term = term.derivative(0)
            scaled = (-1j) ** a[0]
            vals = np.array([complex(c.eval(float(t))) * scaled * complex(term.eval(float(t))) for t in nodes])
            out = vals if out is None else out + vals
        return out

    # u, v vanish to third order at the interval ends
    u = PolySpec((0, 0, 0, 1, 0, -1))  # x^3 (1 - x^2)
    v = PolySpec((1, 0, -3, 0, 3, 0, -1))  # (1 - x^2)^3
    pu = apply(P, u)
    ptv = apply(PT, v)
    uv = np.array([complex(u.eval(float(t))) for t in nodes])
    vv = np.array([complex(v.eval(float(t))) for t in nodes])
    lhs = np.sum(weights * pu * vv)
    rhs = np.sum(weights * uv * ptv)
    assert abs(lhs - rhs) <= 1e-10


def test_inv_pm_examples_and_jet_check():
    assert inv_pm_derivative(op_d2(), (1,), 0.3, 2.0) == 0
    p = DiffOperator(2, 1, {(2,): PolySpec((1, 0, 1))})
    assert inv_pm_derivative(p, (1,), 1.0, 1.0) == pytest.approx(0.5j)
    worst = 0.0
    for P in (p, op_variable_principal()):
        for n in range(7):
            for x in (0.2, -0.4):
                for xi in (1.0, 3.0):
                    a = inv_pm_derivative(P, (n,), x, xi)
                    b = inv_pm_derivative_jet_check(P, (n,), x, xi)
                    worst = max(worst, abs(a - b) / max(abs(b), 1e-300))
    assert worst <= 1e-10


def test_inv_pm_characteristic_error():
    p = DiffOperator(1, 1, {(1,): PolySpec((0, 1))})  # x D, symbol x xi
    with pytest.raises(ZeroDivisionError):
        inv_pm_derivative(p, (1,), 0.0, 1.0)


def test_reduction_operators_examples():
    # P = D: R_1 = xi^{-1} D exactly
    sys1 = build_reduction_operators(op_d())
    assert len(sys1.operators) == 1
    act = sys1.operators[0].action
    assert set(act.keys()) == {(1,)}
    ((key, scale),) = list(act[(1,)].items())
    factors, gamma, kpow, phi = key
    assert gamma == (0,) and kpow == 1 and phi is None
    assert scale == -1  # times b_1 = -1 gives +1/xi

    # P = D + a(x): c_{0,1} = -a/xi
    sys2 = build_reduction_operators(op_d_plus_x())
    act2 = sys2.operators[0].action
    assert set(act2.keys()) == {(0,), (1,)}

    # P = D^2: homogeneity -1 and -2 cells with the expected operators
    sys3 = build_reduction_operators(op_d2())
    assert [op.j for op in sys3.operators] == [1, 2]
    assert set(sys3.operators[0].action.keys()) == {(1,)}
    assert set(sys3.operators[1].action.keys()) == {(2,)}


def test_reduction_homogeneity_symbolic():
    for make in CATALOG_OPS:
        system = build_reduction_operators(make())
        alg = system.algebra
        for op in system.operators:
            for coeff in op.action.values():
                for key in coeff:
                    assert alg.degree(key) == -op.j


def test_word_enumeration_and_counts():
    for m in (1, 2, 3):
        for N in (m, 6, 12):
            words = enumerate_words(m, N - m)
            expected = sum(word_count_recurrence(m, v) for v in range(N - m + 1))
            assert len(words) == expected
            assert len(set(words)) == len(words)
            assert all(word_weight(w) <= N - m for w in words)
    # m = 2 counts are Fibonacci-type
    assert [word_count_recurrence(2, v) for v in range(7)] == [1, 1, 2, 3, 5, 8, 13]


def test_neumann_k_sets_and_word_windows():
    system = build_reduction_operators(op_d2())
    sums = neumann_sums(system, PHI, N=7, x_grid=X_GRID[:64], xi_samples=[8.0])
    assert sums.K1 == [0, 1, 2]
    assert sums.K2 == [3]
    assert all(word_weight(w) <= 5 for w in sums.w_words)
    for w in sums.e_words:
        assert 5 < word_weight(w) <= 7
        assert word_weight(w[1:]) <= 5


def test_neumann_constant_coefficient_closed_form():
    # P = D: w_N = sum_k xi^{-k} D^k phi exactly
    system = build_reduction_operators(op_d())
    xis = [4.0, 16.0]
    N = 6
    sums = neumann_sums(system, PHI, N=N, x_grid=X_GRID, xi_samples=xis)
    tables = {
        n: np.array(
            [complex(jet_partial(jet_of(PHI, (float(p),), N), (n,))) for p in X_GRID]
        )
        for n in range(N)
    }
    for i, xi in enumerate(xis):
        closed = sum((1.0 / xi) ** k * (-1j) ** k * tables[k] for k in range(N))
        assert np.max(np.abs(closed - sums.w_values[i])) <= 1e-12


def test_residual_identity_catalog():
    for make in CATALOG_OPS:
        P = make()
        system = build_reduction_operators(P)
        for N in (P.order, min(2 * P.order + 3, 8)):
            sums = neumann_sums(
                system, PHI, N=N, x_grid=X_GRID, xi_samples=XI_SAMPLES[::8]
            )
            res = residual_identity_check(sums).to_real()
            assert res <= 1e-8, (P, N, res)


def test_residual_identity_single_term_case():
    # N = m: w_N = phi and the identity reads phi - R phi = phi - e_N
    P = op_d2()
    system = build_reduction_operators(P)
    sums = neumann_sums(system, PHI, N=2, x_grid=X_GRID[:64], xi_samples=[8.0])
    assert sums.w_words == [()]
    assert residual_identity_check(sums).to_real() <= 1e-10


def test_neumann_with_sampled_cutoff():
    # FD-backed phi: the identity cancellation is still algebraic
    grid = GridField(1, (256,), (-1.0,), (2.0 / 256,), np.zeros(256))
    phi = make_cutoff((0.0,), 0.15, 0.4, grid)
    system = build_reduction_operators(op_sin())
    sums = neumann_sums(system, phi, N=5, xi_samples=[8.0, 32.0])
    assert residual_identity_check(sums).to_real() <= 1e-8


def test_budgets_enforced():
    with pytest.raises(ValueError):
        DiffOperator(4, 1, {(4,): PolySpec((1,))})
    system = build_reduction_operators(op_d())
    with pytest.raises(ValueError):
        neumann_sums(system, PHI, N=13, x_grid=X_GRID, xi_samples=[8.0])
    with pytest.raises(ValueError):
        neumann_sums(system, PHI, N=0, x_grid=X_GRID, xi_samples=[8.0])
    with pytest.raises(ValueError):
        neumann_sums(system, PHI, N=4, x_grid=np.linspace(-0.5, 0.5, 2000), xi_samples=[8.0])


def test_characteristic_xi_rejected():
    # x D vanishes at x = 0; a grid containing the characteristic point
    # is rejected at evaluation time
    p = DiffOperator(1, 1, {(1,): PolySpec((0, 1))})
    system = build_reduction_operators(p)
    with pytest.raises(ValueError):
        neumann_sums(
            system, PHI, N=3, x_grid=np.linspace(-0.5, 0.5, 65), xi_samples=[8.0]
        )
    # a zero xi sample is characteristic for any operator
    q = op_variable_principal()
    system_q = build_reduction_operators(q)
    with pytest.raises(ValueError):
        neumann_sums(system_q, PHI, N=3, x_grid=X_GRID, xi_samples=[0.0])


def test_bound_audit_sin_operator():
    system = build_reduction_operators(op_sin())
    sums = neumann_sums(system, PHI, N=8, x_grid=X_GRID, xi_samples=XI_SAMPLES[::4])
    rep = bound_audit(sums, beta_max=4, tau=1.0, sigma=2.0)
    assert rep.ok()
    assert rep.coefficient_violations == 0
    assert rep.word_violations == 0
    assert rep.homogeneity_max_error <= 1e-12
    assert rep.leibniz_violations == 0
    assert rep.leibniz_terms_checked > 0
    # constant-coefficient top part: c_{2,2} has A = h = 1
    A, h = rep.coefficient_fits[(2, (2,))]
    assert math.isclose(A, 1.0) and math.isclose(h, 1.0)
    assert all(A > 0 and h > 0 for A, h in rep.coefficient_fits.values())


def test_bound_audit_homogeneity_scaling():
    system = build_reduction_operators(op_variable_principal())
    sums = neumann_sums(system, PHI, N=4, x_grid=X_GRID[:64], xi_samples=[4.0])
    rep = bound_audit(sums, beta_max=2, tau=1.0, sigma=2.0)
    assert rep.homogeneity_max_error <= 1e-12


def test_eval_sum_rows_match_single_xi_calls():
    P = DiffOperator(2, 1, {(2,): SumSpec(PolySpec((3,)), SinSpec()), (0,): PolySpec((1,))})
    system = build_reduction_operators(P)
    alg = system.algebra
    ev = GridEvaluator(alg, X_GRID[::16], k_max=6)
    xis = [(v,) for v in XI_SAMPLES[::8]] + [(-5.0,)]
    # a reduction-operator coefficient carrying P_m^-k
    coeff = system.operators[1].action[(0,)]
    assert any(kpow for _, _, kpow, _ in coeff)
    batched = ev.eval_sum(coeff, xis)
    assert batched.shape == (len(xis), len(ev.points))
    for i, xi in enumerate(xis):
        assert np.array_equal(batched[i], ev.eval_sum(coeff, [xi])[0])
    # a(x) xi^2 P_m^-1 against the scalar principal-symbol route
    sid = alg.register(CosSpec())
    term = {(((sid, (0,)),), (2,), 1, None): 1.0 + 0.0j}
    vals = ev.eval_sum(term, xis)
    for i, xi in enumerate(xis):
        for j in (0, 5, len(ev.points) - 1):
            x = float(ev.points[j, 0])
            want = math.cos(x) * xi[0] ** 2 / principal_symbol(P, x, xi)
            assert abs(vals[i, j] - want) <= 1e-14 * abs(want)


def test_neumann_and_bound_audit_in_two_dimensions():
    one = MVPolySpec.from_dict(2, {(0, 0): 1})
    P = DiffOperator(2, 2, {
        (2, 0): one,
        (0, 2): one,
        (1, 0): MVPolySpec.from_dict(2, {(0, 0): 1, (1, 1): 1}),
        (0, 0): MVPolySpec.from_dict(2, {(0, 0): 2}),
    })
    phi = MVPolySpec.from_dict(2, {(0, 0): 1, (2, 0): -1, (0, 2): -1})
    axis = np.linspace(-0.4, 0.4, 9)
    mesh = np.meshgrid(axis, axis, indexing="ij")
    grid = np.column_stack([m.reshape(-1) for m in mesh])
    system = build_reduction_operators(P)
    sums = neumann_sums(system, phi, N=5, x_grid=grid, xi_samples=[(6.0, 2.0), (3.0, 9.0)])
    assert sums.w_values.shape == (2, 81)
    assert residual_identity_check(sums).to_real() <= 1e-8
    assert bound_audit(sums, beta_max=2, tau=1.0, sigma=2.0).ok()


def test_parse_operator_grammar():
    P = parse_operator("poly:1*D^2 + sin*D + poly:1")
    assert P.order == 2
    assert principal_symbol(P, 0.0, 2.0) == 4
    P2 = parse_operator("D")
    assert P2.order == 1


def test_theorem_propagation_smoke():
    """End-to-end smoke: u = |x| solves x u'' = 0 with smooth right side.

    The scan must flag u's singular directions at the kink point only
    inside characteristic-compatible directions (at x = 0 the principal
    symbol x xi^2 vanishes for every xi, so every direction is
    compatible), stay quiet away from the kink, and produce an empty
    singular set for the right side f = 0.  Both index choices of the
    propagation statement (tau, sigma) and (2^{sigma-1} tau, sigma) are
    recorded.
    """
    from gevreykit.wavefront import catalog_field, wf_scan, ScanParams

    P = DiffOperator(2, 1, {(2,): PolySpec((0, 1))})  # x D^2
    u = catalog_field("kink")

    # discrete ODE residual: x * u'' = 0 on the grid (0 lies on a node)
    x = u.axis_coords(0)
    h = u.spacing[0]
    upp = (u.samples[2:] - 2 * u.samples[1:-1] + u.samples[:-2]) / h**2
    assert np.max(np.abs(x[1:-1] * upp)) <= 1e-9

    # characteristic set: at the kink every direction is characteristic
    for xi in (1.0, -3.0):
        assert principal_symbol(P, 0.0, xi) == 0

    tau, sigma = 1.0, 2.0
    params = ScanParams(r_plateau=0.15, r_support=0.35, xi_min=2.5, N_max=40)
    report = {}
    for label, t in (("tau", tau), ("enumerated", 2.0 ** (sigma - 1.0) * tau)):
        verdicts = wf_scan(u, [(0.0,), (0.6,)], 2, t, sigma, params)
        singular = [
            (v.point, v.direction) for v in verdicts if not v.regular
        ]
        report[label] = singular
        # singular only at the kink, and only where Char(P) allows
        for pt, d in singular:
            assert pt == (0.0,)
            assert abs(principal_symbol(P, pt[0], d[0])) == 0
    # the kink is detected at the base index choice
    assert len(report["tau"]) == 2
    # right side f = 0: empty singular set everywhere
    f0 = u.like(np.zeros_like(u.samples))
    fv = wf_scan(f0, [(0.0,), (0.6,)], 2, tau, sigma, params)
    assert all(v.regular for v in fv)
