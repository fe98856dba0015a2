import cmath
import importlib.util
import math
import os
import pkgutil
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import smooth_bump

import gevreykit
from gevreykit.funcspec import (
    ComposeSpec,
    CosSpec,
    ExpSpec,
    MVPolySpec,
    PolySpec,
    ProdSpec,
    RecipPowSpec,
    SinSpec,
    SumSpec,
)
from gevreykit.jets import Jet, jet_add, jet_compose, jet_of, jet_partial
from gevreykit.multiindex import enumerate_decompositions, mi_add, mi_factorial, mi_of_order
from gevreykit.parametrix import (
    JET_ORDER,
    LEIBNIZ_WORDS,
    MAX_AUDIT_ORDER,
    MAX_ORDER_M,
    MAX_TRUNCATION_N,
    DiffOperator,
    GridEvaluator,
    SymbolAlgebra,
    _apply_reduction,
    _axis_degrees,
    _merge,
    bound_audit,
    build_reduction_operators,
    ellipticity_bounds,
    enumerate_words,
    inv_pm_derivative,
    inv_pm_derivative_jet_check,
    neumann_sums,
    parse_operator,
    principal_spec,
    principal_symbol,
    residual_identity_check,
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


def op_d3():
    return DiffOperator(3, 1, {(3,): PolySpec((1,))})


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


def _conjugated_transpose_by_jets(P, w, x, xi):
    """e^{ix.xi} sum_alpha (-1)^{|alpha|} (-i)^{|alpha|} d^alpha(a_alpha w
    (1/P_m) e^{-ix.xi}) at x, read off the jet of each product: the
    definition of I - R, with no symbol ring."""
    d = P.dim
    phase = MVPolySpec.from_dict(d, {tuple(int(i == t) for i in range(d)): -1j * xi[t]
                                     for t in range(d)})
    tail = ProdSpec(w, ProdSpec(ComposeSpec(RecipPowSpec(1), principal_spec(P, xi)),
                                ComposeSpec(ExpSpec(), phase)))
    total = 0.0
    for alpha, a in P.coeffs.items():
        n = sum(alpha)
        d_alpha = complex(jet_partial(jet_of(ProdSpec(a, tail), x, n), alpha))
        total += (-1) ** n * (-1j) ** n * d_alpha
    return cmath.exp(1j * sum(u * v for u, v in zip(x, xi))) * total


# the catalog operators, m = 1..3 and variable principal parts among them,
# and a 2-D operator with a mixed and a lower-order term: (operator, w)
_DEFINITION_CASES = {
    **{make.__name__: (make(), ComposeSpec(SinSpec(), PolySpec((0.3, 1.2, -0.5))))
       for make in CATALOG_OPS + [op_d3]},
    "m3_readme": (parse_operator("D^3 + compose(sin,poly:1/2,1)*D^2 + exp*D + poly:2"),
                  SumSpec(ExpSpec(), PolySpec((0, 1, 0, -2)))),
    "2d_mixed": (
        DiffOperator(2, 2, {
            (2, 0): MVPolySpec.from_dict(2, {(0, 0): 2, (1, 0): 1}),
            (0, 2): ComposeSpec(ExpSpec(), MVPolySpec.from_dict(2, {(0, 1): 1})),
            (1, 1): MVPolySpec.from_dict(2, {(0, 0): 1}),
            (0, 1): ComposeSpec(SinSpec(), MVPolySpec.from_dict(2, {(1, 0): 1})),
            (0, 0): MVPolySpec.from_dict(2, {(1, 1): 3}),
        }),
        ComposeSpec(CosSpec(), MVPolySpec.from_dict(2, {(0, 0): 0.2, (1, 0): 1, (1, 1): -0.7})),
    ),
}


@pytest.mark.parametrize("name", sorted(_DEFINITION_CASES))
def test_reduction_operators_match_the_conjugated_transpose_by_jets(name):
    # w - sum_{j, gamma} c_{gamma,j} D^gamma w against the definition
    P, w = _DEFINITION_CASES[name]
    system = build_reduction_operators(P)
    if P.dim == 1:
        xs, xis = [(0.15,), (-0.4,)], [(3.0,), (-7.5,)]
    else:
        xs, xis = [(0.15, -0.3), (-0.4, 0.25)], [(3.0, 1.0), (-2.0, 7.5)]
    ev = GridEvaluator(system.algebra, np.array(xs))
    cells = [
        (gamma, ev.eval_sum(c, xis)) for op in system.operators for gamma, c in op.action.items()
    ]
    for i, x in enumerate(xs):
        w_jet = jet_of(w, x, P.order)
        for k, xi in enumerate(xis):
            reduced = complex(w_jet.value) - sum(
                vals[k, i] * (-1j) ** sum(gamma) * complex(jet_partial(w_jet, gamma))
                for gamma, vals in cells
            )
            want = _conjugated_transpose_by_jets(P, w, x, xi)
            assert abs(reduced - want) <= 1e-12 * abs(want), (x, xi)


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
    assert factors == ((sys1.algebra.principal_ids[(1,)], (0,)),)
    assert scale == 1  # times a_1 = 1 gives +1/xi

    # P = D + a(x): c_{0,1} = -a/xi
    sys2 = build_reduction_operators(op_d_plus_x())
    act2 = sys2.operators[0].action
    assert set(act2.keys()) == {(0,), (1,)}

    # P = D^2: homogeneity -1 and -2 cells with the expected operators
    sys3 = build_reduction_operators(op_d2())
    assert [op.j for op in sys3.operators] == [1, 2]
    assert set(sys3.operators[0].action.keys()) == {(1,)}
    assert set(sys3.operators[1].action.keys()) == {(2,)}


@pytest.mark.parametrize("text", ["poly:0*D^2 + D", "prod(poly:0,sin)*D^2 + D + poly:1"])
def test_a_structurally_zero_principal_part_is_rejected(text):
    with pytest.raises(ValueError, match="no coefficient at the stated order"):
        parse_operator(text)


def test_a_structurally_zero_lower_order_coefficient_adds_no_term():
    with_zero = build_reduction_operators(parse_operator("D^2 + poly:0*D + poly:1"))
    without = build_reduction_operators(parse_operator("D^2 + poly:1"))
    assert [(op.j, op.action) for op in with_zero.operators] == [
        (op.j, op.action) for op in without.operators
    ]


def test_a_structurally_zero_principal_coefficient_is_no_term():
    # beside a non-zero one: P holds one principal term, and so does P_m
    P = DiffOperator(2, 2, {
        (2, 0): MVPolySpec.from_dict(2, {(0, 0): 0}),
        (0, 2): MVPolySpec.from_dict(2, {(1, 0): 1, (0, 0): 2}),
        (1, 0): MVPolySpec.from_dict(2, {(0, 1): 0}),
        (0, 0): MVPolySpec.from_dict(2, {(1, 1): 1}),
    })
    assert list(P.coeffs) == [(0, 2), (0, 0)]
    algebra = build_reduction_operators(P).algebra
    assert len(algebra.principal_sum()) == 1
    assert [id(spec) for spec in algebra.registry] == [id(c) for c in P.coeffs.values()]


@pytest.mark.parametrize("order,coeffs,index", [
    (1, {(-1,): PolySpec((0, 1)), (1,): PolySpec((1,))}, "(-1,)"),
    (2, {(3,): PolySpec((1,)), (2,): PolySpec((1,))}, "(3,)"),
])
def test_an_index_negative_or_above_the_order_is_rejected(order, coeffs, index):
    with pytest.raises(ValueError) as exc:
        DiffOperator(order, 1, coeffs)
    assert index in str(exc.value) and "\n" not in str(exc.value)


def test_the_degree_0_cell_is_checked_by_its_terms(monkeypatch):
    # a principal coefficient registered afresh by the build makes the
    # degree-0 cell equal to 1 at every point, but not the term P_m / P_m
    def register_afresh(self, spec):
        self.registry.append(spec)
        self.registry_degrees.append(_axis_degrees(spec, self.dim))
        return len(self.registry) - 1

    monkeypatch.setattr(SymbolAlgebra, "register", register_afresh)
    with pytest.raises(AssertionError, match="degree-0"):
        build_reduction_operators(parse_operator("D^2 + sin*D + poly:1"))


def test_registry_holds_p_coefficients_with_exact_jets():
    # a polynomial operator's reduction coefficients read only its own
    # coefficients, whose jets at a rational point are exact
    P = parse_operator("poly:1/2,0,1*D^2 + poly:0,1*D + poly:1/3")
    registry = build_reduction_operators(P).algebra.registry
    assert [id(spec) for spec in registry] == [id(c) for c in P.coeffs.values()]
    for spec in registry:
        jet = jet_of(spec, (Fraction(1, 3),), 6)
        assert all(type(v) in (int, Fraction) for v in jet.coeffs.values()), spec


_EXACT_IDENTITY_CASES = {
    "readme_N8": ("D^2 + sin*D + poly:1", 8),
    "readme_N12": ("D^2 + sin*D + poly:1", 12),
    "m3_readme_N10": ("D^3 + compose(sin,poly:1/2,1)*D^2 + exp*D + poly:2", 10),
    "sum_principal_N10": ("sum(poly:2,sin)*D", 10),
    "2d_mixed_N4": (_DEFINITION_CASES["2d_mixed"][0], 4),
}


@pytest.mark.parametrize("name", sorted(_EXACT_IDENTITY_CASES))
def test_neumann_identity_holds_exactly_in_the_ring(name):
    # w_N - R w_N + e_N merges to phi's unit term and nothing else: every
    # scale is a Gaussian integer, so the telescoping cancels exactly
    op, N = _EXACT_IDENTITY_CASES[name]
    P = parse_operator(op) if isinstance(op, str) else op
    system = build_reduction_operators(P)
    if P.dim == 1:
        phi, grid, xis = PHI, X_GRID[::64], [8.0]
    else:
        phi = MVPolySpec.from_dict(2, {(0, 0): 1, (2, 0): -1, (0, 2): -1})
        grid, xis = np.array([(0.1, -0.2), (0.3, 0.25)]), [(6.0, 2.0)]
    sums = neumann_sums(system, phi, N=N, x_grid=grid, xi_samples=xis)
    m = P.order

    def apply(S, j):
        return _apply_reduction(system, system.operators[j - 1], S)

    e_sum = _merge(apply(_merge(sums.layers[max(0, N - m - j + 1):]), j) for j in range(1, m + 1))
    r_of_w = _merge(apply(sums.w_sum, j) for j in range(1, m + 1))
    zero = system.algebra.zero_mi()
    total = _merge([sums.w_sum, {k: -v for k, v in r_of_w.items()}, e_sum])
    assert total == {((), zero, 0, zero): 1 + 0j}


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
            res = residual_identity_check(sums)
            assert res <= 1e-8, (P, N, res)


def test_residual_identity_single_term_case():
    # N = m: w_N = phi and the identity reads phi - R phi = phi - e_N
    P = op_d2()
    system = build_reduction_operators(P)
    sums = neumann_sums(system, PHI, N=2, x_grid=X_GRID[:64], xi_samples=[8.0])
    assert sums.w_words == [()]
    assert residual_identity_check(sums) <= 1e-10


def test_neumann_with_sampled_cutoff():
    # FD-backed phi: the identity cancellation is still algebraic
    grid = GridField(1, (256,), (-1.0,), (2.0 / 256,), np.zeros(256))
    phi = make_cutoff((0.0,), 0.15, 0.4, grid)
    system = build_reduction_operators(op_sin())
    sums = neumann_sums(system, phi, N=5, xi_samples=[8.0, 32.0])
    assert residual_identity_check(sums) <= 1e-8


@pytest.mark.parametrize("c0", [0.5, 2.0])
def test_sampled_cutoff_residual_at_benchmark_configuration(c0):
    # grouped, merged evaluation keeps the FD-backed residual (finite
    # differences of the cutoff reach ~1e11) inside the identity tolerance
    grid = GridField(1, (256,), (-1.0,), (2.0 / 256,), np.zeros(256))
    phi = make_cutoff((0.0,), 0.15, 0.4, grid)
    system = build_reduction_operators(parse_operator(f"D^2 + sin*D + poly:{c0}"))
    xis = [float(v) for v in np.geomspace(6.0, 96.0, 33)]
    sums = neumann_sums(system, phi, N=7, xi_samples=xis)
    assert residual_identity_check(sums) <= 1e-8


def _per_word_sums(system, N):
    """Reference: one memoised state per operator word, each word acting
    right to left on its suffix's state, merged over the w- and e-words."""
    m = system.algebra.m
    zero = system.algebra.zero_mi()
    states = {(): {((), zero, 0, zero): 1.0 + 0.0j}}

    def state(word):
        if word not in states:
            op = system.operators[word[0] - 1]
            states[word] = _apply_reduction(system, op, state(word[1:]))
        return states[word]

    w_words = enumerate_words(m, N - m)
    e_words = sorted(
        {(j,) + w for w in w_words for j in range(1, m + 1) if word_weight(w) + j > N - m},
        key=lambda w: (len(w), w),
    )
    return _merge(map(state, w_words)), _merge(map(state, e_words)), e_words, state


@pytest.mark.parametrize("make", CATALOG_OPS + [op_d3], ids=lambda f: f.__name__)
def test_weight_layers_match_the_per_word_states(make):
    # criterion 8's operators, N = m included (the e-window starts at 0 there)
    system = build_reduction_operators(make())
    for N in range(system.algebra.m, 11):
        sums = neumann_sums(system, PHI, N=N, x_grid=X_GRID[::8], xi_samples=XI_SAMPLES[::8])
        ref_w, ref_e, e_words, state = _per_word_sums(system, N)
        assert set(_merge(sums.layers)) == set(ref_w), N
        assert sums.w_sum == _merge(sums.layers), N  # what the residual check reads
        assert sums.e_words == e_words, N
        ev, xis = sums.evaluator, sums.xi_samples
        for got, ref in ((sums.w_values, ref_w), (sums.e_values, ref_e)):
            want = ev.eval_sum(ref, xis)
            scale = np.max(np.abs(want), axis=1, keepdims=True)
            assert np.all(np.abs(got - want) <= 1e-12 * scale), N
        assert sums.word_states == {w: state(w) for w in e_words[:LEIBNIZ_WORDS]}, N


@pytest.fixture(scope="module")
def sin_sums():
    system = build_reduction_operators(op_sin())
    return neumann_sums(system, PHI, N=6, x_grid=X_GRID[::8], xi_samples=XI_SAMPLES[::8])


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_eval_sum_is_linear_over_merged_word_states(sin_sums, data):
    weights = range(len(sin_sums.layers))
    A, B = (
        _merge(sin_sums.layers[v] for v in data.draw(st.sets(st.sampled_from(weights))))
        for _ in range(2)
    )
    ev, xis = sin_sums.evaluator, sin_sums.xi_samples
    eval_a, eval_b = ev.eval_sum(A, xis), ev.eval_sum(B, xis)
    merged = ev.eval_sum(_merge([A, B]), xis)
    scale = np.max(np.abs(eval_a)) + np.max(np.abs(eval_b))
    assert np.max(np.abs(merged - (eval_a + eval_b))) <= 1e-12 * scale


def _benchmark_spans():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks", "spans.py")
    spec = importlib.util.spec_from_file_location("benchmark_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_benchmark_span_hook_reads_a_real_result(sin_sums):
    # the traced benchmark counts words and word-state terms off each
    # NeumannSums; a renamed or retyped field must fail here, not there
    attrs = _benchmark_spans()._neumann_attrs((), {}, sin_sums)
    assert set(attrs) == {"words_w", "words_e", "word_state_terms"}
    assert all(type(v) is int and v > 0 for v in attrs.values())


def _target(modname: str, qual: str):
    owner = importlib.import_module(f"gevreykit.{modname}")
    *path, attr = qual.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner.__dict__[attr]


def test_benchmark_targets_all_resolve_and_unwrap():
    # the traced benchmark wraps every TARGETS name; a renamed function
    # must fail here, not as a KeyError inside the traced run
    spans = _benchmark_spans()
    names = [f"gevreykit.{m.name}" for m in pkgutil.iter_modules(gevreykit.__path__)]
    modules = [gevreykit, *map(importlib.import_module, names)]
    before = {m: dict(vars(m)) for m in modules}
    originals = {(mod, qual): _target(mod, qual) for mod, qual, _ in spans.TARGETS}
    undo = spans.install(spans.SpanRecorder())
    try:
        for (mod, qual), orig in originals.items():
            traced = _target(mod, qual)
            assert getattr(traced, "__wrapped__", None) is orig, f"{mod}.{qual} was never bound"
    finally:
        spans.uninstall(undo)
    for (mod, qual), orig in originals.items():
        assert _target(mod, qual) is orig, f"{mod}.{qual} was not restored"
    for m, names in before.items():
        assert all(vars(m)[k] is v for k, v in names.items()), m.__name__


def test_leibniz_audit_catches_a_mistracked_phi_order(sin_sums, monkeypatch):
    clean = bound_audit(sin_sums, beta_max=2, tau=1.0, sigma=2.0)
    assert clean.leibniz_terms_checked > 0 and clean.leibniz_violations == 0
    partial = SymbolAlgebra.partial

    def shifted(self, S, axis):
        # d/dx_axis that differentiates phi twice
        e = tuple(int(i == axis) for i in range(self.dim))
        return {
            (f, g, k, p if p is None else mi_add(p, e)): v
            for (f, g, k, p), v in partial(self, S, axis).items()
        }

    monkeypatch.setattr(SymbolAlgebra, "partial", shifted)
    faulty = bound_audit(sin_sums, beta_max=2, tau=1.0, sigma=2.0)
    assert faulty.leibniz_violations > 0 and not faulty.ok()


def test_homogeneity_audit_catches_a_wrong_degree_term(sin_sums, monkeypatch):
    clean = bound_audit(sin_sums, beta_max=2, tau=1.0, sigma=2.0)
    assert clean.homogeneity_max_error <= 1e-12 and clean.ok()
    op = sin_sums.system.operators[0]
    a_prime, coeff = next(iter(op.action.items()))
    # a constant term has xi-degree 0, not -j
    zero = sin_sums.system.algebra.zero_mi()
    faulty_coeff = _merge([coeff, {((), zero, 0, None): 1e-3 + 0.0j}])
    monkeypatch.setitem(op.action, a_prime, faulty_coeff)
    faulty = bound_audit(sin_sums, beta_max=2, tau=1.0, sigma=2.0)
    assert faulty.homogeneity_max_error > 1e-12 and not faulty.ok()


def _per_point_rows(spec, points, beta, K):
    return np.array([complex(jet_partial(jet_of(spec, tuple(p), K), beta)) for p in points])


def _assert_float_grid_jet(spec, points, K):
    # Fraction * ndarray would give an object array, which numpy's
    # exp/sin/cos reject
    jet = jet_of(spec, tuple(points.T), K)
    assert all(np.asarray(v).dtype != object for v in jet.coeffs.values())


@pytest.mark.parametrize(
    "spec",
    [
        PolySpec((1, -2, 0.5, 3)),
        ExpSpec(),
        SinSpec(),
        CosSpec(),
        ComposeSpec(RecipPowSpec(2), PolySpec((1.5, 0.3, 1))),
        PHI,
        SumSpec(SinSpec(), PolySpec((0, 0, -1))),
        ProdSpec(CosSpec(), ExpSpec()),
        ComposeSpec(SinSpec(), ComposeSpec(ExpSpec(), PolySpec((0, 2)))),
        ComposeSpec(SinSpec(), PolySpec((Fraction(1, 2), 1))),
        ComposeSpec(ExpSpec(), PolySpec((Fraction(1, 3), Fraction(-2, 7), 1))),
    ],
    ids=[
        "poly", "exp", "sin", "cos", "recip", "bump", "sum", "prod", "nested",
        "sin_fraction_poly", "exp_fraction_poly",
    ],
)
def test_grid_jets_match_per_point_jets(spec):
    # the grid holds 0.0 exactly, where the per-point jets of exp, sin and
    # cos take their exact branch
    points = np.linspace(-0.8, 0.8, 17)[:, None]
    assert 0.0 in points
    K = 8
    _assert_float_grid_jet(spec, points, K)
    ev = GridEvaluator(SymbolAlgebra(op_d()), points)
    sid = ev.algebra.register(spec)
    for n in range(K + 1):
        want = _per_point_rows(spec, points, (n,), K)
        got = ev.deriv(sid, (n,))
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), n


def test_grid_jets_match_per_point_jets_in_two_dimensions():
    poly = MVPolySpec.from_dict(2, {(0, 0): 1, (2, 1): 0.5, (0, 3): -1, (1, 0): 2})
    one = MVPolySpec.from_dict(2, {(0, 0): 1})
    # Fraction coefficients, and constant inner specs whose outer jets are
    # exact at a scalar base, must still give float grid jets
    frac = MVPolySpec.from_dict(2, {(0, 0): Fraction(1, 3), (1, 2): Fraction(-5, 7)})
    zero = MVPolySpec.from_dict(2, {})
    const_recip = ComposeSpec(RecipPowSpec(1), MVPolySpec.from_dict(2, {(0, 0): 3}))
    specs = (
        poly,
        one,
        ComposeSpec(SinSpec(), poly),
        ComposeSpec(SinSpec(), frac),
        ComposeSpec(ExpSpec(), ProdSpec(ComposeSpec(CosSpec(), zero), poly)),
        ComposeSpec(CosSpec(), SumSpec(const_recip, poly)),
    )
    axis = np.linspace(-0.5, 0.5, 5)
    points = np.column_stack([m.reshape(-1) for m in np.meshgrid(axis, axis, indexing="ij")])
    K = 5
    ev = GridEvaluator(SymbolAlgebra(DiffOperator(1, 2, {(1, 0): one})), points)
    for spec in specs:
        _assert_float_grid_jet(spec, points, K)
        sid = ev.algebra.register(spec)
        for n in range(K + 1):
            for beta in mi_of_order(2, n):
                want = _per_point_rows(spec, points, beta, K)
                got = ev.deriv(sid, beta)
                assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), beta


def test_evaluator_rows_stop_at_the_jet_order():
    # every jet is built once at JET_ORDER, the deepest order the budgets allow
    assert JET_ORDER == max(MAX_TRUNCATION_N, MAX_ORDER_M + MAX_AUDIT_ORDER) == 12
    ev = GridEvaluator(SymbolAlgebra(op_d()), np.linspace(-1.0, 1.0, 9))
    sid = ev.algebra.register(SinSpec())
    assert np.allclose(ev.deriv(sid, (JET_ORDER,)), np.sin(ev.points[:, 0]))
    with pytest.raises(ValueError, match="exceeds truncation order 12"):
        ev.deriv(sid, (JET_ORDER + 1,))


def test_grid_jets_reject_poles_and_base_mismatch():
    ev = GridEvaluator(SymbolAlgebra(op_d()), np.linspace(-1.0, 1.0, 9))
    sid = ev.algebra.register(ComposeSpec(ExpSpec(), RecipPowSpec(1)))
    with pytest.raises(ZeroDivisionError):
        ev.deriv(sid, (1,))
    g = jet_of(SinSpec(), (np.array([0.1, 0.2]),), 3)
    f = jet_of(ExpSpec(), (np.array([np.sin(0.1), 0.5]),), 3)
    with pytest.raises(ValueError):
        jet_compose(f, g)


def _d_op_chain(alg, S, alpha):
    """Reference D^alpha S: one chain of `partial`s from S, axis 0 first."""
    out = S
    for axis, k in enumerate(alpha):
        for _ in range(k):
            out = alg.partial(out, axis)
    scale = (-1j) ** sum(alpha)
    if scale != 1:
        out = {k: v * scale for k, v in out.items()}
    return out


def _algebra_with_specs(P, extra):
    alg = SymbolAlgebra(P)
    for spec in extra:
        alg.register(spec)
    return alg


# x-dependent principal parts, so that d(P_m^-k) adds factors, a constant
# one, whose d(P_m^-k) vanishes, and polynomial specs, whose high
# derivatives are pruned: (operator, specs registered after the principal
# coefficients)
_RING_SETUPS = {
    "1d": (
        DiffOperator(2, 1, {(2,): SumSpec(PolySpec((2,)), SinSpec()), (0,): PolySpec((1,))}),
        [PolySpec((1, 2)), CosSpec(), PolySpec((0, 0, 3))],
    ),
    "1d_const": (
        DiffOperator(2, 1, {(2,): PolySpec((1,)), (1,): SinSpec()}),
        [PolySpec((0, 1)), ExpSpec()],
    ),
    "2d": (
        DiffOperator(2, 2, {
            (2, 0): MVPolySpec.from_dict(2, {(0, 0): 2, (1, 0): 1}),
            (0, 2): ComposeSpec(ExpSpec(), MVPolySpec.from_dict(2, {(0, 1): 1})),
            (1, 1): MVPolySpec.from_dict(2, {(0, 0): 1}),
        }),
        [
            MVPolySpec.from_dict(2, {(1, 1): 1, (0, 2): -1}),
            ComposeSpec(SinSpec(), MVPolySpec.from_dict(2, {(1, 0): 1})),
        ],
    ),
}
_D_OP_ALGEBRAS = {name: _algebra_with_specs(*setup) for name, setup in _RING_SETUPS.items()}


def _symbol_sums(alg, phi=True):
    mi = st.tuples(*[st.integers(0, 2)] * alg.dim)
    factor = st.tuples(st.integers(0, len(alg.registry) - 1), mi)
    key = st.builds(
        lambda f, g, k, p: (tuple(sorted(f)), g, k, p),
        st.lists(factor, max_size=3), mi, st.integers(0, 2), st.none() | mi if phi else st.none(),
    )
    scale = st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3, allow_nan=False)
    return st.dictionaries(key, scale, max_size=6)


@pytest.mark.parametrize("dim", sorted(_D_OP_ALGEBRAS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_d_op_table_matches_the_per_alpha_chains(dim, data):
    # each D^alpha from its predecessor: the same keys, key order and
    # floats as a chain of partials from S per alpha
    alg = _D_OP_ALGEBRAS[dim]
    S = data.draw(_symbol_sums(alg))
    n = data.draw(st.integers(0, 4))
    table = alg.d_op(S, n)
    assert list(table) == [a for k in range(n + 1) for a in mi_of_order(alg.dim, k)]
    for alpha, got in table.items():
        want = _d_op_chain(alg, S, alpha)
        assert list(got.items()) == list(want.items()), alpha
        assert all(np.array(v).tobytes() == np.array(want[k]).tobytes() for k, v in got.items())


def _ref_add(acc, key, scale):
    cur = acc.get(key, 0.0)
    new = cur + scale
    if new == 0:
        acc.pop(key, None)
    else:
        acc[key] = new


def _ref_key(factors, gamma, kpow, phi):
    return (tuple(sorted(factors)), gamma, kpow, phi)


def _reference_partial(alg, S, axis):
    """The per-term `partial` the index tables replaced: mi_add, the zero
    test and a sort for every successor."""
    e = tuple(1 if i == axis else 0 for i in range(alg.dim))
    out = {}
    for (factors, gamma, kpow, phi), scale in S.items():
        for idx in range(len(factors)):
            sid, beta = factors[idx]
            up = mi_add(beta, e)
            if alg.factor_is_zero(sid, up):
                continue
            nf = list(factors)
            nf[idx] = (sid, up)
            _ref_add(out, _ref_key(nf, gamma, kpow, phi), scale)
        if phi is not None:
            _ref_add(out, _ref_key(factors, gamma, kpow, mi_add(phi, e)), scale)
        if kpow > 0:
            for a, sid in alg.principal_ids.items():
                if alg.factor_is_zero(sid, e):
                    continue
                nf = list(factors) + [(sid, e)]
                _ref_add(out, _ref_key(nf, mi_add(gamma, a), kpow + 1, phi), scale * (-kpow))
    return out


def _reference_product(A, B):
    """The per-term `product`: a sort and mi_add for every pair."""
    out = {}
    for (fa, ga, ka, pa), sa in A.items():
        for (fb, gb, kb, pb), sb in B.items():
            if pa is not None and pb is not None:
                raise ValueError("at most one phi factor per term")
            _ref_add(
                out,
                _ref_key(fa + fb, mi_add(ga, gb), ka + kb, pa if pa is not None else pb),
                sa * sb,
            )
    return out


def _outcome(f, *args):
    try:
        return f(*args)
    except ValueError as exc:
        return str(exc)


def _assert_same_sum(got, want):
    # the same dict, key order included, with bit-equal scales
    if isinstance(want, str):
        assert got == want
        return
    assert list(got) == list(want)
    assert [np.complex128(v).tobytes() for v in got.values()] == [
        np.complex128(v).tobytes() for v in want.values()
    ]


@pytest.mark.parametrize("dim", sorted(_RING_SETUPS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_tabled_partial_and_product_match_the_per_term_loops(dim, data):
    alg = _algebra_with_specs(*_RING_SETUPS[dim])  # empty tables
    late = PolySpec((1, -1)) if alg.dim == 1 else MVPolySpec.from_dict(2, {(0, 1): 1, (1, 0): 3})
    # the second round reads tables the first filled; the third draws a
    # spec registered after that
    for rnd in range(3):
        if rnd == 2:
            alg.register(late)
        S = data.draw(_symbol_sums(alg))
        for axis in range(alg.dim):
            _assert_same_sum(alg.partial(S, axis), _reference_partial(alg, S, axis))
        coeff = data.draw(_symbol_sums(alg, phi=False))
        other = data.draw(_symbol_sums(alg))
        for A, B in ((coeff, S), (S, other)):
            _assert_same_sum(_outcome(alg.product, A, B), _outcome(_reference_product, A, B))


def _eager_phi_table(g, n_max):
    """Reference: every d^beta phi, |beta| <= n_max, by its own chain of
    np.gradient from the samples, axis 0 first."""
    vals = g.samples.astype(float)
    table = {}
    for n in range(n_max + 1):
        for beta in mi_of_order(g.dim, n):
            a = vals
            for axis, k in enumerate(beta):
                for _ in range(k):
                    a = np.gradient(a, g.spacing[axis], axis=axis)
            table[beta] = a.reshape(-1).astype(complex)
    return table


_PHI_CUTOFFS = {
    "1d": make_cutoff(
        (0.0,), 0.15, 0.4, GridField(1, (256,), (-1.0,), (2.0 / 256,), np.zeros(256))
    ),
    "2d": make_cutoff(
        (0.1, -0.05), 0.1, 0.65,
        GridField(2, (32, 32), (-1.0, -1.0), (1 / 16, 1 / 16), np.zeros((32, 32))),
    ),
}


@pytest.mark.parametrize("dim", sorted(_PHI_CUTOFFS))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_phi_differences_on_demand_match_the_eager_table(dim, data):
    # asked for in any order, each d^beta phi is bit-equal to its own chain
    g = _PHI_CUTOFFS[dim]
    n_max = 6 if g.dim == 1 else 4
    want = _eager_phi_table(g, n_max)
    pts = np.column_stack([axis.reshape(-1) for axis in g.meshgrid()])
    P = op_d() if g.dim == 1 else DiffOperator(1, 2, {(1, 0): MVPolySpec.from_dict(2, {(0, 0): 1})})
    ev = GridEvaluator(SymbolAlgebra(P), pts, phi=g)
    for beta in data.draw(st.permutations(list(want))):
        got = ev.phi_deriv(beta)
        assert got.dtype == complex and got.tobytes() == want[beta].tobytes(), beta
        assert ev.phi_deriv(beta) is got


@pytest.mark.parametrize("N,beta_max", [(7, 4), (4, 6)])
def test_sums_and_audit_take_no_phi_difference_above_N(N, beta_max):
    # the benchmark's audit (a): phi is read up to order N and no further
    phi = _PHI_CUTOFFS["1d"]
    system = build_reduction_operators(parse_operator("D^2 + sin*D + poly:1"))
    sums = neumann_sums(system, phi, N=N, xi_samples=[8.0, 32.0])
    residual_identity_check(sums)
    bound_audit(sums, beta_max=beta_max, tau=1.0, sigma=2.0)
    assert max(map(sum, sums.evaluator._phi_grid)) == N


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
    sums = neumann_sums(system, PHI, N=2, x_grid=X_GRID[:64], xi_samples=[8.0])
    for beta_max in (-1, 7):
        with pytest.raises(ValueError, match=f"beta_max = {beta_max} lies outside 0..6"):
            bound_audit(sums, beta_max=beta_max, tau=1.0, sigma=2.0)


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
    assert rep.homogeneity_max_error <= 1e-12
    assert rep.leibniz_violations == 0
    assert rep.leibniz_terms_checked > 0
    # constant-coefficient top part: c_{2,2} has A = h = 1
    log_a, log_h = rep.coefficient_log_fits[(2, (2,))]
    assert abs(log_a) <= 1e-9 and abs(log_h) <= 1e-9
    assert all(math.isfinite(la) and lh >= 0 for la, lh in rep.coefficient_log_fits.values())


def test_bound_audit_homogeneity_scaling():
    system = build_reduction_operators(op_variable_principal())
    sums = neumann_sums(system, PHI, N=4, x_grid=X_GRID[:64], xi_samples=[4.0])
    rep = bound_audit(sums, beta_max=2, tau=1.0, sigma=2.0)
    assert rep.homogeneity_max_error <= 1e-12


def test_eval_sum_rows_match_single_xi_calls():
    P = DiffOperator(2, 1, {(2,): SumSpec(PolySpec((3,)), SinSpec()), (0,): PolySpec((1,))})
    system = build_reduction_operators(P)
    alg = system.algebra
    ev = GridEvaluator(alg, X_GRID[::16])
    xis = [(v,) for v in XI_SAMPLES[::8]] + [(-5.0,)]
    # a reduction-operator coefficient carrying P_m^-k
    coeff = system.operators[1].action[(0,)]
    assert any(kpow for _, _, kpow, _ in coeff)
    batched = ev.eval_sum(coeff, xis)
    assert batched.shape == (len(xis), len(ev.points))
    for i, xi in enumerate(xis):
        assert np.array_equal(batched[i], ev.eval_sum(coeff, [xi])[0])
    # P_m is evaluated once per xi list, read-only, and equals a direct evaluation
    pm = ev.pm(xis)
    assert ev.pm(list(xis)) is pm and not pm.flags.writeable
    assert pm.tobytes() == ev.eval_sum(alg.principal_sum(), xis).tobytes()
    # a(x) xi^2 P_m^-1 against the scalar principal-symbol route
    sid = alg.register(CosSpec())
    term = {(((sid, (0,)),), (2,), 1, None): 1.0 + 0.0j}
    vals = ev.eval_sum(term, xis)
    for i, xi in enumerate(xis):
        for j in (0, 5, len(ev.points) - 1):
            x = float(ev.points[j, 0])
            want = math.cos(x) * xi[0] ** 2 / principal_symbol(P, x, xi)
            assert abs(vals[i, j] - want) <= 1e-14 * abs(want)


def _reference_eval_sum(ev, S, xis):
    # eval_sum's arithmetic with P_m^k computed afresh for every group
    groups = {}
    for (factors, gamma, kpow, phi), scale in S.items():
        vec = np.full(len(ev.points), scale, dtype=complex)
        for sid, beta in factors:
            vec = vec * ev.deriv(sid, beta)
        if phi is not None:
            vec = vec * ev.phi_deriv(phi)
        groups[gamma, kpow] = groups.get((gamma, kpow), 0.0) + vec
    out = np.zeros((len(xis), len(ev.points)), dtype=complex)
    pm = ev.eval_sum(ev.algebra.principal_sum(), xis)
    for (gamma, kpow), vec in groups.items():
        part = vec * np.array([math.prod(c**e for c, e in zip(xi, gamma)) for xi in xis])[:, None]
        out += part / pm**kpow if kpow else part
    return out


# the benchmark's two audits: operator, N and the highest power of P_m^-1
_POWER_TABLE_OPS = {
    "a_sin_N7": ("D^2 + sin*D + poly:1.25", 7, 6),
    "b_variable_N4": ("poly:2.5*D^2 + sin*D^2 + cos*D + poly:0.75", 4, 7),
}


@pytest.mark.parametrize("name", sorted(_POWER_TABLE_OPS))
def test_pm_power_table_leaves_every_sum_bit_equal(name):
    # one long-lived evaluator meets the CLI's 33-xi list, the audit's
    # 4-xi homogeneity list and single-xi lists in interleaved order; each
    # sum must equal a fresh evaluator's and the per-group reference's
    text, N, top = _POWER_TABLE_OPS[name]
    phi = _PHI_CUTOFFS["1d"]
    system = build_reduction_operators(parse_operator(text))
    xis = [(float(v),) for v in np.geomspace(6.0, 96.0, 33)]
    sums = neumann_sums(system, phi, N=N, xi_samples=xis)
    r_of_w = _merge(_apply_reduction(system, op, sums.w_sum) for op in system.operators)
    coeffs = [c for op in system.operators for c in op.action.values()]
    sums_to_check = coeffs + sums.layers + [sums.w_sum, r_of_w]
    hom = [xis[0]] + [(lam * xis[0][0],) for lam in (2.0, 4.0, 8.0)]
    xi_lists = [xis, [(6.0,)], hom, [(-24.5,)], [(8.0,)]]

    def new_ev():
        return GridEvaluator(system.algebra, sums.evaluator.points, phi=phi)

    ev = new_ev()
    for S in sums_to_check:
        for lst in xi_lists:
            got = ev.eval_sum(S, lst).tobytes()
            assert got == new_ev().eval_sum(S, lst).tobytes()
            assert got == _reference_eval_sum(new_ev(), S, lst).tobytes()
    table = dict(ev._pm_powers)
    assert {k for _, k in table} == set(range(1, top + 1))
    assert {xs for xs, _ in table} == {tuple(lst) for lst in xi_lists}
    assert not any(power.flags.writeable for power in table.values())
    # equal xi lists in new list objects hit the table: nothing is rebuilt
    for S in sums_to_check[::3]:
        for lst in xi_lists:
            ev.eval_sum(S, [tuple(xi) for xi in lst])
    assert ev._pm_powers.keys() == table.keys()
    assert all(ev._pm_powers[key] is power for key, power in table.items())
    # P_m^1 is P_m itself, which pm**1 equals bit for bit on these lists
    for lst in xi_lists:
        pm = ev.pm(lst)
        assert (pm**1).tobytes() == pm.tobytes()


def test_a_quotient_by_pm_reads_no_sign_of_zero_that_pm_power_1_drops():
    # pm**1 turns every complex zero into +0+0j; dividing by either gives
    # the same bits
    specials = [0.0, -0.0, 1.0, -2.5, 1e-310, np.inf, -np.inf, np.nan]
    zs = np.array([complex(a, b) for a in specials for b in specials])
    num, den = np.repeat(zs, len(zs)), np.tile(zs, len(zs))
    with np.errstate(all="ignore"):
        assert (num / den).tobytes() == (num / den**1).tobytes()


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
    assert residual_identity_check(sums) <= 1e-8
    assert bound_audit(sums, beta_max=2, tau=1.0, sigma=2.0).ok()


def test_parse_operator_grammar():
    P = parse_operator("poly:1*D^2 + sin*D + poly:1")
    assert P.order == 2
    assert principal_symbol(P, 0.0, 2.0) == 4
    P2 = parse_operator("D")
    assert P2.order == 1
    # a "+" inside a coefficient's exponent does not split terms
    P3 = parse_operator("D^2 + poly:1e+5")
    assert P3.order == 2 and P3.coeffs[(0,)].terms == (((0,), 1e5),)


@pytest.mark.parametrize("signed, plain", [
    ("D^2 + poly:1,+2", "D^2 + poly:1,2"),
    ("D^2 + sum(poly:+1,sin)*D", "D^2 + sum(poly:1,sin)*D"),
    ("D^2 + poly:+1e+5 + poly:-1,+2", "D^2 + poly:1e5 + poly:-1,2"),
])
def test_parse_operator_reads_a_sign_as_the_spec_grammar_does(signed, plain):
    # a "+" that a digit or "." follows, or one inside parentheses, signs a
    # number, as in `gevrey fdb --f poly:+1,2`; only a "+" between terms splits
    assert parse_operator(signed) == parse_operator(plain)


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


# the reciprocal symbol 1/P_m = (1/y) o P_m: three routes to its derivatives

def _reference_principal_symbol(P, x, xi):
    """P_m(x, xi) summed per coefficient, as before P_m was a catalog spec."""
    out = 0.0 + 0.0j
    for a, c in P.principal().items():
        out += complex(c.eval(*x)) * math.prod(v**e for e, v in zip(a, xi))
    return out


def _reference_inv_pm_derivative(P, alpha, x, xi):
    """The per-decomposition loop `inv_pm_derivative` ran before it called
    `fdb_derivative`: D^alpha (1/P_m) = alpha! sum_pi (-1)^j j! / P_m^{j+1}
    prod_k (1/j_k!) ((1/p_k!) D^{p_k} P_m)^{j_k}."""
    pm0 = _reference_principal_symbol(P, x, xi)
    n = sum(alpha)
    if n == 0:
        return 1.0 / pm0
    jets = {a: jet_of(c, x, n) for a, c in P.principal().items()}

    def d_pm(p):
        acc = 0.0 + 0.0j
        for a, jt in jets.items():
            acc += complex(jet_partial(jt, p)) * math.prod(v**e for e, v in zip(a, xi))
        return acc * (-1j) ** sum(p)

    total = 0.0 + 0.0j
    for dec in enumerate_decompositions(alpha):
        j = dec.total_multiplicity
        term = (-1) ** j * math.factorial(j) / pm0 ** (j + 1)
        for part, mult in zip(dec.parts, dec.multiplicities):
            piece = d_pm(part) / mi_factorial(part)
            term *= piece**mult / math.factorial(mult)
        total += term
    return mi_factorial(alpha) * total


def _reference_inv_pm_jet_check(P, alpha, x, xi):
    """The hand-built P_m jet (a scaled jet per coefficient, added up) the
    jet check composed with 1/y before it shared the CLI's oracle."""
    n = sum(alpha)
    pm_jet = Jet(P.dim, n, {}, x)
    for a, c in P.principal().items():
        mono = 1.0
        for e, v in zip(a, xi):
            mono *= v**e
        scaled = {k: mono * v for k, v in jet_of(c, x, n).coeffs.items()}
        pm_jet = jet_add(pm_jet, Jet(P.dim, n, scaled, x))
    inv_jet = jet_compose(RecipPowSpec(1).jet((pm_jet.value,), n), pm_jet)
    return (-1j) ** n * complex(jet_partial(inv_jet, alpha))


_ONE_2D = MVPolySpec.from_dict(2, {(0, 0): 1})
# (operator, x points, xi samples): variable and constant principal parts
_INV_PM_CASES = {
    "m2_sin": (parse_operator("poly:5/2*D^2 + sin*D^2 + cos*D + poly:1"),
               [(0.2,), (-0.4,), (0.0,)], [(1.0,), (3.0,), (-2.0,)]),
    "m3_readme": (parse_operator("D^3 + compose(sin,poly:1/2,1)*D^2 + exp*D + poly:2"),
                  [(0.2,), (-0.4,)], [(1.0,), (-3.0,)]),
    "m2_poly": (parse_operator("poly:1,0,1*D^2 + D"), [(0.3,), (-0.7,)], [(1.0,), (2.5,)]),
    "m1_sum": (op_variable_principal(), [(0.2,), (-0.4,)], [(1.0,), (3.0,)]),
    "2d_variable": (_RING_SETUPS["2d"][0],
                    [(0.2, -0.3), (0.0, 0.1)], [(1.0, 0.5), (0.3, -2.0)]),
    "2d_xy": (DiffOperator(2, 2, {
                  (2, 0): MVPolySpec.from_dict(2, {(0, 0): 3, (1, 1): 1}),
                  (0, 2): ComposeSpec(CosSpec(), MVPolySpec.from_dict(2, {(1, 0): 1})),
                  (0, 0): _ONE_2D}),
              [(0.4, 0.25), (-0.5, 0.0)], [(1.0, 1.0), (2.0, -0.5)]),
}


def _inv_pm_points(name, n_max=6):
    P, xs, xis = _INV_PM_CASES[name]
    for n in range(n_max + 1):
        for alpha in mi_of_order(P.dim, n):
            for x in xs:
                for xi in xis:
                    yield P, alpha, x, xi


@pytest.mark.parametrize("name", sorted(_INV_PM_CASES))
def test_inv_pm_derivative_matches_the_per_decomposition_loop(name):
    worst = 0.0
    for P, alpha, x, xi in _inv_pm_points(name):
        got = inv_pm_derivative(P, alpha, x, xi)
        want = _reference_inv_pm_derivative(P, alpha, x, xi)
        worst = max(worst, abs(got - want) / max(abs(want), 1e-300))
    assert worst <= 1e-13


@pytest.mark.parametrize("name", sorted(_INV_PM_CASES))
def test_inv_pm_jet_check_is_bit_equal_to_the_hand_built_jet(name):
    for P, alpha, x, xi in _inv_pm_points(name):
        got = inv_pm_derivative_jet_check(P, alpha, x, xi)
        want = _reference_inv_pm_jet_check(P, alpha, x, xi)
        assert np.array(got).tobytes() == np.array(want).tobytes(), (alpha, x, xi)


@pytest.mark.parametrize("name", ["m2_sin", "m3_readme", "2d_variable", "2d_xy"])
def test_symbol_ring_reciprocal_table_matches_inv_pm_derivative(name):
    # D^gamma (1/P_m) as ring terms, evaluated on the x points, against the
    # chain rule at each point
    P, xs, xis = _INV_PM_CASES[name]
    alg = SymbolAlgebra(P)
    n = 6 if P.dim == 1 else 4
    table = alg.d_op({((), alg.zero_mi(), 1, None): 1.0 + 0.0j}, n)
    ev = GridEvaluator(alg, np.array(xs))
    worst = 0.0
    for gamma, S in table.items():
        vals = ev.eval_sum(S, xis)
        for i, xi in enumerate(xis):
            for j, x in enumerate(xs):
                want = inv_pm_derivative(P, gamma, x, xi)
                worst = max(worst, abs(vals[i, j] - want) / max(abs(want), 1e-300))
    assert worst <= 1e-13


def test_inv_pm_derivative_keeps_the_chain_rule_order_limit():
    P = _INV_PM_CASES["m2_sin"][0]
    inv_pm_derivative(P, (8,), 0.2, 1.0)
    with pytest.raises(ValueError, match="exceeds the enforced limit"):
        inv_pm_derivative(P, (9,), 0.2, 1.0)


def _reference_ellipticity_bounds(P, box, cone, samples=16, zero_tol=1e-9):
    """The per-(x, theta) loop `ellipticity_bounds` ran before it evaluated
    P_m on the whole box per direction."""
    axes = [np.linspace(lo, hi, samples) for lo, hi in box]
    mesh = np.meshgrid(*axes, indexing="ij")
    xs = np.column_stack([m.reshape(-1) for m in mesh])
    if P.dim == 1:
        dirs = [(1.0,) if cone.direction[0] > 0 else (-1.0,)]
    else:
        base = math.atan2(cone.direction[1], cone.direction[0])
        angles = np.linspace(base - cone.half_angle, base + cone.half_angle, samples)
        dirs = [(math.cos(a), math.sin(a)) for a in angles]
    c1, c2 = float("inf"), 0.0
    hit = None
    for x in xs:
        for th in dirs:
            v = abs(_reference_principal_symbol(P, tuple(x), th))
            if v < c1:
                c1 = v
                if v < zero_tol:
                    hit = (tuple(x), th)
            c2 = max(c2, v)
    return c1, c2, hit


_DIAG = 1 / math.sqrt(2)
_ELLIPTICITY_OPS = {
    "laplace": DiffOperator(2, 2, {(2, 0): _ONE_2D, (0, 2): _ONE_2D}),
    "wave": DiffOperator(2, 2, {(2, 0): _ONE_2D, (0, 2): MVPolySpec.from_dict(2, {(0, 0): -1})}),
    # x1 xi1 xi2 vanishes on the row x1 = 0 and on the direction theta = 0:
    # its first zero in (x, theta) order is not its first in (theta, x) order
    "x1_mixed": DiffOperator(2, 2, {(1, 1): MVPolySpec.from_dict(2, {(1, 0): 1})}),
    "x_d2": DiffOperator(2, 1, {(2,): PolySpec((0, 1))}),
    "x2_d_sin": parse_operator("poly:0,0,1*D^2 + sin*D"),
    **{name: case[0] for name, case in _INV_PM_CASES.items()},
}


@pytest.mark.parametrize("name", sorted(_ELLIPTICITY_OPS))
def test_ellipticity_bounds_match_the_per_point_loop(name):
    P = _ELLIPTICITY_OPS[name]
    box = ((-1.0, 1.0),) * P.dim
    if P.dim == 1:
        cones = [Cone((1.0,), 0.3, 1.0), Cone((-1.0,), 0.3, 1.0)]
    else:
        cones = [Cone((1.0, 0.0), math.pi / 8, 1.0), Cone((_DIAG, _DIAG), math.pi / 8, 1.0)]
    for cone in cones:
        for samples in (16, 17):
            r = ellipticity_bounds(P, box, cone, samples)
            assert (r.C1, r.C2, r.char_hit) == _reference_ellipticity_bounds(P, box, cone, samples)
    if name == "x1_mixed":
        hit = ellipticity_bounds(P, box, Cone((1.0, 0.0), math.pi / 8, 1.0), 17).char_hit
        assert hit == ((-1.0, -1.0), (1.0, 0.0))


def test_ellipticity_bounds_reject_a_pole_on_the_sample_box():
    # 1/x D: the per-point loop raised at the sample x = 0, and so must the
    # array evaluation; off the pole both give the same bounds
    P = DiffOperator(1, 1, {(1,): RecipPowSpec(1)})
    cone = Cone((1.0,), 0.3, 1.0)
    for run in (_reference_ellipticity_bounds, ellipticity_bounds):
        with pytest.raises(ZeroDivisionError):
            run(P, ((-1.0, 1.0),), cone, 17)
    r = ellipticity_bounds(P, ((-1.0, 1.0),), cone, 16)
    assert (r.C1, r.C2, r.char_hit) == _reference_ellipticity_bounds(P, ((-1.0, 1.0),), cone, 16)
