import math
import re
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import measure_spec_sups, mv, oracle_pairs

from gevreykit import faadibruno, jets
from gevreykit.faadibruno import (
    _MAX_ORDER,
    CompositionBoundInput,
    _fdb_plan,
    fdb_derivative,
    lemma23_constant_search,
    lemma23_ratio,
    reciprocal_bound_components,
    reciprocal_log_bound,
    superposition_bound_components,
    superposition_log_bound,
)
from gevreykit.funcspec import (
    ComposeSpec,
    CosSpec,
    ExpSpec,
    PolySpec,
    RecipPowSpec,
    SinSpec,
    SumSpec,
    parse_spec,
)
from gevreykit.jets import jet_compose, jet_of, jet_partial
from gevreykit.multiindex import (
    decomposition_census,
    enumerate_decompositions,
    mi_factorial,
    mi_of_order,
    mi_order,
)
from gevreykit.sequences import DefiningSequence


def test_fdb_examples():
    f, g = PolySpec((0, 0, 1)), PolySpec((0, 0, 0, 1))
    assert fdb_derivative(f, g, (2,), (1,)) == 30
    assert fdb_derivative(ExpSpec(), PolySpec((0, 0, 1)), (2,), (0.0,)) == 2
    from conftest import mv

    assert fdb_derivative(f, mv(2, {(1, 1): 1}), (1, 1), (1, 1)) == 4
    assert fdb_derivative(f, g, (0,), (2,)) == 64


def test_fdb_order_limits():
    f, g = PolySpec((0, 0, 1)), PolySpec((0, 0, 0, 1))
    with pytest.raises(ValueError):
        fdb_derivative(f, g, (9,), (1,))
    from conftest import mv

    with pytest.raises(ValueError):
        fdb_derivative(f, mv(3, {(1, 1, 1): 1}), (3, 3, 1), (1, 1, 1))


def test_rejected_alphas_leave_no_plan():
    # plans are cached per alpha, so only the 135 alphas within the limits may get one
    f, g = PolySpec((0, 0, 1)), PolySpec((0, 0, 0, 1))
    from conftest import mv

    before = _fdb_plan.cache_info().currsize
    for spec, alpha, at in [(g, (9,), (1,)), (g, (-1,), (1,)),
                            (mv(2, {(1, 1): 1}), (-1, 3), (1, 1)),
                            (mv(3, {(1, 1, 1): 1}), (3, 3, 1), (1, 1, 1)),
                            (mv(4, {(1, 1, 1, 1): 1}), (1, 1, 1, 1), (1, 1, 1, 1))]:
        with pytest.raises(ValueError):
            fdb_derivative(f, spec, alpha, at)
    assert _fdb_plan.cache_info().currsize == before


def test_every_admitted_alpha_plans_one_term_per_decomposition():
    alphas = [a for d, top in _MAX_ORDER.items() for n in range(1, top + 1)
              for a in mi_of_order(d, n)]
    assert len(alphas) == 135
    for alpha in alphas:
        assert len(_fdb_plan(alpha).terms) == decomposition_census(alpha)[0], alpha


def test_float_sums_multiply_by_float_constants():
    # a float times a Fraction calls Fraction.__float__ once; the plan's float
    # copies give the same bits without it
    f, g = SinSpec(), parse_spec("mvpoly:1,0,1:0.5;0,2,1:-0.25;1,1,0:0.75")
    alpha, at = (2, 2, 2), (0.3, -0.2, 0.5)
    want = fdb_derivative(f, g, alpha, at)  # builds the plan and the jets
    calls = []
    real = Fraction.__float__

    def spy(self):
        calls.append(self)
        return real(self)

    with mock.patch.object(Fraction, "__float__", spy):
        got = fdb_derivative(f, g, alpha, at)
    assert calls == []
    _assert_same_value(got, want)
    _assert_same_value(got, _term_loop_fdb(f, g, alpha, at))


def test_float_sums_with_exact_pieces_keep_their_bits():
    # at a half-exact base some of g's coefficients stay Fractions while f's
    # derivatives are floats: each exact piece's power enters as its float
    g = mv(2, {(0, 2): Fraction(1, 3), (0, 3): Fraction(-5, 7), (1, 0): 0.5, (1, 1): 2})
    at = (0.3, Fraction(1, 2))
    for f in (ExpSpec(), SinSpec()):
        for n in range(1, _MAX_ORDER[2] + 1):
            for alpha in mi_of_order(2, n):
                got = fdb_derivative(f, g, alpha, at)
                _assert_same_value(got, _term_loop_fdb(f, g, alpha, at))
                _assert_same_value(got, _reference_fdb(f, g, alpha, at))


@pytest.mark.parametrize("f, g, alpha, at", [
    (ExpSpec(), PolySpec((0, np.int64(2), 1)), (4,), (np.int64(1),)),
    (SinSpec(), PolySpec((0, 1, 0.5)), (3,), (np.float64(0.3),)),
    (RecipPowSpec(1), mv(2, {(1, 0): np.float64(0.5), (0, 2): 1, (0, 0): 2}), (2, 2),
     (np.float64(0.1), 0.2)),
])
def test_numpy_scalar_sums_keep_the_fraction_constants(f, g, alpha, at):
    # a numpy scalar times a Fraction follows numpy's rules, not x * float(q)
    _assert_same_value(fdb_derivative(f, g, alpha, at), _term_loop_fdb(f, g, alpha, at))


def test_oracle_equivalence_catalog():
    # central correctness property: decomposition sum vs jet composition
    pairs = oracle_pairs()
    assert len(pairs) >= 20
    for f, g, at, exact in pairs:
        d = g.dim
        n_cap = 6
        g_jet = jet_of(g, at, n_cap)
        f_jet = jet_of(f, (g_jet.value,), n_cap)
        comp = jet_compose(f_jet, g_jet)
        for n in range(0, n_cap + 1):
            for alpha in mi_of_order(d, n):
                got = fdb_derivative(f, g, alpha, at)
                want = jet_partial(comp, alpha)
                if exact:
                    assert got == want, (f, g, alpha)
                else:
                    gw = complex(got)
                    ww = complex(want)
                    tol = 1e-9 * max(abs(ww), 1.0)
                    assert abs(gw - ww) <= tol, (f, g, alpha, gw, ww)


def _reference_fdb(f, g, alpha, at):
    # the decomposition sum one decomposition at a time, every outer
    # derivative and every piece built again where it occurs
    n = mi_order(alpha)
    g_jet = jet_of(g, at, n)
    f_jet = jet_of(f, (g_jet.value,), n)
    if n == 0:
        return f_jet.value
    total = 0
    for dec in enumerate_decompositions(alpha):
        term = jet_partial(f_jet, (dec.total_multiplicity,))
        for part, mult in zip(dec.parts, dec.multiplicities):
            piece = Fraction(1, mi_factorial(part)) * jet_partial(g_jet, part)
            term = term * Fraction(1, math.factorial(mult)) * piece**mult
        total = total + term
    return mi_factorial(alpha) * total


def _assert_same_value(got, want):
    # == on exact values, the same bits on floats; the same type on both
    assert type(got) is type(want) and repr(got) == repr(want), (got, want)


def test_fdb_matches_the_per_decomposition_sum_on_the_catalog():
    for f, g, at, _ in oracle_pairs():
        d = g.dim
        for n in range(min(_MAX_ORDER[d], 6) + 1):
            for alpha in mi_of_order(d, n):
                _assert_same_value(fdb_derivative(f, g, alpha, at), _reference_fdb(f, g, alpha, at))


@st.composite
def _fdb_case(draw):
    d = draw(st.integers(1, 3))
    alpha = draw(st.sampled_from(list(mi_of_order(d, draw(st.integers(0, _MAX_ORDER[d]))))))
    exact = draw(st.booleans())
    num = st.fractions(-2, 2, max_denominator=5) if exact else st.floats(-2, 2)
    at = tuple(draw(num) for _ in range(d))
    monomial = st.tuples(*[st.integers(0, 3)] * d)
    g = mv(d, draw(st.dictionaries(monomial, num, min_size=1, max_size=4)))
    outer = [ExpSpec(), SinSpec(), CosSpec(), RecipPowSpec(1), PolySpec((1, 2, 0, 1))]
    if exact:
        outer.append(PolySpec(tuple(draw(st.lists(num, min_size=1, max_size=5)))))
    return draw(st.sampled_from(outer)), g, alpha, at


@settings(max_examples=80, deadline=None)
@given(_fdb_case())
def test_fdb_matches_the_per_decomposition_sum_on_drawn_input(case):
    f, g, alpha, at = case
    try:
        want = _reference_fdb(f, g, alpha, at)
    except (ZeroDivisionError, OverflowError):
        assume(False)
    _assert_same_value(fdb_derivative(f, g, alpha, at), want)


def _term_loop_fdb(f, g, alpha, at):
    # the plan's terms summed one by one for every input type, as before the
    # integer route; the jets are built afresh, outside jet_of's memo
    n = mi_order(alpha)
    g_jet = g.jet(at, n)
    f_jet = f.jet((g_jet.value,), n)
    if n == 0:
        return f_jet.value
    plan = _fdb_plan(alpha)
    inv_pfs, inv_mfs = plan.fractions
    outer = [jet_partial(f_jet, (m,)) for m in range(n + 1)]
    powers = [(inv_pf * jet_partial(g_jet, part)) ** mult
              for part, inv_pf, mult in zip(plan.parts, inv_pfs, plan.mults)]
    total = 0
    for m, pieces in plan.terms:
        term = outer[m]
        for i in pieces:
            term = term * inv_mfs[i] * powers[i]
        total = total + term
    return mi_factorial(alpha) * total


def _fdb_and_route(f, g, alpha, at):
    """fdb_derivative's value and whether it took the integer route."""
    with mock.patch.object(faadibruno, "_exact_sum", wraps=faadibruno._exact_sum) as spy:
        return fdb_derivative(f, g, alpha, at), spy.called


def test_exact_sum_matches_the_term_loop_on_the_catalog():
    for f, g, at, exact in oracle_pairs():
        if not exact:
            continue
        for n in range(1, _MAX_ORDER[g.dim] + 1):
            for alpha in mi_of_order(g.dim, n):
                got, integer_route = _fdb_and_route(f, g, alpha, at)
                _assert_same_value(got, _term_loop_fdb(f, g, alpha, at))
                assert integer_route, (f, g, alpha)


_NUMBERS = {
    "exact": st.fractions(-2, 2, max_denominator=5),
    "float": st.floats(-2, 2),
    "complex": st.complex_numbers(max_magnitude=2, allow_nan=False, allow_infinity=False),
}
_NUMBERS["mixed"] = st.one_of(st.integers(-2, 2), *_NUMBERS.values())


@st.composite
def _typed_fdb_case(draw):
    d = draw(st.integers(1, 3))
    alpha = draw(st.sampled_from(list(mi_of_order(d, draw(st.integers(1, _MAX_ORDER[d]))))))
    num = _NUMBERS[draw(st.sampled_from(sorted(_NUMBERS)))]
    at = tuple(draw(num) for _ in range(d))
    monomial = st.tuples(*[st.integers(0, 3)] * d)
    g = mv(d, draw(st.dictionaries(monomial, num, min_size=1, max_size=4)))
    outer = [ExpSpec(), SinSpec(), RecipPowSpec(1),
             PolySpec(tuple(draw(st.lists(num, min_size=1, max_size=5))))]
    return draw(st.sampled_from(outer)), g, alpha, at


@settings(max_examples=150, deadline=None)
@given(_typed_fdb_case())
def test_exact_sum_is_taken_exactly_when_the_term_loop_gives_a_fraction(case):
    # every outer derivative and every piece occurs in some term, so the
    # loop's sum is a Fraction exactly when all of them are ints or Fractions;
    # float, complex and mixed sums keep the loop and its bits
    f, g, alpha, at = case
    try:
        want = _term_loop_fdb(f, g, alpha, at)
    except (ZeroDivisionError, OverflowError):
        assume(False)
    got, integer_route = _fdb_and_route(f, g, alpha, at)
    _assert_same_value(got, want)
    assert integer_route == (type(want) is Fraction)


@pytest.mark.parametrize("f, g, at", [
    # float outer derivatives on exact pieces
    (ExpSpec(), mv(2, {(1, 0): Fraction(1, 2), (1, 1): 3}), (Fraction(1, 3), Fraction(2))),
    # exact outer derivatives on float pieces
    (PolySpec((1, Fraction(1, 2), 3)), mv(2, {(2, 1): 0.25, (0, 1): 1}), (0.5, -0.75)),
    # complex pieces, complex outer derivatives, complex base
    (RecipPowSpec(1), mv(2, {(0, 0): 2, (1, 1): 1j}), (Fraction(1, 2), Fraction(1, 3))),
    (PolySpec((0, 1j, Fraction(1, 2))), mv(2, {(1, 1): Fraction(1, 3)}), (1, Fraction(-1, 2))),
    (SinSpec(), mv(2, {(2, 0): 1, (0, 1): 1}), (0.2 + 0.1j, -0.3)),
])
def test_inexact_decomposition_sums_never_take_the_integer_route(f, g, at):
    for n in range(1, _MAX_ORDER[2] + 1):
        for alpha in mi_of_order(2, n):
            got, integer_route = _fdb_and_route(f, g, alpha, at)
            _assert_same_value(got, _term_loop_fdb(f, g, alpha, at))
            assert not integer_route, alpha


@pytest.mark.parametrize("f, g, alpha, at", [
    (ExpSpec(), mv(2, {(0, 1): 1}), (0, 1), (0.3,)),
    (ExpSpec(), mv(2, {(1, 0): 1}), (1, 1), (0.0,)),
    (ExpSpec(), SumSpec(mv(2, {(1, 0): 1}), mv(2, {(0, 1): 1})), (1, 0), (0.3, 0.1, 0.7)),
    (ExpSpec(), PolySpec((0, 1)), (2,), (0.0, 0.0)),
    (mv(2, {(1, 1): 1}), SinSpec(), (1,), (0.5,)),
])
def test_chain_rules_reject_mismatched_dimensions_before_any_jet(f, g, alpha, at):
    stop = AssertionError("a jet was built")
    with mock.patch.object(faadibruno, "jet_of", side_effect=stop), \
            mock.patch.object(jets, "jet_of", side_effect=stop):
        for route in (fdb_derivative, jets.jet_chain_partial):
            with pytest.raises(ValueError, match="one dimension|univariate"):
                route(f, g, alpha, at)


@pytest.mark.parametrize("g, alpha, at", [
    (PolySpec((0, 1)), (-1,), (0.5,)),
    (mv(2, {(1, 1): 1}), (-1, 3), (0.5, Fraction(1, 3))),
])
def test_chain_rules_reject_a_negative_alpha_entry_before_any_jet(g, alpha, at):
    stop = AssertionError("a jet was built")
    with mock.patch.object(faadibruno, "jet_of", side_effect=stop), \
            mock.patch.object(jets, "jet_of", side_effect=stop):
        for route in (fdb_derivative, jets.jet_chain_partial):
            with pytest.raises(ValueError, match=re.escape(f"alpha {alpha} has a negative entry")):
                route(SinSpec(), g, alpha, at)


@pytest.mark.parametrize("f, g, alpha, at", [
    ("exp", "poly:0,1,1", (2,), 0.5),
    ("sin", "poly:1,0,1", (3,), Fraction(1, 3)),
    ("cos", "sum(exp,poly:0,1)", (1,), 0),
])
def test_both_chain_routes_read_a_scalar_point_as_its_1_tuple(f, g, alpha, at):
    f, g = parse_spec(f), parse_spec(g)
    for point in (at, float(at)):
        values = []
        for route in (fdb_derivative, jets.jet_chain_partial):
            value = route(f, g, alpha, (point,))
            _assert_same_value(route(f, g, alpha, point), value)
            values.append(value)
        if isinstance(point, float):
            assert values[0] == pytest.approx(values[1], rel=1e-12)
        else:
            assert values[0] == values[1]


def test_exponent_identity_of_proof():
    # m^sigma + sum m_k |p_k|^sigma <= 2 |alpha|^sigma per decomposition
    cases = [(1, 10), (2, 7), (3, 5)]
    for sigma in (1.5, 2.0, 3.0):
        for d, n_cap in cases:
            for n in range(1, n_cap + 1):
                for alpha in mi_of_order(d, n):
                    for dec in enumerate_decompositions(alpha):
                        m = dec.total_multiplicity
                        lhs = float(m) ** sigma + sum(
                            mult * float(mi_order(p)) ** sigma
                            for p, mult in zip(dec.parts, dec.multiplicities)
                        )
                        assert lhs <= 2.0 * float(n) ** sigma + 1e-9


def test_lemma23_ratio_examples():
    seq = DefiningSequence(1, 2)
    # j = k all-ones is exactly 1
    for k in (1, 3, 6):
        assert lemma23_ratio(seq, k, (1,) * k) == pytest.approx(0.0, abs=1e-12)
    v = math.exp(lemma23_ratio(seq, 2, (2, 2)))
    assert math.isclose(v, (8 * 8 * 8) * 24 / 4**16, rel_tol=1e-9)
    # j = 1, parts = (k): ratio M_1/1! = 1
    assert lemma23_ratio(seq, 1, (5,)) == pytest.approx(0.0, abs=1e-12)


def test_lemma23_fit_grid_and_stability():
    for tau in (0.5, 1.0, 2.0):
        for sigma in (1.5, 2.0, 3.0):
            seq = DefiningSequence(tau, sigma)
            f10 = lemma23_constant_search(seq, 10)
            f12 = lemma23_constant_search(seq, 12)
            assert f12.log_C >= 0.0
            assert abs(math.expm1(f12.log_C - f10.log_C)) <= 0.01
            # zero violations at the fitted constant
            logc = f12.log_C
            for k in range(1, 13):
                for dec in enumerate_decompositions((k,)):
                    parts = []
                    for p, mult in zip(dec.parts, dec.multiplicities):
                        parts.extend([p[0]] * mult)
                    r = lemma23_ratio(seq, len(parts), parts)
                    assert r <= float(k) ** sigma * logc + 1e-9


def test_lemma23_tau_ordering():
    # larger tau strengthens the right side: fitted ln C no larger
    c1 = lemma23_constant_search(DefiningSequence(1, 2), 12).log_C
    c2 = lemma23_constant_search(DefiningSequence(2, 2), 12).log_C
    assert c2 <= c1 + 1e-12


def test_superposition_bound_monotone():
    base = CompositionBoundInput(1.0, 2.0, 1.0, 1.0, 2.0)
    b0 = superposition_log_bound(base, (3,))
    for kw in ({"h": 2.0}, {"h_prime": 2.0}, {"A": 3.0}, {"tau": 2.0}):
        args = {"tau": 1.0, "sigma": 2.0, "h": 1.0, "h_prime": 1.0, "A": 2.0}
        args.update(kw)
        b1 = superposition_log_bound(CompositionBoundInput(**args), (3,))
        assert b1 > b0, kw


def test_superposition_alpha_one_structure():
    inp = CompositionBoundInput(1.0, 2.0, 1.0, 1.0, 2.0)
    parts = superposition_bound_components(inp, (1,))
    # |alpha| = 1: growth census collapses (ln 1 = 0, msum = 2^0)
    assert parts["growth"] == 0.0
    assert parts["msum"] == 0.0
    assert math.isclose(parts["amplitude"], 2 * math.log(2.0))


def test_splitting_constant_covers_the_order_of_alpha():
    # at (0.1, 1.1) C keeps growing past k = 12 (1.674 at k 12, 2.430 at
    # k 40), so a bound at |alpha| = n needs the constant over k <= n
    inp = CompositionBoundInput(0.1, 1.1, 1.0, 1.0, 1.0)
    seq = DefiningSequence(0.1, 1.1)
    at_12 = lemma23_constant_search(seq, 12).log_C
    for n in (1, 8, 12, 20, 40):
        ns = float(n) ** 1.1
        need = lemma23_constant_search(seq, max(n, 2)).log_C
        for parts in (
            superposition_bound_components(inp, (n,)),
            reciprocal_bound_components(inp, (n,), 1.0),
        ):
            assert parts["splitting"] >= ns * need, n
            if n <= 12:
                assert parts["splitting"] == ns * at_12, n
    assert lemma23_constant_search(seq, 40).log_C > at_12 + 0.3


DOMINATION_PAIRS = [
    (ExpSpec(), SinSpec()),
    (SinSpec(), PolySpec((0, 0, 1))),
    (ExpSpec(), PolySpec((0, 0, 0.5))),
    (PolySpec((0, 0, 1)), SinSpec()),
    (CosSpec(), PolySpec((0.1, 1, 0.2))),
    (ExpSpec(), CosSpec()),
]


def certified_input(f, g, xs, n_max, tau=1.0, sigma=2.0):
    seq = DefiningSequence(tau, sigma)
    g_sups = measure_spec_sups(g, xs, n_max)
    image = sorted(float(g.eval(float(x))) for x in xs)
    f_sups = measure_spec_sups(f, image, n_max)
    logM = [seq.log_M(n) for n in range(n_max + 1)]
    A = 1.0
    for sups in (g_sups, f_sups):
        for n, s in enumerate(sups):
            if s > 0:
                A = max(A, s / math.exp(logM[n]))
    return CompositionBoundInput(tau, sigma, 1.0, 1.0, A)


def test_superposition_domination_on_catalog():
    xs = np.linspace(-1.0, 1.0, 41)
    n_max = 8
    assert len(DOMINATION_PAIRS) >= 5
    for f, g in DOMINATION_PAIRS:
        inp = certified_input(f, g, xs, n_max)
        comp = ComposeSpec(f, g)
        sups = measure_spec_sups(comp, xs, n_max)
        for n in range(1, n_max + 1):
            bound = superposition_log_bound(inp, (n,))
            measured = math.log(sups[n]) if sups[n] > 0 else float("-inf")
            assert measured <= bound + 1e-9, (f, g, n, measured, bound)


RECIP_CASES = [
    (SumSpec(PolySpec((2,)), SinSpec()), 1.0),
    (SumSpec(PolySpec((2,)), CosSpec()), 1.0),
    (PolySpec((2, 0, 1)), 2.0),
]


def test_reciprocal_domination():
    xs = np.linspace(-1.0, 1.0, 41)
    n_max = 8
    seq = DefiningSequence(1, 2)
    for phi, min_abs in RECIP_CASES:
        sups_phi = measure_spec_sups(phi, xs, n_max)
        A = 1.0
        for n, s in enumerate(sups_phi):
            if s > 0:
                A = max(A, s / math.exp(seq.log_M(n)))
        inp = CompositionBoundInput(1.0, 2.0, 1.0, 1.0, A)
        recip = ComposeSpec(RecipPowSpec(1), phi)
        sups = measure_spec_sups(recip, xs, n_max)
        for n in range(1, n_max + 1):
            bound = reciprocal_log_bound(inp, (n,), min_abs)
            measured = math.log(sups[n]) if sups[n] > 0 else float("-inf")
            assert measured <= bound + 1e-9, (phi, n, measured, bound)


def test_reciprocal_alpha_zero_and_min_abs_effect():
    inp = CompositionBoundInput(1.0, 2.0, 1.0, 1.0, 1.0)
    assert math.exp(reciprocal_log_bound(inp, (0,), 2.0)) == pytest.approx(0.5)
    # doubling min_abs shrinks the amplitude term, which carries the
    # (|alpha|+1) multiplier, by at least (|alpha|+1) ln 2
    n = 4
    c1 = reciprocal_bound_components(inp, (n,), 0.5)
    c2 = reciprocal_bound_components(inp, (n,), 1.0)
    amp_drop = (n + 1) * (c1["reciprocal_amplitude"] - c2["reciprocal_amplitude"])
    assert amp_drop >= (n + 1) * math.log(2.0) - 1e-9


def test_reciprocal_amplitude_past_float_range_stays_finite():
    # min_abs^-9 = 1e540 leaves float range; the amplitudes are compared in logs
    inp = CompositionBoundInput(1, 2, 1, 1, 1)
    parts = reciprocal_bound_components(inp, (8,), 1e-60)
    assert all(math.isfinite(v) for v in parts.values())
    assert parts["amplitude"] == 9 * parts["reciprocal_amplitude"]
    assert parts["reciprocal_amplitude"] > 710.0  # exp(710) overflows a double


@pytest.mark.parametrize("field", ["tau", "sigma", "h", "h_prime", "A"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_composition_bound_input_rejects_a_non_finite_field(field, value):
    args = {"tau": 1.0, "sigma": 2.0, "h": 1.0, "h_prime": 1.0, "A": 1.0, field: value}
    with pytest.raises(ValueError):
        CompositionBoundInput(**args)


def test_sigma_one_gevrey_boundary():
    # sigma = 1 accepted when tau >= 1, rejected when tau < 1
    CompositionBoundInput(1.0, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        CompositionBoundInput(0.5, 1.0, 1.0, 1.0, 1.0)
