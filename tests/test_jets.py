import math
import re
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gevreykit import funcspec, jets, parametrix
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
    parse_spec,
)
from gevreykit.jets import Jet, jet_compose, jet_mul, jet_of, jet_partial
from gevreykit.multiindex import mi_binomial, mi_of_order, mi_range
from gevreykit.parametrix import parse_operator


def test_jet_of_examples():
    j = jet_of(PolySpec((0, 0, 0, 1)), (1,), 3)
    assert [j.coeff((k,)) for k in range(4)] == [1, 3, 3, 1]

    j = jet_of(ExpSpec(), (0,), 4)
    assert [j.coeff((k,)) for k in range(5)] == [
        1, 1, Fraction(1, 2), Fraction(1, 6), Fraction(1, 24)
    ]

    j = jet_of(MVPolySpec.from_dict(2, {(1, 1): 1}), (1, 1), 2)
    assert j.coeff((1, 1)) == 1
    assert j.coeff((2, 0)) == 0


def test_jet_compose_examples():
    g = jet_of(PolySpec((0, 0, 0, 1)), (1,), 2)
    f = jet_of(PolySpec((0, 0, 1)), (g.value,), 2)
    c = jet_compose(f, g)
    assert c.coeff((2,)) == 15  # binom(6, 2)
    assert jet_partial(c, (2,)) == 30

    c2 = jet_of(ComposeSpec(ExpSpec(), PolySpec((0, 0, 1))), (0,), 2)
    assert [c2.coeff((k,)) for k in range(3)] == [1, 0, 1]
    assert jet_partial(c2, (2,)) == 2

    # identity outer leaves g unchanged
    g3 = jet_of(SinSpec(), (0.4,), 5)
    ident = jet_of(PolySpec((0, 1)), (g3.value,), 5)
    c3 = jet_compose(ident, g3)
    for k in range(6):
        assert math.isclose(complex(c3.coeff((k,))).real, complex(g3.coeff((k,))).real,
                            rel_tol=1e-14, abs_tol=1e-15)


def test_jet_partial_examples():
    j = jet_of(PolySpec((0, 0, 0, 1)), (1,), 3)
    assert jet_partial(j, (0,)) == 1
    assert jet_partial(j, (2,)) == 6
    j2 = jet_of(MVPolySpec.from_dict(2, {(1, 1): 1}), (1, 1), 2)
    assert jet_partial(j2, (1, 1)) == 1
    with pytest.raises(ValueError):
        jet_partial(j, (4,))


def test_product_rule_closure_exact():
    # jet_partial(a*b, alpha) = sum binom(alpha, beta) da db, exact on rationals
    a = jet_of(MVPolySpec.from_dict(2, {(2, 0): Fraction(1, 2), (1, 1): 3}), (Fraction(1, 3), 1), 4)
    b = jet_of(MVPolySpec.from_dict(2, {(0, 2): 1, (1, 0): Fraction(2, 5)}), (Fraction(1, 3), 1), 4)
    ab = jet_mul(a, b)
    for n in range(5):
        for alpha in mi_of_order(2, n):
            lhs = jet_partial(ab, alpha)
            rhs = 0
            for beta in mi_range(alpha):
                gamma = tuple(x - y for x, y in zip(alpha, beta))
                rhs += mi_binomial(alpha, beta) * jet_partial(a, beta) * jet_partial(b, gamma)
            assert lhs == rhs, alpha


def test_compose_associativity():
    # (f o g) o h = f o (g o h) through the truncation order
    K = 6
    h = jet_of(PolySpec((Fraction(1, 2), 1, Fraction(1, 3))), (Fraction(1, 4),), K)
    g = jet_of(PolySpec((0, 2, 1)), (h.value,), K)
    f = jet_of(PolySpec((1, 0, Fraction(1, 5))), (jet_compose(g, jet_of(PolySpec((0, 1)), (h.value,), K)).value,), K)
    fg = jet_compose(f, g)
    left = jet_compose(fg, h)
    gh = jet_compose(g, h)
    right = jet_compose(f, gh)
    for k in range(K + 1):
        assert left.coeff((k,)) == right.coeff((k,)), k


def test_compose_transcendental_triples():
    K = 5
    for outer, mid in [(ExpSpec(), SinSpec()), (SinSpec(), CosSpec())]:
        h = jet_of(PolySpec((0.2, 1.0, 0.1)), (0.3,), K)
        g = jet_of(mid, (h.value,), K)
        f = jet_of(outer, (g.value,), K)
        left = jet_compose(jet_compose(f, g), h)
        gh = jet_compose(g, h)
        right = jet_compose(f, gh)
        for k in range(K + 1):
            assert math.isclose(
                complex(left.coeff((k,))).real,
                complex(right.coeff((k,))).real,
                rel_tol=1e-10,
                abs_tol=1e-12,
            )


def test_recip_jet_exact_and_pole():
    j = jet_of(RecipPowSpec(1), (Fraction(2),), 3)
    assert [j.coeff((k,)) for k in range(4)] == [
        Fraction(1, 2), Fraction(-1, 4), Fraction(1, 8), Fraction(-1, 16)
    ]
    with pytest.raises(ZeroDivisionError):
        jet_of(RecipPowSpec(1), (0,), 2)


def test_parse_spec_grammar():
    assert parse_spec("poly:1/2,0,1").eval(Fraction(2)) == Fraction(9, 2)
    assert parse_spec("mvpoly:1,1:1;2,0:1/2").eval(2, 3) == 8
    assert math.isclose(parse_spec("compose(exp,poly:0,0,1)").eval(0.5), math.exp(0.25))
    with pytest.raises(ValueError):
        parse_spec("mystery")
    with pytest.raises(ValueError):
        parse_spec("compose(exp)")


def test_parse_spec_parses_each_side_once(monkeypatch):
    # sum(poly:1,2,X): only the second top-level comma has a spec name after
    # it, so the body is cut there; each nesting level costs two parse_spec
    # calls, one per side, and no side is parsed again
    depth = 16
    text = "poly:1,2"
    expected = PolySpec((1, 2))
    for _ in range(depth):
        text = f"sum(poly:1,2,{text})"
        expected = SumSpec(PolySpec((1, 2)), expected)
    calls = 0
    real = funcspec.parse_spec

    def counting(t):
        nonlocal calls
        calls += 1
        return real(t)

    monkeypatch.setattr(funcspec, "parse_spec", counting)
    assert funcspec.parse_spec(text) == expected
    assert calls == 2 * depth + 1


# grammar fragments, bad number literals included, for the fuzz test below
_LEAVES = [
    "exp", "sin", "cos", "recip", "poly:1,2", "poly:0.5,-1/3", "poly:nan", "poly:inf",
    "poly:1e999", "poly:1/0", "poly:-inf,2", "mvpoly:1,0:2;0,1:1", "mvpoly:-1,2:3",
    "mvpoly:2:1", "mvpoly:1,1:nan", "poly:1e+5", "poly:2.5E-3",
]
_FRAGMENTS = _LEAVES + [
    "compose(", "sum(", "prod(", "(", ")", ",", ";", ":", "*D", "*D^2", "D^-1", "D^",
    "D", "+", "-", "/", "1", "0", "1/0", "nan", " ",
]
_spec_tree = st.recursive(
    st.sampled_from(_LEAVES),
    lambda kids: st.builds(
        "{}({},{})".format, st.sampled_from(["compose", "sum", "prod"]), kids, kids
    ),
    max_leaves=6,
)
_noise = st.lists(
    st.one_of(st.sampled_from(_FRAGMENTS), st.text(max_size=3)), max_size=10
).map("".join)
_operator = st.lists(
    st.tuples(_spec_tree, st.integers(-2, 4)).map(
        lambda t: f"{t[0]}*D^{t[1]}" if t[1] else t[0]
    ),
    min_size=1,
    max_size=3,
).map(" + ".join)
_grammar_text = st.one_of(
    _spec_tree,
    _noise,
    _operator,
    st.tuples(_spec_tree, _noise, _operator).map("".join),
)


@settings(max_examples=300, deadline=None)
@given(text=_grammar_text)
def test_grammars_parse_or_raise_value_error(text):
    # any other exception would escape the CLI as a traceback
    for parse in (parse_spec, parse_operator):
        try:
            parse(text)
        except ValueError:
            pass


def _reference_split_two(body):
    # the former pair rule: try each top-level comma until both sides parse
    depth, candidates = 0, []
    for i, ch in enumerate(body):
        depth += (ch == "(") - (ch == ")")
        if ch == "," and depth == 0:
            candidates.append(i)
    for i in candidates:
        try:
            return _reference_parse_spec(body[:i]), _reference_parse_spec(body[i + 1 :])
        except ValueError:
            continue
    raise ValueError(f"cannot split {body!r} into two specs")


def _reference_parse_spec(text):
    s = text.strip()
    for name, cls in (("compose", ComposeSpec), ("sum", SumSpec), ("prod", ProdSpec)):
        if s.startswith(name + "(") and s.endswith(")"):
            return cls(*_reference_split_two(s[len(name) + 1 : -1]))
    return parse_spec(s)  # an atom or a literal: no split


def _reference_split_terms(text):
    # the former term rule: a "+" inside parentheses or after ",", ":" or a
    # mantissa's e/E signs a number; the mantissa digit is any decimal
    # digit, as float reads it
    terms, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        depth += (ch == "(") - (ch == ")")
        if ch == "+" and depth == 0:
            before = text[start:i].rstrip()
            if not (before.endswith((",", ":")) or re.search(r"[\d.][eE]$", before)):
                terms.append(text[start:i])
                start = i + 1
    return terms + [text[start:]]


def _reference_parse_operator(text):
    with mock.patch.object(parametrix, "_split_at", lambda t, _: _reference_split_terms(t)), \
            mock.patch.object(parametrix, "parse_spec", _reference_parse_spec):
        return parametrix.parse_operator(text)


def _parsed(parse, text):
    try:
        return repr(parse(text))  # repr tells 1 from 1.0
    except ValueError:
        return ValueError


# texts that both grammars accept, signed and spaced numbers included, so
# that the comparison below also meets trees and not only rejections
_ACCEPTED_LEAVES = [
    "exp", "sin", "cos", "recip", "poly:1,2", "poly:0.5,-1/3", "mvpoly:2:1", "poly:1e+5",
    "poly:2.5E-3", "poly:+1,+2.5", "poly: +1 , .5e+3", "mvpoly:+2:+1/2", "poly:1.e+2,+.5",
]
_accepted_tree = st.recursive(
    st.sampled_from(_ACCEPTED_LEAVES),
    lambda kids: st.builds(
        "{}({}{}{})".format, st.sampled_from(["compose", "sum", "prod"]), kids,
        st.sampled_from([",", ", ", " ,\t"]), kids,
    ),
    max_leaves=6,
)
_accepted_operator = st.lists(
    st.tuples(_accepted_tree, st.integers(0, 3)).map(
        lambda t: f"{t[0]}*D^{t[1]}" if t[1] else t[0]
    ),
    min_size=1,
    max_size=3,
).flatmap(lambda terms: st.sampled_from([" + ", "+", " +\t", "+ +"]).map(lambda s: s.join(terms)))


@settings(max_examples=500, deadline=None)
@given(text=st.one_of(_grammar_text, _accepted_tree, _accepted_operator))
def test_split_rules_agree_with_the_try_every_split_reference(text):
    # cutting at each "," that a spec name follows, and at each "+" that no
    # digit or "." follows, accepts and rejects what the former rules did,
    # with equal trees
    assert _parsed(parse_spec, text) == _parsed(_reference_parse_spec, text)
    assert _parsed(parse_operator, text) == _parsed(_reference_parse_operator, text)


def _zero(v):
    # an array over base points never counts as zero, as in the jets
    return not isinstance(v, np.ndarray) and v == 0


def _reference_mul(a, b):
    # the pairwise product with plain tuple addition, a's items outer
    out = {}
    for ka, va in a.coeffs.items():
        for kb, vb in b.coeffs.items():
            if not _zero(va) and not _zero(vb) and sum(ka) + sum(kb) <= a.order:
                k = tuple(x + y for x, y in zip(ka, kb))
                out[k] = out.get(k, 0) + va * vb
    return out


def _reference_compose(f, g):
    # Horner from f's order K down, zero top coefficients included, every
    # step through the full order K
    K, zero = g.order, (0,) * g.dim
    ghat = Jet(g.dim, K, {k: v for k, v in g.coeffs.items() if sum(k) > 0})
    out = {}
    for j in range(K, -1, -1):
        out = _reference_mul(Jet(g.dim, K, out), ghat)
        if not _zero(f.coeff((j,))):
            out[zero] = out.get(zero, 0) + f.coeff((j,))
    return out


def _bits(coeffs):
    # keys in order, each value's type and exact bits (repr tells -0.0 from 0.0)
    return [
        (k, type(v), v.tobytes() if isinstance(v, np.ndarray) else repr(v))
        for k, v in coeffs.items()
    ]


_exact = st.one_of(
    st.just(0),
    st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
)
_inexact = st.one_of(
    st.floats(-3, 3),
    st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False),
)


@st.composite
def _sparse_jet(draw, dim, order, values=_exact):
    # random keys in random insertion order, zero coefficients included
    shape = [k for n in range(order + 1) for k in mi_of_order(dim, n)]
    keys = draw(st.lists(st.sampled_from(shape), unique=True, max_size=len(shape)))
    return Jet(dim, order, {k: draw(values) for k in keys})


@st.composite
def _jet_pair(draw, values=_exact):
    dim = draw(st.integers(1, 3))
    order = draw(st.integers(0, 6 if dim == 1 else 4))
    return draw(_sparse_jet(dim, order, values)), draw(_sparse_jet(dim, order, values))


@settings(max_examples=200, deadline=None)
@given(_jet_pair())
def test_jet_mul_matches_pairwise_reference(pair):
    a, b = pair
    got = jet_mul(a, b).coeffs
    want = _reference_mul(a, b)
    assert got == want and list(got) == list(want)


def _jet_1d(coeffs):
    return Jet(1, 4, {(k,): v for k, v in enumerate(coeffs)})


@pytest.mark.parametrize(
    "a, b, exact",
    [
        # zero coefficients of both kinds, on both sides
        (_jet_1d([Fraction(1, 2), 0, Fraction(-2, 3), Fraction(0)]),
         _jet_1d([Fraction(0), Fraction(3, 4), 0, Fraction(5, 6), Fraction(1, 7)]), True),
        # Fractions with denominator 1, alone and beside larger denominators
        (_jet_1d([Fraction(2), Fraction(-3), Fraction(1)]),
         _jet_1d([Fraction(5), Fraction(1, 3), Fraction(4)]), True),
        (_jet_1d([Fraction(2), Fraction(-3)]), _jet_1d([Fraction(7), Fraction(-1)]), True),
        # all-int jets keep int products
        (_jet_1d([2, -3, 0, 5]), _jet_1d([1, 4, -2]), False),
        # ints against Fractions: every product has a Fraction factor
        (_jet_1d([1, 2, 3]), _jet_1d([Fraction(1, 2), Fraction(-1, 3)]), True),
        # ints beside Fractions on both sides: an int * int key stays int
        (_jet_1d([1, Fraction(1, 2)]), _jet_1d([Fraction(1, 3), 3]), False),
        (Jet(2, 3, {(0, 0): Fraction(1, 3), (1, 0): Fraction(-2, 5), (1, 1): Fraction(4, 9)}),
         Jet(2, 3, {(0, 1): Fraction(3, 2), (0, 0): Fraction(-1, 6), (2, 0): 0}), True),
    ],
)
def test_jet_mul_exact_products_match_the_reference(a, b, exact):
    # equal values, keys in the same order and the same types (int stays int)
    with mock.patch.object(jets, "_numerators", wraps=jets._numerators) as spy:
        got = jet_mul(a, b).coeffs
    want = _reference_mul(a, b)
    assert got == want and list(got) == list(want)
    assert [type(v) for v in got.values()] == [type(v) for v in want.values()]
    assert spy.called == exact


@st.composite
def _mixed_jet_pair(draw):
    # jets of mixed values, one side given a nonzero float or complex
    # coefficient, so that the pair never qualifies for the exact branch
    pair = list(draw(_jet_pair(st.one_of(_exact, _inexact))))
    i = draw(st.integers(0, 1))
    dim, order = pair[i].dim, pair[i].order
    key = draw(st.sampled_from([k for n in range(order + 1) for k in mi_of_order(dim, n)]))
    value = draw(_inexact.filter(lambda v: v != 0))
    pair[i] = Jet(dim, order, {**pair[i].coeffs, key: value})
    return tuple(pair)


@settings(max_examples=200, deadline=None)
@given(_mixed_jet_pair())
def test_jet_mul_on_mixed_jets_is_bitwise_the_pairwise_loop(pair):
    a, b = pair
    with mock.patch.object(jets, "_numerators", side_effect=AssertionError("exact branch")):
        got = jet_mul(a, b).coeffs
    assert _bits(got) == _bits(_reference_mul(a, b))


@settings(max_examples=200, deadline=None)
@given(_jet_pair(), st.data())
def test_jet_compose_of_full_degree_polynomial_matches_full_horner(pair, data):
    # f of degree up to K: every Horner step below the top is truncated
    _, g = pair
    degree = data.draw(st.integers(0, g.order))
    coeffs = data.draw(st.lists(_exact, min_size=degree + 1, max_size=degree + 1))
    f = Jet(1, g.order, {(j,): c for j, c in enumerate(coeffs)}, (g.value,))
    got = jet_compose(f, g).coeffs
    want = _reference_compose(f, g)
    assert got == want and list(got) == list(want)
    assert [type(v) for v in got.values()] == [type(v) for v in want.values()]


@settings(max_examples=200, deadline=None)
@given(_jet_pair(st.floats(-3, 3)), st.data())
def test_jet_compose_on_float_jets_is_bitwise_the_full_horner(pair, data):
    _, g = pair
    coeffs = data.draw(st.lists(st.floats(-3, 3), min_size=g.order + 1, max_size=g.order + 1))
    f = Jet(1, g.order, {(j,): c for j, c in enumerate(coeffs)}, (g.value,))
    assert _bits(jet_compose(f, g).coeffs) == _bits(_reference_compose(f, g))


_point_values = st.lists(st.floats(-3, 3).map(lambda x: x + 0.0), min_size=3, max_size=3).map(
    np.array
)


@settings(max_examples=100, deadline=None)
@given(_jet_pair(_point_values), st.data())
def test_jet_compose_on_array_jets_is_bitwise_the_full_horner(pair, data):
    # jets over three base points, as the grid evaluator builds them; the
    # values avoid -0.0, since for a constant f the jet keeps c itself where
    # the reference adds it to 0, which turns -0.0 into 0.0
    _, g = pair
    coeffs = data.draw(st.lists(_point_values, min_size=g.order + 1, max_size=g.order + 1))
    f = Jet(1, g.order, {(j,): c for j, c in enumerate(coeffs)}, (g.value,))
    assert _bits(jet_compose(f, g).coeffs) == _bits(_reference_compose(f, g))


# ---------------------------------------------------------------------------
# jet_of's memo of recent jets


@pytest.fixture
def empty_memo():
    jets._memo.clear()
    yield jets._memo
    jets._memo.clear()


def test_memo_keys_each_coordinate_by_type_and_bits(empty_memo):
    p = PolySpec((0, 1))
    one = [jet_of(p, (x,), 2).value for x in (1, 1.0, Fraction(1))]
    assert [type(v) for v in one] == [int, float, Fraction]
    assert len(empty_memo) == 3
    # a shared entry would hand back the first caller's base
    zero = [repr(jet_of(p, (x,), 2).base_point) for x in (0.0, -0.0, 0.0, -0.0)]
    assert zero == ["(0.0,)", "(-0.0,)", "(0.0,)", "(-0.0,)"]
    assert len(empty_memo) == 5
    # complex coordinates by their bits as well
    assert repr(jet_of(p, (complex(1, -0.0),), 2).base_point) == "((1-0j),)"
    assert repr(jet_of(p, (complex(1, 0.0),), 2).base_point) == "((1+0j),)"
    assert len(empty_memo) == 7


def test_memo_never_shares_an_entry_between_equal_specs(empty_memo):
    # dataclass equality calls these equal, and they hash alike
    a, b = PolySpec((1,)), PolySpec((1.0,))
    assert a == b and hash(a) == hash(b)
    assert type(jet_of(a, (0,), 3).value) is int
    assert type(jet_of(b, (0,), 3).value) is float
    c = PolySpec((1,))
    assert jet_of(c, (0,), 3) is not jet_of(a, (0,), 3)
    assert len(empty_memo) == 3


def test_memo_never_stores_an_array_base(empty_memo):
    xs = np.array([0.1, 0.2, 0.3])
    for base in [(xs,), (xs, 0.5), (0.5, xs)]:
        spec = SinSpec() if len(base) == 1 else MVPolySpec.from_dict(2, {(1, 1): 1})
        first, second = jet_of(spec, base, 3), jet_of(spec, base, 3)
        assert first is not second and type(first.coeffs) is dict
    assert not empty_memo


def test_memo_holds_a_bounded_number_of_entries(empty_memo):
    specs = [PolySpec((k, 1)) for k in range(3 * jets._MEMO_SIZE)]
    for k, spec in enumerate(specs):
        assert jet_of(spec, (Fraction(k, 7),), 4).value == k + Fraction(k, 7)
        assert len(empty_memo) <= jets._MEMO_SIZE
    # the most recent entries are kept, each with its own spec
    assert [entry[0] for entry in empty_memo.values()] == specs[-jets._MEMO_SIZE:]
    # a hit makes its entry the most recent
    jet_of(specs[-jets._MEMO_SIZE], (Fraction(2 * jets._MEMO_SIZE, 7),), 4)
    assert list(empty_memo.values())[-1][0] is specs[-jets._MEMO_SIZE]


@pytest.mark.parametrize("f, g, alpha, at", [
    (RecipPowSpec(1), MVPolySpec.from_dict(2, {(0, 0): 2, (1, 1): Fraction(1, 3)}), (2, 2),
     (Fraction(1, 2), Fraction(-1, 5))),
    (ExpSpec(), SumSpec(SinSpec(), PolySpec((0.5, 0, 1))), (6,), (0.3,)),
])
def test_a_shared_jet_survives_both_chain_rule_routes(f, g, alpha, at, empty_memo):
    from gevreykit.faadibruno import fdb_derivative

    n = sum(alpha)
    fdb_derivative(f, g, alpha, at)
    jets.jet_chain_partial(f, g, alpha, at)
    g_jet = jet_of(g, at, n)
    f_jet = jet_of(f, (g_jet.value,), n)
    # both routes read these two entries, and only these
    assert len(empty_memo) == 2 and g_jet is jet_of(g, at, n)
    assert _bits(g_jet.coeffs) == _bits(g.jet(at, n).coeffs)
    assert _bits(f_jet.coeffs) == _bits(f.jet((g_jet.value,), n).coeffs)
    with pytest.raises(TypeError):
        g_jet.coeffs[(0,) * len(alpha)] = 0
