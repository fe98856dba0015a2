"""The one polynomial spec: `PolySpec(coeffs)` builds the univariate
`MVPolySpec`, and the spec-tree walks of `parametrix` have no polynomial
fork of their own.

The references below are the loops and walks of the earlier layout, in
which a separate univariate class had its own jet and its own branches.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gevreykit.funcspec import (
    ComposeSpec,
    CosSpec,
    ExpSpec,
    FunctionSpec,
    MVPolySpec,
    PolySpec,
    ProdSpec,
    RecipPowSpec,
    SinSpec,
    SumSpec,
    _float_on_grid,
    _on_grid,
)
from gevreykit.jets import Jet, jet_compose, jet_partial
from gevreykit.multiindex import mi_order
from gevreykit.parametrix import DiffOperator, GridEvaluator, SymbolAlgebra, _axis_degrees


def _bits(coeffs):
    # keys in order, each value's type and exact bits (repr tells -0.0 from 0.0)
    return [
        (k, type(v), v.tobytes() if isinstance(v, np.ndarray) else repr(v))
        for k, v in coeffs.items()
    ]


# ---------------------------------------------------------------------------
# the earlier jets, as they were


def _univariate_loop(coeffs, base, K):
    """The jet of the deleted univariate class, sum coeffs[i] x^i."""
    (b,) = base
    grid = _on_grid(base)
    out = {}
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        for j in range(min(i, K) + 1):
            scaled = _float_on_grid(c * math.comb(i, j), grid)
            out[(j,)] = out.get((j,), 0) + scaled * b ** (i - j)
    return out


def _expand_loop(spec, base, K):
    """MVPolySpec's jet before the flat walk: one dict per axis step."""
    grid = _on_grid(base)
    coeffs = {}

    def expand(expo, c):
        partial = {(0,) * spec.dimension: c}
        for axis, e in enumerate(expo):
            if e == 0:
                continue
            nxt = {}
            b = base[axis]
            for beta, v in partial.items():
                for j in range(e + 1):
                    if mi_order(beta) + j > K:
                        break
                    up = tuple(x + j if a == axis else x for a, x in enumerate(beta))
                    scaled = _float_on_grid(v * math.comb(e, j), grid)
                    nxt[up] = nxt.get(up, 0) + scaled * b ** (e - j)
            partial = nxt
        for beta, v in partial.items():
            coeffs[beta] = coeffs.get(beta, 0) + _float_on_grid(v, grid)

    for expo, c in spec.terms:
        expand(expo, c)
    return coeffs


_coeff = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
    st.floats(-3, 3),
    st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False),
)
_BASES = {
    "int": st.integers(-3, 3),
    "fraction": st.fractions(min_value=-3, max_value=3, max_denominator=6),
    "float": st.floats(-3, 3),
    "complex": st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False),
    "array": st.lists(st.floats(-3, 3), min_size=3, max_size=3).map(np.array),
}


@st.composite
def _poly_case(draw):
    d = draw(st.integers(1, 3))
    expo = st.tuples(*[st.integers(0, 4)] * d)
    spec = MVPolySpec.from_dict(d, draw(st.dictionaries(expo, _coeff, max_size=4)))
    kind = draw(st.sampled_from(sorted(_BASES)))
    base = tuple(draw(_BASES[kind]) for _ in range(d))
    return spec, base, draw(st.integers(0, 8))


@settings(max_examples=200, deadline=None)
@given(case=_poly_case())
def test_the_polynomial_jet_matches_both_earlier_loops_bit_for_bit(case):
    spec, base, K = case
    got = _bits(spec.jet(base, K).coeffs)
    assert got == _bits(_expand_loop(spec, base, K))
    if spec.dimension == 1 and any(e != (0,) for e, _ in spec.terms):
        # the univariate loop multiplied a constant term by b**0; a
        # nonconstant term's j = 0 step then lands on the same key
        coeffs = [0] * (spec.terms[-1][0][0] + 1)
        for (i,), c in spec.terms:
            coeffs[i] = c
        assert PolySpec(tuple(coeffs)) == spec
        assert got == _bits(_univariate_loop(coeffs, base, K))


def test_a_constant_polynomial_keeps_its_coefficient():
    # the univariate loop's c * b**0 made a constant's jet a float, a
    # Fraction or an array shaped like the base; the one polynomial jet
    # keeps the coefficient as given, rounding a Fraction on a grid only
    grid = np.linspace(-0.5, 0.5, 4)
    cases = [
        (2, 0.5, 2, 2.0),
        (Fraction(1, 3), Fraction(1, 2), Fraction(1, 3), Fraction(1, 3)),
        (2, Fraction(1, 2), 2, Fraction(2)),
        (1j, 0.5, 1j, 1j),
        (Fraction(1, 3), grid, 1 / 3, np.full(4, 1 / 3)),
        (-2, grid, -2, np.full(4, -2.0)),
    ]
    for c, b, new, old in cases:
        jet = PolySpec((c,)).jet((b,), 3)
        before = _univariate_loop((c,), (b,), 3)
        assert list(jet.coeffs) == list(before) == [(0,)]
        assert _bits(jet.coeffs) == _bits({(0,): new})
        assert _bits(before) == _bits({(0,): old})
        assert np.all(jet.value == before[(0,)])


def _rows_before(spec_coeffs, points, beta, K):
    base = (points[:, 0],)
    jet = Jet(1, K, _univariate_loop(spec_coeffs, base, K), base)
    row = np.asarray(jet_partial(jet, beta), dtype=complex)
    return np.broadcast_to(row, (len(points),)).copy()


def test_constant_coefficients_give_the_grid_rows_and_compositions_of_before():
    points = np.linspace(-0.75, 0.75, 7)[:, None]
    K = 4
    consts = [(1,), (-3,), (Fraction(2, 7),), (2.5,), (1.5j,), (0,)]
    P = DiffOperator(2, 1, {(2,): PolySpec((1,)), (1,): SinSpec()})
    ev = GridEvaluator(SymbolAlgebra(P), points)
    for coeffs in consts:
        sid = ev.algebra.register(PolySpec(coeffs))
        for n in range(K + 1):
            got = ev.deriv(sid, (n,))
            assert got.tobytes() == _rows_before(coeffs, points, (n,), K).tobytes(), (coeffs, n)
    base = (points[:, 0],)
    for coeffs in consts[:-1]:
        inner = Jet(1, K, _univariate_loop(coeffs, base, K), base)
        for outer in (ExpSpec(), SinSpec(), CosSpec(), RecipPowSpec(2)):
            got = ComposeSpec(outer, PolySpec(coeffs)).jet(base, K)
            before = jet_compose(outer.jet((inner.value,), K), inner)
            assert _bits(got.coeffs) == _bits(before.coeffs), (outer, coeffs)


# ---------------------------------------------------------------------------
# the spec-tree walks


@dataclass(frozen=True)
class _Univariate(FunctionSpec):
    """The deleted univariate class, as far as the walks read it."""

    coeffs: tuple

    @property
    def dim(self) -> int:
        return 1


def _is_zero_before(spec):
    if isinstance(spec, _Univariate):
        return all(c == 0 for c in spec.coeffs)
    if isinstance(spec, MVPolySpec):
        return all(c == 0 for _, c in spec.terms)
    if isinstance(spec, SumSpec):
        return _is_zero_before(spec.left) and _is_zero_before(spec.right)
    if isinstance(spec, ProdSpec):
        return _is_zero_before(spec.left) or _is_zero_before(spec.right)
    return False


def _axis_degrees_before(spec, dim):
    if _is_zero_before(spec):
        return (-1,) * dim
    if isinstance(spec, _Univariate):
        return (max(i for i, c in enumerate(spec.coeffs) if c != 0),)
    if isinstance(spec, MVPolySpec):
        degs = [0] * dim
        for expo, c in spec.terms:
            if c != 0:
                for i, e in enumerate(expo):
                    degs[i] = max(degs[i], e)
        return tuple(degs)
    if isinstance(spec, (SumSpec, ProdSpec)):
        a = _axis_degrees_before(spec.left, dim)
        b = _axis_degrees_before(spec.right, dim)
        if a is None or b is None:
            return None
        if isinstance(spec, SumSpec):
            return tuple(max(x, y) for x, y in zip(a, b))
        if a == (-1,) * dim or b == (-1,) * dim:
            return (-1,) * dim
        return tuple(x + y for x, y in zip(a, b))
    return None


def _leaf(dim):
    """(new spec, earlier spec) pairs: polynomials, zero ones included,
    and non-polynomial leaves."""
    small = st.sampled_from([0, 0, 1, -2, Fraction(1, 3), 0.5])
    if dim == 1:
        poly = st.lists(small, min_size=1, max_size=4).map(
            lambda cs: (PolySpec(tuple(cs)), _Univariate(tuple(cs)))
        )
        other = st.sampled_from([SinSpec(), ExpSpec(), ComposeSpec(CosSpec(), PolySpec((0, 1)))])
    else:
        expo = st.tuples(*[st.integers(0, 3)] * dim)
        poly = st.dictionaries(expo, small, max_size=3).map(lambda t: MVPolySpec(dim, tuple(t.items())))
        poly = poly.map(lambda p: (p, p))
        other = st.just(ComposeSpec(SinSpec(), MVPolySpec.from_dict(dim, {(1,) * dim: 1})))
    return st.one_of(poly, other.map(lambda s: (s, s)))


def _tree(dim):
    return st.recursive(
        _leaf(dim),
        lambda kids: st.tuples(st.sampled_from([SumSpec, ProdSpec]), kids, kids).map(
            lambda t: (t[0](t[1][0], t[2][0]), t[0](t[1][1], t[2][1]))
        ),
        max_leaves=6,
    )


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_the_folded_degree_walk_matches_both_earlier_walks(data):
    dim = data.draw(st.integers(1, 3))
    new, before = data.draw(_tree(dim))
    degrees = _axis_degrees(new, dim)
    assert degrees == _axis_degrees_before(before, dim)
    assert (degrees == (-1,) * dim) == _is_zero_before(before)
