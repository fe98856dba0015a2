"""Exact truncated multivariate Taylor jets.

A Jet stores the Taylor coefficients c_alpha = d^alpha f(base)/alpha! of a
function through a fixed truncation order.  All ring operations close
within that order.  Composition is evaluated by Horner recursion on the
nonconstant part of the inner jet, deliberately avoiding the
decomposition-sum chain rule so the two derivative paths stay
independent of each other.

Coefficients are exact (int / Fraction) whenever base point and function
permit, floats or complex otherwise; mixed arithmetic follows Python's
numeric tower.  A base coordinate may also be a numpy array of base
points: the coefficients are then arrays with one value per point, and
every operation acts on all points at once.

The index work of a product depends only on the jet's shape: the sums
ka + kb with |ka| + |kb| <= order come from one table per (dim, order),
built on first use.  The second factor's nonzero terms are grouped by
budget once per ``jet_mul`` (and once per ``jet_compose``, for g's
nonconstant part): for each r, the terms with |kb| <= r in their own
order.  A row ka of the first factor reads only the group of budget
order - |ka|, so every pair it visits lands, and the coefficients are
multiplied and added in the same order as the plain pairwise loop would.

Exact products are taken on integer numerators, once per operation:
- ``jet_mul``: when one factor's coefficients are all Fractions and the
  other's all ints or Fractions, over each factor's least common
  denominator, with one Fraction per output key;
- ``jet_compose``: when g's nonconstant coefficients are all Fractions
  and f's are ints or Fractions, Horner runs on g's numerators over
  their common denominator dg, carries the denominator (f's common
  denominator times dg^steps) and scales each f coefficient in; one
  Fraction per key is built at the end, and the constant key is f's
  constant coefficient itself, as the plain loop leaves it.
Either way each output equals the Fraction the plain loop gives, without
two gcds per Fraction product and sum.  Any other mix, and every float,
complex or array coefficient, keeps the plain loop.

``jet_compose`` starts Horner at f's highest nonzero coefficient, since
leading zeros only multiply empty jets, and truncates each step: after
step j, j more factors of g's nonconstant part follow, each raising the
order by at least 1, so step j keeps only the orders up to K - j.  The
kept coefficients come from the same products summed in the same order,
so the result equals the untruncated Horner's bit for bit, key order
included.

``jet_of`` keeps the few most recently built jets, so the two chain-rule
routes (``fdb_derivative`` and ``jet_chain_partial``) share g's jet at the
point and f's jet at g's value instead of building each twice; only their
combining steps, the decomposition sum and Horner composition, need to
be independent.  An entry is keyed by the spec's identity (the entry
holds the spec, so its id cannot be reused while the entry lives; equal
specs such as ``PolySpec((1,))`` and ``PolySpec((1.0,))`` would give
different jets), by the order, and per base coordinate by its type and
value, floats and complex numbers by their bits: ``1``, ``1.0`` and
``Fraction(1)`` are three keys, and so are ``0.0`` and ``-0.0``.  A base
holding anything else, a numpy array above all, is never stored.  A
stored jet's coefficients are a read-only view, since every caller shares
them.
"""

from __future__ import annotations

import functools
import math
import operator
import struct
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .multiindex import MultiIndex, check_entries, mi_add, mi_factorial, mi_of_order, mi_order

Number = int | Fraction | float | complex


def _is_exact(x: Number) -> bool:
    return isinstance(x, (int, Fraction))


def _is_zero(x) -> bool:
    """Scalar zero test; an array over base points never counts as zero."""
    return not isinstance(x, np.ndarray) and x == 0


@dataclass(frozen=True)
class Jet:
    """Truncated Taylor expansion: coeffs[alpha] = d^alpha f(base)/alpha!."""

    dim: int
    order: int
    coeffs: Mapping[MultiIndex, Number]
    base_point: tuple[Number, ...] = field(default=())

    def coeff(self, alpha: MultiIndex) -> Number:
        return self.coeffs.get(alpha, 0)

    @property
    def value(self) -> Number:
        return self.coeff((0,) * self.dim)


def _check_compatible(a: Jet, b: Jet) -> None:
    if a.dim != b.dim or a.order != b.order:
        raise ValueError("jets must share dimension and truncation order")


def jet_add(a: Jet, b: Jet) -> Jet:
    _check_compatible(a, b)
    out = dict(a.coeffs)
    for k, v in b.coeffs.items():
        out[k] = out.get(k, 0) + v
    return Jet(a.dim, a.order, out, a.base_point or b.base_point)


@functools.cache
def _sum_table(dim: int, order: int) -> dict[MultiIndex, dict[MultiIndex, MultiIndex]]:
    """ka -> {kb: ka + kb} for every kb with |ka| + |kb| <= order."""
    shape = [k for n in range(order + 1) for k in mi_of_order(dim, n)]  # by |k|
    return {
        ka: {kb: mi_add(ka, kb) for kb in shape[: math.comb(order - mi_order(ka) + dim, dim)]}
        for ka in shape
    }


def _by_budget(terms: list[tuple[MultiIndex, Number]], order: int) -> list[list]:
    """For each budget r = 0..order, the terms (k, v) with |k| <= r, in
    their order."""
    ranked = [(mi_order(k), k, v) for k, v in terms]
    return [[(k, v) for n, k, v in ranked if n <= r] for r in range(order + 1)]


def _numerators(values: list) -> tuple[int, list[int]]:
    """The least common denominator of int/Fraction values and each value's
    integer numerator over it."""
    d = math.lcm(*(v.denominator for v in values))
    return d, [v.numerator * (d // v.denominator) for v in values]


_EXACT_TYPES = frozenset((int, Fraction))
_FRACTION_TYPE = frozenset((Fraction,))


def _mul_terms(
    a_items: list[tuple[MultiIndex, Number]],
    b_budget: list[list[tuple[MultiIndex, Number]]],
    sums: dict[MultiIndex, dict[MultiIndex, MultiIndex]],
    order: int,
) -> dict[MultiIndex, Number]:
    """The product, through `order`, of a's items (each |ka| <= order)
    with b's nonzero terms grouped by ``_by_budget``: each nonzero a-row
    reads the b terms that land, those of order <= order - |ka|, so
    ``sums`` (a table of order >= `order`) always holds ka + kb.  a's
    items outer, b's inner in b's order, each output key inserted at its
    first product."""
    out: dict[MultiIndex, Number] = {}
    for ka, va in a_items:
        # _is_zero inline: this runs once per row of every product
        if type(va) is not np.ndarray and va == 0:
            continue
        row = sums[ka]
        for kb, vb in b_budget[order - sum(ka)]:
            k = row[kb]
            out[k] = out.get(k, 0) + va * vb
    return out


def jet_mul(a: Jet, b: Jet) -> Jet:
    _check_compatible(a, b)
    rows = [(ka, va) for ka, va in a.coeffs.items() if mi_order(ka) <= a.order and not _is_zero(va)]
    b_terms = [(kb, vb) for kb, vb in b.coeffs.items() if not _is_zero(vb)]
    a_types = {type(va) for _, va in rows}
    b_types = {type(vb) for _, vb in b_terms}
    # exact branch: every product has a Fraction factor, so each output is a
    # Fraction; with ints on both sides the loop keeps int * int an int
    exact = (a_types <= _FRACTION_TYPE and b_types <= _EXACT_TYPES) or (
        b_types <= _FRACTION_TYPE and a_types <= _EXACT_TYPES
    )
    if exact:
        da, a_num = _numerators([va for _, va in rows])
        db, b_num = _numerators([vb for _, vb in b_terms])
        rows = [(ka, na) for (ka, _), na in zip(rows, a_num)]
        b_terms = [(kb, nb) for (kb, _), nb in zip(b_terms, b_num)]
    out = _mul_terms(rows, _by_budget(b_terms, a.order), _sum_table(a.dim, a.order), a.order)
    if exact:
        d = da * db
        out = {k: Fraction(n, d) for k, n in out.items()}
    return Jet(a.dim, a.order, out, a.base_point or b.base_point)


def jet_compose(f: Jet, g: Jet) -> Jet:
    """The jet of f o g at g's base point; f must be univariate at g's value.

    Horner evaluation of f's truncated series at the nonconstant part of
    g; exact whenever the inputs are exact.
    """
    if f.dim != 1:
        raise ValueError("outer jet must be univariate")
    if f.order != g.order:
        raise ValueError("jets must share truncation order")
    fb = f.base_point[0] if f.base_point else 0
    gv = g.value
    tol = 0 if _is_exact(fb) and _is_exact(gv) else 1e-10
    if np.any(abs(fb - gv) > tol):
        raise ValueError(f"outer base {fb} != inner value {gv}")
    K, zero = g.order, (0,) * g.dim
    ghat = [(k, v) for k, v in g.coeffs.items() if mi_order(k) > 0 and not _is_zero(v)]
    # leading zero coefficients would only multiply empty jets
    top = max((k[0] for k, c in f.coeffs.items() if k[0] <= K and not _is_zero(c)), default=0)
    cs = [f.coeff((j,)) for j in range(top + 1)]
    sums = _sum_table(g.dim, K)
    # Fraction ghat under exact f: every product has a Fraction factor, so
    # Horner runs on integer numerators over one carried denominator
    exact = {type(v) for _, v in ghat} <= _FRACTION_TYPE and set(map(type, cs)) <= _EXACT_TYPES
    if exact:
        dg, g_num = _numerators([v for _, v in ghat])
        ghat = [(k, n) for (k, _), n in zip(ghat, g_num)]
        df, cs_num = _numerators(cs)
    budget = _by_budget(ghat, K)
    c = cs_num[top] if exact else cs[top]
    out: dict[MultiIndex, Number] = {} if _is_zero(c) else {zero: c}
    scale = 1  # exact: out's numerators are over df * scale, scale = dg^steps
    for j in range(top - 1, -1, -1):
        # j more factors of ghat follow, each raising the order by at least
        # 1, so only the orders up to K - j can reach the result; ghat has
        # no constant term, so no product lands on the zero key
        out = _mul_terms(out.items(), budget, sums, K - j)
        if exact:
            scale *= dg
            if cs_num[j]:
                out[zero] = cs_num[j] * scale
        elif not _is_zero(cs[j]):
            out[zero] = 0 + cs[j]
    if exact:
        d = df * scale
        out = {k: Fraction(n, d) for k, n in out.items() if k != zero}
        if cs[0]:
            out[zero] = 0 + cs[0]
    return Jet(g.dim, K, out, g.base_point)


def check_chain_dims(f, g, alpha: MultiIndex, at) -> tuple:
    """The point as a tuple (a scalar is the 1-tuple of itself); raise
    ValueError unless f is univariate and the point, alpha and g have one
    dimension."""
    if not isinstance(at, tuple):
        at = (at,)
    if f.dim != 1:
        raise ValueError(f"outer function must be univariate, got dimension {f.dim}")
    if not len(at) == len(alpha) == g.dim:
        raise ValueError(
            f"the point, alpha and g must have one dimension; "
            f"got {len(at)}, {len(alpha)} and {g.dim}"
        )
    return at


def jet_chain_partial(f, g, alpha: MultiIndex, at: tuple[Number, ...]) -> Number:
    """d^alpha (f o g)(at) by the jet route: g's jet at `at`, f's jet at
    g's value, `jet_compose` and `jet_partial`.  The oracle the
    decomposition-sum chain rule is checked against."""
    alpha = tuple(map(operator.index, alpha))
    at = check_chain_dims(f, g, alpha, at)
    check_entries(alpha)
    n = mi_order(alpha)
    g_jet = jet_of(g, at, n)
    f_jet = jet_of(f, (g_jet.value,), n)
    return jet_partial(jet_compose(f_jet, g_jet), alpha)


def jet_partial(j: Jet, alpha: MultiIndex) -> Number:
    """d^alpha f(base) = alpha! * coeff(alpha)."""
    if len(alpha) != j.dim:
        raise ValueError("multi-index dimension mismatch")
    if mi_order(alpha) > j.order:
        raise ValueError(f"|alpha| = {mi_order(alpha)} exceeds truncation order {j.order}")
    return mi_factorial(alpha) * j.coeff(alpha)


# the most recently built jets: (id(spec), K, coordinate keys) -> (spec, jet),
# least recently used first
_MEMO_SIZE = 8
_memo: dict[tuple, tuple] = {}
_pack_float, _pack_complex = struct.Struct("<d").pack, struct.Struct("<dd").pack


def _memo_key(spec, base: tuple, K: int) -> tuple | None:
    """jet_of's memo key, or None for a base that must not be stored."""
    key: list = [id(spec), K]
    for x in base:
        t = type(x)
        if t is int or t is Fraction:
            key.append((t, x))
        elif t is float:
            key.append((t, _pack_float(x)))
        elif t is complex:
            key.append((t, _pack_complex(x.real, x.imag)))
        else:
            return None
    return tuple(key)


def jet_of(spec, base: tuple[Number, ...], K: int):
    """Jet of a FunctionSpec at `base` through order K.

    Thin dispatcher, with the memo of the module docstring; the catalog
    of specs lives in gevreykit.funcspec.
    """
    key = _memo_key(spec, base, K)
    if key is None:
        return spec.jet(base, K)
    entry = _memo.pop(key, None)
    if entry is None:
        j = spec.jet(base, K)
        entry = (spec, Jet(j.dim, j.order, MappingProxyType(j.coeffs), j.base_point))
        if len(_memo) >= _MEMO_SIZE:
            del _memo[next(iter(_memo))]
    _memo[key] = entry
    return entry[1]
