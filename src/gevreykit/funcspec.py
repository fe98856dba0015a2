"""Symbolic function catalog: polynomials, exp/sin/cos, reciprocal powers,
and their sums, products and compositions.

Every spec knows its dimension, evaluates at points or numpy arrays,
and produces its truncated Taylor jet at any admissible base point; a
jet is the only way the kit differentiates a spec (the symbol algebra
reads d^beta of a coefficient off its jet).  On
numpy arrays of base points, exact coefficients are rounded to floats,
so such jets hold float arrays and never numpy object arrays.

Grammar accepted by :func:`parse_spec` (d = 1 unless noted):

    poly:c0,c1,...          polynomial with the given coefficients, the
                            univariate mvpoly
    exp | sin | cos | recip
    compose(A,B)  sum(A,B)  prod(A,B)
    mvpoly:e1,..,ed:c;...   d >= 2 monomial:coefficient pairs

Coefficients are ints, fractions p/q or finite floats and exponents are
non-negative ints; anything else raises ValueError naming the token, or
the literal for an empty one.  A pair's body is cut at the comma outside
parentheses that a spec name follows.  Pairs nest at most MAX_SPEC_DEPTH
deep.
"""

from __future__ import annotations

import cmath
import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .jets import _EXACT_TYPES, Jet, Number, _is_zero, jet_add, jet_compose, jet_mul
from .multiindex import MultiIndex

__all__ = [
    "FunctionSpec",
    "PolySpec",
    "MVPolySpec",
    "ExpSpec",
    "SinSpec",
    "CosSpec",
    "RecipPowSpec",
    "ComposeSpec",
    "SumSpec",
    "ProdSpec",
    "parse_spec",
]


def _elementary(name: str, x):
    """numpy's, cmath's or math's exp/sin/cos, by the type of x."""
    if isinstance(x, np.ndarray):
        return getattr(np, name)(x)
    return getattr(cmath if isinstance(x, complex) else math, name)(x)


def _on_grid(base: tuple[Number, ...]) -> bool:
    return any(isinstance(b, np.ndarray) for b in base)


def _float_on_grid(x: Number, grid: bool) -> Number:
    # Fraction * ndarray is a numpy object array, so on a grid an exact
    # coefficient is rounded once, where the per-point float route rounds it
    return float(x) if grid and isinstance(x, Fraction) else x


class FunctionSpec:
    """Base class; subclasses implement dim, eval and jet."""

    @property
    def dim(self) -> int:
        raise NotImplementedError

    def eval(self, *xs):
        raise NotImplementedError

    def jet(self, base: tuple[Number, ...], K: int) -> Jet:
        raise NotImplementedError


@dataclass(frozen=True)
class MVPolySpec(FunctionSpec):
    """Polynomial in `dimension` variables: (exponent tuple, coefficient)
    pairs, which `from_dict` sorts by exponent, dropping zero coefficients."""

    dimension: int
    terms: tuple[tuple[MultiIndex, Number], ...]

    @classmethod
    def from_dict(cls, dimension: int, terms: dict[MultiIndex, Number]) -> "MVPolySpec":
        return cls(dimension, tuple(sorted((k, v) for k, v in terms.items() if v != 0)))

    @property
    def dim(self) -> int:
        return self.dimension

    def eval(self, *xs):
        if len(xs) != self.dimension:
            raise ValueError(f"expected {self.dimension} coordinates")
        out = 0
        for expo, c in self.terms:
            term = c
            for e, x in zip(expo, xs):
                for _ in range(e):
                    term = term * x
            out = out + term
        return out

    def jet(self, base: tuple[Number, ...], K: int) -> Jet:
        # each shifted monomial prod (b_i + h_i)^{e_i} is expanded one axis
        # at a time into (beta, |beta|, value) with distinct betas; the
        # steps (j, binom(e, j), b^(e - j)) of an (axis, e) are built once.
        # "0 +" turns a -0.0 (or a complex one's parts) into 0.0, as a sum
        # into a fresh key does.  At an int/Fraction base with int/Fraction
        # coefficients the loop runs on integer numerators over one
        # denominator, lcm(coefficient denominators) * prod_a q_a^E_a (q_a
        # base a's denominator, E_a the top exponent on axis a): a term's
        # numerator starts with the q_a^E_a of its absent axes and a step's
        # power is p^(e - j) q^(E - e + j), binomial included.  A
        # coefficient is a Fraction where a Fraction coefficient, or a
        # Fraction coordinate on an axis of positive exponent, entered it.
        grid = _on_grid(base)
        zero = (0,) * self.dimension
        exact = set(map(type, base)) | {type(c) for _, c in self.terms} <= _EXACT_TYPES
        if exact:
            tops = [max((expo[a] for expo, _ in self.terms), default=0) for a in range(self.dimension)]
            q_tops = [b.denominator**top for b, top in zip(base, tops)]
            lcd = math.lcm(*(c.denominator for _, c in self.terms))
            fractional: set[MultiIndex] = set()
        steps: dict[tuple[int, int], list[tuple[int, int, Number]]] = {}
        coeffs: dict[MultiIndex, Number] = {}
        for expo, c in self.terms:
            if exact:
                frac = type(c) is Fraction or any(e and type(b) is Fraction for e, b in zip(expo, base))
                c = c.numerator * (lcd // c.denominator)
                c *= math.prod(q for e, q in zip(expo, q_tops) if e == 0)
            partial = [(zero, 0, c)]
            for axis, e in enumerate(expo):
                if e == 0:
                    continue
                step = steps.get((axis, e))
                if step is None:
                    b = base[axis]
                    if exact:
                        p, q, top = b.numerator, b.denominator, tops[axis]
                        step = [
                            (j, 1, math.comb(e, j) * p ** (e - j) * q ** (top - e + j))
                            for j in range(min(e, K) + 1)
                        ]
                    else:
                        step = [(j, math.comb(e, j), b ** (e - j)) for j in range(min(e, K) + 1)]
                    steps[axis, e] = step
                nxt = []
                for beta, order, v in partial:
                    for j, binom, power in step:
                        if order + j > K:
                            break
                        up = beta[:axis] + (j,) + beta[axis + 1 :]
                        scaled = _float_on_grid(v * binom, grid)
                        nxt.append((up, order + j, 0 + scaled * power))
                partial = nxt
            for beta, _, v in partial:
                coeffs[beta] = coeffs.get(beta, 0) + _float_on_grid(v, grid)
                if exact and frac:
                    fractional.add(beta)
        if exact:
            den = lcd * math.prod(q_tops)
            coeffs = {
                beta: Fraction(n, den) if beta in fractional else n // den
                for beta, n in coeffs.items()
            }
        return Jet(self.dimension, K, coeffs, base)


def PolySpec(coeffs: tuple[Number, ...]) -> MVPolySpec:
    """The univariate polynomial sum coeffs[i] * x^i (the ``poly:`` form)."""
    return MVPolySpec.from_dict(1, {(i,): c for i, c in enumerate(coeffs)})


@dataclass(frozen=True)
class ExpSpec(FunctionSpec):
    @property
    def dim(self) -> int:
        return 1

    def eval(self, x):
        return _elementary("exp", x)

    def jet(self, base: tuple[Number, ...], K: int) -> Jet:
        return _cycle_jet(base, K, lambda x: (_elementary("exp", x),), (1,), 0)


def _sin_cycle(x) -> tuple:
    """sin -> cos -> -sin -> -cos; cos is the same cycle from entry 1."""
    s, c = _elementary("sin", x), _elementary("cos", x)
    return (s, c, -s, -c)


_SIN_AT_ZERO = (0, 1, 0, -1)


def _cycle_jet(base: tuple[Number, ...], K: int, cycle_at, at_zero: tuple, shift: int) -> Jet:
    """Jet of a function whose derivatives repeat the cycle cycle_at(x),
    each function evaluated once: coefficient k is entry k + shift of the
    cycle, divided by k!.  At base 0 the cycle is the integers `at_zero`,
    and the jet is exact, without its zero entries."""
    (b,) = base
    exact = _is_zero(b)
    cycle = at_zero if exact else cycle_at(float(b) if isinstance(b, Fraction) else b)
    n = len(cycle)
    coeffs: dict[MultiIndex, Number] = {}
    fact = 1
    for k in range(K + 1):
        if k > 0:
            fact *= k
        v = cycle[(k + shift) % n]
        if not exact:
            coeffs[(k,)] = v / fact
        elif v:
            coeffs[(k,)] = Fraction(v, fact)
    return Jet(1, K, coeffs, base)


@dataclass(frozen=True)
class SinSpec(FunctionSpec):
    @property
    def dim(self) -> int:
        return 1

    def eval(self, x):
        return _elementary("sin", x)

    def jet(self, base: tuple[Number, ...], K: int) -> Jet:
        return _cycle_jet(base, K, _sin_cycle, _SIN_AT_ZERO, 0)


@dataclass(frozen=True)
class CosSpec(FunctionSpec):
    @property
    def dim(self) -> int:
        return 1

    def eval(self, x):
        return _elementary("cos", x)

    def jet(self, base: tuple[Number, ...], K: int) -> Jet:
        return _cycle_jet(base, K, _sin_cycle, _SIN_AT_ZERO, 1)


@dataclass(frozen=True)
class RecipPowSpec(FunctionSpec):
    """x -> x^(-power); power >= 1.  Pole at 0."""

    power: int = 1

    def __post_init__(self) -> None:
        if self.power < 1:
            raise ValueError("power must be >= 1")

    @property
    def dim(self) -> int:
        return 1

    def eval(self, x):
        if isinstance(x, np.ndarray):
            return x ** (-float(self.power))
        if x == 0:
            raise ZeroDivisionError("reciprocal of zero")
        if isinstance(x, (int, Fraction)):
            return Fraction(1) / Fraction(x) ** self.power
        return 1.0 / x**self.power

    def jet(self, base: tuple[Number, ...], K: int) -> Jet:
        (b,) = base
        if np.any(b == 0):
            raise ZeroDivisionError("jet of reciprocal at a pole")
        k0 = self.power
        coeffs: dict[MultiIndex, Number] = {}
        for j in range(K + 1):
            mag = math.comb(k0 + j - 1, j)
            if isinstance(b, (int, Fraction)):
                val = Fraction((-1) ** j * mag, 1) / Fraction(b) ** (k0 + j)
            else:
                val = (-1) ** j * mag / b ** (k0 + j)
            coeffs[(j,)] = val
        return Jet(1, K, coeffs, base)


@dataclass(frozen=True)
class ComposeSpec(FunctionSpec):
    """outer o inner, with univariate outer."""

    outer: FunctionSpec
    inner: FunctionSpec

    def __post_init__(self) -> None:
        if self.outer.dim != 1:
            raise ValueError("outer spec must be univariate")

    @property
    def dim(self) -> int:
        return self.inner.dim

    def eval(self, *xs):
        return self.outer.eval(self.inner.eval(*xs))

    def jet(self, base: tuple[Number, ...], K: int) -> Jet:
        g = self.inner.jet(base, K)
        v = g.value
        if _on_grid(base) and not isinstance(v, np.ndarray):
            # a constant inner spec: spread its value over the grid, so the
            # outer jet takes its float route and not its exact one
            shape = np.broadcast_shapes(*map(np.shape, base))
            v = np.full(shape, v if isinstance(v, complex) else float(v))
        f = self.outer.jet((v,), K)
        return jet_compose(f, g)


@dataclass(frozen=True)
class SumSpec(FunctionSpec):
    left: FunctionSpec
    right: FunctionSpec

    def __post_init__(self) -> None:
        if self.left.dim != self.right.dim:
            raise ValueError("summands must share dimension")

    @property
    def dim(self) -> int:
        return self.left.dim

    def eval(self, *xs):
        return self.left.eval(*xs) + self.right.eval(*xs)

    def jet(self, base: tuple[Number, ...], K: int) -> Jet:
        return jet_add(self.left.jet(base, K), self.right.jet(base, K))


@dataclass(frozen=True)
class ProdSpec(FunctionSpec):
    left: FunctionSpec
    right: FunctionSpec

    def __post_init__(self) -> None:
        if self.left.dim != self.right.dim:
            raise ValueError("factors must share dimension")

    @property
    def dim(self) -> int:
        return self.left.dim

    def eval(self, *xs):
        return self.left.eval(*xs) * self.right.eval(*xs)

    def jet(self, base: tuple[Number, ...], K: int) -> Jet:
        return jet_mul(self.left.jet(base, K), self.right.jet(base, K))


def _parse_number(tok: str, literal: str) -> Number:
    tok = tok.strip()
    if not tok:
        raise ValueError(f"empty number in {literal!r}")
    try:
        return int(tok)
    except ValueError:
        pass
    if "/" in tok:
        try:
            return Fraction(tok)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {tok!r}") from None
    value = float(tok)
    if not math.isfinite(value):
        raise ValueError(f"number must be finite, got {tok!r}")
    return value


def _split_at(text: str, marks: re.Pattern) -> list[str]:
    """text cut at each delimiter outside parentheses; `marks` matches "(",
    ")" and each delimiter that the start of the next item follows."""
    pieces, depth, start = [], 0, 0
    for m in marks.finditer(text):
        depth += (m[0] == "(") - (m[0] == ")")
        if depth == 0 and m[0] not in "()":
            pieces.append(text[start : m.start()])
            start = m.end()
    return pieces + [text[start:]]


# parsing, jets and evaluation recurse once per level of pair nesting
MAX_SPEC_DEPTH = 100
_ATOMS = {"exp": ExpSpec, "sin": SinSpec, "cos": CosSpec, "recip": RecipPowSpec}
_PAIRS = {"compose": ComposeSpec, "sum": SumSpec, "prod": ProdSpec}
# a pair is cut at the "," that a spec name follows: no number of a literal begins with one
_SPEC_NAMES = [*_ATOMS, "poly:", "mvpoly:", *(name + r"\(" for name in _PAIRS)]
_PAIR_MARKS = re.compile(r"[()]|,(?=\s*(?:%s))" % "|".join(_SPEC_NAMES))


def parse_spec(text: str) -> FunctionSpec:
    """Parse the CLI spec grammar into a FunctionSpec."""
    s = text.strip()
    # the count of "(" bounds the depth, so most texts skip the scan
    if s.count("(") > MAX_SPEC_DEPTH:
        if max(itertools.accumulate((c == "(") - (c == ")") for c in s)) > MAX_SPEC_DEPTH:
            raise ValueError(f"spec nests deeper than {MAX_SPEC_DEPTH} levels")
    if s in _ATOMS:
        return _ATOMS[s]()
    if s.startswith("poly:"):
        return PolySpec(tuple(_parse_number(t, s) for t in s[len("poly:"):].split(",")))
    if s.startswith("mvpoly:"):
        terms: dict[MultiIndex, Number] = {}
        dim = None
        for pair in s[len("mvpoly:"):].split(";"):
            expo_s, _, coeff_s = pair.rpartition(":")
            expo = tuple(_parse_number(t, s) for t in expo_s.split(","))
            if not all(isinstance(e, int) and e >= 0 for e in expo):
                raise ValueError(f"exponents must be non-negative integers, got {expo_s!r}")
            if dim is None:
                dim = len(expo)
            elif len(expo) != dim:
                raise ValueError("inconsistent monomial dimensions")
            terms[expo] = terms.get(expo, 0) + _parse_number(coeff_s, s)
        return MVPolySpec.from_dict(dim, terms)
    for name, cls in _PAIRS.items():
        if s.startswith(name + "(") and s.endswith(")"):
            pieces = _split_at(s[len(name) + 1 : -1], _PAIR_MARKS)
            if len(pieces) != 2:
                raise ValueError(f"cannot split {s!r} into two specs")
            return cls(*map(parse_spec, pieces))
    raise ValueError(f"unrecognized function spec: {text!r}")
