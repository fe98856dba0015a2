"""Generalized higher-order chain rule and the superposition bounds.

``fdb_derivative`` evaluates d^alpha(f o g) by summing over multi-index
decompositions,

    alpha! * sum_pi f^(m)(g) * prod_k (1/m_k!) ((1/p_k!) d^{p_k} g)^{m_k},

and is validated elsewhere against the independent jet-composition
oracle.  The sum's index part depends on alpha alone, so it is
enumerated once per alpha into a cached plan; the order limits admit 135
alphas, which bounds the cache.  The plan lists each distinct (part p,
multiplicity mult) once as a piece, with p! and its constants 1/p! and
1/mult! (each 1/mult! built once per multiplicity), both as Fractions
and as their float copies, and per decomposition its m and its pieces.
So a call builds each f^(m)(g) and each piece's power once, however
many decompositions share it, and still sums the decompositions in the
enumerator's order.

Each call takes one of three routes, by the types of the outer
derivatives and of g's Taylor coefficients c = (1/p!) d^p g:

- all ints and Fractions: the piece is c itself, so its power is
  c^mult, and the sum is taken on integer numerators: 1/mult! is folded
  into its piece (the piece fixes mult), the outer values and the
  pieces are scaled to integer numerators over their least common
  denominators, each term with fewer pieces than the longest is padded
  with powers of the pieces' denominator, and one Fraction is built at
  the end, equal to the Fraction the term-by-term loop gives;
- float and complex outer values on plain numbers: the term-by-term
  loop multiplies by the constants' float copies, and an exact piece
  enters as the float of its power.  Python multiplies a float x by a
  Fraction q as x * float(q) and a complex one as complex(q) * x, so
  every sum keeps the bits the Fractions give, without their dispatch
  (float(Fraction(1, m!)) is not 1.0 / m! at m = 23, 26 and 29);
- any other mix, an exact outer value among them: the same loop on the
  Fraction constants.

This sum and the jet oracle (``jet_chain_partial``) read g's and f's
jets through ``jet_of``, whose memo builds each jet once for both; they
differ only in how they combine the jets.  Both, like the enumerator,
read alpha as a tuple of ints (``operator.index`` per entry).

The quantitative side fits ln of the decomposition-splitting constant
(``lemma23_constant_search``) and assembles certified sup bounds for
compositions and reciprocals from seminorm inputs.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import NamedTuple

from .jets import _EXACT_TYPES, _numerators, check_chain_dims, jet_of, jet_partial
from .multiindex import (
    MultiIndex,
    check_entries,
    enumerate_decompositions,
    mi_factorial,
    mi_order,
)
from .sequences import DefiningSequence, check_class, check_indices, log_M

# enforced order limits: decomposition counts explode beyond these
_MAX_ORDER = {1: 8, 2: 8, 3: 6}
_INEXACT_TYPES = frozenset((float, complex))
_PLAIN_TYPES = _EXACT_TYPES | _INEXACT_TYPES


def fdb_derivative(f, g, alpha: MultiIndex, at: tuple) -> complex | float | Fraction:
    """d^alpha (f o g)(at) via the decomposition sum; exact on exact input.

    f is univariate; g maps R^d -> R with d = len(alpha) = len(at) <= 3.
    """
    alpha = tuple(map(operator.index, alpha))
    at = check_chain_dims(f, g, alpha, at)
    d = len(alpha)
    if d not in _MAX_ORDER:
        raise ValueError("dimension must be 1, 2 or 3")
    check_entries(alpha)
    n = mi_order(alpha)
    if n > _MAX_ORDER[d]:
        raise ValueError(f"|alpha| = {n} exceeds the enforced limit for d = {d}")

    g_jet = jet_of(g, at, n)
    f_jet = jet_of(f, (g_jet.value,), n)
    if n == 0:
        return f_jet.value

    plan = _fdb_plan(alpha)
    # one outer derivative per m and one power per piece, however many
    # decompositions share them
    outer = [jet_partial(f_jet, (m,)) for m in range(n + 1)]
    coeffs = [g_jet.coeff(part) for part in plan.parts]
    outer_kinds, coeff_kinds = set(map(type, outer[1:])), set(map(type, coeffs))
    if outer_kinds | coeff_kinds <= _EXACT_TYPES:
        # the piece (1/p!) d^p g is g's coefficient c itself
        powers = [c**mult for c, mult in zip(coeffs, plan.mults)]
        return _exact_sum(outer[1:], powers, plan, mi_factorial(alpha))
    # on float and complex outer values the float copies give the Fractions'
    # bits (module docstring); an exact piece's power enters as its float
    floats = outer_kinds <= _INEXACT_TYPES and coeff_kinds <= _PLAIN_TYPES
    inv_pf, inv_mf = plan.floats if floats else plan.fractions
    powers = [
        float(c**mult) if floats and type(c) in _EXACT_TYPES else (ip * (pf * c)) ** mult
        for ip, pf, c, mult in zip(inv_pf, plan.factorials, coeffs, plan.mults)
    ]
    total = 0
    for m, pieces in plan.terms:
        term = outer[m]
        for i in pieces:
            term = term * inv_mf[i] * powers[i]
        total = total + term
    return mi_factorial(alpha) * total


def _exact_sum(outer: list, powers: list, plan: _Plan, scale: int) -> Fraction:
    """scale * the decomposition sum on integer numerators; outer[m - 1] is
    the m-th outer derivative, powers[i] piece i's power c^mult, and every
    value is an int or a Fraction."""
    da, a = _numerators(outer)
    # 1/mult! folded into its piece, which fixes mult
    _, inv_mf = plan.fractions
    dp, b = _numerators([p * inv for p, inv in zip(powers, inv_mf)])
    width = max(len(pieces) for _, pieces in plan.terms)
    pad = [dp**k for k in range(width + 1)]
    total = 0
    for m, pieces in plan.terms:
        term = a[m - 1] * pad[width - len(pieces)]
        for i in pieces:
            term *= b[i]
        total += term
    return Fraction(scale * total, da * pad[width])


class _Plan(NamedTuple):
    """The decomposition sum's index part for one alpha.  A piece is one
    distinct (part p, multiplicity mult) of the decompositions."""

    parts: tuple[MultiIndex, ...]
    mults: tuple[int, ...]
    factorials: tuple[int, ...]  # p! per piece
    fractions: tuple[tuple[Fraction, ...], tuple[Fraction, ...]]  # 1/p! and 1/mult!, per piece
    floats: tuple[tuple[float, ...], tuple[float, ...]]  # the same as floats
    terms: tuple[tuple[int, tuple[int, ...]], ...]  # (m, piece indices) per decomposition


@functools.cache
def _fdb_plan(alpha: MultiIndex) -> _Plan:
    """alpha's plan, its decompositions in the enumerator's order."""
    index: dict[tuple[MultiIndex, int], int] = {}
    terms = []
    for dec in enumerate_decompositions(alpha):
        pieces = tuple(
            index.setdefault(piece, len(index)) for piece in zip(dec.parts, dec.multiplicities)
        )
        terms.append((dec.total_multiplicity, pieces))
    parts, mults = zip(*index)
    factorials = tuple(map(mi_factorial, parts))
    inv_m = {m: Fraction(1, math.factorial(m)) for m in set(mults)}
    fractions = (tuple(Fraction(1, pf) for pf in factorials), tuple(inv_m[m] for m in mults))
    floats = tuple(tuple(map(float, consts)) for consts in fractions)
    return _Plan(parts, mults, factorials, fractions, floats, tuple(terms))


def lemma23_ratio(
    seq: DefiningSequence, j: int, parts: list[int] | tuple[int, ...]
) -> float:
    """ln of [(M_j/j!) prod_i M_{k_i}/k_i!] / [M_k/k!], k = sum(parts)."""
    if j < 1:
        raise ValueError("j must be a positive natural")
    if len(parts) != j:
        raise ValueError(f"parts must have exactly j = {j} entries")
    if any(k < 1 for k in parts):
        raise ValueError("parts must be positive")
    k = sum(parts)
    num = seq.log_M_over_factorial(j)
    num += sum(seq.log_M_over_factorial(ki) for ki in parts)
    return num - seq.log_M_over_factorial(k)


@dataclass(frozen=True)
class Lemma23Fit:
    """ln of the minimal C over the scanned range, with the arg-max witness."""

    log_C: float
    k_max: int
    witness_k: int
    witness_parts: tuple[int, ...]


LEMMA23_KMAX_MAX = 400  # k_max^3 / 6 additions, 0.8-1.5 s (2-vCPU Xeon, Python 3.11)


def lemma23_constant_search(seq: DefiningSequence, k_max: int) -> Lemma23Fit:
    """ln of the minimal C >= 1 with ratio <= C^{k^sigma} over every
    partition of every k <= k_max: C up to k_max, not a sup over all k.

    With w_i = ln(M_i/i!), a partition of k into j parts k_1..k_j has
    ratio w_j + sum_i w_{k_i} - w_k.  The largest sum B[j][k] of w over
    the partitions of k into j parts obeys the max-plus partition
    recurrence (Andrews, The Theory of Partitions, 1976, ch. 1)
    B[0][0] = 0, B[j][k] = max_{1 <= p <= k-j+1} (B[j-1][k-p] + w_p):
    O(k_max^3) additions, so k_max is capped at ``LEMMA23_KMAX_MAX``.
    k and then j are scanned upward and the best replaced only on a
    strict >, so of exactly tied ratios (w_1 = 0) the fewest parts win,
    e.g. (3, 3) over (1, 2, 3).  The witness is backtracked through the
    first p that reaches each B[j][k], and log_C is its ``lemma23_ratio``
    over witness_k^sigma.  The j = k all-ones partition has ratio exactly
    1, hence ln C >= 0.

    Measured exp(log_C) at k_max 12, 40, 100, 200, 400: (0.1, 1.1)
    1.674, 2.430, 3.120, 3.658, 4.158; (0.05, 1.05) 1.932, 3.397, 5.279,
    7.314, 9.955; (0.5, 1.1) 1.072, then 1.078; (0.1, 1.5) 1.088 and
    (0.25, 1.25) 1.099 throughout; 1 at (1, 2), (0.5, 1.5), (1, 1.25)
    and (1, 1.05).  At tau = 0.1 the per-k maximum peaks at k 27 for
    sigma 1.3 and at 132 for sigma 1.2, near k = e^{1/(sigma-1)} (28 and
    148), but for sigma 1.1 at k 11,128, about half of e^10 = 22,026: a
    scan of the balanced partitions of every k up to 30,000, where w is
    concave, found the largest value, exp(log_C) = 5.4160, there (j =
    1,391 parts).  At (0.3, 1.2) it peaks at k 14.
    """
    if not 2 <= k_max <= LEMMA23_KMAX_MAX:
        raise ValueError(f"k_max must lie in 2..{LEMMA23_KMAX_MAX}, got {k_max}")
    check_indices(seq.sigma, k_max)
    w = [seq.log_M_over_factorial(i) for i in range(k_max + 1)]
    w_parts = w[1:]
    B = [[0.0] + [-math.inf] * k_max] + [[-math.inf] * (k_max + 1) for _ in range(k_max)]
    best, witness_k, witness_j = 0.0, 1, 1
    for k in range(1, k_max + 1):
        ks = float(k) ** seq.sigma
        for j in range(1, k + 1):
            # B[j-1][k-p] + w_p for p = 1..k-j+1 (map stops at the shorter)
            B[j][k] = top = max(map(operator.add, B[j - 1][j - 1 : k][::-1], w_parts))
            expo = (w[j] + top - w[k]) / ks
            if expo > best:
                best, witness_k, witness_j = expo, k, j
    parts, k = [], witness_k
    for j in range(witness_j, 0, -1):
        p = next(p for p in range(1, k - j + 2) if B[j - 1][k - p] + w[p] == B[j][k])
        parts.append(p)
        k -= p
    parts.sort()
    log_C = lemma23_ratio(seq, witness_j, parts) / float(witness_k) ** seq.sigma
    return Lemma23Fit(log_C, k_max, witness_k, tuple(parts))


_LEMMA23_KMAX_DEFAULT = 12  # a bound at |alpha| = n searches k <= max(12, n)


@functools.cache
def _lemma23_constant(seq: DefiningSequence, n: int) -> float:
    """ln C over every k <= max(12, n), per (tau, sigma) and order n."""
    return lemma23_constant_search(seq, max(_LEMMA23_KMAX_DEFAULT, n)).log_C


@dataclass(frozen=True)
class CompositionBoundInput:
    """Seminorm inputs of the superposition bound.

    h scales the inner function's seminorm, h_prime the outer one, A is
    the common amplitude.  sigma = 1 with tau >= 1 is accepted (the
    Gevrey degeneration).
    """

    tau: float
    sigma: float
    h: float
    h_prime: float
    A: float

    def __post_init__(self) -> None:
        if not all(0 < v < math.inf for v in (self.h, self.h_prime, self.A)):
            raise ValueError("h, h_prime and A must be positive and finite")
        check_class(self.tau, self.sigma)
        if self.sigma == 1 and self.tau < 1:
            raise ValueError("sigma > 1 required (sigma = 1 only with tau >= 1)")

    def _seq(self) -> DefiningSequence:
        # the Gevrey boundary sigma = 1 reuses the constant fitted just above it
        sigma = self.sigma if self.sigma > 1 else 1.0 + 1e-9
        return DefiningSequence(self.tau, sigma)


def superposition_bound_components(
    inp: CompositionBoundInput, alpha: MultiIndex
) -> dict[str, float]:
    """Log-domain pieces of the certified composition bound.

    amplitude:  (|a|+1) ln A          (one amplitude per factor)
    scale:      2 |a|^sigma ln C1     with C1 = max(h, h', 1)
    splitting:  |a|^sigma ln C_L      (fitted decomposition constant)
    growth:     tau |a|^sigma ln |a|
    msum:       (|a|-1) ln 2          (composition multiplicity sum)
    """
    n = mi_order(alpha)
    if n < 1:
        raise ValueError("superposition bound requires |alpha| >= 1")
    tau, sigma = inp.tau, inp.sigma
    c1 = max(inp.h, inp.h_prime, 1.0)
    log_c_l = _lemma23_constant(inp._seq(), n)
    ns = float(n) ** sigma
    return {
        "amplitude": (n + 1) * math.log(inp.A),
        "scale": 2.0 * ns * math.log(c1),
        "splitting": ns * log_c_l,
        "growth": log_M(tau, sigma, n),
        "msum": (n - 1) * math.log(2.0),
    }


def superposition_log_bound(inp: CompositionBoundInput, alpha: MultiIndex) -> float:
    """Certified log bound on sup |d^alpha (f o g)| from seminorm inputs."""
    return sum(superposition_bound_components(inp, alpha).values())


def reciprocal_bound_components(
    inp: CompositionBoundInput, alpha: MultiIndex, min_abs: float
) -> dict[str, float]:
    """Pieces of the reciprocal bound; outer function is y -> 1/y.

    The outer derivative amplitudes j!/min_abs^{j+1} replace the
    h'-scaled seminorm: the outer amplitude is fitted against the
    defining sequence with h' = 1 over the orders the chain touches.
    """
    n = mi_order(alpha)
    if min_abs <= 0:
        raise ValueError("min_abs must be positive")
    if n < 1:
        raise ValueError("use 1/min_abs directly for alpha = 0")
    seq = inp._seq()
    log_outer_amp = max(
        -seq.log_M_over_factorial(m) - (m + 1) * math.log(min_abs) for m in range(n + 1)
    )
    parts = superposition_bound_components(replace(inp, h_prime=1.0), alpha)
    # the outer amplitude replaces A where larger, compared in logs
    parts["amplitude"] = (n + 1) * max(math.log(inp.A), log_outer_amp)
    parts["reciprocal_amplitude"] = log_outer_amp
    return parts


def reciprocal_log_bound(
    inp: CompositionBoundInput, alpha: MultiIndex, min_abs: float
) -> float:
    """Certified log bound on sup |d^alpha (1/phi)| given inf |phi| >= min_abs."""
    if min_abs <= 0:
        raise ValueError("min_abs must be positive")
    if mi_order(alpha) == 0:
        return -math.log(min_abs)
    parts = reciprocal_bound_components(inp, alpha, min_abs)
    return sum(v for k, v in parts.items() if k != "reciprocal_amplitude")
