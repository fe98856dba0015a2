"""Approximate-solution machinery for variable-coefficient operators.

Conjugating the transposed operator with the oscillating factor and the
principal-symbol reciprocal,

    e^{ix.xi} P^T(x, D) ( w(x, xi) e^{-ix.xi} / P_m(x, xi) ),

produces the identity minus reduction operators R_1..R_m whose symbol
coefficients are homogeneous of order -1..-m in xi.  Iterating
(I - R) w = phi yields the Neumann sums

    w_N = sum of operator words with weight <= N - m applied to phi,
    e_N = words crossing the weight threshold,

with the exact telescoping identity (I - R) w_N = phi - e_N.  Everything
here is symbolic: a term is scale * prod d^beta(coeff) * xi^gamma *
P_m^{-k} * d^delta(phi), a ring closed under x-differentiation and
products, so the identity holds to rounding error on any grid.

Operator words do not commute, but each R_j is linear, so the words of
one weight are built together as a layer: S_0 = phi and S_v =
sum_{j <= min(m, v)} R_j S_{v-j}, the word-count recurrence
c(v) = sum_{j<=m} c(v-j) applied to the states themselves.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import reduce
from typing import Iterable, Sequence

import numpy as np

from .faadibruno import fdb_derivative
from .funcspec import (
    FunctionSpec,
    MVPolySpec,
    ProdSpec,
    RecipPowSpec,
    SumSpec,
    _split_at,
    parse_spec,
)
from .jets import Jet, jet_chain_partial, jet_of, jet_partial
from .multiindex import (
    MultiIndex,
    check_entries,
    mi_add,
    mi_binomial,
    mi_derivative,
    mi_of_order,
    mi_order,
    mi_range,
    mi_sub,
)
from .regularity import grid_derivative
from .sequences import check_class, normalized_excess
from .wavefront import Cone, GridField

# desk-scale budgets: beyond these the word count A*C^N is impractical
MAX_ORDER_M = 3
MAX_TRUNCATION_N = 12
MAX_DIM = 2
MAX_GRID_POINTS = 1024
MAX_TERMS = 200_000
MAX_AUDIT_ORDER = 6
MAX_OPERATOR_TERMS = 100  # one power's terms fold into a chain of sums, a level each
# the deepest derivative a coefficient or phi takes: w_N, e_N, R w_N and phi
# read at most N, and bound_audit adds at most beta_max to R_j's j <= m
JET_ORDER = max(MAX_TRUNCATION_N, MAX_ORDER_M + MAX_AUDIT_ORDER)


def _const_spec(c, dim: int) -> FunctionSpec:
    return MVPolySpec.from_dict(dim, {(0,) * dim: c})


def _axis_degrees(spec: FunctionSpec, dim: int) -> tuple[int, ...] | None:
    """Per-axis polynomial degrees, (-1,) * dim for a structurally zero
    spec (a product with a zero factor included), None when not polynomial.

    d^beta(spec) vanishes identically when beta_i exceeds the axis-i
    degree; used to prune structurally zero factors from the term ring
    and structurally zero coefficients from an operator.
    """
    zero = (-1,) * dim
    if isinstance(spec, MVPolySpec):
        expos = [expo for expo, c in spec.terms if c != 0]
        return tuple(max(e[i] for e in expos) for i in range(dim)) if expos else zero
    if not isinstance(spec, (SumSpec, ProdSpec)):
        return None
    a = _axis_degrees(spec.left, dim)
    b = _axis_degrees(spec.right, dim)
    if isinstance(spec, ProdSpec) and zero in (a, b):
        return zero
    if a is None or b is None:
        return None
    if isinstance(spec, SumSpec):
        return tuple(max(x, y) for x, y in zip(a, b))
    return tuple(x + y for x, y in zip(a, b))


@dataclass(frozen=True)
class DiffOperator:
    """P(x, D) = sum a_alpha(x) D^alpha, D = -i d/dx."""

    order: int
    dim: int
    coeffs: dict[MultiIndex, FunctionSpec] = field(hash=False)

    def __post_init__(self) -> None:
        if not 1 <= self.dim <= MAX_DIM:
            raise ValueError(f"operators support d = 1 to {MAX_DIM}")
        if self.order > MAX_ORDER_M:
            raise ValueError(f"operator order limited to {MAX_ORDER_M}")
        for a, c in self.coeffs.items():
            if len(a) != self.dim:
                raise ValueError("coefficient index dimension mismatch")
            if c.dim != self.dim:
                raise ValueError("coefficient spec dimension mismatch")
            check_entries(a)
            if mi_order(a) > self.order:
                raise ValueError(f"coefficient index {a} exceeds the operator order {self.order}")
        # a structurally zero coefficient (poly:0, prod(poly:0,sin)) is no
        # term: it is dropped here, so every reader of coeffs sees terms only
        zero = (-1,) * self.dim
        terms = {a: c for a, c in self.coeffs.items() if _axis_degrees(c, self.dim) != zero}
        object.__setattr__(self, "coeffs", terms)
        if not self.principal():
            raise ValueError("no coefficient at the stated order")

    def principal(self) -> dict[MultiIndex, FunctionSpec]:
        return {a: c for a, c in self.coeffs.items() if mi_order(a) == self.order}


# a "+" outside parentheses splits terms unless a digit or "." follows it,
# which makes it a number's sign; no term begins with either
_TERM_MARKS = re.compile(r"[()]|\+(?![\d.])")


def _d_power(d: str, term: str) -> int:
    """k of a term's D or D^k factor."""
    match = re.fullmatch(r"D(?:\^ *(\d+))?", d.strip())
    if match is None:
        raise ValueError(f"malformed derivative power in term {term!r}")
    return int(match[1] or 1)


def parse_operator(text: str) -> DiffOperator:
    """CLI grammar: terms like 'SPEC*D^2 + SPEC*D + SPEC' (d = 1), at most
    MAX_OPERATOR_TERMS of them."""
    parts = [t for t in (raw.strip() for raw in _split_at(text, _TERM_MARKS)) if t]
    if len(parts) > MAX_OPERATOR_TERMS:
        raise ValueError(f"operator has {len(parts)} terms, more than {MAX_OPERATOR_TERMS}")
    coeffs: dict[MultiIndex, FunctionSpec] = {}
    for part in parts:
        if "*D" in part:
            spec_s, _, dpart = part.rpartition("*")
            k = _d_power(dpart, part)
            spec = parse_spec(spec_s)
        elif part.startswith("D"):
            k = _d_power(part, part)
            spec = _const_spec(1, 1)
        else:
            k = 0
            spec = parse_spec(part)
        key = (k,)
        coeffs[key] = SumSpec(coeffs[key], spec) if key in coeffs else spec
    if not coeffs:
        raise ValueError(f"operator {text!r} has no term")
    order = max(mi_order(a) for a in coeffs)
    return DiffOperator(order, 1, coeffs)


def _xi_monomial(gamma: MultiIndex, xi: tuple) -> float:
    """xi^gamma, one factor at a time."""
    mono = 1.0
    for e, v in zip(gamma, xi):
        mono *= v**e
    return mono


def _as_tuple(v: tuple | float) -> tuple:
    return v if isinstance(v, tuple) else (v,)


def principal_spec(P: DiffOperator, xi: tuple | float) -> FunctionSpec:
    """x -> P_m(x, xi) = sum_{|alpha| = m} xi^alpha a_alpha(x), a catalog spec."""
    xi = _as_tuple(xi)
    return reduce(
        SumSpec,
        (ProdSpec(_const_spec(_xi_monomial(a, xi), P.dim), c) for a, c in P.principal().items()),
    )


def principal_symbol(P: DiffOperator, x: tuple | float, xi: tuple | float) -> complex:
    """P_m(x, xi) = sum_{|alpha| = m} a_alpha(x) xi^alpha."""
    return complex(principal_spec(P, xi).eval(*_as_tuple(x)))


# ---------------------------------------------------------------------------
# the symbol term ring

Factor = tuple[int, MultiIndex]  # (registry id, derivative multi-index)
TermKey = tuple[tuple[Factor, ...], MultiIndex, int, MultiIndex | None]
SymbolSum = dict[TermKey, complex]


def _term_key(
    factors: Sequence[Factor], gamma: MultiIndex, kpow: int, phi: MultiIndex | None
) -> TermKey:
    return (tuple(sorted(factors)), gamma, kpow, phi)


def _sum_add(acc: SymbolSum, key: TermKey, scale: complex) -> None:
    cur = acc.get(key, 0.0)
    new = cur + scale
    if new == 0:
        acc.pop(key, None)
    else:
        acc[key] = new


def _merge(sums: Iterable[SymbolSum]) -> SymbolSum:
    """The term-wise sum of several symbol sums."""
    out: SymbolSum = {}
    for S in sums:
        for key, scale in S.items():
            _sum_add(out, key, scale)
    return out


class _Table(dict):
    """A dict that builds a missing entry from its key on first lookup."""

    def __init__(self, build):
        super().__init__()
        self.build = build

    def __missing__(self, key):
        value = self[key] = self.build(key)
        return value


class SymbolAlgebra:
    """Term ring over a fixed operator: registry of coefficient specs (P's
    own coefficients, and phi when it is a catalog spec), differentiation,
    products with reduction-operator coefficients.

    Every key's factor tuple is sorted: keys are built by `_term_key` or
    read from the tables below, which hold sorted tuples only.  The
    tables are built on first use, so `partial` and `product` do no
    multi-index bookkeeping per term, only lookups and scale arithmetic:

    - per axis t, factor tuple -> the sorted successor tuples, one per
      factor whose d/dx_t does not vanish, in factor order, and the
      d(P_m^-k) successors: for each principal coefficient a_alpha with
      d/dx_t a_alpha not vanishing, the sorted tuple with (sid, e_t)
      appended and the xi shift alpha;
    - per axis t, phi index -> phi + e_t;
    - fa, then fb -> sorted(fa + fb), for `product`;
    - a, then b -> a + b on multi-indices: gamma + alpha in `partial`,
      ga + gb in `product`.

    A successor depends only on the factors' own registry degrees, so
    the tables stay valid as more specs are registered.
    """

    def __init__(self, P: DiffOperator):
        self.dim = P.dim
        self.m = P.order
        self.registry: list[FunctionSpec] = []
        self.registry_degrees: list[tuple[int, ...] | None] = []
        self._spec_ids: dict[int, int] = {}
        self.principal_ids: dict[MultiIndex, int] = {
            a: self.register(c) for a, c in P.principal().items()
        }
        self._partial_tables = [
            (
                _Table(lambda factors, t=t: self._successors(factors, t)),
                _Table(lambda phi, t=t: mi_add(phi, self._unit(t))),
            )
            for t in range(self.dim)
        ]
        self._sorted_union = _Table(lambda fa: _Table(lambda fb: tuple(sorted(fa + fb))))
        self._mi_sum = _Table(lambda a: _Table(lambda b: mi_add(a, b)))

    def register(self, spec: FunctionSpec) -> int:
        key = id(spec)
        if key not in self._spec_ids:
            self._spec_ids[key] = len(self.registry)
            self.registry.append(spec)
            self.registry_degrees.append(_axis_degrees(spec, self.dim))
        return self._spec_ids[key]

    def zero_mi(self) -> MultiIndex:
        return (0,) * self.dim

    def _unit(self, axis: int) -> MultiIndex:
        return tuple(1 if i == axis else 0 for i in range(self.dim))

    def principal_sum(self) -> SymbolSum:
        """P_m = sum_{|alpha| = m} a_alpha(x) xi^alpha as a symbol sum."""
        zero = self.zero_mi()
        return {
            _term_key([(sid, zero)], a, 0, None): 1.0 + 0.0j
            for a, sid in self.principal_ids.items()
        }

    def factor_is_zero(self, sid: int, beta: MultiIndex) -> bool:
        degs = self.registry_degrees[sid]
        return degs is not None and any(b > dg for b, dg in zip(beta, degs))

    def _successors(self, factors: tuple[Factor, ...], axis: int) -> tuple[tuple, tuple]:
        """The partial-table entry of a sorted factor tuple along one axis."""
        e = self._unit(axis)
        ups = []
        for idx, (sid, beta) in enumerate(factors):
            up = mi_add(beta, e)
            if not self.factor_is_zero(sid, up):
                nf = list(factors)
                nf[idx] = (sid, up)
                ups.append(tuple(sorted(nf)))
        pm_ups = tuple(
            (tuple(sorted(factors + ((sid, e),))), a)
            for a, sid in self.principal_ids.items()
            if not self.factor_is_zero(sid, e)
        )
        return tuple(ups), pm_ups

    def partial(self, S: SymbolSum, axis: int) -> SymbolSum:
        """d/dx_axis of a term sum (stays in the ring)."""
        successors, phi_up = self._partial_tables[axis]
        mi_sum = self._mi_sum
        out: SymbolSum = {}
        for (factors, gamma, kpow, phi), scale in S.items():
            ups, pm_ups = successors[factors]
            for nf in ups:
                _sum_add(out, (nf, gamma, kpow, phi), scale)
            if phi is not None:
                _sum_add(out, (factors, gamma, kpow, phi_up[phi]), scale)
            if kpow > 0:
                # d(Pm^-k) = -k Pm^-(k+1) * dPm, with dPm a xi-polynomial
                shift = mi_sum[gamma]
                for nf, a in pm_ups:
                    _sum_add(out, (nf, shift[a], kpow + 1, phi), scale * (-kpow))
        return out

    def d_op(self, S: SymbolSum, n: int) -> dict[MultiIndex, SymbolSum]:
        """{alpha: D^alpha S for |alpha| <= n}, D^alpha = (-i)^{|alpha|} d^alpha,
        each d^alpha one `partial` of its predecessor."""
        d = {self.zero_mi(): S}
        out: dict[MultiIndex, SymbolSum] = {}
        for k in range(n + 1):
            scale = (-1j) ** k
            for alpha in mi_of_order(self.dim, k):
                dS = mi_derivative(d, alpha, self.partial)
                out[alpha] = dS if scale == 1 else {key: v * scale for key, v in dS.items()}
        return out

    def product(self, A: SymbolSum, B: SymbolSum) -> SymbolSum:
        out: SymbolSum = {}
        for (fa, ga, ka, pa), sa in A.items():
            unions, shifts = self._sorted_union[fa], self._mi_sum[ga]
            for (fb, gb, kb, pb), sb in B.items():
                if pa is not None and pb is not None:
                    raise ValueError("at most one phi factor per term")
                _sum_add(
                    out,
                    (unions[fb], shifts[gb], ka + kb, pa if pa is not None else pb),
                    sa * sb,
                )
        return out

    def degree(self, key: TermKey) -> int:
        """xi-homogeneity |gamma| - k*m (x-derivatives preserve it)."""
        _, gamma, kpow, _ = key
        return mi_order(gamma) - kpow * self.m


@dataclass
class ReductionOperator:
    """R_j = sum_{|alpha| <= j} c_{alpha,j}(x, xi) D^alpha with every
    c-term homogeneous of degree -j."""

    j: int
    action: dict[MultiIndex, SymbolSum]


@dataclass
class ReductionSystem:
    algebra: SymbolAlgebra
    operators: list[ReductionOperator]


def build_reduction_operators(P: DiffOperator) -> ReductionSystem:
    """Expand the conjugated transpose in the ring, from P's own
    coefficients, and collect by xi-homogeneity:

        e^{ix.xi} P^T(w e^{-ix.xi} / P_m)
            = sum_alpha (-1)^{|alpha|} (D - xi)^alpha (a_alpha w / P_m)
            = sum (-1)^{|beta|} binom(alpha, beta) binom(beta, gamma)
                  xi^{alpha-beta} D^{beta-gamma}(a_alpha / P_m) D^gamma w,

    over gamma <= beta <= alpha; a term is homogeneous of degree
    -(m - |alpha - beta|).  The degree-0 part must be the identity
    P_m / P_m, one term a_alpha xi^alpha P_m^-1 per principal coefficient
    with scale 1, and is checked exactly in the ring; degrees -1..-m
    become R_1..R_m via I - R.
    """
    if P.order < 1:
        raise ValueError(f"operator order {P.order}: the parametrix needs order >= 1")
    algebra = SymbolAlgebra(P)
    m = P.order
    zero = algebra.zero_mi()

    collected: dict[tuple[int, MultiIndex], SymbolSum] = {}
    for alpha, a_spec in P.coeffs.items():
        # D^delta (a_alpha / P_m) for every |delta| <= |alpha|
        a_over_pm = {_term_key([(algebra.register(a_spec), zero)], zero, 1, None): 1.0 + 0.0j}
        table = algebra.d_op(a_over_pm, mi_order(alpha))
        for beta in mi_range(alpha):
            amb = mi_sub(alpha, beta)
            j = m - mi_order(amb)
            for gamma in mi_range(beta):
                base = (-1) ** mi_order(beta) * mi_binomial(alpha, beta) * mi_binomial(beta, gamma)
                acc = collected.setdefault((j, gamma), {})
                for (f, g, k, p), s in table[mi_sub(beta, gamma)].items():
                    _sum_add(acc, (f, mi_add(g, amb), k, p), s * base)

    # degree bookkeeping is exact by construction; assert it anyway
    for (j, _), S in collected.items():
        for key in S:
            if algebra.degree(key) != -j:
                raise AssertionError("homogeneity bookkeeping failed")

    # the degree-0 cells must be exactly P_m * P_m^-1, term by term
    identity = {(f, g, 1, p): s for (f, g, _, p), s in algebra.principal_sum().items()}
    if {cell: S for cell, S in collected.items() if cell[0] == 0} != {(0, zero): identity}:
        raise AssertionError("degree-0 part is not the identity P_m / P_m")

    ops = []
    for j in range(1, m + 1):
        action: dict[MultiIndex, SymbolSum] = {}
        for (jj, a), S in collected.items():
            if jj == j and S:
                action[a] = {k: -v for k, v in S.items()}
        ops.append(ReductionOperator(j=j, action=action))
    return ReductionSystem(algebra=algebra, operators=ops)


# ---------------------------------------------------------------------------
# evaluation on grids


class GridEvaluator:
    """Evaluates term sums on a fixed set of x points.

    Each registry spec has one jet over the whole point set, with one
    float coefficient value per point, built once at JET_ORDER (no row
    depends on the truncation), and derivative rows are read from it.
    phi is either a registry spec read the same way or a cutoff sampled
    on the grid of the points (row-major): d^beta phi is then
    ``regularity.grid_derivative`` of the samples, taken on first use
    and kept.  P_m and each power P_m^k that a sum divides by are
    evaluated once per xi list into one table keyed by (xi list, k), and
    shared read-only by every sum evaluated at that list.
    """

    def __init__(
        self,
        algebra: SymbolAlgebra,
        points: np.ndarray,
        phi: FunctionSpec | GridField | None = None,
    ):
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if len(pts) > MAX_GRID_POINTS:
            raise ValueError(f"grid limited to {MAX_GRID_POINTS} points")
        self.algebra = algebra
        self.points = pts
        self.phi = phi
        # d^beta phi on the sample grid, and the same flattened to complex rows
        self._phi_grid: dict[MultiIndex, np.ndarray] = {}
        if isinstance(phi, GridField):
            self._phi_grid[algebra.zero_mi()] = phi.samples.astype(float)
        self._phi_rows: dict[MultiIndex, np.ndarray] = {}
        self._jets: dict[int, Jet] = {}
        self._derivs: dict[Factor, np.ndarray] = {}
        self._pm_powers: dict[tuple[tuple, int], np.ndarray] = {}

    def deriv(self, sid: int, beta: MultiIndex) -> np.ndarray:
        key = (sid, beta)
        if key not in self._derivs:
            if sid not in self._jets:
                spec = self.algebra.registry[sid]
                self._jets[sid] = jet_of(spec, tuple(self.points.T), JET_ORDER)
            # a coefficient that is constant over the points is a scalar
            value = np.asarray(jet_partial(self._jets[sid], beta), dtype=complex)
            self._derivs[key] = np.broadcast_to(value, (len(self.points),)).copy()
        return self._derivs[key]

    def phi_deriv(self, beta: MultiIndex) -> np.ndarray:
        if isinstance(self.phi, GridField):
            if beta not in self._phi_rows:
                grid = grid_derivative(self._phi_grid, beta, self.phi.spacing)
                self._phi_rows[beta] = grid.reshape(-1).astype(complex)
            return self._phi_rows[beta]
        if self.phi is None:
            raise ValueError("no phi attached to this evaluator")
        return self.deriv(self.algebra.register(self.phi), beta)

    def pm(self, xis: Sequence[tuple]) -> np.ndarray:
        """P_m at every (xi, x): an (n_xi, n_points) array, evaluated once
        per xi list (read-only: every sum with a P_m^-k term shares it)."""
        return self._pm_power(tuple(xis), 1)

    def _pm_power(self, xis: tuple, k: int) -> np.ndarray:
        """P_m^k (k >= 1) at every (xi, x), computed once per (xi list, k)
        and read-only.  k = 1 is P_m itself: pm**1 differs from pm only in
        the sign of a complex zero, which a quotient does not read.  For
        k >= 2 the table keeps pm**k, which repeated products need not
        equal bit for bit."""
        power = self._pm_powers.get((xis, k))
        if power is None:
            if k == 1:
                power = self.eval_sum(self.algebra.principal_sum(), xis)
            else:
                power = self.pm(xis) ** k
            power.flags.writeable = False
            self._pm_powers[xis, k] = power
        return power

    def eval_sum(self, S: SymbolSum, xis: Sequence[tuple]) -> np.ndarray:
        """S at every (xi, x): an (n_xi, n_points) array.

        A term is an x-part (scale times factor and phi derivatives) times
        xi^gamma P_m^-k.  The x-parts are summed per (gamma, k) first, so
        each group meets one xi^gamma column and one P_m^-k array.
        """
        groups: dict[tuple[MultiIndex, int], np.ndarray] = {}
        for (factors, gamma, kpow, phi), scale in S.items():
            vec = np.full(len(self.points), scale, dtype=complex)
            for sid, beta in factors:
                vec = vec * self.deriv(sid, beta)
            if phi is not None:
                vec = vec * self.phi_deriv(phi)
            groups[gamma, kpow] = groups.get((gamma, kpow), 0.0) + vec
        xis = tuple(xis)
        out = np.zeros((len(xis), len(self.points)), dtype=complex)
        # one buffer holds every group's part: fresh (n_xi, n_points) arrays
        # per group sit just above malloc's mmap threshold, so their page
        # faults, and the run's time, would depend on unrelated allocations
        part = np.empty_like(out)
        for (gamma, kpow), vec in groups.items():
            mono = np.array([_xi_monomial(gamma, xi) for xi in xis])
            np.multiply(vec, mono[:, None], out=part)
            if kpow:
                part /= self._pm_power(xis, kpow)
            out += part
        return out


# ---------------------------------------------------------------------------
# ellipticity and the reciprocal-symbol derivatives


@dataclass(frozen=True)
class EllipticityResult:
    C1: float
    C2: float
    char_hit: tuple[tuple, tuple] | None


# a sampled |P_m| below this is a characteristic hit
ZERO_TOL = 1e-9


def ellipticity_bounds(
    P: DiffOperator,
    box: tuple[tuple[float, float], ...],
    cone: Cone,
    samples: int = 16,
) -> EllipticityResult:
    """Sampled min/max of |P_m(x, theta)| over box x cone directions.

    A sampled minimum below ZERO_TOL is a characteristic hit and is
    returned with its witness, the first minimum in (x, theta) order.
    """
    if samples < 16:
        raise ValueError("need at least 16 samples per axis/direction")
    axes = [np.linspace(lo, hi, samples) for lo, hi in box]
    mesh = np.meshgrid(*axes, indexing="ij")
    xs = np.column_stack([m.reshape(-1) for m in mesh])
    if P.dim == 1:
        dirs = [(1.0,) if cone.direction[0] > 0 else (-1.0,)]
    else:
        base = math.atan2(cone.direction[1], cone.direction[0])
        angles = np.linspace(base - cone.half_angle, base + cone.half_angle, samples)
        dirs = [(math.cos(a), math.sin(a)) for a in angles]
    # one column per direction: row-major order is (x, theta) order; exact
    # coefficients make object arrays of Python floats
    with np.errstate(divide="ignore", invalid="ignore"):
        values = np.abs(np.column_stack([
            np.broadcast_to(principal_spec(P, th).eval(*xs.T), (len(xs),)) for th in dirs
        ])).astype(float)
    if not np.isfinite(values).all():
        raise ZeroDivisionError("P_m is not finite on the sample box")
    i, j = np.unravel_index(np.argmin(values), values.shape)
    c1 = float(values[i, j])
    hit = (tuple(xs[i]), dirs[j]) if c1 < ZERO_TOL else None
    return EllipticityResult(C1=c1, C2=float(values.max()), char_hit=hit)


def inv_pm_derivative(
    P: DiffOperator, alpha: MultiIndex, x: tuple | float, xi: tuple | float
) -> complex:
    """D^alpha (1/P_m)(x, xi) by the decomposition-sum chain rule on
    (1/y) o P_m(., xi), D^alpha = (-i)^{|alpha|} d^alpha; |alpha| is held
    to `fdb_derivative`'s order limits."""
    x = _as_tuple(x)
    pm = principal_spec(P, xi)
    if abs(pm.eval(*x)) < 1e-300:
        raise ZeroDivisionError("characteristic point")
    return (-1j) ** mi_order(alpha) * fdb_derivative(RecipPowSpec(1), pm, alpha, x)


def inv_pm_derivative_jet_check(
    P: DiffOperator, alpha: MultiIndex, x: tuple | float, xi: tuple | float
) -> complex:
    """Independent route: the jet of (1/y) o P_m(., xi) by `jet_compose`.

    D^alpha = (-i)^{|alpha|} d^alpha on the x-jet.
    """
    value = jet_chain_partial(RecipPowSpec(1), principal_spec(P, xi), alpha, _as_tuple(x))
    return (-1j) ** mi_order(alpha) * complex(value)


# ---------------------------------------------------------------------------
# Neumann sums

# the Leibniz check walks the first LEIBNIZ_WORDS e-words up to order
# min(beta_max, LEIBNIZ_ORDER)
LEIBNIZ_WORDS = 3
LEIBNIZ_ORDER = 4


def word_weight(word: tuple[int, ...]) -> int:
    return sum(word)


def enumerate_words(m: int, max_weight: int) -> list[tuple[int, ...]]:
    """All words over {1..m} with weight <= max_weight, by (length, lex)."""
    out: list[tuple[int, ...]] = [()]
    frontier: list[tuple[int, ...]] = [()]
    while frontier:
        nxt = []
        for w in frontier:
            for j in range(1, m + 1):
                if word_weight(w) + j <= max_weight:
                    nxt.append(w + (j,))
        out.extend(nxt)
        frontier = nxt
    # each layer extends a lex-sorted layer letter by letter, so it is sorted
    return out


def word_count_recurrence(m: int, v: int) -> int:
    """Number of words of weight exactly v: c(v) = sum_{j=1..m} c(v-j)."""
    c = [1] + [0] * v
    for t in range(1, v + 1):
        c[t] = sum(c[t - j] for j in range(1, m + 1) if t - j >= 0)
    return c[v]


@dataclass
class NeumannSums:
    w_words: list[tuple[int, ...]]
    e_words: list[tuple[int, ...]]
    K1: list[int]
    K2: list[int]
    layers: list[SymbolSum]  # S_v, the sum of the weight-v word states
    w_sum: SymbolSum  # w_N, the merge of the layers
    word_states: dict[tuple[int, ...], SymbolSum]  # the first LEIBNIZ_WORDS e-words
    w_values: np.ndarray  # (n_xi, n_points)
    e_values: np.ndarray
    phi_values: np.ndarray
    xi_samples: list[tuple]
    evaluator: GridEvaluator
    system: ReductionSystem


def _apply_reduction(
    system: ReductionSystem, op: ReductionOperator, S: SymbolSum
) -> SymbolSum:
    alg = system.algebra
    dS = alg.d_op(S, op.j)
    out = _merge(alg.product(coeff, dS[a_prime]) for a_prime, coeff in op.action.items())
    if len(out) > MAX_TERMS:
        raise ValueError("term budget exceeded")
    return out


def neumann_sums(
    system: ReductionSystem,
    phi: FunctionSpec | GridField,
    N: int,
    xi_samples: Sequence[tuple | float],
    x_grid: np.ndarray | None = None,
) -> NeumannSums:
    """Build w_N and e_N by applying operator words to phi.

    The weight-v words' states are summed as one layer, S_0 = phi and
    S_v = sum_{j <= min(m, v)} R_j S_{v-j}.  w_N is the sum of the layers
    v <= N - m; e_N, the words that cross the threshold when one more
    operator is applied, is sum_j R_j (S_v over N - m - j < v <= N - m)
    (exact telescoping: (I - R) w_N = phi - e_N).  K1/K2 are the
    power-index windows {k : mk <= N - m} and {k : N - m < mk <= N}.

    phi is a closed-form spec, evaluated on x_grid, or a sampled cutoff,
    evaluated on its own grid; neither is differentiated past order N.
    The sums are evaluated at each of xi_samples (a float is a 1-D xi).
    """
    alg = system.algebra
    m = alg.m
    if N < m:
        raise ValueError("N must be at least the operator order")
    if N > MAX_TRUNCATION_N:
        raise ValueError(f"N limited to {MAX_TRUNCATION_N}")

    xi_list = [xi if isinstance(xi, tuple) else (float(xi),) for xi in xi_samples]
    if not xi_list:
        raise ValueError("need at least one xi sample")

    if isinstance(phi, GridField):
        x_grid = np.column_stack([axis.reshape(-1) for axis in phi.meshgrid()])
    elif not isinstance(phi, FunctionSpec):
        raise TypeError("phi must be a GridField or a FunctionSpec")
    elif x_grid is None:
        raise ValueError("x_grid required for closed-form phi")
    evaluator = GridEvaluator(alg, x_grid, phi=phi)

    # characteristic guard
    pm_min = np.min(np.abs(evaluator.pm(xi_list)), axis=1)
    for xi, low in zip(xi_list, pm_min):
        mag = sum(abs(c) ** 2 for c in xi) ** (m / 2.0)
        if low < 1e-12 * max(mag, 1.0):
            raise ValueError(f"characteristic xi sample {xi}")

    zero = alg.zero_mi()
    w_words = enumerate_words(m, N - m)
    e_words = [w for w in enumerate_words(m, N) if word_weight(w[1:]) <= N - m < word_weight(w)]

    def apply(S: SymbolSum, j: int) -> SymbolSum:  # R_j S
        return _apply_reduction(system, system.operators[j - 1], S)

    unit: SymbolSum = {_term_key([], zero, 0, zero): 1.0 + 0.0j}
    layers = [unit]
    for v in range(1, N - m + 1):
        layers.append(_merge(apply(layers[v - j], j) for j in range(1, min(m, v) + 1)))
    # the window starts at 0, not at a negative index, when N - m < j - 1
    e_sum = _merge(apply(_merge(layers[max(0, N - m - j + 1):]), j) for j in range(1, m + 1))
    # the Leibniz audit reads single words, each folded right to left
    word_states = {w: reduce(apply, reversed(w), unit) for w in e_words[:LEIBNIZ_WORDS]}

    # w_N and e_N are linear in the states: merge, then evaluate once
    w_sum = _merge(layers)
    w_vals = evaluator.eval_sum(w_sum, xi_list)
    e_vals = evaluator.eval_sum(e_sum, xi_list)
    phi_vals = evaluator.phi_deriv(zero).copy()

    K1 = [k for k in range(0, N // m + 1) if m * k <= N - m]
    K2 = [k for k in range(0, N // m + 1) if N - m < m * k <= N]
    return NeumannSums(
        w_words=w_words,
        e_words=e_words,
        K1=K1,
        K2=K2,
        layers=layers,
        w_sum=w_sum,
        word_states=word_states,
        w_values=w_vals,
        e_values=e_vals,
        phi_values=phi_vals,
        xi_samples=xi_list,
        evaluator=evaluator,
        system=system,
    )


def residual_identity_check(sums: NeumannSums) -> float:
    """max |(I - R) w_N - (phi - e_N)| over the grid and xi samples.

    The identity is algebraic; the residual measures rounding only.
    """
    system = sums.system
    r_of_w = _merge(_apply_reduction(system, op, sums.w_sum) for op in system.operators)
    lhs = sums.w_values - sums.evaluator.eval_sum(r_of_w, sums.xi_samples)
    rhs = sums.phi_values - sums.e_values
    return float(np.max(np.abs(lhs - rhs)))


# ---------------------------------------------------------------------------
# bound audits


def _fit_seminorm_envelope(
    values: dict[int, float], tau: float, sigma: float
) -> tuple[float, float]:
    """(ln A, ln h) of the minimal (A, h) with
    values[n] <= A h^{n^sigma} n^{tau n^sigma}; values are logs keyed by order n."""
    log_a = values.get(0, max(values.values()))
    log_h = 0.0
    for n, v in values.items():
        if n == 0:
            continue
        log_h = max(log_h, normalized_excess(v - log_a, n, tau, sigma))
    return log_a, log_h


@dataclass
class BoundAuditReport:
    coefficient_log_fits: dict[tuple[int, MultiIndex], tuple[float, float]]
    homogeneity_max_error: float
    leibniz_terms_checked: int
    leibniz_violations: int

    def ok(self) -> bool:
        return self.leibniz_violations == 0 and self.homogeneity_max_error <= 1e-12


def check_audit_order(beta_max: int) -> None:
    """bound_audit differentiates 0..MAX_AUDIT_ORDER times; a negative
    order would leave it nothing to check."""
    if not 0 <= beta_max <= MAX_AUDIT_ORDER:
        raise ValueError(f"beta_max = {beta_max} lies outside 0..{MAX_AUDIT_ORDER}")


def bound_audit(
    sums: NeumannSums,
    beta_max: int,
    tau: float,
    sigma: float,
) -> BoundAuditReport:
    """Fit the coefficient envelopes and check homogeneity and the Leibniz
    index bookkeeping.

    Coefficient side: sup_x |D^beta c_{alpha,j}| * |xi|^j fitted against
    A h^{|beta|^sigma} |beta|^{tau |beta|^sigma}, plus exact homogeneity
    at scaled xi.  The fits are measurements: each is (ln A, ln h) of the
    least (A, h) covering its own data, so it cannot fail.  Leibniz side:
    for the first LEIBNIZ_WORDS e-words w and |beta| <= min(beta_max,
    LEIBNIZ_ORDER), every term of the expanded d^beta (R_w phi)
    differentiates phi at most weight(w) + |beta| times and is
    homogeneous of degree -weight(w) in xi.  `ok()` rests on the
    homogeneity error and the Leibniz verdicts.
    """
    check_class(tau, sigma)
    check_audit_order(beta_max)
    system, ev = sums.system, sums.evaluator
    alg = system.algebra
    xi_list = sums.xi_samples
    xi_mags = [math.sqrt(sum(c * c for c in xi)) for xi in xi_list]

    def sup_logs(S: SymbolSum, weight: int) -> dict[int, float]:
        """n -> log max over |beta| = n, x and xi of |D^beta S| |xi|^weight;
        orders whose values all vanish are omitted."""
        col = np.array([mag**weight for mag in xi_mags])[:, None]
        table = alg.d_op(S, beta_max)
        logs: dict[int, float] = {}
        for n in range(beta_max + 1):
            v = max(
                float(np.max(np.abs(ev.eval_sum(table[beta], xi_list)) * col))
                for beta in mi_of_order(alg.dim, n)
            )
            if v > 0:
                logs[n] = math.log(v)
        return logs

    coeff_log_fits: dict[tuple[int, MultiIndex], tuple[float, float]] = {}
    hom_err = 0.0
    lams = (2.0, 4.0, 8.0)
    xi0 = xi_list[0]
    hom_xis = [xi0] + [tuple(lam * c for c in xi0) for lam in lams]
    for op in system.operators:
        for a_prime, coeff in op.action.items():
            logs = sup_logs(coeff, op.j)
            if not logs:
                continue
            coeff_log_fits[(op.j, a_prime)] = _fit_seminorm_envelope(logs, tau, sigma)
            # homogeneity at scaled xi
            base, *scaled = np.abs(ev.eval_sum(coeff, hom_xis))
            for lam, row in zip(lams, scaled):
                ref = base * lam ** (-op.j)
                denom = np.maximum(np.abs(ref), 1e-300)
                err = float(np.max(np.abs(row - ref) / denom))
                if np.max(base) > 0:
                    hom_err = max(hom_err, err)

    # one verdict per term of d^beta state(w): phi order at most
    # weight + |beta| and xi-degree exactly -weight
    leibniz_ok: list[bool] = []
    for w, state in sums.word_states.items():
        weight = word_weight(w)
        for beta, dS in alg.d_op(state, min(beta_max, LEIBNIZ_ORDER)).items():
            leibniz_ok.extend(
                key[3] is not None and mi_order(key[3]) <= weight + mi_order(beta)
                and alg.degree(key) == -weight
                for key in dS
            )

    return BoundAuditReport(
        coefficient_log_fits=coeff_log_fits,
        homogeneity_max_error=hom_err,
        leibniz_terms_checked=len(leibniz_ok),
        leibniz_violations=leibniz_ok.count(False),
    )
