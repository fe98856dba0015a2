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

Operator words do not commute and are kept as sequences; word counts
follow the composition recurrence c(v) = sum_{j<=m} c(v-j).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .funcspec import FunctionSpec, MVPolySpec, PolySpec, ProdSpec, SumSpec, parse_spec
from .jets import jet_compose, jet_of, jet_partial
from .multiindex import (
    MultiIndex,
    enumerate_decompositions,
    mi_add,
    mi_binomial,
    mi_factorial,
    mi_of_order,
    mi_order,
    mi_range,
    mi_sub,
)
from .numerics import LogMagnitude
from .sequences import log_envelope, log_M, normalized_excess
from .wavefront import Cone, Cutoff

# desk-scale budgets: beyond these the word count A*C^N is impractical
MAX_ORDER_M = 3
MAX_TRUNCATION_N = 12
MAX_DIM = 2
MAX_GRID_POINTS = 1024
MAX_TERMS = 200_000


def _const_spec(c, dim: int) -> FunctionSpec:
    if dim == 1:
        return PolySpec((c,))
    return MVPolySpec.from_dict(dim, {(0,) * dim: c})


def _is_zero_spec(spec: FunctionSpec) -> bool:
    if isinstance(spec, PolySpec):
        return all(c == 0 for c in spec.coeffs)
    if isinstance(spec, MVPolySpec):
        return all(c == 0 for _, c in spec.terms)
    if isinstance(spec, SumSpec):
        return _is_zero_spec(spec.left) and _is_zero_spec(spec.right)
    if isinstance(spec, ProdSpec):
        return _is_zero_spec(spec.left) or _is_zero_spec(spec.right)
    return False


def _axis_degrees(spec: FunctionSpec, dim: int) -> tuple[int, ...] | None:
    """Per-axis polynomial degrees, or None when not polynomial.

    d^beta(spec) vanishes identically when beta_i exceeds the axis-i
    degree; used to prune structurally zero factors from the term ring.
    """
    if _is_zero_spec(spec):
        return (-1,) * dim
    if isinstance(spec, PolySpec):
        deg = max(i for i, c in enumerate(spec.coeffs) if c != 0)
        return (deg,)
    if isinstance(spec, MVPolySpec):
        degs = [0] * dim
        for expo, c in spec.terms:
            if c != 0:
                for i, e in enumerate(expo):
                    degs[i] = max(degs[i], e)
        return tuple(degs)
    if isinstance(spec, SumSpec):
        a = _axis_degrees(spec.left, dim)
        b = _axis_degrees(spec.right, dim)
        if a is None or b is None:
            return None
        return tuple(max(x, y) for x, y in zip(a, b))
    if isinstance(spec, ProdSpec):
        a = _axis_degrees(spec.left, dim)
        b = _axis_degrees(spec.right, dim)
        if a is None or b is None:
            return None
        if a == (-1,) * dim or b == (-1,) * dim:
            return (-1,) * dim
        return tuple(x + y for x, y in zip(a, b))
    return None


@dataclass(frozen=True)
class DiffOperator:
    """P(x, D) = sum a_alpha(x) D^alpha, D = -i d/dx."""

    order: int
    dim: int
    coeffs: dict[MultiIndex, FunctionSpec] = field(hash=False)

    def __post_init__(self) -> None:
        if self.dim not in (1, 2):
            raise ValueError("operators support d = 1 or 2")
        if self.order > MAX_ORDER_M:
            raise ValueError(f"operator order limited to {MAX_ORDER_M}")
        if not any(mi_order(a) == self.order for a in self.coeffs):
            raise ValueError("no coefficient at the stated order")
        for a, c in self.coeffs.items():
            if len(a) != self.dim:
                raise ValueError("coefficient index dimension mismatch")
            if c.dim != self.dim:
                raise ValueError("coefficient spec dimension mismatch")

    def principal(self) -> dict[MultiIndex, FunctionSpec]:
        return {a: c for a, c in self.coeffs.items() if mi_order(a) == self.order}


def parse_operator(text: str, dim: int = 1) -> DiffOperator:
    """CLI grammar: terms like 'SPEC*D^2 + SPEC*D + SPEC' (d = 1)."""
    if dim != 1:
        raise ValueError("operator grammar is univariate")
    coeffs: dict[MultiIndex, FunctionSpec] = {}
    for raw in text.split("+"):
        part = raw.strip()
        if not part:
            continue
        if "*D" in part:
            spec_s, _, dpart = part.rpartition("*")
            k = 1 if dpart.strip() == "D" else int(dpart.strip()[2:])
            spec = parse_spec(spec_s)
        elif part.startswith("D"):
            k = 1 if part == "D" else int(part[2:])
            spec = PolySpec((1,))
        else:
            k = 0
            spec = parse_spec(part)
        key = (k,)
        coeffs[key] = SumSpec(coeffs[key], spec) if key in coeffs else spec
    order = max(mi_order(a) for a in coeffs)
    return DiffOperator(order, 1, coeffs)


def _xi_monomial(gamma: MultiIndex, xi: tuple) -> float:
    """xi^gamma, one factor at a time."""
    mono = 1.0
    for e, v in zip(gamma, xi):
        mono *= v**e
    return mono


def principal_symbol(P: DiffOperator, x: tuple | float, xi: tuple | float) -> complex:
    """P_m(x, xi) = sum_{|alpha| = m} a_alpha(x) xi^alpha."""
    if not isinstance(x, tuple):
        x = (x,)
    if not isinstance(xi, tuple):
        xi = (xi,)
    out = 0.0 + 0.0j
    for a, c in P.principal().items():
        out += complex(c.eval(*x)) * _xi_monomial(a, xi)
    return out


# ---------------------------------------------------------------------------
# transpose


def transpose(P: DiffOperator) -> DiffOperator:
    """Formal transpose: b_beta = sum_{alpha >= beta} (-1)^{|alpha|}
    binom(alpha, beta) (-i)^{|alpha - beta|} d^{alpha-beta} a_alpha."""
    out: dict[MultiIndex, FunctionSpec] = {}
    for alpha, a_spec in P.coeffs.items():
        for beta in mi_range(alpha):
            diff = mi_sub(alpha, beta)
            scale = (-1) ** mi_order(alpha) * mi_binomial(alpha, beta) * (-1j) ** mi_order(diff)
            spec = a_spec
            for axis, k in enumerate(diff):
                for _ in range(k):
                    spec = spec.derivative(axis)
            if _is_zero_spec(spec):
                continue
            term = ProdSpec(_const_spec(scale, P.dim), spec)
            out[beta] = SumSpec(out[beta], term) if beta in out else term
    return DiffOperator(P.order, P.dim, out)


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


class SymbolAlgebra:
    """Term ring over a fixed operator: registry of coefficient specs,
    differentiation, products with reduction-operator coefficients."""

    def __init__(self, P: DiffOperator):
        self.P = P
        self.dim = P.dim
        self.m = P.order
        self.registry: list[FunctionSpec] = []
        self.registry_degrees: list[tuple[int, ...] | None] = []
        self._spec_ids: dict[int, int] = {}
        self.principal_ids: dict[MultiIndex, int] = {
            a: self.register(c) for a, c in P.principal().items()
        }

    def register(self, spec: FunctionSpec) -> int:
        key = id(spec)
        if key not in self._spec_ids:
            self._spec_ids[key] = len(self.registry)
            self.registry.append(spec)
            self.registry_degrees.append(_axis_degrees(spec, self.dim))
        return self._spec_ids[key]

    def zero_mi(self) -> MultiIndex:
        return (0,) * self.dim

    def factor_is_zero(self, sid: int, beta: MultiIndex) -> bool:
        degs = self.registry_degrees[sid]
        return degs is not None and any(b > dg for b, dg in zip(beta, degs))

    def partial(self, S: SymbolSum, axis: int) -> SymbolSum:
        """d/dx_axis of a term sum (stays in the ring)."""
        e = tuple(1 if i == axis else 0 for i in range(self.dim))
        out: SymbolSum = {}
        for (factors, gamma, kpow, phi), scale in S.items():
            for idx in range(len(factors)):
                sid, beta = factors[idx]
                up = mi_add(beta, e)
                if self.factor_is_zero(sid, up):
                    continue
                nf = list(factors)
                nf[idx] = (sid, up)
                _sum_add(out, _term_key(nf, gamma, kpow, phi), scale)
            if phi is not None:
                _sum_add(out, _term_key(factors, gamma, kpow, mi_add(phi, e)), scale)
            if kpow > 0:
                # d(Pm^-k) = -k Pm^-(k+1) * dPm, with dPm a xi-polynomial
                for a, sid in self.principal_ids.items():
                    if self.factor_is_zero(sid, e):
                        continue
                    nf = list(factors) + [(sid, e)]
                    _sum_add(
                        out,
                        _term_key(nf, mi_add(gamma, a), kpow + 1, phi),
                        scale * (-kpow),
                    )
        return out

    def d_op(self, S: SymbolSum, alpha: MultiIndex) -> SymbolSum:
        """D^alpha = (-i)^{|alpha|} d^alpha."""
        out = S
        for axis, k in enumerate(alpha):
            for _ in range(k):
                out = self.partial(out, axis)
        scale = (-1j) ** mi_order(alpha)
        if scale != 1:
            out = {k: v * scale for k, v in out.items()}
        return out

    def product(self, A: SymbolSum, B: SymbolSum) -> SymbolSum:
        out: SymbolSum = {}
        for (fa, ga, ka, pa), sa in A.items():
            for (fb, gb, kb, pb), sb in B.items():
                if pa is not None and pb is not None:
                    raise ValueError("at most one phi factor per term")
                _sum_add(
                    out,
                    _term_key(fa + fb, mi_add(ga, gb), ka + kb, pa if pa is not None else pb),
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
    transpose_op: DiffOperator
    identity_residual: float


def build_reduction_operators(
    P: DiffOperator,
    probe_points: Sequence[tuple] | None = None,
    probe_xi: Sequence[tuple] | None = None,
    tol: float = 1e-9,
) -> ReductionSystem:
    """Expand the conjugated transpose and collect by xi-homogeneity.

    The degree-0 part must be exactly the identity (checked numerically
    at probe points); degrees -1..-m become R_1..R_m via I - R.
    """
    algebra = SymbolAlgebra(P)
    m, d = P.order, P.dim
    PT = transpose(P)
    zero = algebra.zero_mi()

    collected: dict[tuple[int, MultiIndex], SymbolSum] = {}
    for alpha, b_spec in PT.coeffs.items():
        b_id = algebra.register(b_spec)
        for beta in mi_range(alpha):
            amb = mi_sub(alpha, beta)
            j = m - mi_order(amb)
            for gamma in mi_range(beta):
                base = (
                    mi_binomial(alpha, beta)
                    * mi_binomial(beta, gamma)
                    * (-1) ** mi_order(amb)
                )
                start: SymbolSum = {_term_key([], zero, 1, None): 1.0 + 0.0j}
                dg = algebra.d_op(start, gamma)
                coeff: SymbolSum = {}
                for (f, g, k, p), s in dg.items():
                    nf = list(f) + [(b_id, zero)]
                    _sum_add(
                        coeff, _term_key(nf, mi_add(g, amb), k, p), s * base
                    )
                op_key = (j, mi_sub(beta, gamma))
                acc = collected.setdefault(op_key, {})
                for k_, v in coeff.items():
                    _sum_add(acc, k_, v)

    # degree bookkeeping is exact by construction; assert it anyway
    for (j, _), S in collected.items():
        for key in S:
            if algebra.degree(key) != -j:
                raise AssertionError("homogeneity bookkeeping failed")

    # the degree-0 cell must be the identity
    if probe_points is None:
        probe_points = [
            tuple(0.17 + 0.23 * i + 0.11 * ax for ax in range(d)) for i in range(3)
        ]
    if probe_xi is None:
        probe_xi = [tuple(3.0 + 1.5 * i for _ in range(d)) for i in range(2)]
    ident = collected.get((0, zero), {})
    ev = GridEvaluator(algebra, np.array(probe_points, dtype=float), k_max=m + 1)
    resid = float(np.max(np.abs(ev.eval_sum(ident, probe_xi) - 1.0)))
    if resid > tol:
        raise ValueError(f"degree-0 part differs from the identity by {resid:.2e}")
    for (j, a), S in collected.items():
        if j == 0 and a != zero and S:
            raise AssertionError("degree-0 cell carries a differential part")

    ops = []
    for j in range(1, m + 1):
        action: dict[MultiIndex, SymbolSum] = {}
        for (jj, a), S in collected.items():
            if jj == j and S:
                action[a] = {k: -v for k, v in S.items()}
        ops.append(ReductionOperator(j=j, action=action))
    return ReductionSystem(
        algebra=algebra, operators=ops, transpose_op=PT, identity_residual=resid
    )


# ---------------------------------------------------------------------------
# evaluation on grids


class GridEvaluator:
    """Evaluates term sums on a fixed set of x points.

    Derivative values of registry specs come from per-point jets (exact
    up to rounding); phi may instead be backed by a finite-difference
    table from a sampled cutoff.
    """

    def __init__(
        self,
        algebra: SymbolAlgebra,
        points: np.ndarray,
        k_max: int,
        phi_spec: FunctionSpec | None = None,
        phi_table: dict[MultiIndex, np.ndarray] | None = None,
    ):
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if len(pts) > MAX_GRID_POINTS:
            raise ValueError(f"grid limited to {MAX_GRID_POINTS} points")
        self.algebra = algebra
        self.points = pts
        self.k_max = k_max
        self.phi_spec = phi_spec
        self.phi_table = phi_table
        self._jets: dict[int, list] = {}
        self._derivs: dict[Factor, np.ndarray] = {}
        self._phi_derivs: dict[MultiIndex, np.ndarray] = {}

    def _ensure_order(self, order: int) -> None:
        # audits may differentiate beyond the order anticipated at build
        # time; extend the truncation and rebuild the jet caches
        if order > self.k_max:
            self.k_max = order + 4
            self._jets.clear()
            self._derivs.clear()

    def _jet_list(self, sid: int) -> list:
        if sid not in self._jets:
            spec = self.algebra.registry[sid]
            self._jets[sid] = [
                jet_of(spec, tuple(p), self.k_max) for p in self.points
            ]
        return self._jets[sid]

    def deriv(self, sid: int, beta: MultiIndex) -> np.ndarray:
        key = (sid, beta)
        if key not in self._derivs:
            self._ensure_order(mi_order(beta))
            jets = self._jet_list(sid)
            self._derivs[key] = np.array(
                [complex(jet_partial(j, beta)) for j in jets]
            )
        return self._derivs[key]

    def phi_deriv(self, beta: MultiIndex) -> np.ndarray:
        if beta not in self._phi_derivs:
            if self.phi_table is not None:
                if beta not in self.phi_table:
                    raise ValueError(f"phi table lacks derivative {beta}")
                self._phi_derivs[beta] = self.phi_table[beta].astype(complex)
            elif self.phi_spec is not None:
                self._ensure_order(mi_order(beta))
                jets = self._jet_list(self.algebra.register(self.phi_spec))
                self._phi_derivs[beta] = np.array(
                    [complex(jet_partial(j, beta)) for j in jets]
                )
            else:
                raise ValueError("no phi attached to this evaluator")
        return self._phi_derivs[beta]

    def pm(self, xis: Sequence[tuple]) -> np.ndarray:
        """P_m at every (xi, x): an (n_xi, n_points) array."""
        acc = np.zeros((len(xis), len(self.points)), dtype=complex)
        for a, sid in self.algebra.principal_ids.items():
            mono = np.array([_xi_monomial(a, xi) for xi in xis])
            acc += self.deriv(sid, self.algebra.zero_mi()) * mono[:, None]
        return acc

    def eval_sum(self, S: SymbolSum, xis: Sequence[tuple]) -> np.ndarray:
        """S at every (xi, x): an (n_xi, n_points) array.

        A term's x-part does not depend on xi, so it is built once and
        broadcast against the xi^gamma and P_m^-k columns.
        """
        out = np.zeros((len(xis), len(self.points)), dtype=complex)
        monos: dict[MultiIndex, np.ndarray] = {}
        pm = None
        pm_pows: dict[int, np.ndarray] = {}
        for (factors, gamma, kpow, phi), scale in S.items():
            vec = np.full(len(self.points), scale, dtype=complex)
            for sid, beta in factors:
                vec = vec * self.deriv(sid, beta)
            if any(gamma):
                if gamma not in monos:
                    monos[gamma] = np.array([_xi_monomial(gamma, xi) for xi in xis])
                vec = vec * monos[gamma][:, None]
            if kpow:
                if kpow not in pm_pows:
                    if pm is None:
                        pm = self.pm(xis)
                    pm_pows[kpow] = pm**kpow
                vec = vec / pm_pows[kpow]
            if phi is not None:
                vec = vec * self.phi_deriv(phi)
            out += vec
        return out


def fd_phi_table(cutoff: Cutoff, n_max: int) -> tuple[np.ndarray, dict[MultiIndex, np.ndarray]]:
    """(points, derivative table) from a sampled cutoff, via iterated
    centered differences (np.gradient); supports the residual identity,
    whose cancellation is algebraic in the phi-derivative symbols."""
    g = cutoff.profile
    vals = g.samples.astype(float)
    table: dict[MultiIndex, np.ndarray] = {}
    for n in range(n_max + 1):
        for beta in mi_of_order(g.dim, n):
            a = vals
            for axis, k in enumerate(beta):
                for _ in range(k):
                    a = np.gradient(a, g.spacing[axis], axis=axis)
            table[beta] = a.reshape(-1)
    if g.dim == 1:
        pts = g.axis_coords(0)[:, None]
    else:
        mesh = g.meshgrid()
        pts = np.column_stack([m.reshape(-1) for m in mesh])
    return pts, table


# ---------------------------------------------------------------------------
# ellipticity and the reciprocal-symbol derivatives


@dataclass(frozen=True)
class EllipticityResult:
    C1: float
    C2: float
    char_hit: tuple[tuple, tuple] | None


def ellipticity_bounds(
    P: DiffOperator,
    box: tuple[tuple[float, float], ...],
    cone: Cone,
    samples: int = 16,
    zero_tol: float = 1e-9,
) -> EllipticityResult:
    """Sampled min/max of |P_m(x, theta)| over box x cone directions.

    A sampled minimum below the tolerance is a characteristic hit and is
    returned with its witness.
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
    c1, c2 = float("inf"), 0.0
    hit = None
    for x in xs:
        for th in dirs:
            v = abs(principal_symbol(P, tuple(x), th))
            if v < c1:
                c1 = v
                if v < zero_tol:
                    hit = (tuple(x), th)
            c2 = max(c2, v)
    return EllipticityResult(C1=c1, C2=c2, char_hit=hit)


def inv_pm_derivative(
    P: DiffOperator, alpha: MultiIndex, x: tuple | float, xi: tuple | float
) -> complex:
    """D^alpha (1/P_m)(x, xi) via the decomposition sum

    alpha! sum_pi (-1)^j j! / P_m^{j+1} prod_k (1/j_k!) ((1/p_k!) D^{p_k} P_m)^{j_k}.
    """
    if not isinstance(x, tuple):
        x = (x,)
    if not isinstance(xi, tuple):
        xi = (xi,)
    pm0 = principal_symbol(P, x, xi)
    if abs(pm0) < 1e-300:
        raise ZeroDivisionError("characteristic point")
    if mi_order(alpha) == 0:
        return 1.0 / pm0
    n = mi_order(alpha)

    jets = {a: jet_of(c, x, n) for a, c in P.principal().items()}

    def d_pm(p: MultiIndex) -> complex:
        acc = 0.0 + 0.0j
        for a, jt in jets.items():
            acc += complex(jet_partial(jt, p)) * _xi_monomial(a, xi)
        return acc * (-1j) ** mi_order(p)

    total = 0.0 + 0.0j
    for dec in enumerate_decompositions(alpha):
        j = dec.total_multiplicity
        term = (-1) ** j * math.factorial(j) / pm0 ** (j + 1)
        for part, mult in zip(dec.parts, dec.multiplicities):
            piece = d_pm(part) / mi_factorial(part)
            term *= piece**mult / math.factorial(mult)
        total += term
    return mi_factorial(alpha) * total


def inv_pm_derivative_jet_check(
    P: DiffOperator, alpha: MultiIndex, x: tuple | float, xi: tuple | float
) -> complex:
    """Independent route: jet of 1/P_m(., xi) by reciprocal composition.

    D^alpha = (-i)^{|alpha|} d^alpha on the x-jet.
    """
    from .funcspec import RecipPowSpec
    from .jets import Jet, jet_add, jet_scale

    if not isinstance(x, tuple):
        x = (x,)
    if not isinstance(xi, tuple):
        xi = (xi,)
    n = mi_order(alpha)
    pm_jet = Jet(P.dim, n, {}, x)
    for a, c in P.principal().items():
        mono = 1.0
        for e, v in zip(a, xi):
            mono *= v**e
        pm_jet = jet_add(pm_jet, jet_scale(mono, jet_of(c, x, n)))
    recip = RecipPowSpec(1).jet((pm_jet.value,), n)
    inv_jet = jet_compose(recip, pm_jet)
    return (-1j) ** n * complex(jet_partial(inv_jet, alpha))


# ---------------------------------------------------------------------------
# Neumann sums


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
    return sorted(out, key=lambda w: (len(w), w))


def word_count_recurrence(m: int, v: int) -> int:
    """Number of words of weight exactly v: c(v) = sum_{j=1..m} c(v-j)."""
    c = [1] + [0] * v
    for t in range(1, v + 1):
        c[t] = sum(c[t - j] for j in range(1, m + 1) if t - j >= 0)
    return c[v]


@dataclass
class NeumannSums:
    N: int
    m: int
    w_words: list[tuple[int, ...]]
    e_words: list[tuple[int, ...]]
    K1: list[int]
    K2: list[int]
    word_states: dict[tuple[int, ...], SymbolSum]
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
    out: SymbolSum = {}
    for a_prime, coeff in op.action.items():
        dS = alg.d_op(S, a_prime)
        prod = alg.product(coeff, dS)
        for k, v in prod.items():
            _sum_add(out, k, v)
    if len(out) > MAX_TERMS:
        raise ValueError("term budget exceeded")
    return out


def neumann_sums(
    system: ReductionSystem,
    phi,
    N: int,
    x_grid: np.ndarray | None = None,
    xi_samples: Sequence[tuple | float] = (),
    fd_order_max: int | None = None,
) -> NeumannSums:
    """Build w_N and e_N by applying operator words to phi.

    Words act right to left and share suffix states.  w_N collects the
    words of weight at most N - m; e_N the words that cross the
    threshold when one more operator is applied (exact telescoping:
    (I - R) w_N = phi - e_N).  K1/K2 are the power-index windows
    {k : mk <= N - m} and {k : N - m < mk <= N}.
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

    if isinstance(phi, Cutoff):
        need = N + (fd_order_max or 0)
        pts, table = fd_phi_table(phi, need)
        evaluator = GridEvaluator(alg, pts, k_max=N + m + 2, phi_table=table)
    elif isinstance(phi, FunctionSpec):
        if x_grid is None:
            raise ValueError("x_grid required for closed-form phi")
        evaluator = GridEvaluator(
            alg, x_grid, k_max=N + m + 2 + (fd_order_max or 0), phi_spec=phi
        )
    else:
        raise TypeError("phi must be a Cutoff or a FunctionSpec")

    # characteristic guard
    pm_min = np.min(np.abs(evaluator.pm(xi_list)), axis=1)
    for xi, low in zip(xi_list, pm_min):
        mag = sum(abs(c) ** 2 for c in xi) ** (m / 2.0)
        if low < 1e-12 * max(mag, 1.0):
            raise ValueError(f"characteristic xi sample {xi}")

    zero = alg.zero_mi()
    w_words = enumerate_words(m, N - m)
    e_words = sorted(
        {
            (j,) + w
            for w in w_words
            for j in range(1, m + 1)
            if word_weight(w) + j > N - m
        },
        key=lambda w: (len(w), w),
    )

    unit: SymbolSum = {_term_key([], zero, 0, zero): 1.0 + 0.0j}
    states: dict[tuple[int, ...], SymbolSum] = {(): unit}

    def state(word: tuple[int, ...]) -> SymbolSum:
        if word not in states:
            head, tail = word[0], word[1:]
            states[word] = _apply_reduction(
                system, system.operators[head - 1], state(tail)
            )
        return states[word]

    for w in w_words:
        state(w)
    for w in e_words:
        state(w)

    shape = (len(xi_list), len(evaluator.points))
    w_vals = np.zeros(shape, dtype=complex)
    e_vals = np.zeros(shape, dtype=complex)
    for w in w_words:
        w_vals += evaluator.eval_sum(states[w], xi_list)
    for w in e_words:
        e_vals += evaluator.eval_sum(states[w], xi_list)
    phi_vals = evaluator.phi_deriv(zero).copy()

    K1 = [k for k in range(0, N // m + 1) if m * k <= N - m]
    K2 = [k for k in range(0, N // m + 1) if N - m < m * k <= N]
    return NeumannSums(
        N=N,
        m=m,
        w_words=w_words,
        e_words=e_words,
        K1=K1,
        K2=K2,
        word_states={w: states[w] for w in set(w_words) | set(e_words)},
        w_values=w_vals,
        e_values=e_vals,
        phi_values=phi_vals,
        xi_samples=xi_list,
        evaluator=evaluator,
        system=system,
    )


def residual_identity_check(sums: NeumannSums) -> LogMagnitude:
    """max |(I - R) w_N - (phi - e_N)| over the grid and xi samples.

    The identity is algebraic; the residual measures rounding only.
    """
    alg = sums.system.algebra
    w_sum: SymbolSum = {}
    for w in sums.w_words:
        for k, v in sums.word_states[w].items():
            _sum_add(w_sum, k, v)
    r_of_w: SymbolSum = {}
    for op in sums.system.operators:
        part = _apply_reduction(sums.system, op, w_sum)
        for k, v in part.items():
            _sum_add(r_of_w, k, v)
    lhs = sums.w_values - sums.evaluator.eval_sum(r_of_w, sums.xi_samples)
    rhs = sums.phi_values - sums.e_values
    return LogMagnitude.from_real(float(np.max(np.abs(lhs - rhs))))


# ---------------------------------------------------------------------------
# bound audits


def _fit_seminorm_envelope(
    values: dict[int, float], tau: float, sigma: float
) -> tuple[float, float]:
    """Minimal (A, h) with values[n] <= A h^{n^sigma} n^{tau n^sigma};
    values are logs keyed by order n."""
    log_a = values.get(0, max(values.values()))
    log_h = 0.0
    for n, v in values.items():
        if n == 0:
            continue
        log_h = max(log_h, normalized_excess(v - log_a, n, tau, sigma))
    return math.exp(log_a), math.exp(log_h)


@dataclass
class BoundAuditReport:
    coefficient_fits: dict[tuple[int, MultiIndex], tuple[float, float]]
    coefficient_violations: int
    homogeneity_max_error: float
    principal_fit: tuple[float, float]
    word_fits: dict[tuple[int, ...], tuple[float, float]]
    word_violations: int
    leibniz_terms_checked: int
    leibniz_violations: int

    def ok(self) -> bool:
        return (
            self.coefficient_violations == 0
            and self.word_violations == 0
            and self.leibniz_violations == 0
            and self.homogeneity_max_error <= 1e-12
        )


def bound_audit(
    sums: NeumannSums,
    beta_max: int,
    tau: float,
    sigma: float,
    dist_order: int = 0,
    leibniz_words: int = 3,
) -> BoundAuditReport:
    """Fit the coefficient and word-derivative envelopes and verify the
    Leibniz index bookkeeping.

    Coefficient side: sup_x |D^beta c_{alpha,j}| * |xi|^j fitted against
    A h^{|beta|^sigma} |beta|^{tau |beta|^sigma}, plus exact homogeneity
    at scaled xi.  Word side: sup_x |D^beta (R_word phi)| * |xi|^{weight}
    fitted against A h^{N^sigma} (N + M)^{tau (N + M)^sigma}.  Leibniz
    side: every expanded term of the first `leibniz_words` e-words obeys
    the derivative-order bookkeeping.
    """
    if beta_max > 6:
        raise ValueError("beta_max limited to 6")
    system, ev = sums.system, sums.evaluator
    alg = system.algebra
    zero = alg.zero_mi()
    xi_list = sums.xi_samples
    xi_mags = [math.sqrt(sum(c * c for c in xi)) for xi in xi_list]

    def sup_logs(S: SymbolSum, weight: int) -> dict[int, float]:
        """n -> log max over |beta| = n, x and xi of |D^beta S| |xi|^weight.

        d^beta S is one `partial` of d^(beta - e_t) S along the last axis
        t with beta_t > 0, the order `d_op` differentiates in; the unit
        factor (-i)^n of D^beta is left out.  Orders whose values all
        vanish are omitted.
        """
        col = np.array([mag**weight for mag in xi_mags])[:, None]
        logs: dict[int, float] = {}
        layer = {zero: S}
        for n in range(beta_max + 1):
            if n:
                nxt = {}
                for beta in mi_of_order(alg.dim, n):
                    axis = max(i for i, b in enumerate(beta) if b)
                    prev = tuple(b - (i == axis) for i, b in enumerate(beta))
                    nxt[beta] = alg.partial(layer[prev], axis)
                layer = nxt
            v = max(
                float(np.max(np.abs(ev.eval_sum(dS, xi_list)) * col))
                for dS in layer.values()
            )
            if v > 0:
                logs[n] = math.log(v)
        return logs

    coeff_fits: dict[tuple[int, MultiIndex], tuple[float, float]] = {}
    coeff_viol = 0
    hom_err = 0.0
    lams = (2.0, 4.0, 8.0)
    xi0 = xi_list[0]
    hom_xis = [xi0] + [tuple(lam * c for c in xi0) for lam in lams]
    for op in system.operators:
        for a_prime, coeff in op.action.items():
            logs = sup_logs(coeff, op.j)
            if not logs:
                continue
            A, h = _fit_seminorm_envelope(logs, tau, sigma)
            coeff_fits[(op.j, a_prime)] = (A, h)
            for n, v in logs.items():
                if v > log_envelope(n, tau, sigma, math.log(A), math.log(h)) + 1e-9:
                    coeff_viol += 1
            # homogeneity at scaled xi
            base, *scaled = np.abs(ev.eval_sum(coeff, hom_xis))
            for lam, row in zip(lams, scaled):
                ref = base * lam ** (-op.j)
                denom = np.maximum(np.abs(ref), 1e-300)
                err = float(np.max(np.abs(row - ref) / denom))
                if np.max(base) > 0:
                    hom_err = max(hom_err, err)

    # principal-coefficient envelope (4.24): sup |D^p P_m| / |xi|^m
    pm_sum: SymbolSum = {
        _term_key([(sid, zero)], a, 0, None): 1.0 + 0.0j
        for a, sid in alg.principal_ids.items()
    }
    principal_fit = _fit_seminorm_envelope(sup_logs(pm_sum, -alg.m), tau, sigma)

    # word-derivative envelopes (4.29)
    NM = sums.N + dist_order
    growth_nm = log_M(tau, sigma, NM)
    word_logs: dict[tuple[int, ...], dict[int, float]] = {}
    for w in sums.e_words:
        logs = sup_logs(sums.word_states[w], word_weight(w))
        if logs:
            word_logs[w] = logs
    log_a29 = max(
        (max(logs.values()) - growth_nm for logs in word_logs.values()),
        default=0.0,
    )
    ns_N = float(sums.N) ** sigma
    log_h29 = 0.0
    for logs in word_logs.values():
        for v in logs.values():
            log_h29 = max(log_h29, (v - log_a29 - growth_nm) / ns_N)
    word_fits = {}
    word_viol = 0
    for w, logs in word_logs.items():
        word_fits[w] = (math.exp(log_a29), math.exp(log_h29))
        for v in logs.values():
            if v > log_a29 + ns_N * log_h29 + growth_nm + 1e-9:
                word_viol += 1

    # Leibniz bookkeeping on the expanded derivative chain
    terms_checked = 0
    leib_viol = 0
    chosen = [w for w in sums.e_words if len(w) >= 1][:leibniz_words]
    for w in chosen:
        orders_options = [
            [mi_order(a) for a in system.operators[j - 1].action.keys()]
            for j in w
        ]
        k = len(w)
        for beta_total in range(0, min(beta_max, 4) + 1):

            def split_chain(i: int, incoming: int, sel: list[int], a_list: list[int]):
                nonlocal terms_checked, leib_viol
                if i == k:
                    a_k = incoming
                    a_all = a_list + [a_k]
                    s_sel = sum(sel)
                    if sum(a_all) != s_sel + beta_total:
                        leib_viol += 1
                    if a_all[0] > beta_total:
                        leib_viol += 1
                    for t in range(1, k + 1):
                        if a_all[t] > sum(w[:t]) + beta_total:
                            leib_viol += 1
                    terms_checked += 1
                    return
                for a_sel in orders_options[i]:
                    for onto_c in range(incoming + 1):
                        split_chain(
                            i + 1,
                            incoming - onto_c + a_sel,
                            sel + [a_sel],
                            a_list + [onto_c],
                        )

            split_chain(0, beta_total, [], [])

    return BoundAuditReport(
        coefficient_fits=coeff_fits,
        coefficient_violations=coeff_viol,
        homogeneity_max_error=hom_err,
        principal_fit=principal_fit,
        word_fits=word_fits,
        word_violations=word_viol,
        leibniz_terms_checked=terms_checked,
        leibniz_violations=leib_viol,
    )
