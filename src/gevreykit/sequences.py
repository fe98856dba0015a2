"""The defining sequences p^{tau p^sigma} and their property audits.

The sequence M_p = p^{tau p^sigma} (M_0 = 1) with tau > 0, sigma > 1 is
log-convex, decays summably in ratio, and satisfies two splitting
inequalities:

    M_{p+q} <= C^{p^sigma + q^sigma} M_p' M_q'   (primed index tau 2^{sigma-1})
    M_{p+q} <= C_q^{p^sigma} M_p                 (one constant per shift q)

The first holds with C = 2^{tau 2^{sigma-1}}, attained at every p = q:
g(x) = x^sigma ln x and x^sigma are convex on x >= 1, so with
m = (p+q)/2, g(p+q) = 2^sigma (g(m) + m^sigma ln 2)
<= 2^{sigma-1} (g(p) + g(q) + (p^sigma + q^sigma) ln 2); multiply by tau.
For the second, scans measure ln C_q = ln M_{1+q}, attained at p = 1;
that is not proved.

``audit_sequence`` checks what is checkable and reports both constants
as measurements: ln of the least constants that cover the scanned
range, with their arg-max witnesses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .numerics import log_factorial


def log_M(tau: float, sigma: float, n: int) -> float:
    """ln M_n = tau * n^sigma * ln n (0 for n = 0, 1), unchecked.

    The one place the kit writes the growth term out; sigma = 1 is
    accepted because the wave-front test accepts it (`check_class`).
    """
    if n <= 1:
        return 0.0
    return tau * (float(n) ** sigma) * math.log(n)


def log_factorial_form(tau: float, sigma: float, m: int) -> float:
    """(tau/sigma) ln m!, the growth of the factorial form m!^{tau/sigma}
    that stands in for M_n at m = [n^sigma]; unchecked."""
    return (tau / sigma) * log_factorial(m)


def check_class(tau: float, sigma: float) -> None:
    """Reject (tau, sigma) that name no class: tau > 0, sigma >= 1, both finite.

    sigma = 1 is allowed (the wave-front test accepts it); the defining
    sequence itself needs sigma > 1.
    """
    if not 0 < tau < math.inf:
        raise ValueError(f"tau = {tau} names no class: tau must be positive and finite")
    if not 1 <= sigma < math.inf:
        raise ValueError(f"sigma = {sigma} names no class: sigma must be at least 1 and finite")


def check_indices(sigma: float, n_max: int) -> None:
    """Reject reading indices 0..n_max when n^sigma leaves float range,
    naming the first such n; tables are built only after this passes."""

    def overflows(n: int) -> bool:
        try:
            float(n) ** sigma
        except OverflowError:
            return True
        return False

    if overflows(n_max):
        first = next(n for n in range(2, n_max + 1) if overflows(n))
        raise ValueError(
            f"sigma = {sigma}: n^sigma leaves float range from n = {first}; "
            f"this run reads indices up to {n_max}"
        )


def log_envelope(n: int, tau: float, sigma: float, log_a: float, log_h: float) -> float:
    """ln(A h^{n^sigma} M_n) = log_a + n^sigma log_h + ln M_n."""
    ns = float(n) ** sigma if n else 0.0
    return log_a + ns * log_h + log_M(tau, sigma, n)


def normalized_excess(v: float, n: int, tau: float, sigma: float) -> float:
    """(v - ln M_n) / n^sigma: the ln h a log value v needs at order n >= 1."""
    return (v - log_M(tau, sigma, n)) / float(n) ** sigma


@dataclass(frozen=True)
class DefiningSequence:
    """Parameters (tau, sigma) of M_p = p^{tau p^sigma}; M_0 = 1."""

    tau: float
    sigma: float

    def __post_init__(self) -> None:
        check_class(self.tau, self.sigma)
        if self.sigma == 1:
            raise ValueError(f"sigma = {self.sigma} defines no sequence: sigma must exceed 1")

    def log_M(self, p: int) -> float:
        """ln M_p = tau * p^sigma * ln p (0 for p = 0, 1)."""
        if p < 0:
            raise ValueError("p must be a natural number")
        return log_M(self.tau, self.sigma, p)

    def log_M_over_factorial(self, p: int) -> float:
        """ln(M_p / p!), the term the almost-increasing and splitting
        bounds sum."""
        return self.log_M(p) - log_factorial(p)


@dataclass
class SequenceAuditReport:
    """Everything audit_sequence measures over 1 <= p <= p_max."""

    tau: float
    sigma: float
    p_max: int
    m1_ok: bool
    ratio_bound_ok: bool
    m3prime_partial_sums: list[tuple[int, float]]
    almost_increasing_from: int
    fitted_log_C_m2bar: float
    fitted_C_m2bar_argmax: tuple[int, int]
    fitted_log_Cq_m2prime: list[tuple[int, float]]
    fitted_Cq_m2prime_argmax: list[tuple[int, int]]
    stirling_ratio_log_residuals: list[tuple[int, float]] = field(default_factory=list)


# The Stirling residual is about tau/(12 sigma n) at n = [p^sigma], and
# the left side grows like (tau/sigma) n ln n, so past some n the residual
# drowns in the left side's rounding.  At the cap, (1, 3) at p = 64, it is
# about 910 ulp of the left side; uncapped, p = 64 would give about 12 ulp
# at sigma = 3.5 and under 1 ulp at sigma = 4.  The second cap is the
# [p^sigma] that sigma = 3 reaches, so it cuts only sigma > 3.
_STIRLING_P_CAP = 64
_STIRLING_N_CAP = _STIRLING_P_CAP**3
# the (M.2)'-bar constants C_q are fitted for q = 0..Q_MAX
Q_MAX = 10
# the audit is O(p_max^2): `gevrey seq-audit` takes 0.65-1.1 s at the cap,
# 0.43-0.64 s of it in the audit, at (0.1, 1.1), (1, 2), (0.05, 1.05) and
# (1, 3) (2-vCPU Xeon, Python 3.11)
SEQ_AUDIT_PMAX_MAX = 20_000


def _first_max(row: np.ndarray) -> tuple[int, float]:
    """(index, value) of row's first maximum; NaN never wins, as in a strict > scan."""
    i = int(np.argmax(row))
    if np.isnan(row[i]):  # argmax stops at the first NaN, so only then
        row = np.where(np.isnan(row), -np.inf, row)
        i = int(np.argmax(row))
    return i, float(row[i])


def audit_sequence(seq: DefiningSequence, p_max: int) -> SequenceAuditReport:
    """Audit M_p over 1 <= p <= p_max and fit the unnamed constants.

    Checks log-convexity (M.1) and the ratio bound
    M_{p-1}/M_p <= (2p)^{-tau (p-1)^{sigma-1}}, accumulates the partial
    sums of sum M_{p-1}/M_p, locates the index from which
    (M_p/p!)^{1/p} is nondecreasing, fits ln of the minimal constants of
    the two splitting inequalities, and compares [p^sigma]!^{tau/sigma}
    against its Stirling-predicted equivalent of M_p for p <= 64 with
    [p^sigma] <= 64^3.

    The (M.2)-bar fit is the one O(p_max^2) step. It runs one numpy row
    per p, never the full p_max x p_max matrix: at p_max 2000 each
    temporary of that matrix would take about 16 MB, where a row takes
    16 kB. Both fits give the floats and first arg-max witnesses of the
    plain double loop, bit for bit.
    """
    if not 3 <= p_max <= SEQ_AUDIT_PMAX_MAX:
        raise ValueError(f"p_max must lie in 3..{SEQ_AUDIT_PMAX_MAX}, got {p_max}")
    check_indices(seq.sigma, p_max + 1)
    tau, sigma = seq.tau, seq.sigma
    logM = [seq.log_M(p) for p in range(p_max + 2)]

    m1_ok = all(
        2.0 * logM[p] <= logM[p - 1] + logM[p + 1] + 1e-12 * max(1.0, abs(logM[p + 1]))
        for p in range(1, p_max + 1)
    )

    ratio_bound_ok = all(
        logM[p - 1] - logM[p]
        <= -tau * float(p - 1) ** (sigma - 1.0) * math.log(2.0 * p) + 1e-12
        for p in range(1, p_max + 1)
    )

    partial_sums: list[tuple[int, float]] = []
    acc = 0.0
    for p in range(1, p_max + 1):
        acc += math.exp(logM[p - 1] - logM[p])
        partial_sums.append((p, acc))

    # first index from which a_p = (ln M_p - ln p!)/p is nondecreasing
    a = [seq.log_M_over_factorial(p) / p for p in range(1, p_max + 1)]
    almost_from = 1
    for i in range(len(a) - 1):
        if a[i + 1] < a[i] - 1e-15:
            almost_from = i + 2  # a index i corresponds to p = i+1
    ai_from = almost_from

    # (M.2)-bar: ln of the minimal C with M_{p+q} <= C^{p^s+q^s} M'_p M'_q,
    # primed tau, over p <= q <= p_max - p. Logs and powers stay Python
    # scalars (np.power may differ by an ulp); numpy only subtracts, divides
    # and takes argmax. One row per p keeps the loop's (p, q) first maximum:
    # the row's first argmax, and a strict > across rows.
    tau_primed = tau * 2.0 ** (sigma - 1.0)
    LM = np.array(logM)
    LMp = np.array([log_M(tau_primed, sigma, p) for p in range(p_max + 1)])
    PS = np.array([float(p) ** sigma for p in range(p_max + 1)])
    best = float("-inf")
    best_pq = (1, 1)
    cq_list: list[tuple[int, float]] = []
    cq_arg: list[tuple[int, int]] = []
    # an overflowed ln M makes inf - inf: NaN, silent as in scalar arithmetic
    with np.errstate(invalid="ignore"):
        for p in range(0, p_max // 2 + 1):
            q0 = max(p, 1)
            row = (LM[p + q0:p_max + 1] - LMp[p] - LMp[q0:p_max + 1 - p]) / (
                PS[p] + PS[q0:p_max + 1 - p]
            )
            i, val = _first_max(row)
            if val > best:
                best = val
                best_pq = (p, q0 + i)

        # (M.2)'-bar: per q, ln of the minimal C_q with
        # M_{p+q} <= C_q^{p^sigma} M_p, p >= 1
        for q in range(0, min(Q_MAX, p_max - 1) + 1):
            last = p_max - q
            i, best_q = _first_max((LM[1 + q:p_max + 1] - LM[1:last + 1]) / PS[1:last + 1])
            cq_list.append((q, max(best_q, 0.0)))
            cq_arg.append((q, i + 1))

    residuals: list[tuple[int, float]] = []
    for p in range(1, min(p_max, _STIRLING_P_CAP) + 1):
        n = math.floor(float(p) ** sigma)
        if n > _STIRLING_N_CAP:
            break
        lhs = log_factorial_form(tau, sigma, n)
        rhs = (
            (tau / (2.0 * sigma)) * math.log(2.0 * math.pi)
            + (tau / 2.0) * math.log(p)
            - tau * float(p) ** sigma / sigma
            + logM[p]
        )
        residuals.append((p, lhs - rhs))

    return SequenceAuditReport(
        tau=tau,
        sigma=sigma,
        p_max=p_max,
        m1_ok=m1_ok,
        ratio_bound_ok=ratio_bound_ok,
        m3prime_partial_sums=partial_sums,
        almost_increasing_from=ai_from,
        fitted_log_C_m2bar=max(best, 0.0),
        fitted_C_m2bar_argmax=best_pq,
        fitted_log_Cq_m2prime=cq_list,
        fitted_Cq_m2prime_argmax=cq_arg,
        stirling_ratio_log_residuals=residuals,
    )

