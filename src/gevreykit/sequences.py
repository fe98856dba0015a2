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
range. The (M.2)-bar one is the scan's maximum, which the proof places
at every p = q; only the (M.2)'-bar ones name a witness p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

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
    fitted_log_Cq_m2prime: list[tuple[int, float]]
    fitted_Cq_m2prime_argmax: list[tuple[int, int]]
    stirling_ratio_log_residuals: list[tuple[int, float]]


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
# the audit is O(p_max^2): `gevrey seq-audit` takes 0.39-0.41 s at the cap,
# 0.21 s of it in the audit and 0.02 s writing the 1.2 MB report, at
# (0.1, 1.1), (1, 2), (0.05, 1.05) and (1, 3) (2-vCPU Xeon, Python 3.11, min of 5)
SEQ_AUDIT_PMAX_MAX = 20_000
# cells per block of the (M.2)-bar scan, 512 kB per buffer: at p_max 2000
# 2^15 and 2^16 were equally fast, 2^14 and 2^17 10-25% slower.  Every
# block holds at least one row: the p_max cap keeps row 0, the longest, at
# 20,001 cells, and a block at the cap holds 3 rows
_M2BAR_BLOCK_CELLS = 1 << 16


def _first_max(row: np.ndarray) -> tuple[int, float]:
    """(index, value) of row's first maximum; NaN never wins, as in a strict > scan."""
    i = int(np.argmax(row))
    if np.isnan(row[i]):  # argmax stops at the first NaN, so only then
        row = np.where(np.isnan(row), -np.inf, row)
        i = int(np.argmax(row))
    return i, float(row[i])


def _rows(table: np.ndarray, start: int, step: int, rows: int, width: int) -> np.ndarray:
    """The rows x width view whose row r is table[start + r step:][:width], no copy."""
    item = table.itemsize
    return np.ndarray((rows, width), table.dtype, table, start * item, (step * item, item))


def _m2bar_fit(LM: np.ndarray, LMp: np.ndarray, PS: np.ndarray) -> float:
    """The (M.2)-bar scan: the largest (LM[p+q] - LMp[p] - LMp[q]) /
    (PS[p] + PS[q]) over 0 <= p <= q <= p_max - p, NaN cells skipped;
    -inf if no cell beats -inf.

    Row p reads LM[2p + j], LMp[p + j] and PS[p + j] for
    j = 0..p_max - 2p, so a block of rows is three strided views of the
    tables; past p_max they read -inf, 0 and 1, which makes every ragged
    tail -inf. The (0, 0) cell is 0/0, a NaN, so it drops out with the
    rest.
    """
    p_max = len(PS) - 1
    pad = p_max  # a block reads below index 2 p_max
    LMw = np.concatenate((LM[:p_max + 1], np.full(pad, -np.inf)))
    LMpw = np.concatenate((LMp, np.zeros(pad)))
    PSw = np.concatenate((PS, np.ones(pad)))
    num_cells, den_cells = np.empty(_M2BAR_BLOCK_CELLS), np.empty(_M2BAR_BLOCK_CELLS)
    best = -math.inf
    p, p_end = 0, p_max // 2 + 1
    while p < p_end:
        width = p_max + 1 - 2 * p  # row p's length, the block's longest
        rows = min(_M2BAR_BLOCK_CELLS // width, p_end - p)
        block = num_cells[:rows * width].reshape(rows, width)
        den = den_cells[:rows * width].reshape(rows, width)
        np.subtract(_rows(LMw, 2 * p, 2, rows, width), LMp[p:p + rows, None], out=block)
        block -= _rows(LMpw, p, 1, rows, width)
        np.add(PS[p:p + rows, None], _rows(PSw, p, 1, rows, width), out=den)
        block /= den
        best = float(np.fmax.reduce(block, axis=None, initial=best))
        p += rows
    return best


def audit_sequence(seq: DefiningSequence, p_max: int) -> SequenceAuditReport:
    """Audit M_p over 1 <= p <= p_max and fit the unnamed constants.

    Checks log-convexity (M.1) and the ratio bound
    M_{p-1}/M_p <= (2p)^{-tau (p-1)^{sigma-1}}, accumulates the partial
    sums of sum M_{p-1}/M_p, locates the index from which
    (M_p/p!)^{1/p} is nondecreasing, fits ln of the minimal constants of
    the two splitting inequalities, and compares [p^sigma]!^{tau/sigma}
    against its Stirling-predicted equivalent of M_p for p <= 64 with
    [p^sigma] <= 64^3.

    The (M.2)-bar fit is the one O(p_max^2) step. It runs in blocks of
    whole rows p of at most 2^16 cells (about 32 rows at p_max 2000, 3 at
    20000), a few numpy calls per block, into two buffers of 512 kB; the
    full p_max x p_max matrix would take about 16 MB per temporary at
    p_max 2000.

    Both fits give the floats of the plain double loop, bit for bit, and
    the (M.2)'-bar fit its first arg-max witnesses; the linear checks
    give those of their scalar loops.
    """
    if not 3 <= p_max <= SEQ_AUDIT_PMAX_MAX:
        raise ValueError(f"p_max must lie in 3..{SEQ_AUDIT_PMAX_MAX}, got {p_max}")
    check_indices(seq.sigma, p_max + 1)
    tau, sigma = seq.tau, seq.sigma
    logM = [seq.log_M(p) for p in range(p_max + 2)]
    ps = range(1, p_max + 1)

    ratio_bound_ok = all(
        logM[p - 1] - logM[p]
        <= -tau * float(p - 1) ** (sigma - 1.0) * math.log(2.0 * p) + 1e-12
        for p in ps
    )

    # Logs and powers stay Python scalars (np.power may differ by an ulp);
    # numpy only adds, subtracts, multiplies, divides, compares and takes
    # maxima. An overflowed ln M makes inf, and inf - inf NaN: silent, as
    # in scalar arithmetic.
    tau_primed = tau * 2.0 ** (sigma - 1.0)
    LM = np.array(logM)
    LMp = np.array([log_M(tau_primed, sigma, p) for p in range(p_max + 1)])
    PS = np.array([float(p) ** sigma for p in range(p_max + 1)])
    with np.errstate(over="ignore", invalid="ignore"):
        m1_ok = bool(np.all(
            2.0 * LM[1:-1] <= LM[:-2] + LM[2:] + 1e-12 * np.maximum(1.0, np.abs(LM[2:]))
        ))

        partial_sums = list(zip(ps, accumulate(map(math.exp, (LM[:-2] - LM[1:-1]).tolist()))))

        # first index from which a_p = (ln M_p - ln p!)/p is nondecreasing
        a = (LM[1:-1] - np.array([log_factorial(p) for p in ps])) / np.arange(1.0, p_max + 1)
        drops = np.flatnonzero(a[1:] < a[:-1] - 1e-15)
        ai_from = int(drops[-1]) + 2 if drops.size else 1  # a index i is p = i+1

        # (M.2)-bar: ln of the minimal C with M_{p+q} <= C^{p^s+q^s} M'_p M'_q,
        # primed tau, over p <= q <= p_max - p
        best = _m2bar_fit(LM, LMp, PS)

        # (M.2)'-bar: per q, ln of the minimal C_q with
        # M_{p+q} <= C_q^{p^sigma} M_p, p >= 1
        cq_list: list[tuple[int, float]] = []
        cq_arg: list[tuple[int, int]] = []
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
        fitted_log_Cq_m2prime=cq_list,
        fitted_Cq_m2prime_argmax=cq_arg,
        stirling_ratio_log_residuals=residuals,
    )

