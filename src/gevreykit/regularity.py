"""Seminorms on derivative-growth data and recovery of (tau, sigma, h).

Growth data is the map n -> log sup_{|alpha| = n, x in K} |d^alpha phi|.
Membership of phi in the (tau, sigma, h) class shows up as boundedness of

    log sup |d^alpha phi| - n^sigma ln h - tau n^sigma ln n

over n, and the inverse problem (find the parameters from data) is a
small constrained least-squares fit per candidate sigma.  sigma is fit
over a finite grid only: the basis {n^sigma, n^sigma ln n} is nearly
collinear across nearby sigma values, so a continuous fit is
ill-conditioned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .multiindex import MultiIndex, mi_derivative, mi_of_order
from .sequences import log_envelope, log_M

_NEG_INF = float("-inf")
# fit_regularity's admissibility margin, as a fraction of the data span
FIT_MARGIN = 0.05


@dataclass(frozen=True)
class DerivativeGrowthData:
    """entries[n] = log of sup over |alpha| = n of sup_K |d^alpha phi|.

    Orders form a contiguous range 0..n_max; identically vanishing
    derivative levels carry -inf.
    """

    entries: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.entries) == 0:
            raise ValueError("growth data needs at least order 0")
        if any(v == float("inf") or v != v for v in self.entries):
            raise ValueError("growth entries must be finite or -inf")

    @property
    def n_max(self) -> int:
        return len(self.entries) - 1


def synthetic_growth(
    tau: float, sigma: float, h: float = 1.0, A: float = 1.0, n_max: int = 24
) -> DerivativeGrowthData:
    """Data lying exactly on the (tau, sigma, h, A) envelope."""
    la, lh = math.log(A), math.log(h)
    vals = tuple(log_envelope(n, tau, sigma, la, lh) for n in range(n_max + 1))
    return DerivativeGrowthData(vals)


def seminorm_log(
    data: DerivativeGrowthData, tau: float, sigma: float, h: float
) -> float:
    """ln of the seminorm: max over n of log sup - n^sigma ln h - ln M_n."""
    if h <= 0:
        raise ValueError("h must be positive")
    best = _NEG_INF
    for n, v in enumerate(data.entries):
        if v == _NEG_INF:
            continue
        ns = float(n) ** sigma if n else 0.0
        best = max(best, v - ns * math.log(h) - log_M(tau, sigma, n))
    return best


@dataclass(frozen=True)
class RegularityFit:
    tau_hat: float
    sigma_hat: float
    log_h_hat: float
    # None for the zero function (all data -inf): JSON has no form for ln 0
    log_A_hat: float | None
    residuals: tuple[float, ...]
    admissible: bool
    degenerate: bool = False


def fit_regularity(
    data: DerivativeGrowthData,
    sigma_grid: list[float] | tuple[float, ...],
) -> RegularityFit:
    """Least-squares fit of log sup against {1, n^sigma, n^sigma ln n}.

    The n^sigma ln n coefficient (tau) is constrained nonnegative; with a
    single bound constraint the clamp-and-refit step is the exact KKT
    solution.  Returns the grid sigma minimizing the residual norm, with
    A and h as their logs.
    Admissible means the data never exceeds the fitted envelope by more
    than FIT_MARGIN times the data span.
    """
    if any(s <= 1 for s in sigma_grid):
        raise ValueError("sigma grid must lie in (1, inf)")
    finite = [(n, v) for n, v in enumerate(data.entries) if v != _NEG_INF]
    if len(finite) < 4:
        if all(n == 0 for n, _ in finite) or not finite:
            return RegularityFit(
                tau_hat=0.0,
                sigma_hat=float(sigma_grid[0]),
                log_h_hat=0.0,
                log_A_hat=finite[0][1] if finite else None,
                residuals=(),
                admissible=True,
                degenerate=True,
            )
        raise ValueError("degenerate data: fewer than 4 distinct orders")
    if data.n_max < 8:
        raise ValueError("fit requires n_max >= 8")

    ns = np.array([n for n, _ in finite], dtype=float)
    ys = np.array([v for _, v in finite], dtype=float)
    span = max(1.0, float(ys.max() - ys.min()))
    tol = FIT_MARGIN * span

    logn = np.where(ns > 1, np.log(np.maximum(ns, 1.0)), 0.0)
    designs = []
    for sigma in sigma_grid:
        pow_ns = ns**sigma
        X = np.column_stack([np.ones_like(ns), pow_ns, pow_ns * logn])
        # LAPACK fails on an overflowed column, and writes its complaint to stdout
        if not np.isfinite(X).all():
            raise ValueError(
                f"sigma = {float(sigma)!r}: n^sigma ln n leaves float range for some n <= "
                f"n_max = {data.n_max}"
            )
        designs.append((sigma, X))

    best = None
    for sigma, X in designs:
        coef, *_ = np.linalg.lstsq(X, ys, rcond=None)
        if coef[2] < 0.0:
            X2 = X[:, :2]
            c2, *_ = np.linalg.lstsq(X2, ys, rcond=None)
            coef = np.array([c2[0], c2[1], 0.0])
        resid = ys - X @ coef
        norm = float(np.sqrt(np.mean(resid**2)))
        if best is None or norm < best[0]:
            best = (norm, float(sigma), coef, resid)

    _, sigma_hat, coef, resid = best
    admissible = bool(np.max(resid) <= tol)
    return RegularityFit(
        tau_hat=float(coef[2]),
        sigma_hat=sigma_hat,
        log_h_hat=float(coef[1]),
        log_A_hat=float(coef[0]),
        residuals=tuple(float(r) for r in resid),
        admissible=admissible,
        degenerate=False,
    )


def grid_derivative(table: dict, beta: MultiIndex, spacing: tuple[float, ...]) -> np.ndarray:
    """d^beta of grid samples: table[beta] by ``mi_derivative``, one
    ``np.gradient`` step each.  Samples beta_i or more from both ends of
    every axis i are central differences that no edge difference reached."""
    return mi_derivative(table, beta, lambda a, t: np.gradient(a, spacing[t], axis=t))


def measure_derivative_growth(
    values: np.ndarray,
    spacing: float | tuple[float, ...],
    n_max: int,
) -> DerivativeGrowthData:
    """Growth data from grid samples by iterated central differences.

    Entry n is ln max over |alpha| = n of sup |d^alpha u| over the
    samples [alpha_i : n_i - alpha_i] of each axis i (``grid_derivative``).
    Orders whose measured magnitude falls below 100x the estimated
    roundoff amplification are dropped (the finite-difference value is
    no longer reliable there).
    """
    arr = np.asarray(values, dtype=float)
    d = arr.ndim
    if isinstance(spacing, (int, float)):
        spacing = (float(spacing),) * d
    scale = float(np.max(np.abs(arr))) if arr.size else 0.0

    entries: list[float] = []
    h_min = min(spacing)
    level = {(0,) * d: arr}  # d^alpha u for every alpha of the order below
    for n in range(n_max + 1):
        # an order-n difference along an axis needs 2n + 1 samples on it
        if n and min(arr.shape) < 2 * n + 1:
            break
        level = {alpha: grid_derivative(level, alpha, spacing) for alpha in mi_of_order(d, n)}
        sup = 0.0
        for alpha, a in level.items():
            inner = a[tuple(slice(k, size - k) for k, size in zip(alpha, a.shape))]
            if inner.size:
                sup = max(sup, float(np.max(np.abs(inner))))
        noise = scale * 2.2e-16 * (1.0 / h_min) ** n
        if n > 0 and sup < 100.0 * noise:
            break
        entries.append(math.log(sup) if sup > 0 else _NEG_INF)
    return DerivativeGrowthData(tuple(entries))
