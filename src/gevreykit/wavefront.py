"""Numerical wave-front membership tests on sampled fields.

The pipeline is: cut off around the test point (multiply in space),
discrete Fourier transform, profile the decay sup_{cone bins}
|xi|^N |(phi u)^(xi)| in the log domain, and test the profile against
the two-parameter envelope family A h^{N^sigma} N^{tau N^sigma} / |xi|^N.

On a bounded frequency window the raw envelope inequality is always
satisfiable by inflating the constants, so the measured-field verdict
rests on the decay order of the transform's upper envelope instead.
Within the usable window (bins below half Nyquist: beyond that,
sampled-jump transforms deflect from their continuum law and smooth
tails alias), the shell maxima are reduced to log-band envelope points
and the decay order is the slope of the outer half.  The envelope
family's own optimal order at the window edge is what a borderline
member would exhibit there; measured data must beat it by one order,
which every fixed-order tail (flat, jump, kink) fails.  Synthetic
N-indexed profiles (no per-bin data) are judged by the fitted h against
the cone's frequency ceiling instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .numerics import log_factorial
from .sequences import log_envelope, log_M, normalized_excess

_NEG_INF = float("-inf")


# ---------------------------------------------------------------------------
# grid fields and file format


@dataclass
class GridField:
    """Uniformly sampled field on a box; samples row-major, d in {1, 2}."""

    dim: int
    sizes: tuple[int, ...]
    origin: tuple[float, ...]
    spacing: tuple[float, ...]
    samples: np.ndarray

    def __post_init__(self) -> None:
        if self.dim not in (1, 2):
            raise ValueError("GridField supports d = 1 or 2")
        if len(self.sizes) != self.dim or any(n < 16 for n in self.sizes):
            raise ValueError("sizes must give >= 16 samples per axis")
        if any(s <= 0 for s in self.spacing):
            raise ValueError("spacing must be positive")
        self.samples = np.asarray(self.samples).reshape(self.sizes)

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    def axis_coords(self, axis: int) -> np.ndarray:
        n = self.sizes[axis]
        return self.origin[axis] + self.spacing[axis] * np.arange(n)

    def meshgrid(self) -> list[np.ndarray]:
        axes = [self.axis_coords(i) for i in range(self.dim)]
        return list(np.meshgrid(*axes, indexing="ij"))

    def is_complex(self) -> bool:
        return np.iscomplexobj(self.samples)

    def like(self, samples: np.ndarray) -> "GridField":
        return GridField(self.dim, self.sizes, self.origin, self.spacing, samples)


def write_gridfield(gf: GridField, path: str) -> None:
    kind = "complex" if gf.is_complex() else "real"
    sizes = ",".join(str(n) for n in gf.sizes)
    origin = " ".join(repr(x) for x in gf.origin)
    spacing = " ".join(repr(x) for x in gf.spacing)
    with open(path, "w") as fh:
        fh.write(f"GRIDFIELD 1 {gf.dim} {sizes} {origin} {spacing} {kind}\n")
        flat = gf.samples.reshape(-1)
        if kind == "complex":
            toks = [f"{repr(float(v.real))},{repr(float(v.imag))}" for v in flat]
        else:
            toks = [repr(float(v)) for v in flat]
        for i in range(0, len(toks), 8):
            fh.write(" ".join(toks[i : i + 8]) + "\n")


def read_gridfield(path: str) -> GridField:
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) < 6 or header[0] != "GRIDFIELD" or header[1] != "1":
            raise ValueError(f"malformed GRIDFIELD header in {path}")
        d = int(header[2])
        if len(header) != 5 + 2 * d:
            raise ValueError(
                f"malformed GRIDFIELD header in {path}: "
                f"{len(header)} fields, d = {d} needs {5 + 2 * d}"
            )
        sizes = tuple(int(t) for t in header[3].split(","))
        if len(sizes) != d:
            raise ValueError(
                f"malformed GRIDFIELD header in {path}: d = {d} but {len(sizes)} sizes"
            )
        origin = tuple(float(t) for t in header[4 : 4 + d])
        spacing = tuple(float(t) for t in header[4 + d : 4 + 2 * d])
        kind = header[4 + 2 * d]
        body = fh.read().split()
    if kind == "complex":
        vals = np.array(
            [complex(float(t.split(",")[0]), float(t.split(",")[1])) for t in body]
        )
    elif kind == "real":
        vals = np.array([float(t) for t in body])
    else:
        raise ValueError(f"unknown sample kind {kind!r}")
    expected = int(np.prod(sizes))
    if vals.size != expected:
        raise ValueError(f"expected {expected} samples, found {vals.size}")
    return GridField(d, sizes, origin, spacing, vals.reshape(sizes))


# ---------------------------------------------------------------------------
# cutoffs


def default_cutoff_radius(tau: float, sigma: float) -> float:
    """The support scale sum_p (2(p+1))^{-tau p^{sigma-1}} of the
    admissible-cutoff construction."""
    total, p = 0.0, 1
    while True:
        term = (2.0 * (p + 1)) ** (-tau * float(p) ** (sigma - 1.0))
        total += term
        p += 1
        if term < 1e-16 or p > 10_000:
            return total


@dataclass
class Cutoff:
    center: tuple[float, ...]
    r_plateau: float
    r_support: float
    profile: GridField

    @property
    def cutoff_id(self) -> str:
        c = ",".join(repr(x) for x in self.center)
        return f"cutoff[{c};{self.r_plateau!r};{self.r_support!r}]"


def _distances(grid: GridField, x0: tuple[float, ...]) -> np.ndarray:
    mesh = grid.meshgrid()
    return np.sqrt(sum((m - c) ** 2 for m, c in zip(mesh, x0)))


def make_cutoff(
    x0: tuple[float, ...] | float,
    r_plateau: float,
    r_support: float,
    grid: GridField,
    tau: float | None = None,
    sigma: float | None = None,
) -> Cutoff:
    """phi = chi * psi: indicator of the mid ball mollified to the
    transition band.  0 <= phi <= 1, phi = 1 inside r_plateau, 0 outside
    r_support (enforced exactly against convolution ripple).
    """
    if not isinstance(x0, tuple):
        x0 = (float(x0),)
    if not r_plateau < r_support:
        raise ValueError("r_plateau must be smaller than r_support")
    band = r_support - r_plateau
    if band < 8.0 * max(grid.spacing):
        raise ValueError("transition band under-resolved (< 8 cells)")
    for i, c in enumerate(x0):
        lo = grid.origin[i]
        hi = grid.origin[i] + grid.spacing[i] * (grid.sizes[i] - 1)
        if c - r_support < lo or c + r_support > hi:
            raise ValueError("cutoff support leaves the grid")

    r_mid = 0.5 * (r_plateau + r_support)
    r_psi = 0.5 * band
    dist = _distances(grid, x0)
    chi = (dist <= r_mid).astype(float)

    # mollifier sampled on the same spacing, normalized to unit mass
    half = [int(math.ceil(r_psi / grid.spacing[i])) for i in range(grid.dim)]
    offsets = [np.arange(-h, h + 1) * grid.spacing[i] for i, h in enumerate(half)]
    mesh = np.meshgrid(*offsets, indexing="ij")
    rho2 = sum(m**2 for m in mesh) / r_psi**2
    with np.errstate(divide="ignore", over="ignore"):
        psi = np.where(rho2 < 1.0, np.exp(-1.0 / np.maximum(1.0 - rho2, 1e-300)), 0.0)
    psi /= psi.sum() * grid.cell_volume

    shape = [chi.shape[i] + psi.shape[i] - 1 for i in range(grid.dim)]
    fshape = [int(2 ** math.ceil(math.log2(s))) for s in shape]
    axes = list(range(grid.dim))
    conv = np.fft.irfftn(
        np.fft.rfftn(chi, fshape, axes=axes) * np.fft.rfftn(psi, fshape, axes=axes),
        fshape,
        axes=axes,
    )
    start = [(psi.shape[i] - 1) // 2 for i in range(grid.dim)]
    sl = tuple(slice(start[i], start[i] + chi.shape[i]) for i in range(grid.dim))
    phi = conv[sl] * grid.cell_volume

    phi = np.clip(phi, 0.0, 1.0)
    phi[dist >= r_support] = 0.0
    phi[dist <= r_plateau] = 1.0
    return Cutoff(x0, r_plateau, r_support, grid.like(phi))


# ---------------------------------------------------------------------------
# cones and decay profiles


@dataclass(frozen=True)
class Cone:
    """Conic frequency region: angle to `direction` within half_angle,
    magnitude at least xi_min."""

    direction: tuple[float, ...]
    half_angle: float
    xi_min: float

    def __post_init__(self) -> None:
        norm = math.sqrt(sum(c * c for c in self.direction))
        if abs(norm - 1.0) > 1e-12:
            object.__setattr__(
                self, "direction", tuple(c / norm for c in self.direction)
            )
        if not 0 < self.half_angle < math.pi / 2:
            raise ValueError("half_angle must lie in (0, pi/2)")
        if self.xi_min <= 0:
            raise ValueError("xi_min must be positive")

    def contains(self, xi: list[np.ndarray]) -> np.ndarray:
        mag = np.sqrt(sum(x**2 for x in xi))
        dot = sum(x * d for x, d in zip(xi, self.direction))
        with np.errstate(invalid="ignore", divide="ignore"):
            cosang = np.where(mag > 0, dot / np.where(mag > 0, mag, 1.0), -1.0)
        return (cosang >= math.cos(self.half_angle) - 1e-12) & (mag >= self.xi_min)


@dataclass
class DecayProfile:
    """entries[N] = log sup over cone bins of |xi|^N |(phi u)^(xi)|.

    sup_radius[N] records the |xi| where the sup is attained (None for
    synthetic profiles); shells hold the per-radius log max of the
    transform for diagnostics.
    """

    entries: tuple[float, ...]
    N_max: int
    cone: Cone
    cutoff_id: str
    xi_max: float
    n_radial_bins: int
    nyquist: float
    sup_radius: tuple[float, ...] | None = None
    shells: tuple[tuple[float, float], ...] | None = None

    def usable_N(self, usable_fraction: float = 0.8) -> int:
        return min(self.N_max, int(usable_fraction * self.n_radial_bins))


def synthetic_profile(
    values: list[float] | tuple[float, ...],
    cone: Cone,
    xi_max: float,
    label: str = "synthetic",
) -> DecayProfile:
    vals = tuple(float(v) for v in values)
    n_bins = max(len(vals), int(math.ceil(len(vals) / 0.8)))
    return DecayProfile(
        entries=vals,
        N_max=len(vals) - 1,
        cone=cone,
        cutoff_id=label,
        xi_max=xi_max,
        n_radial_bins=n_bins,
        nyquist=xi_max,
    )


def directional_decay_profile(
    u: GridField, phi: Cutoff, cone: Cone, N_max: int
) -> DecayProfile:
    """Window, transform, and profile the directional decay.

    The product phi*u is transformed with the DFT normalized by the cell
    volume; frequency bins below the DC leakage band or under the
    relative floor are excluded from the sup.
    """
    pg = phi.profile
    if pg.sizes != u.sizes or pg.spacing != u.spacing or pg.origin != u.origin:
        raise ValueError("cutoff profile grid does not match the field grid")
    dxi = [1.0 / (n * s) for n, s in zip(u.sizes, u.spacing)]
    if cone.xi_min < 4.0 * min(dxi):
        raise ValueError("xi_min must clear the DC leakage band (>= 4 bins)")

    v = pg.samples * u.samples
    vhat = np.fft.fftn(v) * u.cell_volume
    freqs = [np.fft.fftfreq(n, d=s) for n, s in zip(u.sizes, u.spacing)]
    mesh = np.meshgrid(*freqs, indexing="ij")
    mask = cone.contains(mesh)
    if not mask.any():
        raise ValueError("cone contains no frequency bins")

    mag = np.sqrt(sum(m**2 for m in mesh))[mask]
    amp = np.abs(vhat)[mask]
    amax = float(amp.max()) if amp.size else 0.0
    nyquist = 0.5 / max(u.spacing)

    if amax == 0.0:
        n_bins = len(np.unique(np.round(mag / min(dxi)).astype(int)))
        return DecayProfile(
            entries=(_NEG_INF,) * (N_max + 1),
            N_max=N_max,
            cone=cone,
            cutoff_id=phi.cutoff_id,
            xi_max=float(mag.max()),
            n_radial_bins=n_bins,
            nyquist=nyquist,
            sup_radius=(0.0,) * (N_max + 1),
            shells=(),
        )

    keep = amp > amax * 1e-13
    mag, amp = mag[keep], amp[keep]
    logr = np.log(mag)
    loga = np.log(amp)

    # shells feed the slope analysis; the outer half of the window is
    # excluded there because sampled-jump transforms deflect (cot vs 1/x)
    # and smooth tails alias near Nyquist
    shell_cap = 0.5 * nyquist
    ridx = np.round(mag / min(dxi)).astype(int)
    shells: dict[int, tuple[float, float]] = {}
    for i in range(len(mag)):
        r, v_ = float(mag[i]), float(loga[i])
        if r > shell_cap:
            continue
        cur = shells.get(ridx[i])
        if cur is None or v_ > cur[1]:
            shells[ridx[i]] = (r, v_)
    shell_list = tuple(shells[k] for k in sorted(shells))

    entries, sup_r = [], []
    for N in range(N_max + 1):
        vals = N * logr + loga
        k = int(np.argmax(vals))
        entries.append(float(vals[k]))
        sup_r.append(float(mag[k]))
    return DecayProfile(
        entries=tuple(entries),
        N_max=N_max,
        cone=cone,
        cutoff_id=phi.cutoff_id,
        xi_max=float(mag.max()),
        n_radial_bins=len(shell_list),
        nyquist=nyquist,
        sup_radius=tuple(sup_r),
        shells=shell_list,
    )


# ---------------------------------------------------------------------------
# verdicts


@dataclass(frozen=True)
class WfTestParams:
    """Frozen thresholds of the discrete membership test."""

    usable_fraction: float = 0.8
    h_cap_fraction: float = 0.25
    min_usable: int = 6
    n_bands: int = 6
    order_margin: int = 1


@dataclass
class WavefrontVerdict:
    point: tuple[float, ...]
    direction: tuple[float, ...]
    tau: float
    sigma: float
    regular: bool
    A_hat: float | None
    h_hat: float | None
    nyquist: float
    n_usable: int
    decay_order: float | None = None
    required_order: float | None = None
    error: str | None = None
    # the profile the verdict was reached on (wf_scan sets it); not reported
    profile: DecayProfile | None = field(default=None, repr=False, compare=False)

    def to_dict(self) -> dict:
        return {
            "point": list(self.point),
            "direction": list(self.direction),
            "tau": self.tau,
            "sigma": self.sigma,
            "regular": self.regular,
            "A_hat": self.A_hat,
            "h_hat": self.h_hat,
            "nyquist": self.nyquist,
            "n_usable": self.n_usable,
            "decay_order": self.decay_order,
            "required_order": self.required_order,
            "error": self.error,
        }


def _fit_constants_sup(
    profile: DecayProfile, tau: float, sigma: float, n_hi: int
) -> float:
    """ln h from the sup of the normalized excess (profile - growth)/N^sigma.

    For data that only satisfies the envelope with h absorbing the whole
    frequency window, this fit exposes it (unlike least squares, whose
    free intercept can hide a linear-in-N profile)."""
    svals = []
    for N in range(1, max(n_hi, 2)):
        v = profile.entries[N]
        if v == _NEG_INF:
            continue
        svals.append(normalized_excess(v, N, tau, sigma))
    return max(svals) if svals else 0.0


def _fit_constants_ls(
    profile: DecayProfile, tau: float, sigma: float, n_hi: int
) -> tuple[float, float]:
    """(ln A, ln h) by least squares on {1, N^sigma}, with ln A lifted so
    the fitted envelope covers every usable entry (exact on data lying
    exactly on an envelope)."""
    ns_list, ys = [], []
    for N in range(0, max(n_hi, 2)):
        v = profile.entries[N]
        if v == _NEG_INF:
            continue
        ns_list.append(float(N) ** sigma if N else 0.0)
        ys.append(v - log_M(tau, sigma, N))
    if len(ys) < 2:
        val = ys[0] if ys else 0.0
        return max(0.0, val), 0.0
    X = np.column_stack([np.ones(len(ns_list)), np.array(ns_list)])
    y = np.array(ys)
    coef, *_ = np.linalg.lstsq(X, y, rcond=None)
    lift = float(np.max(y - X @ coef))
    return float(coef[0]) + max(0.0, lift), float(coef[1])


def _family_order(tau: float, sigma: float, log_r: float, n_cap: int) -> int:
    """Decay order -d(ln envelope)/d(ln r) of the direct family at radius
    e^{log_r}: the integer N minimizing tau N^sigma ln N - N log_r."""
    best_n, best_v = 0, 0.0
    for N in range(1, max(n_cap, 1) + 1):
        v = log_M(tau, sigma, N) - N * log_r
        if v < best_v:
            best_n, best_v = N, v
    return best_n


def _enumerated_family_order(tau: float, sigma: float, log_r: float, n_cap: int) -> int:
    """Decay order of the factorial-form family: floor(N^{1/sigma}) at the
    N minimizing (tau/sigma) ln N! - floor(N^{1/sigma}) log_r."""
    m_cap = min(int(float(max(n_cap, 1)) ** sigma) + 1, 20_000)
    best_k, best_v = 0, 0.0
    for N in range(1, m_cap + 1):
        k = int(math.floor(N ** (1.0 / sigma) + 1e-12))
        v = (tau / sigma) * log_factorial(N).log_value - k * log_r
        if v < best_v:
            best_k, best_v = k, v
    return best_k


def _band_envelope_points(
    shells: tuple[tuple[float, float], ...], n_bands: int
) -> list[tuple[float, float]]:
    """Upper-envelope points: the max shell per log-uniform radius band
    (transform zeros make raw per-shell slopes meaningless)."""
    if not shells:
        return []
    r_lo, r_hi = shells[0][0], shells[-1][0]
    if r_hi <= r_lo:
        return [shells[0]]
    edges = np.exp(np.linspace(math.log(r_lo), math.log(r_hi) + 1e-9, n_bands + 1))
    pts = []
    for b in range(n_bands):
        band = [(r, g) for r, g in shells if edges[b] <= r < edges[b + 1]]
        if band:
            pts.append(max(band, key=lambda t: t[1]))
    return pts


def _measured_decay_order(
    shells: tuple[tuple[float, float], ...], params: WfTestParams
) -> tuple[float | None, float | None]:
    """(outer-window decay order, log of the outer window edge radius).

    None when the outer half of the usable window carries no data above
    the floor, which certifies decay by itself.
    """
    pts = _band_envelope_points(shells, params.n_bands)
    if len(pts) < 2:
        return None, None
    half = len(pts) // 2
    upper = pts[half:]
    if len(upper) < 2:
        return None, None
    xs = np.log([r for r, _ in upper])
    ys = np.array([g for _, g in upper])
    slope = float(np.polyfit(xs, ys, 1)[0])
    return -slope, float(xs[-1])


def envelope_holds(
    profile: DecayProfile,
    tau: float,
    sigma: float,
    A: float,
    h: float,
    n_use: int | None = None,
    slack: float = 1e-9,
) -> bool:
    """Does profile(N) <= ln A + N^sigma ln h + tau N^sigma ln N hold on
    the usable range with the given constants?"""
    if n_use is None:
        n_use = profile.usable_N()
    la, lh = math.log(A), math.log(h)
    for N in range(n_use + 1):
        v = profile.entries[N]
        if v == _NEG_INF:
            continue
        if v > log_envelope(N, tau, sigma, la, lh) + slack:
            return False
    return True


def wf_point_test(
    profile: DecayProfile,
    tau: float,
    sigma: float,
    params: WfTestParams = WfTestParams(),
    point: tuple[float, ...] = (),
) -> WavefrontVerdict:
    """Classify one (point, direction) against the (tau, sigma) envelope.

    Measured profiles: the shell maxima must steepen across the
    frequency window at least as much as the optimal-N envelope of the
    family does (a fixed-order polynomial tail cannot).  Data falling
    under the amplitude floor before the window edge certifies decay
    outright.  Synthetic profiles: singular when no envelope with h
    below the frequency-ceiling cap covers the data (an h absorbing the
    whole window is the failure mode).
    """
    n_use = profile.usable_N(params.usable_fraction)
    if n_use + 1 < params.min_usable:
        raise ValueError(f"profile too short: {n_use + 1} usable values")

    finite = [v for v in profile.entries[: n_use + 1] if v != _NEG_INF]
    if not finite:
        return WavefrontVerdict(
            point=point,
            direction=profile.cone.direction,
            tau=tau,
            sigma=sigma,
            regular=True,
            A_hat=0.0,
            h_hat=1.0,
            nyquist=profile.nyquist,
            n_usable=n_use,
        )

    if profile.shells is not None:
        order, log_edge = _measured_decay_order(profile.shells, params)
        if order is None:
            regular, required = True, None
        else:
            required = float(
                _family_order(tau, sigma, log_edge, n_use) + params.order_margin
            )
            regular = order >= required
        log_a, log_h = _fit_constants_ls(profile, tau, sigma, n_use + 1)
        return WavefrontVerdict(
            point=point,
            direction=profile.cone.direction,
            tau=tau,
            sigma=sigma,
            regular=regular,
            A_hat=math.exp(log_a) if regular else None,
            h_hat=math.exp(log_h) if regular else None,
            nyquist=profile.nyquist,
            n_usable=n_use,
            decay_order=order,
            required_order=required,
        )

    # synthetic profile: fitted-h cap against the frequency ceiling
    log_h_sup = _fit_constants_sup(profile, tau, sigma, n_use + 1)
    h_cap = params.h_cap_fraction * profile.xi_max
    regular = math.exp(log_h_sup) <= h_cap
    log_a, log_h = _fit_constants_ls(profile, tau, sigma, n_use + 1)
    return WavefrontVerdict(
        point=point,
        direction=profile.cone.direction,
        tau=tau,
        sigma=sigma,
        regular=regular,
        A_hat=math.exp(log_a) if regular else None,
        h_hat=math.exp(log_h) if regular else math.exp(log_h_sup),
        nyquist=profile.nyquist,
        n_usable=n_use,
    )


def _enumerated_constants(
    profile: DecayProfile, tau: float, sigma: float, n_lo: int, n_hi: int
) -> tuple[float, float]:
    """(ln A1, ln h1) of the factorial-form family
    A1 h1^N N!^{tau/sigma} / |xi|^{floor(N^{1/sigma})} on the profile."""
    m_hi = max(2, int(math.floor(float(max(n_hi - 1, 1)) ** sigma)))
    s1 = []
    for M in range(1, m_hi + 1):
        k = int(math.floor(M ** (1.0 / sigma) + 1e-12))
        if k > profile.N_max or k >= n_hi:
            break
        v = profile.entries[k]
        if v == _NEG_INF:
            continue
        s1.append((v - (tau / sigma) * log_factorial(M).log_value) / M)
    log_h1 = max(s1) if s1 else 0.0
    log_a1 = 0.0
    m_cov = int(math.floor(float(max(n_lo, 1)) ** sigma))
    for M in range(1, m_cov + 1):
        k = int(math.floor(M ** (1.0 / sigma) + 1e-12))
        if k > n_lo:
            break
        v = profile.entries[k]
        if v == _NEG_INF:
            continue
        log_a1 = max(
            log_a1, v - M * log_h1 - (tau / sigma) * log_factorial(M).log_value
        )
    return log_a1, log_h1


def enumeration_equivalence_detail(
    profile: DecayProfile,
    tau: float,
    sigma: float,
    params: WfTestParams = WfTestParams(),
) -> tuple[bool, bool, bool]:
    """(agree, direct accepts, enumerated-form accepts).

    The direct test is wf_point_test; the enumerated (factorial) form
    runs the same machinery against its own envelope family, with its
    own constants (A1, h1) fitted through N -> floor(N^{1/sigma}), and
    must reach the same verdict.
    """
    direct = wf_point_test(profile, tau, sigma, params)
    n_use = profile.usable_N(params.usable_fraction)

    finite = [v for v in profile.entries[: n_use + 1] if v != _NEG_INF]
    if not finite:
        return True, direct.regular, True

    if profile.shells is not None:
        order, log_edge = _measured_decay_order(profile.shells, params)
        if order is None:
            accept31 = True
        else:
            required = float(
                _enumerated_family_order(tau, sigma, log_edge, n_use)
                + params.order_margin
            )
            accept31 = order >= required
        if accept31:
            log_a1, log_h1 = _enumerated_constants(profile, tau, sigma, n_use, n_use + 1)
            # the re-fitted constants must cover the whole usable profile
            for M in range(1, int(math.floor(float(n_use) ** sigma)) + 1):
                k = int(math.floor(M ** (1.0 / sigma) + 1e-12))
                if k > n_use:
                    break
                v = profile.entries[k]
                if v == _NEG_INF:
                    continue
                allowed = log_a1 + M * log_h1 + (tau / sigma) * log_factorial(M).log_value
                if v > allowed + 1e-9:
                    accept31 = False
                    break
    else:
        log_a1, log_h1 = _enumerated_constants(profile, tau, sigma, n_use, n_use + 1)
        accept31 = math.exp(log_h1) <= params.h_cap_fraction * profile.xi_max
    return direct.regular == accept31, direct.regular, accept31


# ---------------------------------------------------------------------------
# scans


@dataclass(frozen=True)
class ScanParams:
    r_plateau: float
    r_support: float
    xi_min: float
    N_max: int = 40
    half_angle: float | None = None
    test: WfTestParams = field(default_factory=WfTestParams)


def scan_directions(dim: int, count: int) -> list[tuple[float, ...]]:
    if dim == 1:
        return [(1.0,), (-1.0,)]
    return [
        (math.cos(2.0 * math.pi * k / count), math.sin(2.0 * math.pi * k / count))
        for k in range(count)
    ]


def wf_scan(
    u: GridField,
    points: list[tuple[float, ...]],
    directions: int,
    tau: float,
    sigma: float,
    params: ScanParams,
    threads: int = 1,
) -> list[WavefrontVerdict]:
    """Cutoff + profile + verdict over the point/direction product.

    Output order is point-major, direction-minor regardless of the
    worker count; per-point failures are recorded as error verdicts and
    the scan continues.  Every other verdict carries its profile.
    A 2-D scan needs at least 3 directions (the default half angle is
    pi / directions, and a cone's must lie below pi/2); 1-D scans ignore
    the count.
    """
    if u.dim != 1 and directions < 3:
        raise ValueError(f"a {u.dim}-D scan needs at least 3 directions, got {directions}")
    dirs = scan_directions(u.dim, directions)
    if params.half_angle is not None:
        half = params.half_angle
    elif u.dim == 1:
        half = math.pi / 4  # sign test only; the angle is immaterial in 1D
    else:
        half = math.pi / len(dirs)

    def failed(pt: tuple[float, ...], d: tuple[float, ...], exc: ValueError) -> WavefrontVerdict:
        return WavefrontVerdict(
            point=pt,
            direction=d,
            tau=tau,
            sigma=sigma,
            regular=False,
            A_hat=None,
            h_hat=None,
            nyquist=0.5 / max(u.spacing),
            n_usable=0,
            error=str(exc),
        )

    def run_point(pt: tuple[float, ...]) -> list[WavefrontVerdict]:
        out = []
        try:
            phi = make_cutoff(pt, params.r_plateau, params.r_support, u)
        except ValueError as exc:
            return [failed(pt, d, exc) for d in dirs]
        for d in dirs:
            cone = Cone(d, half, params.xi_min)
            try:
                prof = directional_decay_profile(u, phi, cone, params.N_max)
                verdict = wf_point_test(prof, tau, sigma, params.test, point=pt)
            except ValueError as exc:
                out.append(failed(pt, d, exc))
                continue
            verdict.profile = prof
            out.append(verdict)
        return out

    pts = [tuple(float(c) for c in p) if isinstance(p, (tuple, list)) else (float(p),) for p in points]
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run_point, pts))
    else:
        results = [run_point(p) for p in pts]
    verdicts: list[WavefrontVerdict] = []
    for r in results:
        verdicts.extend(r)
    return verdicts


# ---------------------------------------------------------------------------
# built-in catalog fields


def catalog_field(name: str, n: int = 512) -> GridField:
    """Built-in test fields: 'delta', 'bump', 'step2d', 'kink'."""
    if name == "delta":
        spacing = 2.0 / n
        samples = np.zeros(n)
        samples[n // 2] = 1.0 / spacing  # unit mass at x = 0
        return GridField(1, (n,), (-1.0,), (spacing,), samples)
    if name == "bump":
        spacing = 2.0 / n
        x = -1.0 + spacing * np.arange(n)
        r = x / 0.5
        with np.errstate(divide="ignore", over="ignore"):
            samples = np.where(
                np.abs(r) < 1.0, np.exp(-1.0 / np.maximum(1.0 - r**2, 1e-300)), 0.0
            )
        return GridField(1, (n,), (-1.0,), (spacing,), samples)
    if name == "step2d":
        m = min(n, 256)
        spacing = 2.0 / m
        x = -1.0 + spacing * np.arange(m)
        col = np.where(x > 0, 1.0, np.where(x < 0, 0.0, 0.5))
        samples = np.repeat(col[:, None], m, axis=1)
        return GridField(2, (m, m), (-1.0, -1.0), (spacing, spacing), samples)
    if name == "kink":
        # |x| solves x u'' = 0 with smooth right side; 0 placed on a node
        spacing = 2.0 / n
        x = -1.0 + spacing * np.arange(n)
        return GridField(1, (n,), (-1.0,), (spacing,), np.abs(x))
    raise ValueError(f"unknown catalog field {name!r}")
