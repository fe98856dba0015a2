"""Numerical wave-front membership tests on sampled fields.

The pipeline is: cut off around the test point (multiply in space),
discrete Fourier transform, profile the decay sup_{cone bins}
|xi|^N |(phi u)^(xi)| in the log domain, and test the profile against
the two-parameter envelope family A h^{N^sigma} N^{tau N^sigma} / |xi|^N.
The work splits along what varies: a FrequencyGrid (|xi|, radius bins,
one ConeBins table per cone) is built once per field, a Spectrum (one
transform) once per cutoff, and a DecayProfile per spectrum and cone.
Each step does only the work its data needs: a cutoff is convolved on
the window of its support, not on the whole grid, and the sup over N
reads only the staircase of bins, the running maxima of the
log-amplitude in descending ln |xi| order, which leaves every entry
exactly as the sup over all bins gives it (_staircase).

On a bounded frequency window the raw envelope inequality is always
satisfiable by inflating the constants, so the measured-field verdict
rests on the decay order of the transform's upper envelope instead.
Within the usable window (bins below half Nyquist: beyond that,
sampled-jump transforms deflect from their continuum law and smooth
tails alias), the shell maxima are reduced to log-band envelope points
and the decay order is the slope of the outer half.  The envelope
family's own optimal order at the window edge is what a borderline
member would exhibit there; measured data must beat it by one order,
which every fixed-order tail (flat, jump, kink) fails.

One order test serves two envelope families, each a list of (order k,
growth) per index M: the direct family (k = M, ln M_M) and the
factorial form (k = floor(M^{1/sigma}), (tau/sigma) ln M!) that
``enumeration_equivalence_detail`` checks against it.  The
thresholds are the fixed module constants below; nothing sets them per
call.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .sequences import check_class, log_factorial_form, log_M

_NEG_INF = float("-inf")

# Frozen thresholds of the discrete membership test.
USABLE_FRACTION = 0.8  # share of a profile's radius bins whose orders are read
MIN_USABLE = 6  # fewest usable profile values a verdict needs
MAX_N_MAX = 1000  # a profile holds N_max + 1 values per cone bin
N_BANDS = 6  # log-uniform radius bands of the shells' upper envelope
ORDER_MARGIN = 1  # orders by which measured decay must beat the family's
_WINDOW_MARGIN = 2  # cells beyond r_support on each side of a cutoff's window
MIN_GRID_SAMPLES = 16  # fewest samples per axis of a GridField


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
        if len(self.sizes) != self.dim or any(n < MIN_GRID_SAMPLES for n in self.sizes):
            raise ValueError(f"sizes must give >= {MIN_GRID_SAMPLES} samples per axis")
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
        tokens = fh.read().split()
    width = {"real": 1, "complex": 2}.get(kind)
    if width is None:
        raise ValueError(f"unknown sample kind {kind!r}")
    if width == 2:
        tokens = [t.split(",") for t in tokens]
        malformed = any(len(t) != 2 for t in tokens)
        tokens = [x for t in tokens for x in t]
    else:
        malformed = any("," in t for t in tokens)
    if malformed:
        raise ValueError(f"malformed {kind} sample in {path} (complex samples are re,im)")
    # str items convert through float() itself: the same tokens pass or fail
    vals = np.array(tokens, dtype=float)
    if not (all(map(math.isfinite, origin + spacing)) and np.isfinite(vals).all()):
        raise ValueError(f"non-finite origin, spacing or sample in {path}")
    vals = vals.view(complex) if width == 2 else vals
    expected = int(np.prod(sizes))
    if vals.size != expected:
        raise ValueError(f"expected {expected} samples, found {vals.size}")
    return GridField(d, sizes, origin, spacing, vals.reshape(sizes))


# ---------------------------------------------------------------------------
# cutoffs


def default_cutoff_radius(tau: float, sigma: float) -> float:
    """The support scale sum_p (2(p+1))^{-tau p^{sigma-1}} of the
    admissible-cutoff construction; it diverges at sigma = 1, tau <= 1, where
    the class is quasianalytic and has no compactly supported cutoff."""
    check_class(tau, sigma)
    if sigma == 1 and tau <= 1:
        raise ValueError(f"tau = {tau}, sigma = 1 is quasianalytic: no compactly supported cutoff")
    total, p = 0.0, 1
    while True:
        term = (2.0 * (p + 1)) ** (-tau * float(p) ** (sigma - 1.0))
        total += term
        p += 1
        if term < 1e-16 or p > 10_000:
            return total


def _distances(grid: GridField, x0: tuple[float, ...], window: tuple[slice, ...]) -> np.ndarray:
    """|x - x0| on the samples of a window of the grid, bit-equal to the
    same samples of the full grid's distances."""
    # an open mesh broadcasts to the same 0 + a_i + b_j per cell as a full one
    offsets = np.ix_(*(grid.axis_coords(i)[w] - c for i, (w, c) in enumerate(zip(window, x0))))
    return np.sqrt(sum(o**2 for o in offsets))


def _bump(rho2: np.ndarray) -> np.ndarray:
    """exp(-1/(1 - rho^2)) inside the unit ball, 0 outside, at rho2 = rho^2."""
    with np.errstate(divide="ignore", over="ignore"):
        return np.where(rho2 < 1.0, np.exp(-1.0 / np.maximum(1.0 - rho2, 1e-300)), 0.0)


@functools.lru_cache(maxsize=8)
def _mollifier_transform(
    spacing: tuple[float, ...], r_psi: float, fshape: tuple[int, ...]
) -> tuple[tuple[int, ...], np.ndarray]:
    """(psi's shape, rfftn(psi) on the padded window shape fshape) for the
    unit-mass mollifier of radius r_psi sampled on the spacing; only the
    cutoff's center changes across a scan, and every window of a scan pads
    to the same shape, so this is built once per grid and band."""
    dim = len(spacing)
    half = [int(math.ceil(r_psi / spacing[i])) for i in range(dim)]
    offsets = [np.arange(-h, h + 1) * spacing[i] for i, h in enumerate(half)]
    mesh = np.meshgrid(*offsets, indexing="ij")
    psi = _bump(sum(m**2 for m in mesh) / r_psi**2)
    psi /= psi.sum() * float(np.prod(spacing))
    psi_hat = np.fft.rfftn(psi, fshape, axes=list(range(dim)))
    psi_hat.flags.writeable = False  # shared by every cutoff of a scan
    return psi.shape, psi_hat


def _check_radii(r_plateau: float, r_support: float, grid: GridField) -> None:
    """The cutoff radii's own faults, the same at every center."""
    if r_plateau < 0:
        raise ValueError(f"r_plateau = {r_plateau} is negative: the cutoff has no plateau")
    if not r_plateau < r_support:
        raise ValueError("r_plateau must be smaller than r_support")
    if r_support - r_plateau < 8.0 * max(grid.spacing):
        raise ValueError("transition band under-resolved (< 8 cells)")


def make_cutoff(
    x0: tuple[float, ...] | float,
    r_plateau: float,
    r_support: float,
    grid: GridField,
) -> GridField:
    """phi = chi * psi sampled on the grid: indicator of the mid ball
    mollified to the transition band.  0 <= phi <= 1, phi = 1 inside
    r_plateau, 0 outside r_support (enforced exactly against convolution
    ripple).

    phi vanishes beyond r_mid + r_psi = r_support, so the convolution runs
    on the window of samples within r_support of x0 (plus _WINDOW_MARGIN
    cells per side), not on the whole grid; the rest of phi is 0.
    """
    if not isinstance(x0, tuple):
        x0 = (float(x0),)
    if len(x0) != grid.dim:
        raise ValueError(f"center {x0} of a {grid.dim}-D field needs {grid.dim} coordinates")
    _check_radii(r_plateau, r_support, grid)
    # the support must lie on the grid; the window is its index range per
    # axis, cut to the grid
    window = []
    for i, c in enumerate(x0):
        lo, h = grid.origin[i], grid.spacing[i]
        if c - r_support < lo or c + r_support > lo + h * (grid.sizes[i] - 1):
            raise ValueError("cutoff support leaves the grid")
        mid, reach = round((c - lo) / h), math.ceil(r_support / h) + _WINDOW_MARGIN
        window.append(slice(max(mid - reach, 0), min(mid + reach + 1, grid.sizes[i])))
    window = tuple(window)
    r_mid = 0.5 * (r_plateau + r_support)
    r_psi = 0.5 * (r_support - r_plateau)
    dist = _distances(grid, x0, window)
    chi = (dist <= r_mid).astype(float)

    half = [int(math.ceil(r_psi / h)) for h in grid.spacing]
    fshape = tuple(int(2 ** math.ceil(math.log2(n + 2 * k))) for n, k in zip(chi.shape, half))
    psi_shape, psi_hat = _mollifier_transform(tuple(grid.spacing), r_psi, fshape)
    axes = list(range(grid.dim))
    conv = np.fft.irfftn(np.fft.rfftn(chi, fshape, axes=axes) * psi_hat, fshape, axes=axes)
    start = [(psi_shape[i] - 1) // 2 for i in range(grid.dim)]
    sl = tuple(slice(start[i], start[i] + chi.shape[i]) for i in range(grid.dim))
    local = np.clip(conv[sl] * grid.cell_volume, 0.0, 1.0)
    local[dist >= r_support] = 0.0
    local[dist <= r_plateau] = 1.0
    phi = np.zeros(grid.sizes)
    phi[window] = local
    return grid.like(phi)


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
        if norm == 0:
            raise ValueError("direction must be nonzero")
        if abs(norm - 1.0) > 1e-12:
            object.__setattr__(
                self, "direction", tuple(c / norm for c in self.direction)
            )
        if not 0 < self.half_angle < math.pi / 2:
            raise ValueError("half_angle must lie in (0, pi/2)")
        if self.xi_min <= 0:
            raise ValueError("xi_min must be positive")

    def contains(self, xi: list[np.ndarray], mag: np.ndarray) -> np.ndarray:
        """Mask of the frequencies xi (one array per axis) with |xi| = mag."""
        dot = sum(x * d for x, d in zip(xi, self.direction))
        with np.errstate(invalid="ignore", divide="ignore"):
            cosang = np.where(mag > 0, dot / np.where(mag > 0, mag, 1.0), -1.0)
        return (cosang >= math.cos(self.half_angle) - 1e-12) & (mag >= self.xi_min)


@dataclass
class DecayProfile:
    """entries[N] = log sup over cone bins of |xi|^N |(phi u)^(xi)|.

    shells hold the per-radius log max of the transform below half
    Nyquist, whose decay order the verdict reads.
    """

    entries: tuple[float, ...]
    cone: Cone
    n_radial_bins: int
    nyquist: float
    shells: tuple[tuple[float, float], ...]

    @property
    def N_max(self) -> int:
        return len(self.entries) - 1

    def usable_N(self) -> int:
        return min(self.N_max, int(USABLE_FRACTION * self.n_radial_bins))


@dataclass(frozen=True)
class ConeBins:
    """One cone's DFT bins, listed once per scan: flat indices (row-major),
    |xi| and ln |xi| per bin; the count of distinct radius indices; the
    bins sorted by ln |xi| descending (stable); the inner bins (|xi| at
    most half Nyquist) sorted by radius index (stable), the start of each
    radius index's run among them, and each inner bin's run number."""

    idx: np.ndarray
    mag: np.ndarray
    log_mag: np.ndarray
    n_ridx: int
    by_mag: np.ndarray
    inner: np.ndarray
    inner_start: np.ndarray
    inner_run: np.ndarray

    @classmethod
    def select(
        cls, mask: np.ndarray, mag: np.ndarray, ridx: np.ndarray, inner_max: float
    ) -> "ConeBins":
        idx = np.flatnonzero(mask)
        m, r = mag.reshape(-1)[idx], ridx.reshape(-1)[idx]
        log_m = np.log(m)
        by_mag = np.argsort(-log_m, kind="stable")
        n_ridx = int(np.count_nonzero(np.bincount(r)))  # radius indices are >= 0
        inner = np.flatnonzero(m <= inner_max)
        inner = inner[np.argsort(r[inner], kind="stable")]
        new_run = np.diff(r[inner], prepend=-1) != 0
        return cls(
            idx, m, log_m, n_ridx, by_mag, inner, np.flatnonzero(new_run), np.cumsum(new_run) - 1
        )


class FrequencyGrid:
    """The DFT bins of a field, shared by every cutoff of a scan: |xi|,
    its radius-bin index round(|xi| / min dxi), the Nyquist value and one
    ConeBins table per cone.  A cone whose xi_min lies inside the DC
    leakage band (below 4 bins) rejects the grid, and with it the whole
    scan."""

    def __init__(self, u: GridField, cones: list[Cone]) -> None:
        self.field = u
        self.dxi = min(1.0 / (n * s) for n, s in zip(u.sizes, u.spacing))
        self.nyquist = 0.5 / max(u.spacing)
        if any(cone.xi_min < 4.0 * self.dxi for cone in cones):
            raise ValueError("xi_min must clear the DC leakage band (>= 4 bins)")
        freqs = [np.fft.fftfreq(n, d=s) for n, s in zip(u.sizes, u.spacing)]
        mesh = np.meshgrid(*freqs, indexing="ij")
        self.mag = np.sqrt(sum(m**2 for m in mesh))
        self.ridx = np.round(self.mag / self.dxi).astype(int)
        self.bins = {
            cone: ConeBins.select(
                cone.contains(mesh, self.mag), self.mag, self.ridx, 0.5 * self.nyquist
            )
            for cone in cones
        }

    def spectrum(self, phi: GridField) -> Spectrum:
        """|(phi u)^|: the DFT of phi*u normalized by the cell volume."""
        u = self.field
        if phi.sizes != u.sizes or phi.spacing != u.spacing or phi.origin != u.origin:
            raise ValueError("cutoff grid does not match the field grid")
        amp = np.abs(np.fft.fftn(phi.samples * u.samples) * u.cell_volume)
        return Spectrum(self, amp)


@dataclass
class Spectrum:
    """One cutoff's transform amplitudes on its field's frequency grid."""

    freq: FrequencyGrid
    amp: np.ndarray


def _staircase(bins: ConeBins, floored: np.ndarray) -> np.ndarray:
    """Table positions, ascending, of the bins above the floor (floored
    holds -inf under it) whose log-amplitude is a running maximum in
    descending ln |xi| order: exactly the bins the sup over N needs."""
    # A dropped bin has an earlier bin with ln|xi'| >= ln|xi| and a' > a.  For
    # N >= 0 rounding is monotone: fl(N ln|xi'|) >= fl(N ln|xi|), and then
    # fl(fl(N ln|xi'|) + a') >= fl(fl(N ln|xi|) + a).  The bin that sets each running
    # maximum is kept: the kept max is the max over all bins, bit for bit.
    g = floored[bins.by_mag]
    return np.sort(bins.by_mag[(g == np.maximum.accumulate(g)) & (g > -np.inf)])


def directional_decay_profile(spectrum: Spectrum, cone: Cone, N_max: int) -> DecayProfile:
    """Profile the decay of one cutoff's transform inside one cone.

    The cone must be one the spectrum's frequency grid was built with.
    Frequency bins below the DC leakage band or under the relative floor
    are excluded from the sup; each shell is the first bin attaining the
    largest amplitude of its radius index.  The sup over N is taken over
    the staircase of running maxima in ln |xi| order (_staircase).
    """
    freq = spectrum.freq
    bins = freq.bins[cone]
    if not bins.idx.size:
        raise ValueError("cone contains no frequency bins")

    amp = spectrum.amp.reshape(-1)[bins.idx]
    amax = float(amp.max())

    if amax == 0.0:
        return DecayProfile(
            entries=(_NEG_INF,) * (N_max + 1),
            cone=cone,
            n_radial_bins=bins.n_ridx,
            nyquist=freq.nyquist,
            shells=(),
        )

    keep = amp > amax * 1e-13
    with np.errstate(divide="ignore"):  # a zero amplitude is under the floor
        loga = np.log(amp)
    # shells feed the slope analysis; the outer half of the window is
    # excluded there because sampled-jump transforms deflect (cot vs 1/x)
    # and smooth tails alias near Nyquist.  Each radius index's run keeps
    # its first bin at the run's maximum; a run with no kept bin drops.
    floored = np.where(keep, loga, -np.inf)
    g_in = floored[bins.inner]
    run_max = np.maximum.reduceat(g_in, bins.inner_start)
    pos = np.where(g_in == run_max[bins.inner_run], np.arange(g_in.size), g_in.size)
    first = np.minimum.reduceat(pos, bins.inner_start)
    live = run_max > -np.inf
    shell_list = tuple(zip(bins.mag[bins.inner[first[live]]].tolist(), run_max[live].tolist()))

    cand = _staircase(bins, floored)
    vals = np.arange(N_max + 1, dtype=float)[:, None] * bins.log_mag[cand] + loga[cand]
    return DecayProfile(
        entries=tuple(vals.max(axis=1).tolist()),
        cone=cone,
        n_radial_bins=len(shell_list),
        nyquist=freq.nyquist,
        shells=shell_list,
    )


# ---------------------------------------------------------------------------
# verdicts


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
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "profile"}
        return out | {"point": list(self.point), "direction": list(self.direction)}


def _fit_constants_ls(profile: DecayProfile, terms: _Terms, sigma: float) -> tuple[float, float]:
    """(ln A, ln h) by least squares on {1, N^sigma}, with ln A lifted so
    the fitted envelope covers every usable entry (exact on data lying
    exactly on an envelope).  terms is the direct family over the usable
    window, read for ln M_N at N >= 1; N = 0 has ln M_0 = 0."""
    ns_list, ys = [], []
    for N, (_, growth) in enumerate(((0, 0.0),) + terms):
        v = profile.entries[N]
        if v == _NEG_INF:
            continue
        ns_list.append(float(N) ** sigma)
        ys.append(v - growth)
    if len(ys) < 2:
        val = ys[0] if ys else 0.0
        return max(0.0, val), 0.0
    X = np.column_stack([np.ones(len(ns_list)), np.array(ns_list)])
    y = np.array(ys)
    coef, *_ = np.linalg.lstsq(X, y, rcond=None)
    lift = float(np.max(y - X @ coef))
    return float(coef[0]) + max(0.0, lift), float(coef[1])


# (order k, growth) per index M = 1, 2, ... of an envelope family
_Terms = tuple[tuple[int, float], ...]


@functools.lru_cache(maxsize=16)
def _family(tau: float, sigma: float, n_use: int, factorial: bool) -> _Terms:
    """One envelope family over the usable window: (order k, growth) per
    index M = 1, 2, ....

    The direct family is k = M, ln M_M for M <= n_use.  The factorial
    form is k = floor(M^{1/sigma}), (tau/sigma) ln M! for
    M <= floor(n_use^sigma) + 1; the last index is the first whose order
    reaches n_use when n_use^sigma is not an integer.  A scan meets few
    (tau, sigma, n_use), so each table is built once.
    """
    if not factorial:
        return tuple((M, log_M(tau, sigma, M)) for M in range(1, n_use + 1))
    return tuple(
        (int(math.floor(M ** (1.0 / sigma) + 1e-12)), log_factorial_form(tau, sigma, M))
        for M in range(1, int(float(n_use) ** sigma) + 2)
    )


def _order_search(terms: _Terms, log_r: float) -> int:
    """The family's decay order -d(ln envelope)/d(ln r) at radius e^{log_r}:
    the order k of the term minimizing growth - k log_r (0 if none is
    negative)."""
    best_k, best_v = 0, 0.0
    for k, growth in terms:
        v = growth - k * log_r
        if v < best_v:
            best_k, best_v = k, v
    return best_k


def _band_envelope_points(shells: tuple[tuple[float, float], ...]) -> list[tuple[float, float]]:
    """Upper-envelope points: the max shell per log-uniform radius band
    (transform zeros make raw per-shell slopes meaningless)."""
    if not shells:
        return []
    r_lo, r_hi = shells[0][0], shells[-1][0]
    if r_hi <= r_lo:
        return [shells[0]]
    edges = np.exp(np.linspace(math.log(r_lo), math.log(r_hi) + 1e-9, N_BANDS + 1))
    rg = np.array(shells)
    band = np.searchsorted(edges, rg[:, 0], side="right") - 1  # edges[b] <= r < edges[b + 1]
    inside = np.flatnonzero((band >= 0) & (band < N_BANDS))
    order = inside[np.lexsort((-rg[inside, 1], band[inside]))]  # stable: first max per band
    first = order[np.diff(band[order], prepend=-1) != 0]
    return [shells[i] for i in first]


def _measured_decay_order(
    shells: tuple[tuple[float, float], ...]
) -> tuple[float | None, float | None]:
    """(outer-window decay order, log of the outer window edge radius).

    None when the outer half of the usable window carries no data above
    the floor, which certifies decay by itself.
    """
    pts = _band_envelope_points(shells)
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


def _family_verdict(
    profile: DecayProfile, tau: float, sigma: float, n_use: int, factorial: bool = False
) -> tuple[bool, float | None, float | None]:
    """(regular, decay order, required order) of the profile against one
    envelope family.

    The shell maxima must steepen across the frequency window at least
    ORDER_MARGIN orders beyond the family's optimal order at the window
    edge (a fixed-order polynomial tail cannot); data under the
    amplitude floor before the edge certifies decay outright.
    """
    order, log_edge = _measured_decay_order(profile.shells)
    if order is None:
        return True, None, None
    terms = _family(tau, sigma, n_use, factorial)
    required = float(_order_search(terms, log_edge) + ORDER_MARGIN)
    return order >= required, order, required


def wf_point_test(
    profile: DecayProfile, tau: float, sigma: float, point: tuple[float, ...] = ()
) -> WavefrontVerdict:
    """Classify one (point, direction) against the (tau, sigma) envelope:
    the direct family's verdict, with (A, h) fitted by least squares
    when it is regular."""
    n_use = profile.usable_N()
    if n_use + 1 < MIN_USABLE:
        raise ValueError(f"profile too short: {n_use + 1} usable values")
    verdict = functools.partial(
        WavefrontVerdict, point=point, direction=profile.cone.direction, tau=tau,
        sigma=sigma, nyquist=profile.nyquist, n_usable=n_use,
    )
    if all(v == _NEG_INF for v in profile.entries[: n_use + 1]):
        return verdict(regular=True, A_hat=0.0, h_hat=1.0)

    regular, order, required = _family_verdict(profile, tau, sigma, n_use)
    A_hat = h_hat = None
    if regular:
        log_a, log_h = _fit_constants_ls(profile, _family(tau, sigma, n_use, False), sigma)
        A_hat, h_hat = math.exp(log_a), math.exp(log_h)
    return verdict(
        regular=regular, A_hat=A_hat, h_hat=h_hat, decay_order=order, required_order=required
    )


def enumeration_equivalence_detail(
    profile: DecayProfile, tau: float, sigma: float
) -> tuple[bool, bool, bool]:
    """(agree, direct accepts, factorial form accepts): wf_point_test's
    verdict and the same test run on the factorial-form family, which
    must reach the same verdict."""
    direct = wf_point_test(profile, tau, sigma).regular
    n_use = profile.usable_N()
    if all(v == _NEG_INF for v in profile.entries[: n_use + 1]):
        return True, direct, True
    factorial = _family_verdict(profile, tau, sigma, n_use, factorial=True)[0]
    return direct == factorial, direct, factorial


# ---------------------------------------------------------------------------
# scans


@dataclass(frozen=True)
class ScanParams:
    r_plateau: float
    r_support: float
    xi_min: float
    N_max: int


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
) -> list[WavefrontVerdict]:
    """Cutoff + profile + verdict over the point/direction product.

    Output order is point-major, direction-minor; per-point failures are
    recorded as error verdicts and the scan continues.  Every other
    verdict carries its profile.  A 2-D scan needs at least 3 directions
    (the cones' half angle is pi / directions, and it must lie below
    pi/2); 1-D scans ignore the count and test the two signs.  Every
    point needs u.dim finite coordinates, and (tau, sigma) must name a
    class (`check_class`).  The cones and their bin tables are built
    once, before any cutoff, so a bad xi_min rejects the whole scan, as
    do cutoff radii that fail at every center and an N_max too small for
    a verdict or above MAX_N_MAX; a cutoff support leaving the grid stays
    a per-point error.
    Each point's cutoff is transformed once and profiled in every cone.
    """
    check_class(tau, sigma)
    if u.dim != 1 and directions < 3:
        raise ValueError(f"a {u.dim}-D scan needs at least 3 directions, got {directions}")
    pts = [tuple(float(c) for c in p) if isinstance(p, (tuple, list)) else (float(p),) for p in points]
    for pt in pts:
        if len(pt) != u.dim or not all(map(math.isfinite, pt)):
            raise ValueError(f"point {pt} is not a finite point of the {u.dim}-D field")
    _check_radii(params.r_plateau, params.r_support, u)
    if params.N_max + 1 < MIN_USABLE:
        raise ValueError(f"N_max = {params.N_max} leaves fewer than {MIN_USABLE} usable values")
    if params.N_max > MAX_N_MAX:
        raise ValueError(f"N_max = {params.N_max} exceeds {MAX_N_MAX}")
    dirs = scan_directions(u.dim, directions)
    # 1-D cones only test the sign, so their angle is immaterial
    half = math.pi / 4 if u.dim == 1 else math.pi / len(dirs)
    cones = [Cone(d, half, params.xi_min) for d in dirs]
    freq = FrequencyGrid(u, cones)

    def failed(pt: tuple[float, ...], d: tuple[float, ...], exc: ValueError) -> WavefrontVerdict:
        return WavefrontVerdict(
            point=pt,
            direction=d,
            tau=tau,
            sigma=sigma,
            regular=False,
            A_hat=None,
            h_hat=None,
            nyquist=freq.nyquist,
            n_usable=0,
            error=str(exc),
        )

    def run_point(pt: tuple[float, ...]) -> list[WavefrontVerdict]:
        out = []
        try:
            spectrum = freq.spectrum(make_cutoff(pt, params.r_plateau, params.r_support, u))
        except ValueError as exc:
            return [failed(pt, d, exc) for d in dirs]
        for d, cone in zip(dirs, cones):
            try:
                prof = directional_decay_profile(spectrum, cone, params.N_max)
                verdict = wf_point_test(prof, tau, sigma, point=pt)
            except ValueError as exc:
                out.append(failed(pt, d, exc))
                continue
            verdict.profile = prof
            out.append(verdict)
        return out

    return [v for pt in pts for v in run_point(pt)]


# ---------------------------------------------------------------------------
# built-in catalog fields


def catalog_field(name: str) -> GridField:
    """Built-in test fields: 'delta', 'bump', 'kink' on 512 samples of
    [-1, 1), 'step2d' on 256^2 samples of [-1, 1)^2."""
    n = 512
    if name == "delta":
        spacing = 2.0 / n
        samples = np.zeros(n)
        samples[n // 2] = 1.0 / spacing  # unit mass at x = 0
        return GridField(1, (n,), (-1.0,), (spacing,), samples)
    if name == "bump":
        spacing = 2.0 / n
        x = -1.0 + spacing * np.arange(n)
        samples = _bump((x / 0.5) ** 2)
        return GridField(1, (n,), (-1.0,), (spacing,), samples)
    if name == "step2d":
        m = 256
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
