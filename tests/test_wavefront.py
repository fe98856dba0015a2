import dataclasses
import functools
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gevreykit.numerics import log_factorial
from gevreykit.regularity import fit_regularity, measure_derivative_growth
from gevreykit.sequences import log_envelope, log_M
from gevreykit.wavefront import (
    MAX_N_MAX,
    N_BANDS,
    Cone,
    DecayProfile,
    FrequencyGrid,
    GridField,
    ScanParams,
    Spectrum,
    WavefrontVerdict,
    _band_envelope_points,
    _family,
    _family_verdict,
    _fit_constants_ls,
    _mollifier_transform,
    _measured_decay_order,
    catalog_field,
    default_cutoff_radius,
    directional_decay_profile,
    enumeration_equivalence_detail,
    make_cutoff,
    read_gridfield,
    wf_point_test,
    wf_scan,
    write_gridfield,
)

CONE1 = Cone((1.0,), math.pi / 4, 2.5)


def test_gridfield_roundtrip(tmp_path):
    u = catalog_field("bump")
    path = os.path.join(tmp_path, "u.gf")
    write_gridfield(u, path)
    v = read_gridfield(path)
    assert v.dim == u.dim and v.sizes == u.sizes
    assert v.origin == u.origin and v.spacing == u.spacing
    assert np.array_equal(v.samples, u.samples)


def test_gridfield_complex_roundtrip(tmp_path):
    n = 32
    samples = np.exp(1j * np.linspace(0, 3, n))
    u = GridField(1, (n,), (0.0,), (0.1,), samples)
    path = os.path.join(tmp_path, "c.gf")
    write_gridfield(u, path)
    v = read_gridfield(path)
    assert v.is_complex()
    assert np.array_equal(v.samples, u.samples)


def test_gridfield_validation():
    with pytest.raises(ValueError):
        GridField(1, (8,), (0.0,), (0.1,), np.zeros(8))
    with pytest.raises(ValueError):
        GridField(3, (16, 16, 16), (0, 0, 0), (1, 1, 1), np.zeros(16**3))


def test_cutoff_invariants():
    u = catalog_field("bump")
    phi = make_cutoff((0.0,), 0.15, 0.4, u)
    vals = phi.samples
    x = u.axis_coords(0)
    assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
    assert np.all(vals[np.abs(x) <= 0.15] == 1.0)
    assert np.all(vals[np.abs(x) >= 0.4] == 0.0)
    # mass sandwich between plateau and support ball volumes
    mass = vals.sum() * u.cell_volume
    assert 2 * 0.15 <= mass <= 2 * 0.4


def test_cutoff_resolvability_and_bounds():
    u = catalog_field("bump")
    with pytest.raises(ValueError):
        make_cutoff((0.0,), 0.10, 0.11, u)  # band under-resolved
    with pytest.raises(ValueError):
        make_cutoff((0.9,), 0.15, 0.4, u)  # support leaves the grid
    # r_plateau 0 leaves phi = 1 at the center alone; below 0 nothing is
    with pytest.raises(ValueError, match="r_plateau = -0.1 is negative"):
        make_cutoff((0.0,), -0.1, 0.3, u)
    assert make_cutoff((0.0,), 0.0, 0.3, u).samples.max() == 1.0
    # a center with the wrong number of coordinates once gave a stripe cutoff
    with pytest.raises(ValueError, match="needs 2 coordinates"):
        make_cutoff((0.0,), 0.12, 0.35, catalog_field("step2d"))
    with pytest.raises(ValueError, match="needs 1 coordinates"):
        make_cutoff((0.0, 0.0), 0.15, 0.4, u)


def test_cutoff_growth_admissible_for_requested_class():
    u = catalog_field("bump")
    phi = make_cutoff((0.0,), 0.15, 0.4, u)
    data = measure_derivative_growth(
        phi.samples, u.spacing[0], n_max=8
    )
    assert data.n_max >= 8
    fit = fit_regularity(data, [1.5, 2.0, 2.5, 3.0])
    assert fit.admissible


def test_default_cutoff_radius_positive_decreasing_in_tau():
    d1 = default_cutoff_radius(1.0, 2.0)
    d2 = default_cutoff_radius(2.0, 2.0)
    assert 0 < d2 < d1


def test_profile_examples_delta_flat():
    u = catalog_field("delta")
    phi = make_cutoff((0.0,), 0.15, 0.4, u)
    freq = FrequencyGrid(u, [CONE1])
    prof = directional_decay_profile(freq.spectrum(phi), CONE1, 30)
    # flat transform: entries grow like N log xi_max, the cone's largest |xi|
    xi_max = float(freq.bins[CONE1].mag.max())
    slopes = [prof.entries[N + 1] - prof.entries[N] for N in range(8)]
    assert all(abs(s - math.log(xi_max)) < 0.05 for s in slopes[1:])


def test_profile_cone_validation():
    u = catalog_field("delta")
    phi = make_cutoff((0.0,), 0.15, 0.4, u)
    cone = Cone((1.0,), math.pi / 4, 0.5)
    with pytest.raises(ValueError):
        directional_decay_profile(FrequencyGrid(u, [cone]).spectrum(phi), cone, 10)


def test_verdicts_on_catalog():
    cases = [("delta", False), ("bump", True), ("kink", False)]
    for name, expect in cases:
        u = catalog_field(name)
        phi = make_cutoff((0.0,), 0.15, 0.4, u)
        for d in ((1.0,), (-1.0,)):
            cone = Cone(d, math.pi / 4, 2.5)
            prof = directional_decay_profile(FrequencyGrid(u, [cone]).spectrum(phi), cone, 40)
            v = wf_point_test(prof, 1, 2)
            assert v.regular == expect, (name, d, v)
            assert enumeration_equivalence_detail(prof, 1, 2)[0], (name, d)


def test_verdict_far_from_singularity():
    u = catalog_field("delta")
    phi = make_cutoff((0.6,), 0.15, 0.35, u)
    prof = directional_decay_profile(FrequencyGrid(u, [CONE1]).spectrum(phi), CONE1, 40)
    v = wf_point_test(prof, 1, 2)
    assert v.regular and v.A_hat == 0.0


def test_tau_monotonicity_with_same_constants():
    u = catalog_field("bump")
    phi = make_cutoff((0.0,), 0.15, 0.4, u)
    prof = directional_decay_profile(FrequencyGrid(u, [CONE1]).spectrum(phi), CONE1, 40)
    v = wf_point_test(prof, 1, 2)
    assert v.regular
    # the fitted envelope still dominates with the same (A, h) at larger tau
    la, lh = math.log(v.A_hat), math.log(v.h_hat)
    for tau in (1.0, 2.0):
        assert all(
            e == -math.inf or e <= log_envelope(N, tau, 2.0, la, lh) + 1e-9
            for N, e in enumerate(prof.entries[: prof.usable_N() + 1])
        ), tau
    v2 = wf_point_test(prof, 2, 2)
    assert v2.regular


def test_step2d_direction_resolution():
    u = catalog_field("step2d")
    phi = make_cutoff((0.0, 0.0), 0.12, 0.35, u)
    for k in range(16):
        ang = 2 * math.pi * k / 16
        cone = Cone((math.cos(ang), math.sin(ang)), math.pi / 8, 2.5)
        prof = directional_decay_profile(FrequencyGrid(u, [cone]).spectrum(phi), cone, 30)
        v = wf_point_test(prof, 1, 2)
        near_e1 = min(
            abs(math.remainder(ang - t, 2 * math.pi)) for t in (0.0, math.pi)
        ) <= 2 * math.pi / 16 + 1e-9
        if near_e1:
            assert not v.regular, ang
        else:
            assert v.regular, ang
        assert enumeration_equivalence_detail(prof, 1, 2)[0], ang


def test_locality_bit_identical():
    u = catalog_field("delta")
    phi = make_cutoff((0.0,), 0.15, 0.35, u)
    prof1 = directional_decay_profile(FrequencyGrid(u, [CONE1]).spectrum(phi), CONE1, 30)
    # modify u outside the support arbitrarily: profiles bit-identical
    v = u.like(u.samples.copy())
    x = u.axis_coords(0)
    v.samples[np.abs(x) > 0.35] += np.sin(17 * x[np.abs(x) > 0.35]) * 5.0
    prof2 = directional_decay_profile(FrequencyGrid(v, [CONE1]).spectrum(phi), CONE1, 30)
    assert prof1.entries == prof2.entries
    assert prof1.shells == prof2.shells


def test_half_support_cutoff_invariance():
    # Theorem-3.1-style consistency: verdicts survive support halving
    for name, expect in [("delta", False), ("bump", True)]:
        u = catalog_field(name)
        for r_plateau, r_support in [(0.15, 0.4), (0.08, 0.2)]:
            phi = make_cutoff((0.0,), r_plateau, r_support, u)
            prof = directional_decay_profile(FrequencyGrid(u, [CONE1]).spectrum(phi), CONE1, 40)
            assert wf_point_test(prof, 1, 2).regular == expect, (name, r_support)


def _cutoff_reference(x0, r_plateau, r_support, grid):
    """make_cutoff as one self-contained construction per center: full
    coordinate mesh, mollifier and its transform built afresh each call."""
    mesh = grid.meshgrid()
    dist = np.sqrt(sum((m - c) ** 2 for m, c in zip(mesh, x0)))
    r_mid, r_psi = 0.5 * (r_plateau + r_support), 0.5 * (r_support - r_plateau)
    chi = (dist <= r_mid).astype(float)
    half = [int(math.ceil(r_psi / grid.spacing[i])) for i in range(grid.dim)]
    offsets = [np.arange(-h, h + 1) * grid.spacing[i] for i, h in enumerate(half)]
    rho2 = sum(m**2 for m in np.meshgrid(*offsets, indexing="ij")) / r_psi**2
    with np.errstate(divide="ignore", over="ignore"):
        psi = np.where(rho2 < 1.0, np.exp(-1.0 / np.maximum(1.0 - rho2, 1e-300)), 0.0)
    psi /= psi.sum() * grid.cell_volume
    fshape = [int(2 ** math.ceil(math.log2(a + b - 1))) for a, b in zip(chi.shape, psi.shape)]
    axes = list(range(grid.dim))
    conv = np.fft.irfftn(
        np.fft.rfftn(chi, fshape, axes=axes) * np.fft.rfftn(psi, fshape, axes=axes),
        fshape,
        axes=axes,
    )
    sl = tuple(slice((p - 1) // 2, (p - 1) // 2 + n) for p, n in zip(psi.shape, chi.shape))
    phi = np.clip(conv[sl] * grid.cell_volume, 0.0, 1.0)
    phi[dist >= r_support] = 0.0
    phi[dist <= r_plateau] = 1.0
    return phi


_CUTOFF_CASES = [
    (catalog_field("step2d"), 0.12, 0.35, [(0.0, 0.0), (0.3, -0.2), (-0.4, 0.45)]),
    (catalog_field("kink"), 0.15, 0.4, [(0.0,), (0.3,), (-0.5,)]),
]


def test_cutoffs_sharing_one_mollifier_equal_the_reference_across_threads():
    # make_cutoff reuses one cached mollifier transform per (spacing, band,
    # padded window); built from more threads than cores on a cold cache,
    # every cutoff must equal the same center built alone on a cold cache
    # bit for bit
    jobs = [(pt, rp, rs, u) for u, rp, rs, pts in _CUTOFF_CASES for pt in pts] * 2
    alone = []
    for job in jobs:
        _mollifier_transform.cache_clear()
        alone.append(make_cutoff(*job).samples)
    _mollifier_transform.cache_clear()
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            got = list(pool.map(lambda job: make_cutoff(*job), jobs))
    finally:
        sys.setswitchinterval(switch)
    for job, phi, ref in zip(jobs, got, alone):
        assert np.array_equal(phi.samples, ref), job[0]
    assert _mollifier_transform.cache_info().currsize == 2  # one per grid and band


def test_windowed_cutoff_matches_the_full_grid_reference():
    # the convolution on the support window rounds differently from the
    # full-grid one, so equal to rounding, with the forced 0 and 1 exact;
    # (-0.72, 0.1) and (0.75,) put the window against the grid's edge
    step, kink = catalog_field("step2d"), catalog_field("kink")
    cases = _CUTOFF_CASES + [(step, 0.112, 0.28, [(-0.72, 0.1), (0.0078125, 0.6)]),
                             (kink, 0.1, 0.24, [(0.75,), (-0.6,)])]
    for u, rp, rs, pts in cases:
        mesh = u.meshgrid()
        for pt in pts:
            phi = make_cutoff(pt, rp, rs, u).samples
            dist = np.sqrt(sum((m - c) ** 2 for m, c in zip(mesh, pt)))
            assert np.abs(phi - _cutoff_reference(pt, rp, rs, u)).max() <= 1e-13, pt
            assert (phi[dist <= rp] == 1.0).all() and (phi[dist >= rs] == 0.0).all(), pt
            assert ((phi > 0.0) & (phi < 1.0)).any(), pt


def test_cutoff_fft_runs_on_the_support_window(monkeypatch):
    # at the wf-scan defaults on step2d (r_support 0.28) the padded window
    # is 128 per axis, against 512 for the whole 256^2 grid
    shapes = []
    rfftn = np.fft.rfftn
    monkeypatch.setattr(np.fft, "rfftn", lambda a, s, **kw: shapes.append(tuple(s)) or rfftn(a, s, **kw))
    u = catalog_field("step2d")
    rs = min(default_cutoff_radius(1, 2), 0.2 * u.spacing[0] * (u.sizes[0] - 1))
    _mollifier_transform.cache_clear()
    for pt in [(0.0, 0.0), (-0.7, 0.7), (0.42, -0.3)]:
        make_cutoff(pt, 0.4 * rs, rs, u)
    assert _mollifier_transform.cache_info().currsize == 1
    assert shapes and max(max(s) for s in shapes) <= 128


def _profile_of(values):
    """A profile with the given entries and no shell data, given the
    radius bins that make every entry usable."""
    vals = tuple(float(v) for v in values)
    return DecayProfile(entries=vals, cone=CONE1,
                        n_radial_bins=math.ceil(len(vals) / 0.8), nyquist=64.0, shells=())


def test_least_squares_fit_recovers_an_exact_envelope():
    A, h = 1.3, 0.8
    prof = _profile_of(log_envelope(N, 1, 2, math.log(A), math.log(h)) for N in range(31))
    log_a, log_h = _fit_constants_ls(prof, _family(1, 2, prof.usable_N(), False), 2)
    assert math.isclose(math.exp(log_a), A, rel_tol=1e-9)
    assert math.isclose(math.exp(log_h), h, rel_tol=1e-9)


def test_profile_too_short():
    with pytest.raises(ValueError, match="profile too short: 3 usable values"):
        wf_point_test(_profile_of([0.0, 1.0, 2.0]), 1, 2)


def test_wf_scan_delta_and_order():
    u = catalog_field("delta")
    params = ScanParams(r_plateau=0.15, r_support=0.35, xi_min=2.5, N_max=40)
    pts = [(0.0,), (0.6,)]
    verdicts = wf_scan(u, pts, 2, 1.0, 2.0, params)
    assert len(verdicts) == 4
    # point-major, direction-minor order
    assert [v.point for v in verdicts] == [(0.0,), (0.0,), (0.6,), (0.6,)]
    assert all(not v.regular for v in verdicts[:2])
    assert all(v.regular for v in verdicts[2:])


def test_wf_scan_takes_n_max_up_to_its_cap():
    u = catalog_field("kink")
    params = ScanParams(r_plateau=0.15, r_support=0.35, xi_min=2.5, N_max=MAX_N_MAX)
    verdicts = wf_scan(u, [(0.0,)], 2, 1.0, 2.0, params)
    assert [len(v.profile.entries) for v in verdicts] == [MAX_N_MAX + 1] * 2
    over = dataclasses.replace(params, N_max=MAX_N_MAX + 1)
    with pytest.raises(ValueError, match=f"N_max = {MAX_N_MAX + 1} exceeds {MAX_N_MAX}"):
        wf_scan(u, [(0.0,)], 2, 1.0, 2.0, over)


def test_wf_scan_error_aggregation():
    u = catalog_field("bump")
    params = ScanParams(r_plateau=0.15, r_support=0.35, xi_min=2.5, N_max=40)
    verdicts = wf_scan(u, [(0.95,), (0.0,)], 2, 1.0, 2.0, params)
    assert verdicts[0].error is not None
    assert verdicts[2].error is None and verdicts[2].regular


def test_step_scan_band_confinement():
    # singular only within one cell of the interface and one fan step of +-e1
    u = catalog_field("step2d")
    cell = u.spacing[0]
    params = ScanParams(r_plateau=0.12, r_support=0.35, xi_min=2.5, N_max=30)
    pts = [(-cell, 0.0), (0.0, 0.0), (cell, 0.0), (0.62, 0.0), (-0.62, 0.0)]
    verdicts = wf_scan(u, pts, 16, 1.0, 2.0, params)
    fan = 2 * math.pi / 16
    for v in verdicts:
        assert v.error is None
        ang = math.atan2(v.direction[1], v.direction[0])
        near_e1 = min(
            abs(math.remainder(ang - t, 2 * math.pi)) for t in (0.0, math.pi)
        ) <= fan + 1e-9
        near_interface = abs(v.point[0]) <= cell + 1e-12
        if not v.regular:
            assert near_interface and near_e1, v.to_dict()
        if near_interface and abs(ang) <= 1e-9:
            assert not v.regular


def test_step_scan_stable_under_fan_halving():
    # closedness proxy: no isolated flips when the direction fan is refined
    u = catalog_field("step2d")
    phi = make_cutoff((0.0, 0.0), 0.12, 0.35, u)

    def verdict_at(ang, half):
        cone = Cone((math.cos(ang), math.sin(ang)), half, 2.5)
        prof = directional_decay_profile(FrequencyGrid(u, [cone]).spectrum(phi), cone, 30)
        return wf_point_test(prof, 1, 2).regular

    coarse = {k: verdict_at(2 * math.pi * k / 8, math.pi / 8) for k in range(8)}
    fine = {k: verdict_at(2 * math.pi * k / 16, math.pi / 16) for k in range(16)}
    # every coarse direction reappears at the fine fan with the same verdict
    for k in range(8):
        assert coarse[k] == fine[2 * k], k


def test_singular_directions_contained_in_analytic_scale():
    # singular at (tau, sigma) implies singular under the analytic-scale
    # (1, 1) envelope on the catalog
    cases = [("delta", (0.0,)), ("kink", (0.0,))]
    for name, pt in cases:
        u = catalog_field(name)
        phi = make_cutoff(pt, 0.15, 0.4, u)
        for d in ((1.0,), (-1.0,)):
            cone = Cone(d, math.pi / 4, 2.5)
            prof = directional_decay_profile(FrequencyGrid(u, [cone]).spectrum(phi), cone, 40)
            if not wf_point_test(prof, 1, 2).regular:
                assert not wf_point_test(prof, 1.0, 1.0).regular, (name, d)
    # 2D step: the +-e1 directions flagged at (1,2) stay flagged at (1,1)
    u = catalog_field("step2d")
    phi = make_cutoff((0.0, 0.0), 0.12, 0.35, u)
    for ang in (0.0, math.pi):
        cone = Cone((math.cos(ang), math.sin(ang)), math.pi / 8, 2.5)
        prof = directional_decay_profile(FrequencyGrid(u, [cone]).spectrum(phi), cone, 30)
        assert not wf_point_test(prof, 1, 2).regular
        assert not wf_point_test(prof, 1.0, 1.0).regular


def test_wf_scan_transforms_each_point_once(monkeypatch):
    # one spectrum per cutoff, shared by the point's 16 directions
    calls = []
    fftn = np.fft.fftn
    monkeypatch.setattr(np.fft, "fftn", lambda a, *args, **kw: calls.append(1) or fftn(a, *args, **kw))
    u = catalog_field("step2d")
    params = ScanParams(r_plateau=0.12, r_support=0.35, xi_min=2.5, N_max=30)
    verdicts = wf_scan(u, [(0.0, 0.0), (0.62, 0.0), (0.95, 0.0)], 16, 1.0, 2.0, params)
    assert sum(v.error is None for v in verdicts) == 32  # (0.95, 0) leaves the grid
    assert len(calls) == 2


def _loop_shells(spectrum, cone):
    """The per-bin reference: first maximum of each radius index below
    half Nyquist, in the masked bins' row-major order."""
    freq = spectrum.freq
    idx = freq.bins[cone].idx
    mag, ridx, amp = freq.mag.flat[idx], freq.ridx.flat[idx], spectrum.amp.flat[idx]
    keep = amp > amp.max() * 1e-13
    mag, ridx, loga = mag[keep], ridx[keep], np.log(amp[keep])
    shells = {}
    for i in range(len(mag)):
        r, v = float(mag[i]), float(loga[i])
        if r > 0.5 * freq.nyquist:
            continue
        cur = shells.get(ridx[i])
        if cur is None or v > cur[1]:
            shells[ridx[i]] = (r, v)
    return tuple(shells[k] for k in sorted(shells))


def test_shells_match_the_per_bin_loop():
    kink = catalog_field("kink")
    step = catalog_field("step2d")
    fans = [Cone((math.cos(a), math.sin(a)), math.pi / 8, 2.5)
            for a in (0.0, 0.3, math.pi / 2, 2.0, math.pi)]
    cases = [
        (kink, make_cutoff((0.0,), 0.15, 0.4, kink), [Cone((1.0,), math.pi / 4, 2.5),
                                                       Cone((-1.0,), math.pi / 4, 2.5)]),
        (step, make_cutoff((0.0, 0.0), 0.12, 0.35, step), fans),
    ]
    for u, phi, cones in cases:
        spectrum = FrequencyGrid(u, cones).spectrum(phi)
        for cone in cones:
            shells = directional_decay_profile(spectrum, cone, 20).shells
            assert len(shells) > 10 and shells == _loop_shells(spectrum, cone), cone

    # ties: every bin of radius index 5 (|k| = 5 and sqrt(26) bins) at one amplitude
    u = GridField(2, (32, 32), (0.0, 0.0), (1 / 32, 1 / 32), np.zeros((32, 32)))
    cone = Cone((1.0, 1.0), math.pi / 4, 4.0)
    freq = FrequencyGrid(u, [cone])
    amp = np.random.default_rng(7).uniform(0.5, 1.0, u.sizes)
    in_cone = np.zeros(u.sizes, dtype=bool)
    in_cone.flat[freq.bins[cone].idx] = True
    tied = in_cone & (freq.ridx == 5)
    assert len(np.unique(freq.mag[tied])) >= 2
    amp[tied] = 2.0
    spectrum = Spectrum(freq, amp)
    shells = directional_decay_profile(spectrum, cone, 10).shells
    assert shells == _loop_shells(spectrum, cone)
    first = np.flatnonzero(tied)[0]
    assert (freq.mag.flat[first], math.log(2.0)) in shells


def _loop_sup(spectrum, cone, N_max):
    """The per-N reference of the sup: the max of N ln|xi| + ln|amp| over
    every bin above the floor in the cone's mask, built afresh."""
    mesh = _freq_mesh(spectrum.freq.field)
    mag = np.sqrt(sum(m**2 for m in mesh))
    mask = cone.contains(mesh, mag)
    mag, amp = mag[mask], spectrum.amp[mask]
    keep = amp > amp.max() * 1e-13
    mag, loga = mag[keep], np.log(amp[keep])
    return tuple(float((N * np.log(mag) + loga).max()) for N in range(N_max + 1))


_STAIR_GRIDS = [
    GridField(2, (24, 24), (0.0, 0.0), (1 / 24, 1 / 24), np.zeros((24, 24))),
    GridField(2, (16, 20), (0.0, 0.0), (1 / 16, 1 / 16), np.zeros((16, 20))),
    GridField(1, (64,), (0.0,), (1 / 64,), np.zeros(64)),
]


@st.composite
def _stair_cases(draw):
    """(grid, cone, amplitudes, N_max): amplitudes drawn from a small palette,
    so that bins of equal |xi| (the lattice's symmetric pairs) share their
    amplitude, with zeros, values under the 1e-13 floor and pairs a hair
    apart mixed in."""
    u = draw(st.sampled_from(_STAIR_GRIDS))
    if u.dim == 1:
        cone = Cone((draw(st.sampled_from([1.0, -1.0])),), math.pi / 4, 4.0)
    else:
        ang = draw(st.floats(0.0, 2 * math.pi))
        cone = Cone((math.cos(ang), math.sin(ang)), draw(st.sampled_from([0.2, 0.5, 1.2])), 4.0)
    base = draw(st.lists(st.floats(1e-6, 1e3), min_size=1, max_size=6))
    palette = base + [b * (1 + 1e-12) for b in base[:2]] + [0.0, base[0] * 1e-15]
    weights = np.array(draw(st.lists(st.integers(0, 5), min_size=len(palette), max_size=len(palette)))) + 1e-9
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amp = np.array(palette)[rng.choice(len(palette), size=u.sizes, p=weights / weights.sum())]
    if draw(st.booleans()):  # the same amplitude on every bin of a radius
        amp = np.array(palette)[np.round(_grid_mag(u)).astype(int) % len(palette)]
    return u, cone, amp, draw(st.integers(0, 60))


def _freq_mesh(u):
    return np.meshgrid(*(np.fft.fftfreq(n, d=s) for n, s in zip(u.sizes, u.spacing)), indexing="ij")


def _grid_mag(u):
    return np.sqrt(sum(m**2 for m in _freq_mesh(u)))


def _one_ulp_case(equal_mag):
    """A stair case whose two loudest cone bins are one ulp apart, the
    rest 1e-3: at equal |xi| the first in table order louder (the other
    must drop), or else the bin just inside the largest |xi| louder (it
    wins N = 0 alone)."""
    u, cone = _STAIR_GRIDS[0], Cone((1.0, 0.0), 0.5, 4.0)
    mag = _grid_mag(u)
    inside = np.flatnonzero(cone.contains(_freq_mesh(u), mag))
    order = inside[np.argsort(-mag.flat[inside], kind="stable")]
    m = mag.flat[order]
    if equal_mag:
        k = np.flatnonzero(m[:-1] == m[1:])[0]
        loud, quiet = order[k], order[k + 1]
    else:
        loud, quiet = order[np.argmax(m < m[0])], order[0]
    amp = np.full(u.sizes, 1e-3)
    amp.flat[quiet], amp.flat[loud] = 1.0, np.nextafter(1.0, 2.0)
    return u, cone, amp, 60


@settings(max_examples=300, deadline=None)
@given(case=_stair_cases())
# the outer bins lie under the floor, where they would win every large N
@example(case=(_STAIR_GRIDS[0], Cone((1.0, 0.0), 0.5, 4.0),
               np.where(_grid_mag(_STAIR_GRIDS[0]) >= 6.0, 1e-15, 1.0), 60))
# one-ulp ties: two bins of equal |xi|, and a bin of slightly smaller |xi|
@example(case=_one_ulp_case(equal_mag=True))
@example(case=_one_ulp_case(equal_mag=False))
def test_staircase_sup_equals_the_per_N_loop(case):
    u, cone, amp, N_max = case
    freq = FrequencyGrid(u, [cone])
    assert freq.bins[cone].idx.size
    spectrum = Spectrum(freq, amp)
    prof = directional_decay_profile(spectrum, cone, N_max)
    if amp.flat[freq.bins[cone].idx].max() == 0.0:
        assert prof.entries == (-math.inf,) * (N_max + 1)
        return
    assert prof.entries == _loop_sup(spectrum, cone, N_max)


def _ref_band_points(shells):
    """The per-band comprehension: the first maximum of each log-uniform band."""
    if not shells:
        return []
    r_lo, r_hi = shells[0][0], shells[-1][0]
    if r_hi <= r_lo:
        return [shells[0]]
    edges = np.exp(np.linspace(math.log(r_lo), math.log(r_hi) + 1e-9, N_BANDS + 1))
    pts = []
    for b in range(N_BANDS):
        band = [(r, g) for r, g in shells if edges[b] <= r < edges[b + 1]]
        if band:
            pts.append(max(band, key=lambda t: t[1]))
    return pts


@st.composite
def _drawn_shells(draw):
    """Shells whose radii include the band edges themselves and whose
    values repeat, in radius order or not."""
    r_lo, r_hi = sorted(draw(st.lists(st.floats(0.5, 200.0), min_size=2, max_size=2)))
    edges = np.exp(np.linspace(math.log(r_lo), math.log(r_hi) + 1e-9, N_BANDS + 1)).tolist()
    radius = st.one_of(st.sampled_from(edges), st.floats(0.8 * r_lo, 1.2 * r_hi))
    value = st.one_of(st.sampled_from([-3.0, 0.0, 2.5]), st.floats(-50.0, 50.0))
    inner = draw(st.lists(st.tuples(radius, value), max_size=30))
    if draw(st.booleans()):
        inner.sort()
    ends = [(r_lo, draw(value)), (r_hi, draw(value))]
    return tuple([ends[0]] + inner + [ends[1]]) if draw(st.booleans()) else tuple(inner)


@settings(max_examples=400, deadline=None)
@given(shells=_drawn_shells())
def test_band_envelope_points_match_the_per_band_comprehension(shells):
    assert _band_envelope_points(shells) == _ref_band_points(shells)


# Reference verdicts: the direct and the factorial-form tests written out
# as separate loops (order search, and for the factorial form a constants
# fit and a cover loop), with the thresholds 0.8 / 6 / 1 spelled out.  The
# one family-generic path must reproduce both.


def _ref_family_order(tau, sigma, log_r, n_cap):
    best_n, best_v = 0, 0.0
    for N in range(1, max(n_cap, 1) + 1):
        v = log_M(tau, sigma, N) - N * log_r
        if v < best_v:
            best_n, best_v = N, v
    return best_n


def _ref_enumerated_family_order(tau, sigma, log_r, n_cap):
    m_cap = min(int(float(max(n_cap, 1)) ** sigma) + 1, 20_000)
    best_k, best_v = 0, 0.0
    for N in range(1, m_cap + 1):
        k = int(math.floor(N ** (1.0 / sigma) + 1e-12))
        v = (tau / sigma) * log_factorial(N) - k * log_r
        if v < best_v:
            best_k, best_v = k, v
    return best_k


def _ref_enumerated_constants(profile, tau, sigma, n_lo, n_hi):
    m_hi = max(2, int(math.floor(float(max(n_hi - 1, 1)) ** sigma)))
    s1 = []
    for M in range(1, m_hi + 1):
        k = int(math.floor(M ** (1.0 / sigma) + 1e-12))
        if k > profile.N_max or k >= n_hi:
            break
        v = profile.entries[k]
        if v == -math.inf:
            continue
        s1.append((v - (tau / sigma) * log_factorial(M)) / M)
    log_h1 = max(s1) if s1 else 0.0
    log_a1 = 0.0
    m_cov = int(math.floor(float(max(n_lo, 1)) ** sigma))
    for M in range(1, m_cov + 1):
        k = int(math.floor(M ** (1.0 / sigma) + 1e-12))
        if k > n_lo:
            break
        v = profile.entries[k]
        if v == -math.inf:
            continue
        log_a1 = max(log_a1, v - M * log_h1 - (tau / sigma) * log_factorial(M))
    return log_a1, log_h1


def _ref_fit_constants_ls(profile, tau, sigma, n_hi):
    """The least-squares fit with ln M_N taken per N, as it was before the
    fit read the cached direct family."""
    ns_list, ys = [], []
    for N in range(0, max(n_hi, 2)):
        v = profile.entries[N]
        if v == -math.inf:
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


def _ref_wf_point_test(profile, tau, sigma, point=()):
    n_use = min(profile.N_max, int(0.8 * profile.n_radial_bins))
    if n_use + 1 < 6:
        raise ValueError(f"profile too short: {n_use + 1} usable values")
    verdict = functools.partial(
        WavefrontVerdict, point=point, direction=profile.cone.direction, tau=tau,
        sigma=sigma, nyquist=profile.nyquist, n_usable=n_use,
    )
    if not [v for v in profile.entries[: n_use + 1] if v != -math.inf]:
        return verdict(regular=True, A_hat=0.0, h_hat=1.0)
    order, log_edge = _measured_decay_order(profile.shells)
    if order is None:
        regular, required = True, None
    else:
        required = float(_ref_family_order(tau, sigma, log_edge, n_use) + 1)
        regular = order >= required
    log_a, log_h = _ref_fit_constants_ls(profile, tau, sigma, n_use + 1)
    return verdict(
        regular=regular,
        A_hat=math.exp(log_a) if regular else None,
        h_hat=math.exp(log_h) if regular else None,
        decay_order=order,
        required_order=required,
    )


def _ref_equivalence_detail(profile, tau, sigma):
    direct = _ref_wf_point_test(profile, tau, sigma)
    n_use = min(profile.N_max, int(0.8 * profile.n_radial_bins))
    if not [v for v in profile.entries[: n_use + 1] if v != -math.inf]:
        return True, direct.regular, True
    order, log_edge = _measured_decay_order(profile.shells)
    if order is None:
        accept = True
    else:
        required = float(_ref_enumerated_family_order(tau, sigma, log_edge, n_use) + 1)
        accept = order >= required
    if accept:
        log_a1, log_h1 = _ref_enumerated_constants(profile, tau, sigma, n_use, n_use + 1)
        for M in range(1, int(math.floor(float(n_use) ** sigma)) + 1):
            k = int(math.floor(M ** (1.0 / sigma) + 1e-12))
            if k > n_use:
                break
            v = profile.entries[k]
            if v == -math.inf:
                continue
            if v > log_a1 + M * log_h1 + (tau / sigma) * log_factorial(M) + 1e-9:
                accept = False
                break
    return direct.regular == accept, direct.regular, accept


def _outcome(fn, *args):
    try:
        out = fn(*args)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)
    return out.to_dict() if isinstance(out, WavefrontVerdict) else out


TAU_SIGMA = [(1, 2), (0.5, 3), (2, 1.5), (1, 1), (0.25, 1.25)]


def _assert_matches_references(prof, tau, sigma):
    assert _outcome(wf_point_test, prof, tau, sigma) == _outcome(_ref_wf_point_test, prof, tau, sigma)
    assert _outcome(enumeration_equivalence_detail, prof, tau, sigma) == _outcome(
        _ref_equivalence_detail, prof, tau, sigma
    )
    order, log_edge = _measured_decay_order(prof.shells)
    if order is not None:  # the factorial form's required order, which the tuple hides
        n_use = prof.usable_N()
        required = _family_verdict(prof, tau, sigma, n_use, factorial=True)[2]
        assert required == _ref_enumerated_family_order(tau, sigma, log_edge, n_use) + 1


def test_family_verdicts_match_the_references_on_the_catalog():
    cases = []
    for name in ("delta", "bump", "kink"):
        u = catalog_field(name)
        for x0 in (0.0, 0.6):
            cones = [Cone(d, math.pi / 4, 2.5) for d in ((1.0,), (-1.0,))]
            spectrum = FrequencyGrid(u, cones).spectrum(make_cutoff((x0,), 0.15, 0.35, u))
            cases += [directional_decay_profile(spectrum, c, 40) for c in cones]
    step = catalog_field("step2d")
    cones = [Cone((math.cos(a), math.sin(a)), math.pi / 16, 2.5)
             for a in (2 * math.pi * k / 16 for k in range(16))]
    spectrum = FrequencyGrid(step, cones).spectrum(make_cutoff((0.0, 0.0), 0.12, 0.35, step))
    cases += [directional_decay_profile(spectrum, c, 30) for c in cones]
    for prof in cases:
        for tau, sigma in TAU_SIGMA:
            _assert_matches_references(prof, tau, sigma)
