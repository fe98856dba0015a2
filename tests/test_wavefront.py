import math
import os

import numpy as np
import pytest

from gevreykit.regularity import fit_regularity, measure_derivative_growth
from gevreykit.wavefront import (
    Cone,
    FrequencyGrid,
    GridField,
    ScanParams,
    Spectrum,
    catalog_field,
    default_cutoff_radius,
    directional_decay_profile,
    enumeration_equivalence_detail,
    envelope_holds,
    make_cutoff,
    read_gridfield,
    synthetic_profile,
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
    vals = phi.profile.samples
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


def test_cutoff_growth_admissible_for_requested_class():
    u = catalog_field("bump")
    phi = make_cutoff((0.0,), 0.15, 0.4, u)
    data = measure_derivative_growth(
        phi.profile.samples, u.spacing[0], n_max=8
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
    prof = directional_decay_profile(FrequencyGrid(u, [CONE1]).spectrum(phi), CONE1, 30)
    # flat transform: entries grow like N log xi_max, sup pinned at the edge
    slopes = [prof.entries[N + 1] - prof.entries[N] for N in range(8)]
    assert all(abs(s - math.log(prof.xi_max)) < 0.05 for s in slopes[1:])
    assert all(r == prof.xi_max for r in prof.sup_radius[1:8])


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
    assert envelope_holds(prof, 1.0, 2.0, v.A_hat, v.h_hat)
    assert envelope_holds(prof, 2.0, 2.0, v.A_hat, v.h_hat)
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
        big = make_cutoff((0.0,), 0.15, 0.4, u)
        small = make_cutoff((0.0,), 0.08, 0.2, u)
        for phi in (big, small):
            prof = directional_decay_profile(FrequencyGrid(u, [CONE1]).spectrum(phi), CONE1, 40)
            assert wf_point_test(prof, 1, 2).regular == expect, (name, phi.r_support)


def test_synthetic_profile_rules():
    # exact envelope accepted with recovered constants
    A, h = 1.3, 0.8
    vals = [
        math.log(A) + (N**2) * math.log(h) + ((N**2) * math.log(N) if N > 1 else 0.0)
        for N in range(31)
    ]
    prof = synthetic_profile(vals, CONE1, xi_max=64.0)
    v = wf_point_test(prof, 1, 2)
    assert v.regular
    assert abs(v.A_hat - A) / A <= 0.05
    assert abs(v.h_hat - h) / h <= 0.05
    # flat profile rejected for every tested class
    flat = synthetic_profile([N * math.log(64.0) for N in range(31)], CONE1, 64.0)
    for tau, sigma in [(1, 2), (0.5, 3), (2, 1.5)]:
        assert not wf_point_test(flat, tau, sigma).regular
    # both families agree on both
    assert enumeration_equivalence_detail(prof, 1, 2) == (True, True, True)
    assert enumeration_equivalence_detail(flat, 1, 2) == (True, False, False)


def test_profile_too_short():
    prof = synthetic_profile([0.0, 1.0, 2.0], CONE1, 64.0)
    with pytest.raises(ValueError):
        wf_point_test(prof, 1, 2)


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
    # threads do not change results
    verdicts2 = wf_scan(u, pts, 2, 1.0, 2.0, params, threads=2)
    assert [v.to_dict() for v in verdicts2] == [v.to_dict() for v in verdicts]


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
    mask = freq.masks[cone]
    mag, ridx, amp = freq.mag[mask], freq.ridx[mask], spectrum.amp[mask]
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
    tied = freq.masks[cone] & (freq.ridx == 5)
    assert len(np.unique(freq.mag[tied])) >= 2
    amp[tied] = 2.0
    spectrum = Spectrum(freq, amp, "ties")
    shells = directional_decay_profile(spectrum, cone, 10).shells
    assert shells == _loop_shells(spectrum, cone)
    first = np.flatnonzero(tied)[0]
    assert (freq.mag.flat[first], math.log(2.0)) in shells


def test_wf_scan_2d_threads_bit_equal():
    u = catalog_field("step2d")
    params = ScanParams(r_plateau=0.12, r_support=0.35, xi_min=2.5, N_max=30)
    pts = [(0.0, 0.0), (0.0078125, 0.0), (0.62, 0.0), (0.95, 0.0)]
    one = wf_scan(u, pts, 16, 1.0, 2.0, params, threads=1)
    two = wf_scan(u, pts, 16, 1.0, 2.0, params, threads=2)
    assert [(v.to_dict(), v.profile) for v in two] == [(v.to_dict(), v.profile) for v in one]
    assert sum(v.profile is not None for v in one) == 48
