"""Acceptance suite: one test per criterion, printing PASS/FAIL lines.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
Criterion 1c checks that the (M.3)' partial-sum increments fall below
1e-12 on the whole grid, at the first index p* that the definition fixes
(p* = P or P + 1 by the mean value theorem on ln M_p), and stay there.
Its original wording, "before p = 50", is false at the small corners of
the (tau, sigma) grid (the increment at p = 50 for tau = 0.25,
sigma = 1.25 is about 2.03e-2); see the analysis in the test's docstring.
"""

import math
import os

import numpy as np

from conftest import measure_spec_sups, oracle_pairs, smooth_bump

from gevreykit.cli import main
from gevreykit.faadibruno import (
    CompositionBoundInput,
    fdb_derivative,
    lemma23_constant_search,
    lemma23_ratio,
    reciprocal_log_bound,
    superposition_log_bound,
)
from gevreykit.funcspec import (
    ComposeSpec,
    CosSpec,
    ExpSpec,
    PolySpec,
    RecipPowSpec,
    SinSpec,
    SumSpec,
)
from gevreykit.jets import jet_compose, jet_of, jet_partial
from gevreykit.multiindex import (
    composition_multinomial_sum,
    decomposition_census,
    enumerate_decompositions,
    mi_of_order,
)
from gevreykit.parametrix import (
    DiffOperator,
    bound_audit,
    build_reduction_operators,
    neumann_sums,
    residual_identity_check,
    word_count_recurrence,
    word_weight,
)
from gevreykit.regularity import fit_regularity, synthetic_growth
from gevreykit.sequences import DefiningSequence
from gevreykit.wavefront import (
    Cone,
    FrequencyGrid,
    ScanParams,
    catalog_field,
    directional_decay_profile,
    enumeration_equivalence_detail,
    make_cutoff,
    wf_point_test,
    wf_scan,
)

SEQ_GRID = [(t, s) for t in (0.25, 0.5, 1.0, 2.0) for s in (1.25, 1.5, 2.0, 3.0)]
PARTITIONS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135, 176,
              231, 297, 385, 490, 627]


def test_criterion_1a_m1_holds_on_grid():
    for tau, sigma in SEQ_GRID:
        seq = DefiningSequence(tau, sigma)
        for p in range(1, 201):
            rhs = seq.log_M(p - 1) + seq.log_M(p + 1)
            assert 2.0 * seq.log_M(p) <= rhs + 1e-12 * max(1.0, abs(rhs))
    print("ACCEPTANCE 1a (M.1 log-convexity, full grid, p <= 200): PASS")


def test_criterion_1b_ratio_bound_on_grid():
    for tau, sigma in SEQ_GRID:
        seq = DefiningSequence(tau, sigma)
        for p in range(1, 201):
            lhs = seq.log_M(p - 1) - seq.log_M(p)
            rhs = -tau * float(p - 1) ** (sigma - 1.0) * math.log(2.0 * p)
            assert lhs <= rhs + 1e-12
    print("ACCEPTANCE 1b (post-Lemma-2.1 ratio bound, full grid): PASS")


def test_criterion_1c_m3prime_increments_before_50():
    """(M.3)' partial-sum increments M_{p-1}/M_p reach the 1e-12 level.

    "before_50" is the criterion's original wording: below 1e-12 before
    p = 50 on the whole grid.  That index does not follow from the paper
    and is false at five small corners: at (0.25, 1.25), p = 50 the
    increment is e^{-3.897} ~ 2.03e-2 and the first index below 1e-12 is
    7027.  The definition itself fixes the index.  With
    f(x) = tau x^sigma ln x (so ln M_p = f(p)), the derivative
    f'(x) = tau x^(sigma-1) (sigma ln x + 1) increases on x >= 1, and by
    the mean value theorem

        f'(p-1) <= ln M_p - ln M_{p-1} <= f'(p).

    Hence the first index p* whose increment is below 1e-12 is P or
    P + 1, where P = min{p >= 2 : f'(p) > 12 ln 10}.  The increments
    then stay below 1e-12; this is checked up to the Lemma 2.1 index
    Q = min{p : tau (p-1)^(sigma-1) ln(2p) > 12 ln 10} (13,692 at the
    worst corner), past which Lemma 2.1's bound holds them there.
    """
    level = math.log(1e-12)

    def first_index(pred):
        p = 2
        while not pred(p):
            p += 1
        return p

    first = {}
    for tau, sigma in SEQ_GRID:
        seq = DefiningSequence(tau, sigma)
        P = first_index(
            lambda p: tau * p ** (sigma - 1.0) * (sigma * math.log(p) + 1.0)
            > -level
        )
        Q = first_index(
            lambda p: tau * (p - 1) ** (sigma - 1.0) * math.log(2.0 * p) > -level
        )
        below = [
            seq.log_M(p - 1) - seq.log_M(p) < level for p in range(2, Q + 1)
        ]
        assert any(below), f"no increment below 1e-12 up to p = {Q} at {(tau, sigma)}"
        p_star = below.index(True) + 2
        assert p_star in (P, P + 1), (
            f"p* = {p_star} outside the bracket {{{P}, {P + 1}}} at {(tau, sigma)} "
            "(see the analysis in this test's docstring)"
        )
        assert all(below[p_star - 2:]), f"increment back above 1e-12 at {(tau, sigma)}"
        first[(tau, sigma)] = p_star
    n_before_50 = sum(p < 50 for p in first.values())
    print(
        "ACCEPTANCE 1c ((M.3)' increments < 1e-12 from p* in {P, P+1} on, "
        f"full grid; p* = {first}; p* < 50 at {n_before_50} of {len(first)}): PASS"
    )


def test_criterion_2_exact_combinatorics():
    for n in range(1, 21):
        assert composition_multinomial_sum(n) == 2 ** (n - 1)
    for d in (1, 2, 3):
        for n in range(1, 7):
            for alpha in mi_of_order(d, n):
                count, bound, ok = decomposition_census(alpha)
                assert ok
    for n in range(1, 21):
        count, _, _ = decomposition_census((n,))
        assert count == PARTITIONS[n]
    print("ACCEPTANCE 2 (exact combinatorics: 2^(n-1), census, partitions): PASS")


def test_criterion_3_oracle_equivalence():
    pairs = oracle_pairs()
    assert len(pairs) >= 20
    checked = 0
    for f, g, at, exact in pairs:
        d = g.dim
        g_jet = jet_of(g, at, 6)
        f_jet = jet_of(f, (g_jet.value,), 6)
        comp = jet_compose(f_jet, g_jet)
        for n in range(0, 7):
            for alpha in mi_of_order(d, n):
                got = fdb_derivative(f, g, alpha, at)
                want = jet_partial(comp, alpha)
                if exact:
                    assert got == want, (f, g, alpha)
                else:
                    tol = 1e-9 * max(abs(complex(want)), 1.0)
                    assert abs(complex(got) - complex(want)) <= tol, (f, g, alpha)
                checked += 1
    print(f"ACCEPTANCE 3 (chain rule vs jet oracle, {len(pairs)} pairs, "
          f"{checked} derivatives): PASS")


def test_criterion_4_lemma23_exhaustive_and_stable():
    for tau in (0.5, 1.0, 2.0):
        for sigma in (1.5, 2.0, 3.0):
            seq = DefiningSequence(tau, sigma)
            f10 = lemma23_constant_search(seq, 10)
            f12 = lemma23_constant_search(seq, 12)
            assert abs(math.expm1(f12.log_C - f10.log_C)) <= 0.01, (tau, sigma)
            logc = f12.log_C
            for k in range(1, 13):
                for dec in enumerate_decompositions((k,)):
                    parts = []
                    for p, mult in zip(dec.parts, dec.multiplicities):
                        parts.extend([p[0]] * mult)
                    r = lemma23_ratio(seq, len(parts), parts)
                    assert r <= float(k) ** sigma * logc + 1e-9, (tau, sigma, parts)
    print("ACCEPTANCE 4 (splitting inequality exhaustive k <= 12, stable fit): PASS")


DOMINATION_PAIRS = [
    (ExpSpec(), SinSpec()),
    (SinSpec(), PolySpec((0, 0, 1))),
    (ExpSpec(), PolySpec((0, 0, 0.5))),
    (PolySpec((0, 0, 1)), SinSpec()),
    (CosSpec(), PolySpec((0.1, 1, 0.2))),
    (ExpSpec(), CosSpec()),
]

RECIP_CASES = [
    (SumSpec(PolySpec((2,)), SinSpec()), 1.0),
    (SumSpec(PolySpec((2,)), CosSpec()), 1.0),
    (PolySpec((2, 0, 1)), 2.0),
]


def test_criterion_5_bound_domination():
    xs = np.linspace(-1.0, 1.0, 41)
    n_max = 8
    seq = DefiningSequence(1, 2)
    assert len(DOMINATION_PAIRS) >= 5 and len(RECIP_CASES) >= 3
    for f, g in DOMINATION_PAIRS:
        g_sups = measure_spec_sups(g, xs, n_max)
        image = sorted(float(g.eval(float(x))) for x in xs)
        f_sups = measure_spec_sups(f, image, n_max)
        A = 1.0
        for sups in (g_sups, f_sups):
            for n, s in enumerate(sups):
                if s > 0:
                    A = max(A, s / math.exp(seq.log_M(n)))
        inp = CompositionBoundInput(1.0, 2.0, 1.0, 1.0, A)
        comp_sups = measure_spec_sups(ComposeSpec(f, g), xs, n_max)
        for n in range(1, n_max + 1):
            bound = superposition_log_bound(inp, (n,))
            if comp_sups[n] > 0:
                assert math.log(comp_sups[n]) <= bound + 1e-9, (f, g, n)
    for phi, min_abs in RECIP_CASES:
        sups_phi = measure_spec_sups(phi, xs, n_max)
        A = 1.0
        for n, s in enumerate(sups_phi):
            if s > 0:
                A = max(A, s / math.exp(seq.log_M(n)))
        inp = CompositionBoundInput(1.0, 2.0, 1.0, 1.0, A)
        recip_sups = measure_spec_sups(ComposeSpec(RecipPowSpec(1), phi), xs, n_max)
        for n in range(1, n_max + 1):
            bound = reciprocal_log_bound(inp, (n,), min_abs)
            if recip_sups[n] > 0:
                assert math.log(recip_sups[n]) <= bound + 1e-9, (phi, n)
    print(f"ACCEPTANCE 5 (superposition/reciprocal bound domination, "
          f"{len(DOMINATION_PAIRS)}+{len(RECIP_CASES)} cases, |alpha| <= 8): PASS")


def test_criterion_6_regularity_fit_round_trip():
    data = synthetic_growth(1.0, 2.0, 1.0, 1.0, 24)
    fit = fit_regularity(data, [1.5, 2.0, 2.5, 3.0])
    assert fit.sigma_hat == 2.0
    assert abs(fit.tau_hat - 1.0) <= 0.1
    print("ACCEPTANCE 6 (regularity fit round trip sigma = 2, tau within 10%): PASS")


def test_criterion_7_wavefront_scans():
    n_audits = 0
    n_agree = 0

    def audited_verdict(u, phi, cone, tau, sigma):
        nonlocal n_audits, n_agree
        prof = directional_decay_profile(FrequencyGrid(u, [cone]).spectrum(phi), cone, 40)
        v = wf_point_test(prof, tau, sigma)
        n_audits += 1
        n_agree += int(enumeration_equivalence_detail(prof, tau, sigma)[0])
        return v

    # bump: zero singular verdicts anywhere
    bump = catalog_field("bump")
    for x0 in (-0.3, 0.0, 0.3):
        phi = make_cutoff((x0,), 0.15, 0.4, bump)
        for d in ((1.0,), (-1.0,)):
            v = audited_verdict(bump, phi, Cone(d, math.pi / 4, 2.5), 1.0, 2.0)
            assert v.regular, (x0, d)

    # delta: singular in all directions at its location, regular beyond r_support
    delta = catalog_field("delta")
    phi0 = make_cutoff((0.0,), 0.15, 0.35, delta)
    for d in ((1.0,), (-1.0,)):
        assert not audited_verdict(delta, phi0, Cone(d, math.pi / 4, 2.5), 1, 2).regular
    phi_far = make_cutoff((0.6,), 0.15, 0.35, delta)
    for d in ((1.0,), (-1.0,)):
        assert audited_verdict(delta, phi_far, Cone(d, math.pi / 4, 2.5), 1, 2).regular

    # 2D step: singular confined to a 2-cell band and one fan step of +-e1
    step = catalog_field("step2d")
    cell = step.spacing[0]
    params = ScanParams(r_plateau=0.12, r_support=0.35, xi_min=2.5, N_max=30)
    pts = [(-cell, 0.0), (0.0, 0.0), (cell, 0.0), (0.62, 0.0), (-0.62, 0.0)]
    verdicts = wf_scan(step, pts, 16, 1.0, 2.0, params)
    fan = 2 * math.pi / 16
    singular_found = False
    for v in verdicts:
        assert v.error is None, v.to_dict()
        ang = math.atan2(v.direction[1], v.direction[0])
        near_e1 = min(
            abs(math.remainder(ang - t, 2 * math.pi)) for t in (0.0, math.pi)
        ) <= fan + 1e-9
        near_interface = abs(v.point[0]) <= cell + 1e-12
        if not v.regular:
            singular_found = True
            assert near_interface, v.to_dict()
            assert near_e1, v.to_dict()
        if near_interface and min(abs(ang), abs(abs(ang) - math.pi)) <= 1e-9:
            assert not v.regular, v.to_dict()
    assert singular_found
    # audit the step profiles as well
    phi_step = make_cutoff((0.0, 0.0), 0.12, 0.35, step)
    for k in range(8):
        ang = 2 * math.pi * k / 8
        audited_verdict(step, phi_step, Cone((math.cos(ang), math.sin(ang)),
                                             math.pi / 8, 2.5), 1.0, 2.0)

    assert n_agree == n_audits
    print(f"ACCEPTANCE 7 (wave-front scans; equivalence audit {n_agree}/{n_audits}): PASS")


PARAMETRIX_OPS = {
    "D": DiffOperator(1, 1, {(1,): PolySpec((1,))}),
    "D+x": DiffOperator(1, 1, {(1,): PolySpec((1,)), (0,): PolySpec((0, 1))}),
    "D^2": DiffOperator(2, 1, {(2,): PolySpec((1,))}),
    "D^2+sin*D+1": DiffOperator(
        2, 1, {(2,): PolySpec((1,)), (1,): SinSpec(), (0,): PolySpec((1,))}
    ),
    "(2+sin)*D": DiffOperator(1, 1, {(1,): SumSpec(PolySpec((2,)), SinSpec())}),
    "D^3": DiffOperator(3, 1, {(3,): PolySpec((1,))}),
}

X_GRID = np.linspace(-0.85, 0.85, 256)
XI_SAMPLES = [float(v) for v in np.geomspace(6.0, 64.0, 33)]
PHI = smooth_bump(1.5)


def test_criterion_8_parametrix_identity():
    worst = 0.0
    for name, P in PARAMETRIX_OPS.items():
        system = build_reduction_operators(P)
        for N in range(P.order, 11):
            sums = neumann_sums(system, PHI, N=N, x_grid=X_GRID, xi_samples=XI_SAMPLES)
            res = residual_identity_check(sums)
            worst = max(worst, res)
            assert res <= 1e-8, (name, N, res)
            for w in sums.e_words:
                assert N - P.order < word_weight(w) <= N
    # constant-coefficient degeneration matches the geometric sum to 1e-12
    system = build_reduction_operators(PARAMETRIX_OPS["D"])
    N = 8
    sums = neumann_sums(system, PHI, N=N, x_grid=X_GRID, xi_samples=XI_SAMPLES[:5])
    tables = {
        n: np.array(
            [complex(jet_partial(jet_of(PHI, (float(p),), N), (n,))) for p in X_GRID]
        )
        for n in range(N)
    }
    for i, xi in enumerate(sums.xi_samples):
        closed = sum((1.0 / xi[0]) ** k * (-1j) ** k * tables[k] for k in range(N))
        assert np.max(np.abs(closed - sums.w_values[i])) <= 1e-12
    print(f"ACCEPTANCE 8 (parametrix identity residual <= 1e-8, worst {worst:.2e}; "
          "constant-coefficient degeneration 1e-12): PASS")


def test_criterion_9_homogeneity_and_word_counts():
    for name, P in PARAMETRIX_OPS.items():
        system = build_reduction_operators(P)
        for op in system.operators:
            for coeff in op.action.values():
                for key in coeff:
                    assert system.algebra.degree(key) == -op.j, (name, op.j)
    # word counts match the recurrence and stay under a stable A*C^N envelope
    for m in (1, 2, 3):
        counts = {}
        for N in range(m, 13):
            from gevreykit.parametrix import enumerate_words

            words = enumerate_words(m, N - m)
            expected = sum(word_count_recurrence(m, v) for v in range(N - m + 1))
            assert len(words) == expected, (m, N)
            counts[N] = len(words)
        ratios = [counts[N + 1] / counts[N] for N in range(m + 1, 12)]
        C = max(ratios)
        A = max(counts[N] / C**N for N in counts)
        assert all(counts[N] <= A * C**N + 1e-9 for N in counts)
        assert max(ratios[-3:]) <= C + 1e-9  # envelope stable in N
    print("ACCEPTANCE 9 (symbolic homogeneity exact; word-count law m <= 3, N <= 12): PASS")


def test_criterion_10_bound_audits():
    system = build_reduction_operators(PARAMETRIX_OPS["D^2+sin*D+1"])
    sums = neumann_sums(system, PHI, N=8, x_grid=X_GRID, xi_samples=XI_SAMPLES[::4])
    rep = bound_audit(sums, beta_max=4, tau=1.0, sigma=2.0)
    assert rep.leibniz_violations == 0
    assert rep.leibniz_terms_checked > 0
    assert all(
        math.isfinite(log_a) and math.isfinite(log_h)
        for log_a, log_h in rep.coefficient_log_fits.values()
    )
    system2 = build_reduction_operators(PARAMETRIX_OPS["(2+sin)*D"])
    sums2 = neumann_sums(system2, PHI, N=6, x_grid=X_GRID, xi_samples=XI_SAMPLES[::8])
    rep2 = bound_audit(sums2, beta_max=4, tau=1.0, sigma=2.0)
    assert rep2.ok()
    print(f"ACCEPTANCE 10 (envelope fits finite; Leibniz bookkeeping on "
          f"{rep.leibniz_terms_checked} terms, zero violations): PASS")


def test_criterion_11_determinism(tmp_path):
    fields = os.path.join(tmp_path, "fields")
    assert main(["catalog", "--out", fields]) == 0
    jobs = [
        ["seq-audit", "--tau", "1", "--sigma", "2", "--pmax", "60"],
        ["lemma23", "--tau", "1", "--sigma", "2", "--kmax", "10"],
        ["fdb", "--f", "exp", "--g", "sin", "--alpha", "4", "--at", "0.3",
         "--check-jet"],
        ["decomp", "--alpha", "2,2", "--census"],
        ["parametrix", "--op", "D^2 + sin*D + poly:1", "--N", "5",
         "--cone", "1,0.4,6", "--phi", "0,0.15,0.4", "--grid", "128"],
        ["wf-scan", "--field", os.path.join(fields, "delta.gf"),
         "--points", "0.0;0.6", "--dirs", "2", "--tau", "1", "--sigma", "2",
         "--rp", "0.15", "--rs", "0.35"],
    ]
    for i, job in enumerate(jobs):
        a = os.path.join(tmp_path, f"a{i}.json")
        b = os.path.join(tmp_path, f"b{i}.json")
        assert main(job + ["--out", a]) == 0
        assert main(job + ["--out", b]) == 0
        assert open(a, "rb").read() == open(b, "rb").read(), job
    print("ACCEPTANCE 11 (byte-identical reports on repeated runs): PASS")
