import functools
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gevreykit.faadibruno import lemma23_constant_search, lemma23_ratio
from gevreykit.multiindex import enumerate_decompositions
from gevreykit.sequences import (
    DefiningSequence,
    _first_max,
    audit_sequence,
    log_envelope,
    log_M,
    normalized_excess,
)

GRID = [(t, s) for t in (0.25, 0.5, 1.0, 2.0) for s in (1.25, 1.5, 2.0, 3.0)]


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


def test_eval_examples():
    assert math.isclose(DefiningSequence(1, 2).log_M(2), math.log(16))
    assert DefiningSequence(0.7, 1.6).log_M(1) == 0.0
    assert DefiningSequence(1, 2).log_M(0) == 0.0
    assert math.isclose(DefiningSequence(1, 2).log_M(3), math.log(19683))


@given(
    tau=st.floats(0.01, 4.0),
    sigma=st.floats(1.0001, 4.0),
    n=st.integers(0, 60),
    log_h=st.floats(-20.0, 20.0),
)
def test_log_M_kernel(tau, sigma, n, log_h):
    # the unchecked kernel is the sequence's ln M_n bit for bit, and the
    # normalized excess of an envelope with A = 1 recovers its ln h
    assert log_M(tau, sigma, n) == DefiningSequence(tau, sigma).log_M(n)
    if n >= 1:
        v = log_envelope(n, tau, sigma, 0.0, log_h)
        excess = normalized_excess(v, n, tau, sigma)
        assert math.isclose(excess, log_h, rel_tol=1e-9, abs_tol=1e-9 * (1.0 + abs(v)))


def test_parameter_validation():
    with pytest.raises(ValueError):
        DefiningSequence(0.0, 2.0)
    with pytest.raises(ValueError):
        DefiningSequence(1.0, 1.0)
    for tau, sigma in ((math.nan, 2.0), (math.inf, 2.0), (1.0, math.nan), (1.0, math.inf)):
        with pytest.raises(ValueError):
            DefiningSequence(tau, sigma)


def test_m1_logconvexity_on_grid():
    for tau, sigma in GRID:
        seq = DefiningSequence(tau, sigma)
        for p in range(1, 201):
            lhs = 2.0 * seq.log_M(p)
            rhs = seq.log_M(p - 1) + seq.log_M(p + 1)
            assert lhs <= rhs + 1e-12 * max(1.0, abs(rhs)), (tau, sigma, p)


def test_ratio_bound_on_grid():
    # M_{p-1}/M_p <= (2p)^{-tau (p-1)^{sigma-1}}
    for tau, sigma in GRID:
        seq = DefiningSequence(tau, sigma)
        for p in range(1, 201):
            lhs = seq.log_M(p - 1) - seq.log_M(p)
            rhs = -tau * float(p - 1) ** (sigma - 1.0) * math.log(2.0 * p)
            assert lhs <= rhs + 1e-12, (tau, sigma, p)


def test_m3prime_partial_sums_example():
    rep = audit_sequence(DefiningSequence(1, 2), 10)
    sums = dict(rep.m3prime_partial_sums)
    assert math.isclose(sums[4], 1.06331, abs_tol=1e-5)  # quoted value is truncated
    # strictly decreasing increments, compared in the log domain (the
    # partial sums saturate float resolution almost immediately)
    seq = DefiningSequence(1, 2)
    logdiffs = [seq.log_M(p - 1) - seq.log_M(p) for p in range(2, 11)]
    assert all(logdiffs[i] > logdiffs[i + 1] for i in range(len(logdiffs) - 1))


def test_m3prime_increments_summable():
    # the series converges on the whole grid: increments are eventually
    # below any threshold, and monotone decreasing from p = 2 on.
    # (Acceptance criterion 1c checks where they fall below 1e-12: at the
    # index p* in {P, P+1} fixed by the definition, 7027 at (0.25, 1.25),
    # where the increment at p = 50 is still about 2.03e-2.)
    for tau, sigma in GRID:
        seq = DefiningSequence(tau, sigma)
        diffs = [seq.log_M(p - 1) - seq.log_M(p) for p in range(2, 201)]
        assert all(diffs[i] > diffs[i + 1] for i in range(len(diffs) - 1)), (tau, sigma)
        # summable by comparison with the proven ratio bound
        assert diffs[-1] <= -tau * 199.0 ** (sigma - 1.0) * math.log(400.0) + 1e-9


def test_audit_flags_and_fits():
    rep = audit_sequence(DefiningSequence(1, 2), 40)
    assert rep.m1_ok and rep.ratio_bound_ok
    # p=q=1 forces C^2 >= M_2/(M'_1)^2 = 16
    assert rep.fitted_log_C_m2bar >= math.log(4.0) - 1e-9
    log_cq = dict(rep.fitted_log_Cq_m2prime)
    assert math.isclose(math.exp(log_cq[1]), 16.0, rel_tol=1e-9)
    # nondecreasing in q (checked on the logs, which never overflow)
    vals = [c for _, c in rep.fitted_log_Cq_m2prime]
    assert all(vals[i] <= vals[i + 1] + 1e-9 for i in range(len(vals) - 1))


def _splitting_fits_oracle(seq, p_max, q_max=10):
    """Both splitting fits as plain double loops: the reference the audit's
    numpy rows must reproduce bit for bit, the (M.2)'-bar arg-max
    witnesses included."""
    tau, sigma = seq.tau, seq.sigma
    logM = [seq.log_M(p) for p in range(p_max + 2)]
    primed = DefiningSequence(tau * 2.0 ** (sigma - 1.0), sigma)
    logM_primed = [primed.log_M(p) for p in range(p_max + 1)]
    best = float("-inf")
    for p in range(0, p_max + 1):
        for q in range(p, p_max + 1 - p):
            if p == 0 and q == 0:
                continue
            expo = float(p) ** sigma + float(q) ** sigma
            val = (logM[p + q] - logM_primed[p] - logM_primed[q]) / expo
            if val > best:
                best = val
    cq_list, cq_arg = [], []
    for q in range(0, min(q_max, p_max - 1) + 1):
        best_q = float("-inf")
        arg_p = 1
        for p in range(1, p_max + 1 - q):
            val = (logM[p + q] - logM[p]) / float(p) ** sigma
            if val > best_q:
                best_q = val
                arg_p = p
        cq_list.append([q, max(best_q, 0.0)])
        cq_arg.append([q, arg_p])
    return {
        "fitted_log_C_m2bar": max(best, 0.0),
        "fitted_log_Cq_m2prime": cq_list,
        "fitted_Cq_m2prime_argmax": cq_arg,
    }


def _assert_fits_match_oracle(tau, sigma, p_max):
    seq = DefiningSequence(tau, sigma)
    # the report as `seq-audit` writes it: tuples read back as lists
    got = json.loads(json.dumps(vars(audit_sequence(seq, p_max))))
    want = _splitting_fits_oracle(seq, p_max)
    assert {key: got[key] for key in want} == want, (tau, sigma, p_max)


@settings(max_examples=60, deadline=None)
@given(tau=st.floats(0.1, 4.0), sigma=st.floats(1.001, 4.0), p_max=st.integers(3, 120))
def test_splitting_fits_equal_the_double_loop(tau, sigma, p_max):
    _assert_fits_match_oracle(tau, sigma, p_max)


@pytest.mark.parametrize("p_max", [3, 4, 5])
def test_splitting_fits_equal_the_double_loop_at_the_smallest_ranges(p_max):
    for tau, sigma in GRID + [(0.1, 1.001), (7.0, 4.0)]:
        _assert_fits_match_oracle(tau, sigma, p_max)


def test_splitting_fits_skip_nan_like_the_double_loop():
    # ln M_p overflows to inf here, so inf - inf rows hold NaN, which a
    # strict > never picks: the fit is inf in both
    _assert_fits_match_oracle(5e307, 2.0, 10)
    assert audit_sequence(DefiningSequence(5e307, 2.0), 10).fitted_log_C_m2bar == math.inf


# p_max 700 and 1001 span 3 and 5 blocks of the scan, the last one ragged;
# the overflow classes put NaN rows (5e307) and rows mixing inf, NaN and
# -inf (1e300 at sigma 3, whose scan first reaches inf at (112, 203))
# inside blocks
@pytest.mark.parametrize("p_max", [700, 1001])
@pytest.mark.parametrize("tau, sigma", [(1.0, 2.0), (0.25, 1.25), (0.1, 1.1), (5e307, 2.0), (1e300, 3.0)])
def test_splitting_fits_equal_the_double_loop_across_blocks(tau, sigma, p_max):
    _assert_fits_match_oracle(tau, sigma, p_max)


# the classes at which ROADMAP Direction 2 measured both closed forms
CLOSED_FORM_RUNS = [
    (tau, sigma, p_max)
    for tau, sigma in [(1.0, 2.0), (0.5, 1.5), (0.25, 1.25), (2.0, 3.0), (1.0, 1.25), (0.3, 2.7), (3.0, 1.1)]
    for p_max in (3, 200, 2000)
] + [(1.0, 2.0, 20000)]


@functools.lru_cache(maxsize=None)
def _audit(tau, sigma, p_max):
    return audit_sequence(DefiningSequence(tau, sigma), p_max)


@pytest.mark.parametrize("tau, sigma, p_max", CLOSED_FORM_RUNS)
def test_m2bar_fit_is_its_closed_form(tau, sigma, p_max):
    # ln C = tau 2^(sigma-1) ln 2, attained at every p = q (the `sequences`
    # docstring), from (tau, sigma) alone so that a fault in log_M shows.
    # A cell's numerator subtracts terms up to tau 2^sigma p^sigma ln(2p),
    # each a few roundings off, and its denominator is 2 p^sigma: the
    # allowance is 8 eps times tau 2^(sigma-1) ln(2 p_max), on both sides
    closed_form = tau * 2.0 ** (sigma - 1) * math.log(2.0)
    allowance = 8 * 2.0**-52 * tau * 2.0 ** (sigma - 1) * math.log(2.0 * p_max)
    got = _audit(tau, sigma, p_max).fitted_log_C_m2bar
    assert abs(got - closed_form) <= allowance, (got, closed_form)


@pytest.mark.parametrize("tau, sigma, p_max", CLOSED_FORM_RUNS)
def test_m2prime_fit_is_the_p1_cell_as_measured(tau, sigma, p_max):
    """ln C_q is the p = 1 cell, ln M_{1+q} (ln M_1 = 0 and 1^sigma = 1),
    at witness p = 1. This pins a measured law, not a theorem (ROADMAP
    Direction 2): a class where it fails is a finding, not a fault."""
    rep = _audit(tau, sigma, p_max)
    for q in range(1, min(10, p_max - 1) + 1):
        assert rep.fitted_log_Cq_m2prime[q] == (q, tau * float(1 + q) ** sigma * math.log(1 + q))
        assert rep.fitted_Cq_m2prime_argmax[q] == (q, 1)


def _linear_checks_oracle(seq, p_max):
    """The audit's linear checks as plain scalar loops: the reference its
    array passes must reproduce bit for bit."""
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
    partial_sums = []
    acc = 0.0
    for p in range(1, p_max + 1):
        acc += math.exp(logM[p - 1] - logM[p])
        partial_sums.append((p, acc))
    a = [seq.log_M_over_factorial(p) / p for p in range(1, p_max + 1)]
    almost_from = 1
    for i in range(len(a) - 1):
        if a[i + 1] < a[i] - 1e-15:
            almost_from = i + 2
    return {
        "m1_ok": m1_ok,
        "ratio_bound_ok": ratio_bound_ok,
        "m3prime_partial_sums": partial_sums,
        "almost_increasing_from": almost_from,
    }


def _assert_linear_checks_match_oracle(tau, sigma, p_max):
    seq = DefiningSequence(tau, sigma)
    got = vars(audit_sequence(seq, p_max))
    want = _linear_checks_oracle(seq, p_max)
    # repr compares floats bit for bit, NaN included, and bool against np.bool_
    assert repr({key: got[key] for key in want}) == repr(want), (tau, sigma, p_max)
    return got


@settings(max_examples=80, deadline=None)
@given(
    tau=st.one_of(_log_uniform(0.01, 10.0), st.sampled_from([1e300, 5e307])),
    sigma=st.floats(1.001, 4.0),
    p_max=st.integers(3, 400),
)
def test_linear_checks_equal_the_scalar_loops(tau, sigma, p_max):
    _assert_linear_checks_match_oracle(tau, sigma, p_max)


@pytest.mark.parametrize("tau, sigma, ai_from", [(0.25, 1.25, 19), (0.3, 1.2, 23), (0.1, 1.1, 2000)])
def test_almost_increasing_from_past_one_equals_the_scalar_loop(tau, sigma, ai_from):
    got = _assert_linear_checks_match_oracle(tau, sigma, 2000)
    assert got["almost_increasing_from"] == ai_from


def _first_max_reference(row):
    row = np.where(np.isnan(row), -np.inf, row)
    i = int(np.argmax(row))
    return i, float(row[i])


@settings(max_examples=300, deadline=None)
@given(
    row=st.lists(
        st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -1.5, 2.0, 7.25]),
        min_size=1, max_size=12,
    ),
)
@example(row=[math.nan] * 3)
def test_first_max_skips_nan_like_the_nan_mapping_pass(row):
    # NaN and +-inf at drawn positions, all-NaN rows among them
    row = np.array(row)
    assert _first_max(row) == _first_max_reference(row)


def test_m2prime_tie_at_q0_keeps_the_first_witness():
    # M_{p+0}/M_p = 1 for every p: all values tie at 0 and the witness is p = 1
    for tau, sigma in GRID:
        rep = audit_sequence(DefiningSequence(tau, sigma), 40)
        assert rep.fitted_log_Cq_m2prime[0] == (0, 0.0)
        assert rep.fitted_Cq_m2prime_argmax[0] == (0, 1)


def _partitions(k):
    """The partitions of k as flat part tuples, increasing, in the
    enumerator's order."""
    for dec in enumerate_decompositions((k,)):
        parts = []
        for p, mult in zip(dec.parts, dec.multiplicities):
            parts.extend([p[0]] * mult)
        yield tuple(parts)


def _lemma23_oracle(seq, k_max):
    best, witness = 0.0, (1, (1,))
    for k in range(1, k_max + 1):
        for parts in _partitions(k):
            expo = lemma23_ratio(seq, len(parts), parts) / float(k) ** seq.sigma
            if expo > best:
                best, witness = expo, (k, parts)
    return best, witness


def test_lemma23_search_equals_the_ratio_oracle():
    for tau, sigma in GRID + [(0.1, 1.001)]:
        seq = DefiningSequence(tau, sigma)
        for k_max in (2, 3, 12, 20):
            fit = lemma23_constant_search(seq, k_max)
            log_c, (k, parts) = _lemma23_oracle(seq, k_max)
            assert (fit.log_C, fit.witness_k, fit.witness_parts) == (log_c, k, parts), (tau, sigma)


@settings(deadline=None)
@given(tau=_log_uniform(0.01, 10.0), sigma_m1=_log_uniform(1e-3, 3.0), k_max=st.integers(2, 16))
def test_lemma23_search_against_the_walk(tau, sigma_m1, k_max):
    # sigma - 1 is drawn log-uniform too, so sigma near 1 is sampled well
    seq = DefiningSequence(tau, 1.0 + sigma_m1)
    fit = lemma23_constant_search(seq, k_max)
    log_c, (k, parts) = _lemma23_oracle(seq, k_max)
    assert fit.witness_k == k
    assert sum(fit.witness_parts) == k and list(fit.witness_parts) == sorted(fit.witness_parts)
    assert min(fit.witness_parts) >= 1
    ratio = lemma23_ratio(seq, len(fit.witness_parts), fit.witness_parts)
    assert ratio / float(k) ** seq.sigma == fit.log_C
    if fit.witness_parts == parts:
        assert fit.log_C == log_c
    else:
        # an exact tie between two partitions (w_1 = 0): their sums are
        # rounded in different orders, so the two ln C may differ in the last bits
        assert abs(fit.log_C - log_c) <= 2 * math.ulp(log_c)


def test_lemma23_tie_keeps_the_fewest_parts():
    # the search scans k and then the number of parts j upward and keeps
    # the first strict maximum, so of tied partitions of one k the fewest
    # parts win.  w[1] = ln(M_1/1!) = 0 makes (3, 3) and (1, 2, 3) tie
    # exactly at this class; the walk meets (1, 2, 3) first
    seq = DefiningSequence(0.778401061711685, 1.0045547830955923)
    assert seq.log_M_over_factorial(1) == 0.0
    assert lemma23_ratio(seq, 2, (3, 3)) == lemma23_ratio(seq, 3, (1, 2, 3))
    fit = lemma23_constant_search(seq, 6)
    assert (fit.witness_k, fit.witness_parts) == (6, (3, 3))
    log_c, witness = _lemma23_oracle(seq, 6)
    assert witness == (6, (1, 2, 3)) and fit.log_C == log_c
    # every k ties at ratio 1 (j = 1 and j = k); with no larger ratio the
    # first, k = 1, is kept
    fit = lemma23_constant_search(DefiningSequence(1, 2), 20)
    assert (fit.log_C, fit.witness_k, fit.witness_parts) == (0.0, 1, (1,))


def test_sigma_at_most_one_rejected_at_construction():
    # the audit's sigma <= 1 rejection happens at type construction
    with pytest.raises(ValueError):
        DefiningSequence(1.0, 0.9)


def test_almost_increasing_threshold_property():
    # p^{tau p^{sigma-1} - 1} strictly increasing beyond (1/tau)^{1/(sigma-1)}
    for tau, sigma in GRID:
        thr = (1.0 / tau) ** (1.0 / (sigma - 1.0))
        lo = int(math.floor(thr)) + 1
        vals = [
            (tau * float(p) ** (sigma - 1.0) - 1.0) * math.log(p)
            for p in range(max(lo, 1), 201)
        ]
        assert all(vals[i] < vals[i + 1] for i in range(len(vals) - 1)), (tau, sigma)


def test_m2bar_exponent_max_at_small_shell():
    # shell-max of the per-(p,q) exponent is maximal at p+q=2, nonincreasing after
    for tau, sigma in GRID:
        seq = DefiningSequence(tau, sigma)
        primed = DefiningSequence(tau * 2 ** (sigma - 1), sigma)
        shell_max = {}
        for p in range(0, 41):
            for q in range(0, 41 - p):
                if p + q == 0:
                    continue
                e = (seq.log_M(p + q) - primed.log_M(p) - primed.log_M(q)) / (
                    float(p) ** sigma + float(q) ** sigma
                )
                s = p + q
                shell_max[s] = max(shell_max.get(s, -1e30), e)
        peak = max(shell_max.values())
        # the exponent is constant on the diagonal, so the peak is already
        # attained at p = q = 1 and no shell ever exceeds it
        assert shell_max[2] >= peak - 1e-9, (tau, sigma)
        for s_, v in shell_max.items():
            assert v <= shell_max[2] + 1e-9, (tau, sigma, s_)


def test_stirling_comparison_stops_at_the_reach_of_sigma_3():
    # [p^sigma] stops at 64^3, the reach of sigma = 3: past it the residual
    # sinks toward the rounding of ln [p^sigma]!
    rep = audit_sequence(DefiningSequence(1, 3.5), 64)
    assert [p for p, _ in rep.stirling_ratio_log_residuals] == list(range(1, 36))


def test_stirling_comparison_envelope():
    # |log([p^sigma]!^{tau/sigma}) - log((2pi)^{tau/2sigma} p^{tau/2}
    #  e^{-tau p^sigma/sigma} M_p)| <= c sigma ln p, module constant c
    C_FROZEN = 1.6  # fitted over the grid at p <= 64 (max ratio 1.583), frozen
    for tau, sigma in GRID:
        rep = audit_sequence(DefiningSequence(tau, sigma), 60)
        for p, r in rep.stirling_ratio_log_residuals:
            if p < 2:
                continue
            assert abs(r) <= C_FROZEN * sigma * math.log(p), (tau, sigma, p, r)


def _pair_bound(seq, parts):
    """ln of [prod_i M_{k_i}/k_i!] / [M_k/k!] with k = sum(parts)."""
    return sum(map(seq.log_M_over_factorial, parts)) - seq.log_M_over_factorial(sum(parts))


def test_pair_bound_examples():
    seq = DefiningSequence(1, 2)
    assert _pair_bound(seq, (7,)) == 0.0
    v = math.exp(_pair_bound(seq, (2, 2)))
    assert math.isclose(v, 64 * 24 / 4**16, rel_tol=1e-9)
    for k in range(1, 12):
        assert math.exp(_pair_bound(seq, (1,) * k)) <= 1.0 + 1e-12


def test_pair_bound_within_fitted_constant():
    for tau, sigma in [(0.5, 1.5), (1.0, 2.0), (2.0, 3.0)]:
        seq = DefiningSequence(tau, sigma)
        logC = audit_sequence(seq, 40).fitted_log_C_m2bar
        for k in range(2, 11):
            for parts in _partitions(k):
                # prod M_{k_i}/k_i! <= C^k M_k/k!
                assert _pair_bound(seq, parts) <= k * logC + 1e-9
