import itertools

import numpy as np
import pytest

from gevreykit.faadibruno import _MAX_ORDER
from gevreykit.multiindex import (
    Decomposition,
    _census,
    composition_multinomial_sum,
    decomposition_census,
    enumerate_decompositions,
    mi_binomial,
    mi_factorial,
    mi_of_order,
    mi_order,
    mi_range,
)

# p(n) for n = 0..20
PARTITIONS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135, 176,
              231, 297, 385, 490, 627]


def _mi_range_recursive(bound):
    # the recursive definition: the first entry slowest, each tail in turn
    if not bound:
        yield ()
        return
    for h in range(bound[0] + 1):
        for tail in _mi_range_recursive(bound[1:]):
            yield (h,) + tail


def test_mi_range_lists_each_box_in_the_recursive_order():
    for d in range(4):
        for bound in itertools.product(*(range(b + 1) for b in (3, 2, 2)[:d])):
            assert list(mi_range(bound)) == list(_mi_range_recursive(bound)), bound


def test_enumerate_d1_examples():
    assert len(list(enumerate_decompositions((3,)))) == 3
    assert len(list(enumerate_decompositions((4,)))) == 5


def test_enumerate_d2_example():
    decs = list(enumerate_decompositions((1, 1)))
    assert len(decs) == 2
    shapes = {(d.parts, d.multiplicities) for d in decs}
    assert (((1, 1),), (1,)) in shapes
    assert (((0, 1), (1, 0)), (1, 1)) in shapes


def test_round_trip_and_canonical_order():
    for alpha in [(5,), (2, 3), (1, 1, 2)]:
        seen = set()
        for d in enumerate_decompositions(alpha):
            total = [0] * len(alpha)
            for p, m in zip(d.parts, d.multiplicities):
                for i, c in enumerate(p):
                    total[i] += m * c
            assert tuple(total) == alpha
            assert all(d.parts[i] < d.parts[i + 1] for i in range(len(d.parts) - 1))
            key = (d.parts, d.multiplicities)
            assert key not in seen
            seen.add(key)


def test_census_matches_partition_function_d1():
    for n in range(1, 21):
        count, bound, ok = decomposition_census((n,))
        assert count == PARTITIONS[n]
        assert ok
        assert len(list(enumerate_decompositions((n,)))) == PARTITIONS[n]


def test_census_examples():
    assert decomposition_census((6,)) == (11, 343, True)
    count, bound, ok = decomposition_census((2, 0))
    assert (count, bound, ok) == (2, 81, True)
    assert decomposition_census((1,)) == (1, 8, True)


def test_census_counts_what_the_enumerator_yields():
    # the census is a generating-function count, independent of the enumerator
    alphas = [a for d, top in _MAX_ORDER.items()
              for n in range(1, top + 1) for a in mi_of_order(d, n)]
    assert len(alphas) == 135
    for alpha in alphas:
        assert decomposition_census(alpha)[0] == len(list(enumerate_decompositions(alpha))), alpha
    assert decomposition_census((20,))[0] == 627
    assert decomposition_census((3, 3, 3))[0] == 686
    assert decomposition_census((5, 5, 5))[0] == 58616


def test_census_bound_small_orders():
    for d in (1, 2, 3):
        for n in range(1, 7):
            for alpha in mi_of_order(d, n):
                count, bound, ok = decomposition_census(alpha)
                assert ok, (alpha, count, bound)


def test_composition_multinomial_sum_power_identity():
    for n in range(1, 21):
        assert composition_multinomial_sum(n) == 2 ** (n - 1)


def test_composition_examples():
    assert composition_multinomial_sum(1) == 1
    assert composition_multinomial_sum(3) == 4
    assert composition_multinomial_sum(4) == 8


def test_decomposition_validation():
    with pytest.raises(ValueError, match="parts and multiplicities must have equal length"):
        Decomposition(parts=((1,), (2,)), multiplicities=(1,), target=(3,))
    with pytest.raises(ValueError, match="multiplicities must be positive"):
        Decomposition(parts=((1,),), multiplicities=(0,), target=(1,))
    with pytest.raises(ValueError, match="parts must be strictly increasing lexicographically"):
        Decomposition(parts=((2,), (1,)), multiplicities=(1, 1), target=(3,))
    with pytest.raises(ValueError, match=r"decomposition sums to \(2,\), not \(3,\)"):
        Decomposition(parts=((1,),), multiplicities=(2,), target=(3,))
    # a part longer than the target was summed on its first entries and
    # accepted, a shorter one raised IndexError
    with pytest.raises(ValueError, match=r"parts must have the length of target \(1,\)"):
        Decomposition(parts=((1, 5),), multiplicities=(1,), target=(1,))
    with pytest.raises(ValueError, match=r"parts must have the length of target \(1, 2\)"):
        Decomposition(parts=((1,),), multiplicities=(1,), target=(1, 2))
    # with several faults the checks keep their order
    with pytest.raises(ValueError, match="multiplicities must be positive"):
        Decomposition(parts=((2,), (1,), (1,)), multiplicities=(1, 1, 0), target=(5,))
    with pytest.raises(ValueError, match="strictly increasing"):
        Decomposition(parts=((1, 0), (0, 1)), multiplicities=(1, 1), target=(4, 4))
    Decomposition(parts=((0, 1), (1, 0)), multiplicities=(2, 1), target=(1, 2))


def test_zero_alpha_rejected():
    with pytest.raises(ValueError):
        list(enumerate_decompositions((0, 0)))


def test_negative_entry_rejected_by_enumerator_and_census():
    # the census used to count no cells and report 0, the enumerator to yield nothing
    with pytest.raises(ValueError, match=r"alpha \(-1, 3\) has a negative entry"):
        list(enumerate_decompositions((-1, 3)))
    with pytest.raises(ValueError, match=r"alpha \(-1, 3\) has a negative entry"):
        decomposition_census((-1, 3))


def test_census_cache_answers_repeats_with_the_fresh_count():
    alphas = [(6,), (2, 0), (3, 3, 3), (1, 2), (6,), (2, 0), (1, 2), (3, 3, 3), (6,)]
    fresh = [_census.__wrapped__(a) for a in alphas]
    _census.cache_clear()
    assert [decomposition_census(a) for a in alphas] == fresh
    info = _census.cache_info()
    assert (info.hits, info.misses) == (5, 4)
    assert [decomposition_census(list(a)) for a in alphas] == fresh  # any sequence of ints
    assert _census.cache_info().hits == 14
    # bad input is rejected on every call, before the cache is read
    for _ in range(2):
        with pytest.raises(ValueError, match="negative entry"):
            decomposition_census((-1, 3))
        with pytest.raises(ValueError, match=r"\|alpha\| >= 1"):
            decomposition_census((0, 0))
        with pytest.raises(TypeError):
            decomposition_census((6.0,))
    assert _census.cache_info().misses == 4


def test_multiplicity_bounds():
    for d in enumerate_decompositions((2, 2)):
        assert d.total_multiplicity <= mi_order(d.target)
        assert len(d.parts) <= mi_order(d.target)
        assert all(1 <= mi_order(p) <= mi_order(d.target) for p in d.parts)


def test_mi_helpers():
    assert mi_factorial((3, 2)) == 12
    assert mi_binomial((3, 2), (1, 1)) == 6
    assert mi_binomial((1, 0), (0, 1)) == 0
    assert mi_order((2, 3, 4)) == 9


def test_every_chain_rule_entry_reads_alpha_as_a_tuple_of_ints():
    from gevreykit.faadibruno import fdb_derivative
    from gevreykit.funcspec import PolySpec, SinSpec
    from gevreykit.jets import jet_chain_partial

    f, g, at = SinSpec(), PolySpec((0, 1, 1)), (0.5,)
    answers = []
    for alpha in [(2,), [2], (np.int64(2),), np.array([2])]:
        decs = list(enumerate_decompositions(alpha))
        assert all(type(a) is int for d in decs for a in d.target), alpha
        answers.append((
            [(d.parts, d.multiplicities, d.target) for d in decs],
            decomposition_census(alpha),
            repr(fdb_derivative(f, g, alpha, at)),
            repr(jet_chain_partial(f, g, alpha, at)),
        ))
    assert all(a == answers[0] for a in answers)
    assert answers[0][1] == (2, 27, True)
    for route in (lambda a: list(enumerate_decompositions(a)), decomposition_census,
                  lambda a: fdb_derivative(f, g, a, at), lambda a: jet_chain_partial(f, g, a, at)):
        with pytest.raises(TypeError):
            route((2.0,))
