from itertools import permutations

import pytest
from hypothesis import given, strategies as st

from qnsym import compositions as comps


def comp_strategy(max_size=9):
    return st.lists(st.integers(1, 6), max_size=5).map(tuple).filter(
        lambda a: sum(a) <= max_size
    )


def test_compositions_order_and_count():
    assert comps.compositions(0) == ((),)
    assert comps.compositions(1) == ((1,),)
    assert comps.compositions(3) == ((1, 1, 1), (1, 2), (2, 1), (3,))
    for n in range(1, 13):
        cs = comps.compositions(n)
        assert len(cs) == 2 ** (n - 1)
        assert len(set(cs)) == len(cs)
        assert list(cs) == sorted(cs)
        assert all(sum(a) == n for a in cs)


def test_set_comp_inverse():
    assert comps.set_of((3, 2)) == frozenset({3})
    assert comps.set_of((1, 1, 2, 1)) == frozenset({1, 2, 4})
    assert comps.comp_of({1, 2, 4}, 5) == (1, 1, 2, 1)
    assert comps.comp_of([], 0) == ()


def test_complement_reverse_transpose_examples():
    # worked out by hand on subsets of {1,...,4}
    assert comps.complement((3, 2)) == (1, 1, 2, 1)
    assert comps.reverse((3, 2)) == (2, 3)
    assert comps.transpose((3, 2)) == (1, 2, 1, 1)
    assert comps.transpose((2, 3)) == (1, 1, 2, 1)
    assert comps.complement((1, 1)) == (2,)
    assert comps.complement((2,)) == (1, 1)
    assert comps.transpose((n := 4,)) == (1,) * n


def test_conjugate():
    assert comps.conjugate((4, 2, 1)) == (3, 2, 1, 1)
    assert comps.conjugate(()) == ()
    assert comps.conjugate((3,)) == (1, 1, 1)
    # conjugate is about column lengths, not the transpose involution
    assert comps.conjugate((2, 2)) == (2, 2)
    assert comps.transpose((2, 2)) == (1, 2, 1)


def near_concat(alpha, beta):
    """Concatenation with the boundary parts merged; both factors nonempty."""
    return alpha[:-1] + (alpha[-1] + beta[0],) + beta[1:]


def test_concat_near_concat():
    assert near_concat((1, 2, 3, 1), (3, 2)) == (1, 2, 3, 4, 2)
    assert near_concat((2,), (1,)) == (3,)


def test_refines_chain():
    chain = [(1, 1, 1, 1), (1, 2, 1), (1, 3), (4,)]
    for fine, coarse in zip(chain, chain[1:]):
        assert comps.refines(fine, coarse)
        assert not comps.refines(coarse, fine)
    assert comps.refines((2, 2), (4,))
    assert not comps.refines((2, 2), (1, 3))
    assert comps.refines((3,), (3,))


def test_coarsenings_refinements():
    assert sorted(comps.coarsenings((1, 2, 1))) == [(1, 2, 1), (1, 3), (3, 1), (4,)]
    assert sorted(comps.refinements((2, 1))) == [(1, 1, 1), (2, 1)]
    assert list(comps.refinements(())) == [()]
    assert list(comps.coarsenings(())) == [()]


def test_dominated():
    assert comps.dominated((2, 3, 1), (2, 5, 1))
    assert comps.dominated((), (1, 1))
    assert not comps.dominated((2, 3, 1), (2, 3))
    assert not comps.dominated((3,), (2, 9))


def test_partitions_and_sorting():
    assert comps.sort_to_partition((1, 3, 2)) == (3, 2, 1)
    assert comps.partitions(4) == ((1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,))
    assert comps.is_partition((3, 3, 1))
    assert not comps.is_partition((1, 2))


def test_partitions_match_the_composition_filter():
    # the direct generator against the earlier route: filter all compositions
    for n in range(15):
        assert comps.partitions(n) == tuple(
            a for a in comps.compositions(n) if comps.is_partition(a)), n
    with pytest.raises(ValueError):
        comps.partitions(-1)


def _multisets():
    for n in range(9):
        yield from comps.partitions(n)
    # unsorted inputs with repeated parts
    yield from ((2, 1, 2, 3, 1), (1, 3, 1, 3), (5, 5, 5, 1), (2, 2, 2, 2, 2), (4, 1, 4, 1, 4, 2))


def test_rearrangements_match_the_permutation_set():
    for lam in _multisets():
        listed = list(comps.rearrangements(lam))
        assert listed == sorted(set(permutations(lam))), lam
        assert comps.rearrangement_count(lam) == len(listed), lam
    assert list(comps.rearrangements(())) == [()]
    assert comps.rearrangement_count(()) == 1
    assert comps.rearrangement_count((1,) * 12) == 1
    assert comps.rearrangement_count((3, 2, 2, 1, 1, 1)) == 60


@given(comp_strategy())
def test_involutions_are_involutions(a):
    assert comps.complement(comps.complement(a)) == a
    assert comps.reverse(comps.reverse(a)) == a
    assert comps.transpose(comps.transpose(a)) == a
    assert comps.transpose(a) == comps.reverse(comps.complement(a))


@given(comp_strategy())
def test_set_of_roundtrip(a):
    assert comps.comp_of(comps.set_of(a), sum(a)) == a


def test_refinement_listings_are_refused_past_the_budget():
    assert comps.MAX_REFINEMENTS == 2 ** 16
    # at the budget: 2^(17 - 1) refinements of (17,), 2^16 coarsenings of 1^17
    assert sum(1 for _ in comps.refinements((17,))) == comps.MAX_REFINEMENTS
    assert sum(1 for _ in comps.coarsenings((1,) * 17)) == comps.MAX_REFINEMENTS
    # past it, the call itself refuses, before anything is listed
    for listing, comp in ((comps.refinements, (18,)), (comps.refinements, (40,)),
                          (comps.refinements, (2,) * 17 + (3,)),
                          (comps.coarsenings, (1,) * 18), (comps.coarsenings, (1,) * 40),
                          (comps.refinements, (10 ** 9,))):
        with pytest.raises(ValueError, match="past the budget"):
            listing(comp)


@given(comp_strategy())
def test_refinement_vs_subset(a):
    n = sum(a)
    for b in comps.compositions(n):
        assert comps.refines(a, b) == (comps.set_of(b) <= comps.set_of(a))


@given(comp_strategy())
def test_coarsening_refinement_duality(a):
    n = sum(a)
    coarser = set(comps.coarsenings(a))
    assert coarser == {b for b in comps.compositions(n) if comps.refines(a, b)}
    finer = set(comps.refinements(a))
    assert finer == {b for b in comps.compositions(n) if comps.refines(b, a)}
