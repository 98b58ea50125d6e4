import itertools
import math
import sys
from array import array
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from genshift import (
    COUNTABLE,
    SEARCH_CAP,
    IndexMap,
    IntegrityError,
    ParseError,
    SymbolicRule,
    UnsupportedError,
    WitnessSequence,
    apply,
    classify,
    symbolic_map,
    witness_sequence,
)
from genshift.domain_analysis import domain_report
from genshift.index_domain import make_finite_map, successor_rule
from helpers import (
    add,
    clamp_liar_rule,
    declared_form,
    finite_maps,
    liar_rule,
    norm,
    scale,
    unit_vector,
)

SQRT2_OVER_2 = math.sqrt(2) / 2


@given(finite_maps())
def test_finite_maps_are_compact(m):
    assert classify(m).compact is True


def test_the_kind_of_a_table_map_is_read_off_its_table():
    # a table answers "finite?" itself, so no verdict on it builds an IndexSet
    m = IndexMap(table=(2, 2, 1, 4))
    with pytest.raises(UnsupportedError, match="^finite index set: the operator is compact"):
        witness_sequence(m, 2)
    assert classify(m).compact is True
    assert domain_report(m) is None
    assert "domain" not in vars(m)


def test_countable_rules_are_not_compact():
    assert classify(symbolic_map("successor")).compact is False
    assert classify(symbolic_map("doubling")).compact is False
    assert classify(symbolic_map("block", 3)).compact is False


def test_witness_successor_three_vectors():
    w = witness_sequence(symbolic_map("successor"), 3)
    assert w.indices.typecode == "q"  # the column fiber_records returns
    assert tuple(w.indices) == (2, 3, 4)  # the fiber over 1 is empty
    assert w.fiber_sizes == (1, 1, 1)
    assert w.min_distance_sq == Fraction(1, 2)
    assert w.pairwise_separation == SQRT2_OVER_2
    assert all(norm(v) == 0.5 for v in w.vectors)


def test_witness_reads_sizes_past_the_first_scan_chunk():
    # the scan's first chunk is targets 1..100, holding 50 of doubling's even targets
    w = witness_sequence(symbolic_map("doubling"), 100)
    assert tuple(w.indices) == tuple(range(2, 201, 2))
    assert w.fiber_sizes == (1,) * 100
    assert w.min_distance_sq == Fraction(1, 2)


def test_witness_block2_distance_one():
    w = witness_sequence(symbolic_map("block", 2), 2)
    assert w.fiber_sizes == (2, 2)
    assert w.min_distance_sq == Fraction(1)
    assert w.pairwise_separation == 1.0


def test_witness_clamp_pred_smallest_first():
    w = witness_sequence(symbolic_map("clamp_pred"), 4)
    assert tuple(w.indices) == (1, 2, 3, 4)
    assert w.fiber_sizes == (2, 1, 1, 1)
    assert w.min_distance_sq == Fraction(1, 2)


def test_witness_sums_the_two_smallest_different_sizes():
    # 1 -> 1 and k -> k // 2 + 1: the fiber over 1 is {1}, over a >= 2 it is {2a - 2, 2a - 1}
    rule = SymbolicRule(name="one_then_pairs", eval_fn=lambda k: 1 if k == 1 else k // 2 + 1,
                        card_fn=lambda a: 1 if a == 1 else 2,
                        members_fn=lambda a: frozenset({1} if a == 1 else {2 * a - 2, 2 * a - 1}),
                        m_sup=2, surjective=True, infinite_fibers=frozenset())
    w = witness_sequence(IndexMap(rule=rule), 2)
    assert w.fiber_sizes == (1, 2)
    assert w.min_distance_sq == Fraction(3, 4)
    assert w.pairwise_separation == math.sqrt(0.75)


@given(st.lists(st.integers(1, 10**30), min_size=2, max_size=40))
@example([3, 1, 2, 1])  # the two smallest are equal and not adjacent
@example([10**30, 2**63, 1])  # sizes past int64 and past the float range's exact integers
def test_separation_is_the_minimum_over_all_pairs(sizes):
    w = WitnessSequence(array("q", range(1, len(sizes) + 1)), tuple(sizes))
    brute = min(Fraction(a + b, 4) for a, b in itertools.combinations(sizes, 2))
    assert w.min_distance_sq == brute
    assert w.pairwise_separation == math.sqrt(brute)


def test_witness_images_attain_the_separation():
    m = symbolic_map("successor")
    w = witness_sequence(m, 6)
    images = [apply(m, v) for v in w.vectors]
    for i in range(len(images)):
        for j in range(i + 1, len(images)):
            dist = norm(add(images[i], scale(-1, images[j])))
            expected = math.sqrt(w.fiber_sizes[i] + w.fiber_sizes[j]) / 2
            assert abs(dist - expected) <= 1e-12
            assert dist >= SQRT2_OVER_2
    # with unscaled basis vectors the separation doubles to at least sqrt(2)
    unscaled = [apply(m, unit_vector(COUNTABLE, a)) for a in w.indices]
    for i in range(len(unscaled)):
        for j in range(i + 1, len(unscaled)):
            d = norm(add(unscaled[i], scale(-1, unscaled[j])))
            assert d == math.sqrt(w.fiber_sizes[i] + w.fiber_sizes[j])
            assert d >= math.sqrt(2)


def test_witness_rejects_finite_domain():
    with pytest.raises(UnsupportedError):
        witness_sequence(make_finite_map([1, 2, 3], 3), 2)


def test_witness_rejects_unbounded_maps():
    with pytest.raises(UnsupportedError):
        witness_sequence(symbolic_map("triangular"), 2)
    with pytest.raises(UnsupportedError):
        witness_sequence(symbolic_map("odd_collapse"), 2)


def test_witness_rejects_tiny_count():
    for count in (1, 0, -1):  # an argument outside its range, as fiber_records' count
        with pytest.raises(ParseError, match=rf"^need at least 2 witness vectors, got {count}$"):
            witness_sequence(symbolic_map("successor"), count)


def test_witness_search_cap_exhaustion_at_the_budget():
    # doubling's nonempty fibers are the even targets: half of the searched ones
    count = SEARCH_CAP // 2 + 1
    with pytest.raises(UnsupportedError,
                       match=rf"^only {SEARCH_CAP // 2} nonempty fibers within {SEARCH_CAP} targets; need {count}$"):
        witness_sequence(symbolic_map("doubling"), count)


def test_witness_count_past_sys_maxsize_exhausts_the_search_budget():
    # successor's nonempty fibers are targets 2, 3, ...: one short of the SEARCH_CAP searched
    count = sys.maxsize + 1
    with pytest.raises(UnsupportedError,
                       match=rf"^only {SEARCH_CAP - 1} nonempty fibers within {SEARCH_CAP} targets; need {count}$"):
        witness_sequence(symbolic_map("successor"), count)


@pytest.mark.parametrize("rule", [clamp_liar_rule, liar_rule])
def test_witness_refutes_a_false_bound_certificate(rule):
    # both claim m_sup = 1, hence a finite fiber bound; fiber(1) has size 2
    with pytest.raises(IntegrityError, match=r"fiber\(1\) has size 2"):
        witness_sequence(IndexMap(rule=rule()), 3)


def test_witness_refutes_a_false_infinite_fiber_certificate():
    # the claimed infinite fiber would make the map look unbounded, so the witness would refuse
    rule = declared_form(successor_rule(), infinite_fibers=frozenset({2}))
    with pytest.raises(IntegrityError, match=r"over \[2\] but fiber\(2\) has size 1"):
        witness_sequence(IndexMap(rule=rule), 3)


def test_witness_refutes_a_false_certificate_past_its_first_window():
    # the scan's first window 1..2 does not reach the false infinite fiber over 3;
    # the first read of the certificates checks 1..64 and does
    rule = declared_form(successor_rule(), infinite_fibers=frozenset({3}))
    with pytest.raises(IntegrityError, match=r"over \[3\] but fiber\(3\) has size 1"):
        witness_sequence(IndexMap(rule=rule), 2)
