import dataclasses
import math
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from genshift import (
    BUILTIN_RULES,
    COUNTABLE,
    Certified,
    CertifiedUnbounded,
    ConstructionError,
    DomainError,
    FiberCard,
    INFINITE,
    IndexMap,
    IndexSet,
    IntegrityError,
    ParseError,
    SymbolicRule,
    WindowBound,
    block_rule,
    clamp_pred_rule,
    classify,
    compose_finite,
    domain_report,
    doubling_rule,
    fiber_report,
    make_finite_map,
    make_symbolic_map,
    map_to_json,
    odd_collapse_rule,
    parse_map,
    phi_surjective,
    successor_rule,
    sup_card,
    symbolic_map,
    triangular_rule,
    verify_fiber_soundness,
)
from helpers import (
    clamp_liar_rule,
    finite_maps,
    liar_rule,
    parity_rule,
    uncertified_successor_rule,
)


def brute_fiber(images, alpha):
    return {b for b in range(1, len(images) + 1) if images[b - 1] == alpha}


# --- IndexSet -------------------------------------------------------------

def test_index_set_rejects_small_sizes():
    for n in (-1, 0, 1):
        with pytest.raises(ConstructionError):
            IndexSet.finite(n)


def test_index_set_membership():
    fin = IndexSet.finite(5)
    assert 1 in fin and 5 in fin
    assert 0 not in fin and 6 not in fin and "3" not in fin
    assert 10**9 in COUNTABLE and 0 not in COUNTABLE


# --- FiberCard ------------------------------------------------------------

def test_fiber_card_weight_convention():
    assert INFINITE.weight(0.0) == 0.0
    assert INFINITE.weight(2.5) == math.inf
    assert FiberCard(3).weight(2.0) == 6.0
    assert FiberCard(0).weight(7.0) == 0.0


def test_sup_card():
    assert sup_card([FiberCard(1), FiberCard(4), FiberCard(2)]) == FiberCard(4)
    assert sup_card([FiberCard(1), INFINITE]) == INFINITE


# --- construction ---------------------------------------------------------

def test_make_finite_map_identity():
    m = make_finite_map([1, 2, 3], 3)
    assert [m.eval(k) for k in (1, 2, 3)] == [1, 2, 3]


def test_make_finite_map_three_cycle_is_bijective():
    m = make_finite_map([2, 3, 1], 3)
    assert sorted(m.table) == [1, 2, 3]
    assert m.eval(3) == 1


def test_make_finite_map_constant_fiber():
    images = [1, 1, 1, 1]
    m = make_finite_map(images, 4)
    fib = m.fiber(1)
    assert fib.members == frozenset(brute_fiber(images, 1))
    assert fib.card == FiberCard(4)


def test_make_finite_map_errors_name_position():
    with pytest.raises(ConstructionError):
        make_finite_map([1], 1)
    with pytest.raises(ConstructionError):
        make_finite_map([1, 2, 3], 4)
    with pytest.raises(ConstructionError, match="position 2"):
        make_finite_map([1, 5, 3], 3)
    with pytest.raises(ConstructionError, match="position 1"):
        make_finite_map([0, 2, 3], 3)
    with pytest.raises(ConstructionError, match="position 3"):
        make_finite_map([1, 2, True], 3)


# --- fibers ---------------------------------------------------------------

def test_fiber_identity():
    m = make_finite_map([1, 2, 3], 3)
    assert m.fiber(2).members == frozenset({2})


def test_fiber_successor_over_one_is_empty():
    m = symbolic_map("successor")
    fib = m.fiber(1)
    assert fib.card == FiberCard(0) and fib.members == frozenset()


def test_fiber_outside_domain():
    m = make_finite_map([1, 2], 2)
    with pytest.raises(DomainError):
        m.fiber(3)
    with pytest.raises(DomainError):
        symbolic_map("successor").fiber(0)
    with pytest.raises(DomainError):
        m.eval(0)


@given(finite_maps())
def test_fibers_partition_domain(m):
    n = m.domain.size
    total = 0
    seen = set()
    for a in m.domain.indices():
        members = m.fiber(a).members
        assert not (members & seen)
        seen |= members
        total += len(members)
    assert total == n and seen == set(m.domain.indices())


@given(finite_maps())
def test_round_trip_beta_in_fiber_of_its_image(m):
    for beta in m.domain.indices():
        assert beta in m.fiber(m.eval(beta)).members


@pytest.mark.parametrize("name,param", [
    ("successor", None), ("clamp_pred", None), ("block", 3),
    ("triangular", None), ("doubling", None), ("odd_collapse", None),
])
def test_builtin_rules_fiber_soundness(name, param):
    m = symbolic_map(name, param)
    verify_fiber_soundness(m, window=80)
    # independent brute-force cross-check on a window that covers all members
    for alpha in range(1, 41):
        members = m.fiber(alpha).members
        brute = {b for b in range(1, 2000) if m.eval(b) == alpha}
        if members is None:
            assert len(brute) > 100  # infinite fiber: the window view keeps growing
        else:
            assert members == brute


def test_round_trip_countable_rules():
    for name in BUILTIN_RULES:
        m = symbolic_map(name, 2 if name == "block" else None)
        for beta in range(1, 101):
            fib = m.fiber(m.eval(beta))
            assert fib.members is None or beta in fib.members


def test_triangular_fiber_sizes_grow_linearly():
    m = symbolic_map("triangular")
    for k in range(1, 30):
        assert m.fiber_card(k) == FiberCard(k)


def test_block_rule_rejects_bad_sizes():
    with pytest.raises(ConstructionError):
        block_rule(0)
    with pytest.raises(ConstructionError):
        symbolic_map("block")  # missing param
    with pytest.raises(ConstructionError):
        symbolic_map("successor", 3)  # unexpected param
    with pytest.raises(ConstructionError):
        symbolic_map("no_such_rule")


# --- fiber_report ---------------------------------------------------------

def test_fiber_report_identity():
    rep = fiber_report(make_finite_map([1, 2, 3, 4, 5], 5))
    assert rep.sup == FiberCard(1)
    assert rep.verdict == Certified(1)
    assert rep.m_set == frozenset(range(1, 6))


def test_fiber_report_clamp_table():
    images = [1] + list(range(1, 10))  # eval(1)=1, eval(k)=k-1 on {1..10}
    brute_sup = max(images.count(a) for a in range(1, 11))
    assert brute_sup == 2
    rep = fiber_report(make_finite_map(images, 10))
    assert rep.sup == FiberCard(2)
    assert rep.verdict == Certified(2)


def test_fiber_report_sum_of_cards_is_domain_size():
    rep = fiber_report(make_finite_map([2, 2, 4, 4, 4, 1], 6))
    assert sum(c.count for c in rep.cardinalities.values()) == 6


@given(finite_maps())
def test_fiber_report_sup_matches_exhaustive(m):
    rep = fiber_report(m)
    per_index = [m.fiber_card(a) for a in m.domain.indices()]
    assert rep.sup == sup_card(per_index)
    assert rep.sup == max(rep.cardinalities.values(), key=lambda c: c.as_float())


def test_fiber_report_triangular_certified_unbounded():
    rep = fiber_report(symbolic_map("triangular"), window=12)
    assert rep.verdict == CertifiedUnbounded()
    assert rep.cardinalities[7] == FiberCard(7)


def test_fiber_report_certified_rules():
    assert fiber_report(symbolic_map("successor")).verdict == Certified(1)
    assert fiber_report(symbolic_map("clamp_pred")).verdict == Certified(2)
    assert fiber_report(symbolic_map("block", 5)).verdict == Certified(5)
    assert fiber_report(symbolic_map("odd_collapse")).verdict == CertifiedUnbounded()


def test_fiber_report_odd_collapse_m_set_omits_one():
    rep = fiber_report(symbolic_map("odd_collapse"), window=10)
    assert rep.m_set == frozenset(range(2, 11))
    assert rep.sup == INFINITE


def test_fiber_report_uncertified_rule_window_only():
    rep = fiber_report(make_symbolic_map(uncertified_successor_rule()), window=16)
    assert rep.verdict == WindowBound(1, 16)


def test_fiber_report_observed_infinite_fiber_certifies_unbounded():
    rep = fiber_report(make_symbolic_map(parity_rule()), window=8)
    assert rep.verdict == CertifiedUnbounded()


def test_fiber_report_liar_rule_integrity_error():
    with pytest.raises(IntegrityError):
        fiber_report(make_symbolic_map(liar_rule()), window=8)


@pytest.mark.parametrize("rule, claim", [
    (clamp_liar_rule(), r"fiber\(1\) has size 2"),
    (dataclasses.replace(triangular_rule(), m_sup=FiberCard(3)), r"fiber\(4\) has size 4"),
    (dataclasses.replace(successor_rule(), surjective=True), "onto"),
    (dataclasses.replace(clamp_pred_rule(), m_sup=FiberCard(1)), "finite-fiber bound 1"),
    (dataclasses.replace(odd_collapse_rule(), infinite_fibers=frozenset()), "infinite fibers"),
    (dataclasses.replace(successor_rule(), infinite_fibers=frozenset({3})), "infinite fibers"),
])
def test_fiber_report_refutes_each_false_certificate(rule, claim):
    with pytest.raises(IntegrityError, match=claim):
        fiber_report(make_symbolic_map(rule), window=8)


def test_certificates_beyond_the_window_are_not_refuted():
    # the declared infinite fiber over 100 lies outside the window 1..8; it
    # makes the derived global bound infinite
    rule = dataclasses.replace(successor_rule(), infinite_fibers=frozenset({100}))
    assert fiber_report(make_symbolic_map(rule), window=8).verdict == CertifiedUnbounded()


# --- derived certificates -------------------------------------------------

succ = uncertified_successor_rule()


@pytest.mark.parametrize("rule, sup, injective", [
    # the values every shipped rule declared before the two became derived
    (successor_rule(), FiberCard(1), True),
    (clamp_pred_rule(), FiberCard(2), False),
    (block_rule(1), FiberCard(1), True),
    (block_rule(2), FiberCard(2), False),
    (block_rule(3), FiberCard(3), False),
    (block_rule(4), FiberCard(4), False),
    (triangular_rule(), INFINITE, False),
    (doubling_rule(), FiberCard(1), True),
    (odd_collapse_rule(), INFINITE, False),
    # partial certificates
    (succ, None, None),
    (dataclasses.replace(succ, m_sup=FiberCard(1)), None, None),
    (dataclasses.replace(succ, m_sup=FiberCard(2)), None, False),
    (dataclasses.replace(succ, m_sup=INFINITE), INFINITE, False),
    (dataclasses.replace(succ, infinite_fibers=frozenset()), None, None),
    (dataclasses.replace(succ, infinite_fibers=frozenset({1})), INFINITE, False),
], ids=["successor", "clamp_pred", "block1", "block2", "block3", "block4", "triangular",
        "doubling", "odd_collapse", "uncertified", "m_sup_1", "m_sup_2", "m_sup_infinite",
        "no_infinite_fibers", "infinite_fiber_over_1"])
def test_derived_sup_card_and_injective(rule, sup, injective):
    assert rule.sup_card == sup
    assert rule.injective is injective


def test_symbolic_rule_has_three_certificate_fields():
    fields = {f.name for f in dataclasses.fields(SymbolicRule)}
    assert fields == {"name", "eval_fn", "card_fn", "members_fn",
                      "m_sup", "surjective", "infinite_fibers", "param"}


# --- window scans ---------------------------------------------------------

def _counting(rule):
    """The rule with its card_fn wrapped to record every target it is asked about."""
    calls = []

    def card(a):
        calls.append(a)
        return rule.card_fn(a)

    return dataclasses.replace(rule, card_fn=card), calls


@pytest.mark.parametrize("rule", [successor_rule(), uncertified_successor_rule()],
                         ids=["certified", "uncertified"])
def test_analyze_scans_each_window_once(rule):
    counted, calls = _counting(rule)
    m = make_symbolic_map(counted)
    for _ in range(2):  # fiber report, classification and domain report, as `analyze` runs them
        fiber_report(m, 40)
        classify(m, 40, 40)
        domain_report(m, 40)
    assert calls == list(range(1, 41))
    fiber_report(m, 12)
    assert len(calls) == 40  # a smaller window is a prefix of the cached scan
    phi_surjective(m, 100)
    assert calls == list(range(1, 101))  # a larger one scans the targets beyond it
    assert m.window_sizes(100) == tuple(rule.card_fn(a) for a in range(1, 101))


def test_window_cache_keeps_refuting_beyond_it():
    rule = dataclasses.replace(successor_rule(), infinite_fibers=frozenset({100}))
    m = make_symbolic_map(rule)
    assert m.window_sizes(8) == (0,) + (1,) * 7
    for _ in range(2):  # a failed scan is not cached
        with pytest.raises(IntegrityError, match=r"fiber\(100\) has size 1"):
            fiber_report(m, 200)
    assert fiber_report(m, 8).verdict == CertifiedUnbounded()


def test_window_sizes_need_a_symbolic_map():
    with pytest.raises(DomainError):
        make_finite_map([1, 2], 2).window_sizes(2)
    with pytest.raises(ConstructionError):
        symbolic_map("successor").window_sizes(0)


def test_fiber_report_rejects_bad_window():
    with pytest.raises(ConstructionError):
        fiber_report(symbolic_map("successor"), window=0)


# --- fiber-count profile --------------------------------------------------

def _check_profile(m):
    counts = m.fiber_counts
    assert counts[0] == 0 and len(counts) == m.domain.size + 1
    tally = Counter(m.table)
    assert {a: c for a, c in enumerate(counts) if c} == dict(tally)
    for a in m.domain.indices():
        assert m.fiber_card(a).count == m.table.count(a)


@given(finite_maps(max_n=12))
def test_fiber_counts_agree_with_counter(m):
    _check_profile(m)


@given(st.integers(2, 12).flatmap(
    lambda n: st.lists(st.integers(1, n), min_size=n, max_size=n).map(tuple)))
def test_fiber_counts_on_directly_built_maps(table):
    m = IndexMap(IndexSet.finite(len(table)), table=table)
    _check_profile(m)


@given(finite_maps())
def test_fiber_counts_cache_is_not_part_of_identity(m):
    fresh = IndexMap(m.domain, table=m.table)
    before = (hash(m), repr(m))
    m.fiber_counts  # fill the cache on one of two equal maps
    assert "fiber_counts" in vars(m) and "fiber_counts" not in vars(fresh)
    assert m == fresh and fresh == m
    assert hash(m) == hash(fresh) == before[0]
    assert repr(m) == repr(fresh) == before[1]


def test_fiber_counts_need_a_finite_domain():
    with pytest.raises(DomainError):
        symbolic_map("successor").fiber_counts


# --- composition ----------------------------------------------------------

def test_compose_finite_pointwise():
    f = make_finite_map([2, 3, 1], 3)
    g = make_finite_map([1, 1, 2], 3)
    fg = compose_finite(f, g)
    for a in (1, 2, 3):
        assert fg.eval(a) == f.eval(g.eval(a))


def test_compose_finite_domain_mismatch():
    with pytest.raises(DomainError):
        compose_finite(make_finite_map([1, 2], 2), make_finite_map([1, 2, 3], 3))


# --- serialization --------------------------------------------------------

def test_map_json_round_trip_finite():
    m = make_finite_map([2, 1, 2], 3)
    assert parse_map(map_to_json(m)) == m


@pytest.mark.parametrize("name,param", [
    ("successor", None), ("clamp_pred", None), ("block", 4),
    ("triangular", None), ("doubling", None), ("odd_collapse", None),
])
def test_map_json_round_trip_symbolic(name, param):
    m = symbolic_map(name, param)
    doc = map_to_json(m)
    assert doc["name"] == name
    again = parse_map(doc)
    assert again.rule.name == name and again.rule.param == param


@pytest.mark.parametrize("doc", [
    42,
    {"kind": "nonsense"},
    {"kind": "finite"},
    {"kind": "finite", "images": [1, 9]},
    {"kind": "finite", "images": [1]},
    {"kind": "symbolic"},
    {"kind": "symbolic", "name": "block", "param": "wide"},
    {"kind": "symbolic", "name": "unknown"},
])
def test_parse_map_rejects_malformed(doc):
    with pytest.raises(ParseError):
        parse_map(doc)


# --- soundness spot check -------------------------------------------------

def test_verify_fiber_soundness_catches_bad_members():
    broken = SymbolicRule(
        name="broken",
        eval_fn=lambda k: k + 1,
        card_fn=lambda a: 1,
        members_fn=lambda a: frozenset((a,)),  # wrong: claims a maps to itself
    )
    with pytest.raises(IntegrityError):
        verify_fiber_soundness(make_symbolic_map(broken), window=5)
