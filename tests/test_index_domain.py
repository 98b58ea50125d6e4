import dataclasses
import math
import re
import sys
from collections import Counter
from itertools import chain

import pytest
from hypothesis import given
from hypothesis import strategies as st

from genshift import (
    COUNTABLE,
    DEFAULT_WINDOW,
    SEARCH_CAP,
    ConstructionError,
    DomainError,
    IndexMap,
    IndexSet,
    IntegrityError,
    ParseError,
    SymbolicRule,
    UnsupportedError,
    classify,
    divergence_witness,
    domain_report,
    map_to_json,
    parse_map,
    symbolic_map,
    witness_sequence,
)
from genshift.gen_shift import operator_norm
from genshift.index_domain import (
    BUILTIN_RULES,
    block_rule,
    clamp_pred_rule,
    doubling_rule,
    fiber_report,
    make_finite_map,
    odd_collapse_rule,
    successor_rule,
    triangular_rule,
)
from helpers import (
    clamp_liar_rule,
    finite_maps,
    liar_rule,
    parity_rule,
    sup_card,
    verify_fiber_soundness,
)


def brute_fiber(images, alpha):
    return {b for b in range(1, len(images) + 1) if images[b - 1] == alpha}


# --- IndexSet -------------------------------------------------------------

def test_index_set_rejects_small_sizes():
    for n in (-1, 0, 1):
        with pytest.raises(ConstructionError):
            IndexSet(n)


def test_index_set_membership():
    fin = IndexSet(5)
    assert 1 in fin and 5 in fin
    assert 0 not in fin and 6 not in fin and "3" not in fin
    assert 10**9 in COUNTABLE and 0 not in COUNTABLE


# --- fiber sizes ----------------------------------------------------------

def test_sup_card():
    assert sup_card([1, 4, 2]) == 4
    assert sup_card([1, math.inf]) == math.inf


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
    assert fib == frozenset(brute_fiber(images, 1))
    assert len(fib) == 4


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


@pytest.mark.parametrize("table, position", [((0, 1), 1), ((1, 3), 2), ((1, True), 2)])
def test_every_table_is_checked_where_it_is_built(table, position):
    with pytest.raises(ConstructionError, match=rf"^image at position {position} is .*, not in 1\.\.2$"):
        IndexMap(table=table)


def test_an_image_table_is_a_tuple():
    with pytest.raises(ConstructionError, match="must be a tuple, got list"):
        IndexMap(table=[1, 2])


def test_index_map_takes_exactly_one_of_table_and_rule():
    with pytest.raises(ConstructionError, match="exactly one"):
        IndexMap()
    with pytest.raises(ConstructionError, match="exactly one"):
        IndexMap(table=(1, 2), rule=successor_rule())
    with pytest.raises(TypeError):
        IndexMap((1, 2))  # keyword-only


def test_index_map_derives_its_domain():
    m = IndexMap(table=(2, 1, 2))
    assert m.domain == IndexSet(3) and m == make_finite_map([2, 1, 2], 3)
    assert IndexMap(rule=successor_rule()).domain is COUNTABLE
    assert "domain" not in repr(m)
    assert [f.name for f in dataclasses.fields(IndexMap) if f.init] == ["table", "rule"]


# --- fibers ---------------------------------------------------------------

def test_fiber_identity():
    m = make_finite_map([1, 2, 3], 3)
    assert m.fiber(2) == frozenset({2})


def test_fiber_successor_over_one_is_empty():
    m = symbolic_map("successor")
    fib = m.fiber(1)
    assert len(fib) == 0 and fib == frozenset()


def test_fiber_past_the_search_budget_is_refused_before_it_is_built():
    members = Counter()
    block = block_rule(SEARCH_CAP + 1)
    rule = dataclasses.replace(block, members_fn=lambda a: members.update([a]) or block.members_fn(a))
    with pytest.raises(UnsupportedError,
                       match=rf"^fiber\(1\) has size {SEARCH_CAP + 1}, above SEARCH_CAP = {SEARCH_CAP}$"):
        IndexMap(rule=rule).fiber(1)
    assert members == {}
    assert symbolic_map("odd_collapse").fiber(1) is None  # an infinite fiber is not refused
    assert symbolic_map("block", 3).fiber(2) == frozenset({4, 5, 6})


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
    for a in range(1, n + 1):
        members = m.fiber(a)
        assert not (members & seen)
        seen |= members
        total += len(members)
    assert total == n and seen == set(range(1, n + 1))


@given(finite_maps())
def test_round_trip_beta_in_fiber_of_its_image(m):
    for beta in range(1, m.domain.size + 1):
        assert beta in m.fiber(m.eval(beta))


@pytest.mark.parametrize("name,param", [
    ("successor", None), ("clamp_pred", None), ("block", 3),
    ("triangular", None), ("doubling", None), ("odd_collapse", None),
])
def test_builtin_rules_fiber_soundness(name, param):
    m = symbolic_map(name, param)
    verify_fiber_soundness(m, window=80)
    # a size is an int, or math.inf for an infinite fiber; never None or a float count
    assert all(type(c) is int or c == math.inf for c in map(m.rule.card_fn, range(1, 1001)))
    # independent brute-force cross-check on a window that covers all members
    for alpha in range(1, 41):
        members = m.fiber(alpha)
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
            assert fib is None or beta in fib


def test_triangular_fiber_sizes_grow_linearly():
    m = symbolic_map("triangular")
    for k in range(1, 30):
        assert m.fiber_card(k) == k


def test_block_rule_rejects_bad_sizes():
    with pytest.raises(ConstructionError):
        block_rule(0)
    with pytest.raises(ConstructionError, match="float range"):
        block_rule(10**400)
    assert block_rule(10**300).m_sup == 10**300
    with pytest.raises(ConstructionError):
        symbolic_map("block")  # missing param
    with pytest.raises(ConstructionError):
        symbolic_map("successor", 3)  # unexpected param
    with pytest.raises(ConstructionError):
        symbolic_map("no_such_rule")


def test_a_finite_bound_past_the_float_range_is_refused_by_any_rule():
    # the norm sqrt(m_sup) must be a float; block's own parameter is one such bound among many
    def wide_block(b):
        return SymbolicRule(name="wide_block", eval_fn=lambda k: (k - 1) // b + 1, card_fn=lambda a: b,
                            members_fn=lambda a: frozenset(range(b * (a - 1) + 1, b * a + 1)),
                            m_sup=b, surjective=True, infinite_fibers=frozenset())

    with pytest.raises(ConstructionError,
                       match=r"^rule 'wide_block' declares finite-fiber bound past the float range$"):
        wide_block(10**400)
    for b in (10**300, int(sys.float_info.max)):
        assert operator_norm(IndexMap(rule=wide_block(b))) == math.sqrt(b)


@pytest.mark.parametrize("key, value", [
    ("m_sup", math.nan),  # once read as bounded, with norm nan
    ("m_sup", True),  # once the norm 1.0
    ("m_sup", 1.5),  # once the norm sqrt(1.5): fiber sizes are ints
    ("m_sup", -1),
    ("m_sup", -math.inf),
    ("surjective", 1),
    ("surjective", None),
    ("infinite_fibers", frozenset({0})),  # once an infinite norm no window could refute
    ("infinite_fibers", frozenset({-3})),
    ("infinite_fibers", frozenset({2.5})),  # once a bare TypeError from finite_runs
    ("infinite_fibers", frozenset({True})),
    ("infinite_fibers", {1}),
    ("infinite_fibers", (1,)),
])
def test_a_malformed_certificate_is_refused_when_the_rule_is_built(key, value):
    fields = {"m_sup": 1, "surjective": True, "infinite_fibers": frozenset({1}), key: value}
    with pytest.raises(ConstructionError, match=rf"^rule 'odd' declares {key} "):
        SymbolicRule(name="odd", eval_fn=lambda k: 1 if k % 2 else k // 2 + 1,
                     card_fn=lambda a: math.inf if a == 1 else 1,
                     members_fn=lambda a: None if a == 1 else frozenset((2 * (a - 1),)), **fields)


# --- fiber_report ---------------------------------------------------------

def test_fiber_report_identity():
    m = make_finite_map([1, 2, 3, 4, 5], 5)
    assert max(m.window_sizes(5)) == 1
    assert fiber_report(m) == 1
    assert tuple(chain(*domain_report(m).m_runs)) == tuple(range(1, 6))


def test_fiber_report_clamp_table():
    images = [1] + list(range(1, 10))  # eval(1)=1, eval(k)=k-1 on {1..10}
    brute_sup = max(images.count(a) for a in range(1, 11))
    assert brute_sup == 2
    m = make_finite_map(images, 10)
    assert max(m.window_sizes(10)) == 2
    assert fiber_report(m) == 2


def test_fiber_report_sum_of_cards_is_domain_size():
    assert sum(make_finite_map([2, 2, 4, 4, 4, 1], 6).window_sizes(6)) == 6


@given(finite_maps())
def test_fiber_report_sup_matches_exhaustive(m):
    per_index = [m.fiber_card(a) for a in range(1, m.domain.size + 1)]
    assert fiber_report(m) == sup_card(per_index)
    assert fiber_report(m) == sup_card(m.window_sizes(DEFAULT_WINDOW))


def test_fiber_report_triangular_certified_unbounded():
    m = symbolic_map("triangular")
    assert fiber_report(m) == math.inf
    assert m.window_sizes(12)[7 - 1] == 7


def test_fiber_report_keeps_the_size_tuple():
    # the report is its verdict alone; the sizes it read stay cached on the map
    maps = [symbolic_map("successor"), symbolic_map("odd_collapse"), make_finite_map([2, 2, 3, 1], 4)]
    for m in maps:
        verdict = fiber_report(m)
        sizes = m.window_sizes(500)
        assert verdict == m.certificates.sup_card
        assert sizes == tuple(m.fiber_card(a) for a in range(1, len(sizes) + 1))
        assert m.window_sizes(500) is sizes


def test_table_window_sizes_are_the_cached_counts():
    m = make_finite_map([2, 2, 3, 1, 1, 1], 6)
    assert m.window_sizes(5) is m.window_sizes(64) is m.fiber_counts
    assert m.fiber_counts == (3, 2, 1, 0, 0, 0)


def test_fiber_report_certified_rules():
    assert fiber_report(symbolic_map("successor")) == 1
    assert fiber_report(symbolic_map("clamp_pred")) == 2
    assert fiber_report(symbolic_map("block", 5)) == 5
    assert fiber_report(symbolic_map("odd_collapse")) == math.inf


def test_fiber_report_odd_collapse_m_set_omits_one():
    m = symbolic_map("odd_collapse")
    assert fiber_report(m) == math.inf
    assert tuple(chain(*domain_report(m, window=10).m_runs)) == tuple(range(2, 11))
    assert max(m.window_sizes(10)) == math.inf


def test_fiber_report_observed_infinite_fiber_certifies_unbounded():
    # the window 1..64 shows both declared infinite fibers, so the check lets them stand
    assert fiber_report(IndexMap(rule=parity_rule())) == math.inf


def test_a_first_window_wholly_inside_the_declared_infinite_fibers():
    # no finite fiber in the window, so there is no finite peak to check against m_sup = 0
    assert IndexMap(rule=parity_rule()).window_sizes(2) == (math.inf, math.inf)


def test_fiber_report_liar_rule_integrity_error():
    with pytest.raises(IntegrityError):
        fiber_report(IndexMap(rule=liar_rule()))


@pytest.mark.parametrize("rule, claim", [
    (clamp_liar_rule(), r"fiber\(1\) has size 2"),
    (dataclasses.replace(triangular_rule(), m_sup=3), r"fiber\(4\) has size 4"),
    (dataclasses.replace(successor_rule(), surjective=True), "onto"),
    (dataclasses.replace(clamp_pred_rule(), m_sup=1), "finite-fiber bound 1"),
    (dataclasses.replace(odd_collapse_rule(), infinite_fibers=frozenset()), "infinite fibers"),
    (dataclasses.replace(successor_rule(), infinite_fibers=frozenset({3})), "infinite fibers"),
    # the offender lies past a declared infinite fiber, which a bound of 0 must not name
    (dataclasses.replace(odd_collapse_rule(), m_sup=0), r"finite-fiber bound 0 but fiber\(2\) has size 1"),
])
def test_fiber_report_refutes_each_false_certificate(rule, claim):
    with pytest.raises(IntegrityError, match=claim):
        fiber_report(IndexMap(rule=rule))


SIZES = st.sampled_from([0, 1, 2, 3, math.inf])


@given(st.data())
def test_window_check_refutes_exactly_the_false_claims(data):
    W = data.draw(st.integers(1, 24), label="W")
    profile = data.draw(st.lists(SIZES, min_size=W, max_size=W), label="profile")
    w = data.draw(st.integers(1, W), label="w")
    m_sup, surjective = data.draw(SIZES, label="m_sup"), data.draw(st.booleans(), label="surjective")
    flips = data.draw(st.frozensets(st.integers(1, W + 2), max_size=2), label="flips")
    infinite = flips ^ {a for a, c in enumerate(profile, 1) if c == math.inf}  # often exact
    rule = SymbolicRule(name="drawn", eval_fn=lambda k: 1, card_fn=lambda a: profile[a - 1],
                        members_fn=lambda a: None, m_sup=m_sup, surjective=surjective,
                        infinite_fibers=infinite)
    broken = {  # each claim, checked on its own over 1..W: the targets that break it
        f"finite-fiber bound {m_sup}": {a for a, c in enumerate(profile, 1) if m_sup < c < math.inf},
        "the map onto": {a for a, c in enumerate(profile, 1) if surjective and c == 0},
        f"infinite fibers exactly over {sorted(infinite)}":
            {a for a, c in enumerate(profile, 1) if (c == math.inf) != (a in infinite)},
    }
    m = IndexMap(rule=rule)
    try:
        m.window_sizes(w)
        assert m.window_sizes(W) == tuple(profile)
    except IntegrityError as exc:
        claim, a, size = re.fullmatch(r"rule 'drawn' declares (.+) but fiber\((\d+)\) has size (\S+)",
                                      str(exc)).groups()
        assert int(a) in broken[claim]
        assert size == ("infinite" if profile[int(a) - 1] == math.inf else str(profile[int(a) - 1]))
        with pytest.raises(IntegrityError):  # a failed read caches nothing
            m.window_sizes(W)
    else:
        assert not any(broken.values())


def test_certificates_beyond_the_window_are_not_refuted():
    # the declared infinite fiber over 100 lies outside the window 1..64 that a
    # first certificate read checks; it makes the derived global bound infinite
    rule = dataclasses.replace(successor_rule(), infinite_fibers=frozenset({100}))
    assert fiber_report(IndexMap(rule=rule)) == math.inf


# --- derived certificates -------------------------------------------------

@pytest.mark.parametrize("rule, sup, injective", [
    # the values every shipped rule declared before the two became derived
    (successor_rule(), 1, True),
    (clamp_pred_rule(), 2, False),
    (block_rule(1), 1, True),
    (block_rule(2), 2, False),
    (block_rule(3), 3, False),
    (block_rule(4), 4, False),
    (triangular_rule(), math.inf, False),
    (doubling_rule(), 1, True),
    (odd_collapse_rule(), math.inf, False),
    # successor's three certificates with one of them changed
    (dataclasses.replace(successor_rule(), m_sup=math.inf), math.inf, False),
    (dataclasses.replace(successor_rule(), infinite_fibers=frozenset({1})), math.inf, False),
], ids=["successor", "clamp_pred", "block1", "block2", "block3", "block4", "triangular",
        "doubling", "odd_collapse", "m_sup_infinite", "infinite_fiber_over_1"])
def test_derived_sup_card_and_injective(rule, sup, injective):
    assert rule.sup_card == sup
    assert rule.injective is injective


def test_symbolic_rule_has_three_certificate_fields():
    fields = {f.name: f for f in dataclasses.fields(SymbolicRule)}
    assert set(fields) == {"name", "eval_fn", "card_fn", "members_fn",
                           "m_sup", "surjective", "infinite_fibers", "param"}
    for name in ("m_sup", "surjective", "infinite_fibers"):  # required: a rule states all three
        assert fields[name].default is dataclasses.MISSING
        assert fields[name].default_factory is dataclasses.MISSING
    with pytest.raises(TypeError, match="infinite_fibers"):
        SymbolicRule(name="partial", eval_fn=int, card_fn=int, members_fn=frozenset,
                     m_sup=1, surjective=True)


@pytest.mark.parametrize("m", [
    *(IndexMap(rule=ctor()) for name, ctor in BUILTIN_RULES.items() if name != "block"),
    IndexMap(rule=block_rule(1)),
    IndexMap(rule=block_rule(2)),
    make_finite_map([2, 2, 1], 3),
], ids=[*(name for name in BUILTIN_RULES if name != "block"), "block1", "block2", "table"])
def test_every_verdict_is_a_plain_value(m):
    rep = classify(m)
    closed = m.certificates.closed
    verdicts = (rep.maps_into_l2, rep.sigma_injective, rep.sigma_surjective, rep.isometry,
                rep.compact, closed)
    assert [type(v) for v in verdicts] == [bool] * 6
    assert (domain_report(m, 16).unbounded_witness is None) is closed
    assert type(rep.operator_norm) is float
    assert type(operator_norm(m)) is float


# --- window scans ---------------------------------------------------------

def _counting(rule):
    """The rule with its card_fn wrapped to record every target it is asked about."""
    calls = []

    def card(a):
        calls.append(a)
        return rule.card_fn(a)

    return dataclasses.replace(rule, card_fn=card), calls


@pytest.mark.parametrize("rule", [successor_rule(), triangular_rule()],
                         ids=["certified", "unbounded"])  # triangular's domain report adds records
def test_analyze_scans_each_window_once(rule):
    counted, calls = _counting(rule)
    m = IndexMap(rule=counted)
    for _ in range(2):  # the window, fiber report, classification and domain report, as `analyze` runs them
        m.window_sizes(40)
        fiber_report(m)
        classify(m)
        domain_report(m, 40)
    assert calls == list(range(1, 65))  # the window 1..40, then the certificates' first read of 41..64
    m.window_sizes(12)
    assert len(calls) == 64  # a smaller window is a prefix of the cached scan
    m.window_sizes(100)
    assert calls == list(range(1, 101))  # a larger one scans the targets beyond it
    assert m.window_sizes(100) == tuple(rule.card_fn(a) for a in range(1, 101))


def test_window_cache_keeps_refuting_beyond_it():
    rule = dataclasses.replace(successor_rule(), infinite_fibers=frozenset({100}))
    m = IndexMap(rule=rule)
    assert m.window_sizes(8) == (0,) + (1,) * 7
    for _ in range(2):  # a failed scan is not cached
        with pytest.raises(IntegrityError, match=r"fiber\(100\) has size 1"):
            m.window_sizes(200)
    assert fiber_report(m) == math.inf


@given(finite_maps(max_n=12), st.integers(1, 100))
def test_table_window_sizes_and_certificates_are_exact(m, window):
    tally = Counter(m.table)
    sizes = tuple(tally[a] for a in range(1, m.domain.size + 1))
    assert m.window_sizes(window) == sizes  # all n targets, whatever the window
    certs = m.certificates
    assert certs.m_sup == certs.sup_card == max(sizes)
    assert certs.surjective is (0 not in sizes)
    assert certs.infinite_fibers == frozenset()
    assert certs.injective is (max(sizes) == 1)


def test_witnesses_read_each_target_once():
    counted, calls = _counting(triangular_rule())
    m = IndexMap(rule=counted)
    assert len(divergence_witness(m, 100).fiber_sizes) == 100
    assert calls == list(range(1, 101))
    counted, calls = _counting(doubling_rule())
    m = IndexMap(rule=counted)
    assert witness_sequence(m, 30).indices == tuple(range(2, 61, 2))
    assert calls == list(range(1, 65))  # the window 1..30, then the certificates' 31..64
    m.window_sizes(40)
    assert len(calls) == 64  # a smaller window is a prefix of the cached scan


@pytest.mark.parametrize("verdict", [
    pytest.param(IndexMap.window_sizes, id="window_sizes"),
    pytest.param(domain_report, id="domain_report"),
    # each field of the report: the witness that refutes closedness, and M
    pytest.param(lambda m, w: domain_report(m, w).unbounded_witness, id="domain_closed"),
    pytest.param(lambda m, w: domain_report(m, w).m_runs, id="m_set"),
])
@pytest.mark.parametrize("m", [make_finite_map([2, 2, 1], 3), symbolic_map("successor")],
                         ids=["table", "rule"])
def test_windowed_verdicts_reject_window_0(verdict, m):
    # and a window past the search budget, before a single size is read
    for window in (0, SEARCH_CAP + 1):
        with pytest.raises(ConstructionError, match=rf"must be in 1\.\.{SEARCH_CAP}, got {window}"):
            verdict(m, window)


# --- fiber-count profile --------------------------------------------------

def _check_profile(m):
    counts = m.fiber_counts
    assert len(counts) == m.domain.size
    tally = Counter(m.table)
    assert {a: c for a, c in enumerate(counts, start=1) if c} == dict(tally)
    for a in range(1, m.domain.size + 1):
        assert m.fiber_card(a) == m.table.count(a)


@given(finite_maps(max_n=12))
def test_fiber_counts_agree_with_counter(m):
    _check_profile(m)


@given(st.integers(2, 12).flatmap(
    lambda n: st.lists(st.integers(1, n), min_size=n, max_size=n).map(tuple)))
def test_fiber_counts_on_directly_built_maps(table):
    m = IndexMap(table=table)
    _check_profile(m)


@given(finite_maps())
def test_fiber_counts_cache_is_not_part_of_identity(m):
    fresh = IndexMap(table=m.table)
    before = (hash(m), repr(m))
    m.fiber_counts  # fill the cache on one of two equal maps
    assert "fiber_counts" in vars(m) and "fiber_counts" not in vars(fresh)
    assert m == fresh and fresh == m
    assert hash(m) == hash(fresh) == before[0]
    assert repr(m) == repr(fresh) == before[1]


def test_fiber_counts_need_a_finite_domain():
    with pytest.raises(DomainError):
        symbolic_map("successor").fiber_counts


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


MALFORMED_MAPS = [
    (42, "map document must be a JSON object"),
    ({"kind": "nonsense"}, "map \"kind\" must be \"finite\" or \"symbolic\", got 'nonsense'"),
    ({"kind": "finite"}, 'finite map needs an "images" array'),
    ({"kind": "finite", "images": [1, 9]}, "image at position 2 is 9, not in 1..2"),
    ({"kind": "finite", "images": [1]}, "finite index set must have size >= 2, got 1"),
    ({"kind": "symbolic"}, 'symbolic map needs a "name" string'),
    ({"kind": "symbolic", "name": "block", "param": "wide"}, "block size must be an integer >= 1, got 'wide'"),
    ({"kind": "symbolic", "name": "unknown"}, "unknown symbolic rule 'unknown'"),
    ({"kind": "symbolic", "name": "block", "param": True}, "block size must be an integer >= 1, got True"),
    ({"kind": "symbolic", "name": "block", "param": 2.5}, "block size must be an integer >= 1, got 2.5"),
    ({"kind": "symbolic", "name": "successor", "param": "x"}, "rule 'successor' takes no param"),
]


@pytest.mark.parametrize(
    "doc,message", MALFORMED_MAPS, ids=["42"] + [f"doc{i}" for i in range(1, len(MALFORMED_MAPS))]
)
def test_parse_map_rejects_malformed(doc, message):
    # the constructors are the one check of name and param; parse_map keeps their text
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        parse_map(doc)


# --- soundness spot check -------------------------------------------------

def test_verify_fiber_soundness_reads_each_beta_and_fiber_once():
    calls = Counter()

    def counted(name, fn):
        def wrapper(x):
            calls[name] += 1
            return fn(x)
        return wrapper

    succ = successor_rule()
    rule = dataclasses.replace(
        succ, eval_fn=counted("eval", succ.eval_fn), members_fn=counted("members", succ.members_fn)
    )
    verify_fiber_soundness(IndexMap(rule=rule), window=1000)
    # targets 1..1001: the window and the image of 1000
    assert calls == {"eval": 1000, "members": 1001}


@given(finite_maps())
def test_table_preimages_are_the_fibers(m):
    for a in range(1, m.domain.size + 1):
        assert m.preimages[a] == tuple(sorted(brute_fiber(m.table, a)))
        assert m.fiber(a) == frozenset(m.preimages[a])
    verify_fiber_soundness(m, window=m.domain.size)


@given(finite_maps(max_n=40))
def test_preimages_are_increasing_tuples_sharing_the_empty_one(m):
    pre = m.preimages
    assert type(pre) is tuple and len(pre) == m.domain.size + 1
    assert pre[0] == ()
    assert tuple(map(len, pre[1:])) == m.window_sizes(m.domain.size)
    for fiber in pre:
        assert type(fiber) is tuple
        assert list(fiber) == sorted(set(fiber))
        if not fiber:
            assert fiber is pre[0]


@given(finite_maps())
def test_preimages_cache_is_built_once_and_not_part_of_identity(m):
    fresh = IndexMap(table=m.table)
    before = (hash(m), repr(m))
    pre = m.preimages
    assert m.preimages is pre and vars(m)["preimages"] is pre
    assert "preimages" not in vars(fresh)
    assert m == fresh and fresh == m
    assert hash(m) == hash(fresh) == before[0]
    assert repr(m) == repr(fresh) == before[1]


def test_verify_fiber_soundness_catches_bad_members():
    broken = SymbolicRule(
        name="broken",
        eval_fn=lambda k: k + 1,
        card_fn=lambda a: 1,
        members_fn=lambda a: frozenset((a,)),  # wrong: claims a maps to itself
        m_sup=1,
        surjective=True,
        infinite_fibers=frozenset(),
    )
    # card_fn disagreeing with the member set: a finite size, then an infinite fiber
    wrong_size = dataclasses.replace(successor_rule(), card_fn=lambda a: 2)
    finite_for_infinite = dataclasses.replace(odd_collapse_rule(), card_fn=lambda a: 1)
    for rule, window, error in ((broken, 5, "contains"),
                                (wrong_size, 100, r"fiber\(1\) has size 2"),
                                (finite_for_infinite, 5, r"fiber\(1\) has size 1")):
        with pytest.raises(IntegrityError, match=error):
            verify_fiber_soundness(IndexMap(rule=rule), window=window)
