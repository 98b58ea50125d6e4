import itertools
import math
from array import array
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from genshift import (
    COUNTABLE,
    DEFAULT_WINDOW,
    SEARCH_CAP,
    ConstructionError,
    IndexMap,
    IndexSet,
    IntegrityError,
    NotInL2,
    SearchExhaustedError,
    SymbolicRule,
    UnsupportedError,
    apply,
    apply_norm_sq,
    divergence_witness,
    domain_report,
    fiber_records,
    from_entries,
    in_domain,
    norm_sq,
    symbolic_map,
)
from genshift.dense_oracle import (
    exhaustive_maps,
)
from genshift.index_domain import finite_runs, make_finite_map
from helpers import (
    add,
    clamp_liar_rule,
    liar_rule,
    parity_rule,
    scale,
    unit_vector,
    vectors_on,
    zero,
)


# --- in_domain ---------------------------------------------------------------

def test_zero_vector_always_in_domain():
    assert in_domain(symbolic_map("odd_collapse"), zero(COUNTABLE))
    assert in_domain(make_finite_map([1, 1], 2), zero(IndexSet(2)))


def test_odd_collapse_membership():
    oc = symbolic_map("odd_collapse")
    assert not in_domain(oc, unit_vector(COUNTABLE, 1))
    # fiber of 2 is exactly {2}: enumerate preimages on a window to certify
    assert {b for b in range(1, 400) if oc.eval(b) == 2} == {2}
    assert in_domain(oc, unit_vector(COUNTABLE, 2))


@given(vectors_on(COUNTABLE, max_index=20))
def test_in_domain_consistent_with_apply(z):
    for m in (symbolic_map("odd_collapse"), IndexMap(rule=parity_rule()),
              symbolic_map("successor")):
        try:
            apply(m, z)
        except NotInL2:
            assert not in_domain(m, z)
        else:
            assert in_domain(m, z)


@given(st.data())
def test_domain_is_a_subspace(data):
    oc = symbolic_map("odd_collapse")
    off_one = st.dictionaries(st.integers(2, 30), st.just(1 + 1j), max_size=6)
    x = from_entries(COUNTABLE, data.draw(off_one))
    y = from_entries(COUNTABLE, data.draw(off_one))
    assert in_domain(oc, x) and in_domain(oc, y)
    combo = add(scale(2 - 1j, x), scale(-3.5, y))
    assert in_domain(oc, combo)


# --- M: DomainReport.m_runs, with the certified complement on the map -----------

def test_m_set_bounded_rules_cover_everything():
    m = symbolic_map("block", 3)
    assert tuple(itertools.chain(*domain_report(m, window=12).m_runs)) == tuple(range(1, 13))
    assert m.certificates.infinite_fibers == frozenset()


def test_m_set_odd_collapse_excludes_one():
    m = symbolic_map("odd_collapse")
    assert tuple(itertools.chain(*domain_report(m, window=10).m_runs)) == tuple(range(2, 11))
    assert m.certificates.infinite_fibers == frozenset({1})


def test_m_set_finite_is_exact():
    m = make_finite_map([1, 1, 1, 1], 4)
    assert tuple(itertools.chain(*domain_report(m, window=2).m_runs)) == (1, 2, 3, 4)  # a table ignores the window
    assert m.certificates.infinite_fibers == frozenset()


@pytest.mark.parametrize("m, window, members", [
    (symbolic_map("odd_collapse"), 1, ()),  # M is empty
    (symbolic_map("odd_collapse"), 5000, tuple(range(2, 5001))),
    (symbolic_map("block", 3), 12, tuple(range(1, 13))),
    (make_finite_map([1, 1, 1, 1], 4), 2, (1, 2, 3, 4)),
], ids=["odd_collapse_w1", "odd_collapse_w5000", "block", "table"])
def test_m_is_kept_as_the_finite_runs(m, window, members):
    rep = domain_report(m, window)
    stop = len(m.window_sizes(window)) + 1
    assert rep.m_runs == tuple(finite_runs(m.certificates.infinite_fibers, 1, stop))
    assert tuple(itertools.chain(*rep.m_runs)) == members


def test_m_set_refutes_false_certificates():
    with pytest.raises(IntegrityError, match="finite-fiber bound 1"):
        domain_report(IndexMap(rule=clamp_liar_rule()), window=8)


# --- closedness: Certificates.closed ----------------------------------------------

def test_domain_closed_finite_always_true():
    m = make_finite_map([2, 2, 2], 3)
    assert m.certificates.closed is True
    assert domain_report(m).unbounded_witness is None


def test_domain_closed_block_rule():
    m = symbolic_map("block", 3)
    assert domain_report(m).unbounded_witness is None
    assert m.certificates.closed is True
    assert m.certificates.m_sup == 3


def test_domain_closed_triangular_false_with_witness():
    m = symbolic_map("triangular")
    rep = domain_report(m)
    assert m.certificates.closed is False
    assert rep.unbounded_witness is not None
    indices, sizes = rep.unbounded_witness
    assert list(sizes) == sorted(set(sizes)) and len(sizes) >= 2  # strictly increasing
    members = set(itertools.chain(*rep.m_runs))
    assert all(a in members or a > DEFAULT_WINDOW for a in indices[:3])


def test_domain_closed_odd_collapse_true_over_m():
    m = symbolic_map("odd_collapse")
    assert domain_report(m).unbounded_witness is None
    assert m.certificates.closed is True
    assert m.certificates.m_sup == 1


def test_domain_report_equivalence_of_verdicts():
    for m in (symbolic_map("block", 4), symbolic_map("triangular"),
              symbolic_map("odd_collapse"), make_finite_map([1, 1, 2], 3)):
        rep = domain_report(m)
        if m.certificates.closed is True:
            assert m.certificates.m_sup != math.inf and rep.unbounded_witness is None
        if m.certificates.closed is False:
            assert m.certificates.m_sup == math.inf and rep.unbounded_witness is not None


def test_certificates_closed_clamp_liar_integrity_error():
    # closedness is read off the checked record: the first window refutes the false m_sup = 1
    with pytest.raises(IntegrityError, match=r"finite-fiber bound 1 but fiber\(1\) has size 2"):
        IndexMap(rule=clamp_liar_rule()).certificates.closed


def test_domain_report_clamp_liar_integrity_error():
    # without the check: closed=True and m_sup=1 over a fiber of size 2
    with pytest.raises(IntegrityError):
        domain_report(IndexMap(rule=clamp_liar_rule()))


# --- fiber_records -----------------------------------------------------------------

def test_fiber_records_triangular():
    assert fiber_records(symbolic_map("triangular"), 5) == (array("q", [1, 2, 3, 4, 5]), (1, 2, 3, 4, 5))


def test_fiber_records_finite_map_greedy_smallest_first():
    m = make_finite_map([1, 1, 2, 2, 2, 3], 6)
    assert fiber_records(m, 4) == (array("q", [1, 2]), (2, 3))  # only two records exist


def test_fiber_records_skip_infinite_fibers():
    records = fiber_records(symbolic_map("odd_collapse"), 3)
    assert records == (array("q", [2]), (1,))  # all finite fibers are singletons


@pytest.mark.parametrize("count", [0, -1])
def test_fiber_records_rejects_bad_count(count):
    with pytest.raises(ConstructionError, match=rf"count must be >= 1, got {count}"):
        fiber_records(symbolic_map("triangular"), count)


# --- divergence_witness ---------------------------------------------------------

def test_divergence_witness_single_term():
    w = divergence_witness(symbolic_map("triangular"), 1)
    assert w.vector.entries == {1: 1 + 0j}
    assert w.image_norm_sq_lower_bound == 1.0


def test_divergence_witness_k4_exact_partial_sums():
    w = divergence_witness(symbolic_map("triangular"), 4)
    assert tuple(zip(w.indices, w.fiber_sizes)) == ((1, 1), (2, 2), (3, 3), (4, 4))
    assert norm_sq(w.vector) == float(Fraction(1) + Fraction(1, 4) + Fraction(1, 9) + Fraction(1, 16))
    assert w.image_norm_sq_lower_bound == float(Fraction(25, 12))  # H_4


def test_divergence_witness_vector_entries_are_reciprocals():
    w = divergence_witness(symbolic_map("triangular"), 6)
    assert w.vector.entries[3] == complex(1.0 / 3)
    assert w.vector.entries[6] == complex(1.0 / 6)
    assert list(w.weights) == [1.0 / k for k in range(1, 7)]
    assert list(w.weights) == [1.0 / k for k in range(1, 7)]  # a fresh iterator on each read


def test_divergence_bound_is_monotone_in_k():
    tri = symbolic_map("triangular")
    bounds = [divergence_witness(tri, K).image_norm_sq_lower_bound for K in range(1, 41)]
    assert all(b2 > b1 for b1, b2 in zip(bounds, bounds[1:]))
    assert bounds[-1] > 4.0  # exceeds a fixed level eventually


def odd_blocks_rule() -> SymbolicRule:
    """The k-th consecutive block of length 2k - 1 goes to k: fiber(k) = ((k-1)^2, k^2]."""
    return SymbolicRule(
        name="odd_blocks",
        eval_fn=lambda j: math.isqrt(j - 1) + 1,
        card_fn=lambda a: 2 * a - 1,
        members_fn=lambda a: frozenset(range((a - 1) ** 2 + 1, a * a + 1)),
        m_sup=math.inf,
        surjective=True,
        infinite_fibers=frozenset(),
    )


@pytest.mark.parametrize("K", [1, 2, 3, 1000])
@pytest.mark.parametrize("m", [symbolic_map("triangular"), IndexMap(rule=odd_blocks_rule())],
                         ids=["triangular", "odd_blocks"])
def test_divergence_sums_equal_the_per_record_sums(m, K):
    # the sums over the columns are the per-record generator sums, bit for bit
    w = divergence_witness(m, K)
    records = tuple(zip(w.indices, w.fiber_sizes))
    assert len(records) == K
    assert w.image_norm_sq_lower_bound == math.fsum(
        size / (k * k) for k, (_, size) in enumerate(records, start=1))
    assert w.vector_norm_sq == math.fsum((1.0 / k) * (1.0 / k) for k in range(1, K + 1))
    assert w.vector_norm_sq == norm_sq(w.vector)


def towers_rule() -> SymbolicRule:
    """The a-th consecutive block of length 10**(400a) goes to a: every fiber finite, none a float."""
    def below(a):  # the indices that map below a
        return sum(10 ** (400 * j) for j in range(1, a))
    return SymbolicRule(
        name="towers",
        eval_fn=lambda k: next(a for a in itertools.count(1) if k <= below(a + 1)),
        card_fn=lambda a: 10 ** (400 * a),
        members_fn=lambda a: frozenset(range(below(a) + 1, below(a + 1) + 1)),
        m_sup=math.inf,
        surjective=True,
        infinite_fibers=frozenset(),
    )


def test_divergence_bound_past_the_float_range_is_infinite():
    # each term n_k / k^2 passes the float range: the bound is math.inf, as apply_norm_sq gives
    m = IndexMap(rule=towers_rule())
    w = divergence_witness(m, 2)
    assert w.image_norm_sq_lower_bound == math.inf == apply_norm_sq(m, w.vector)
    assert tuple(zip(w.indices, w.fiber_sizes)) == ((1, 10**400), (2, 10**800))
    assert w.vector_norm_sq == 1.25


def test_divergence_witness_hashes_by_value():
    # built separately, so equal by value only: their index arrays are distinct objects
    w1, w2 = (divergence_witness(symbolic_map("triangular"), 3) for _ in range(2))
    assert w1 is not w2 and w1.indices is not w2.indices
    assert w1 == w2 and hash(w1) == hash(w2)
    assert len({w1, w2}) == 1
    assert w1 != divergence_witness(symbolic_map("triangular"), 4)


def test_divergence_witness_rejects_bounded_maps():
    with pytest.raises(UnsupportedError):
        divergence_witness(symbolic_map("block", 3), 4)
    with pytest.raises(UnsupportedError):
        divergence_witness(make_finite_map([1, 1, 1], 3), 2)
    with pytest.raises(UnsupportedError):
        divergence_witness(symbolic_map("odd_collapse"), 2)  # bounded over M


def test_divergence_witness_refutes_a_false_bound_certificate():
    # m_sup = 1 would make the map look bounded; the first window refutes it before any refusal
    with pytest.raises(IntegrityError, match=r"finite-fiber bound 1 but fiber\(1\) has size 2"):
        divergence_witness(IndexMap(rule=liar_rule()), 4)


def test_divergence_witness_stops_at_the_search_budget():
    # the triangular rule has one record per target, so the budget holds SEARCH_CAP of them
    with pytest.raises(SearchExhaustedError):
        divergence_witness(symbolic_map("triangular"), SEARCH_CAP + 1)


def test_divergence_witness_rejects_bad_k():
    for K in (0, -1):  # inside the package's error taxonomy, before any scan
        with pytest.raises(ConstructionError, match=rf"K must be >= 1, got {K}"):
            divergence_witness(symbolic_map("triangular"), K)


# --- characterization on a small finite domain ------------------------------------

def test_characterization_exhaustive_on_finite_4():
    dom = IndexSet(4)
    supports = [frozenset(s) for r in range(5) for s in itertools.combinations(range(1, 5), r)]
    vectors = [(s, from_entries(dom, {i: 1.0 for i in s})) for s in supports]
    for m in exhaustive_maps(4):
        members = set(itertools.chain(*domain_report(m).m_runs))
        for support, z in vectors:
            assert in_domain(m, z) == support.issubset(members)
