import dataclasses
import math
import pickle
import re
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from genshift import (
    COUNTABLE,
    SEARCH_CAP,
    GenShiftError,
    IndexMap,
    IndexSet,
    IntegrityError,
    NotInL2,
    ParseError,
    SymbolicRule,
    UnsupportedError,
    apply,
    apply_norm_sq,
    classify,
    from_entries,
    in_domain,
    norm_sq,
    solve,
    symbolic_map,
)
from genshift.dense_oracle import (
    exhaustive_maps,
    spectral_norm,
    structural_check,
    to_dense,
)
from genshift import gen_shift, index_domain
from genshift.gen_shift import operator_norm
from genshift.index_domain import (
    DEFAULT_WINDOW,
    block_rule,
    clamp_pred_rule,
    doubling_rule,
    make_finite_map,
    odd_collapse_rule,
    successor_rule,
)
from helpers import (
    add,
    clamp_liar_rule,
    consistent_liar_rule,
    declared_form,
    finite_maps,
    liar_rule,
    map_and_vector,
    norm,
    parity_rule,
    permutation_maps,
    scale,
    sizes_card,
    unit_vector,
    vectors_on,
)


# --- apply ------------------------------------------------------------------

def test_apply_identity_map():
    m = make_finite_map([1, 2, 3], 3)
    x = from_entries(m.domain, {1: 1, 2: 2j})
    assert apply(m, x) == x


def test_apply_successor_kills_e1():
    m = symbolic_map("successor")
    assert apply(m, unit_vector(COUNTABLE, 1)).entries == {}


def test_apply_constant_map_copies_everywhere():
    images = [1, 1, 1, 1]
    m = make_finite_map(images, 4)
    y = apply(m, unit_vector(m.domain, 1))
    # dense oracle: matrix built directly from the image table
    A = np.zeros((4, 4))
    for b, a in enumerate(images):
        A[b, a - 1] = 1
    expected = A @ np.array([1.0, 0, 0, 0])
    assert [y[k].real for k in range(1, 5)] == list(expected)
    assert norm(y) == 2.0


def refused_index(m, x) -> int:
    """The index that the NotInL2 raised by ``apply(m, x)`` names."""
    with pytest.raises(NotInL2) as refused:
        apply(m, x)
    return refused.value.index


def test_apply_not_in_l2_reports_smallest_offender():
    oc = symbolic_map("odd_collapse")
    assert refused_index(oc, from_entries(COUNTABLE, {1: 1, 4: 2})) == 1
    par = IndexMap(rule=parity_rule())
    assert refused_index(par, from_entries(COUNTABLE, {2: 1, 1: 1})) == 1
    assert refused_index(par, from_entries(COUNTABLE, {2: 1, 5: 1})) == 2
    # an infinite fiber before a size past the float range: no float sum of the two is formed
    huge = IndexMap(rule=SymbolicRule(name="huge", eval_fn=lambda k: 1,
                                      card_fn=lambda a: math.inf if a == 1 else a, members_fn=lambda a: None,
                                      m_sup=math.inf, surjective=True, infinite_fibers=frozenset({1})))
    assert refused_index(huge, from_entries(COUNTABLE, {10**400: 1, 1: 1})) == 1


def test_not_in_l2_is_a_library_error_naming_its_index():
    exc = NotInL2(7)
    assert isinstance(exc, GenShiftError)
    assert exc.index == 7
    assert str(exc) == "support index 7 has an infinite fiber"
    assert pickle.loads(pickle.dumps(exc)).index == 7


def test_apply_image_past_the_search_budget_is_refused_before_any_member():
    # every finite fiber is within the budget, two of them together are not
    members = []
    half = SEARCH_CAP // 2 + 1
    rule = SymbolicRule(name="wide", eval_fn=lambda k: 1, card_fn=lambda a: math.inf if a == 3 else half,
                        members_fn=lambda a: members.append(a) or (None if a == 3 else frozenset()),
                        m_sup=half, surjective=True, infinite_fibers=frozenset({3}))
    m = IndexMap(rule=rule)
    with pytest.raises(UnsupportedError,
                       match=rf"^the image has {2 * half} entries or more, above SEARCH_CAP = {SEARCH_CAP}$"):
        apply(m, from_entries(COUNTABLE, {3: 1, 2: 1, 1: 1}))  # sizes are read in index order
    assert refused_index(m, from_entries(COUNTABLE, {3: 1, 1: 1})) == 3
    assert members == []


@pytest.mark.parametrize("members_fn, theta, listed, size", [
    # ROADMAP item 22's Gap 1: the true fiber(10) = {19, 20} loses 19; read as listed, e_10 goes to e_20
    (lambda a: frozenset({20}) if a == 10 else frozenset(range(2 * a - 1, 2 * a + 1)), 10, 1, 2),
    # one extra member, 1, past the fiber(7) = {13, 14} of block(2)
    (lambda a: frozenset({1, 13, 14}) if a == 7 else frozenset(range(2 * a - 1, 2 * a + 1)), 7, 3, 2),
], ids=["dropped_member", "extra_member"])
def test_a_rule_apply_refutes_members_fn_of_the_wrong_length(members_fn, theta, listed, size):
    m = IndexMap(rule=dataclasses.replace(block_rule(2), members_fn=members_fn))
    message = (rf"^rule 'block' has len\(members_fn\({theta}\)\) == {listed}"
               rf" but fiber\({theta}\) has size {size}$")
    for entries in ({theta: 1}, {3: 1, theta: 2j, 40: 1}):  # the fiber named among honest ones
        with pytest.raises(IntegrityError, match=message):
            apply(m, from_entries(COUNTABLE, entries))
    with pytest.raises(IntegrityError, match=message):  # fiber reads the members as apply does
        m.fiber(theta)
    honest = from_entries(COUNTABLE, {3: 1, 40: 1})
    assert apply(m, honest) == apply(symbolic_map("block", 2), honest)


PERIODIC_SHIPPED = {"successor": successor_rule, "clamp_pred": clamp_pred_rule, "doubling": doubling_rule,
                    "odd_collapse": odd_collapse_rule, **{f"block{b}": (lambda b=b: block_rule(b)) for b in range(1, 6)}}


def outcome(op, m):
    """``("value", op(m))``, or ``("error", type, text)`` for the library error op raises."""
    try:
        return "value", op(m)
    except GenShiftError as exc:
        return "error", type(exc), str(exc)


def classify_reads(sizes):
    """What ``classify`` reads off a rule's sizes: the sup of all of them, onto-ness, one-to-one-ness."""
    finite = max((c for c in sizes if c != math.inf), default=0)
    return (math.inf if math.inf in sizes else finite), 0 not in sizes, math.inf not in sizes and finite <= 1


@given(name=st.sampled_from(sorted(PERIODIC_SHIPPED)), k=st.integers(0, 62), r=st.integers(0, 1 << 12),
       off=st.sampled_from([-1, 1, 2]))
@example(name="successor", k=0, r=0, off=1)  # fiber(1) is empty: apply refutes, the other three read 1
@example(name="clamp_pred", k=1, r=0, off=1)  # block 1 -> 2 keeps m_sup 2, so classify is right
@example(name="odd_collapse", k=0, r=99, off=2)  # an infinite fiber keeps classify right
@example(name="block2", k=0, r=99, off=-1)  # past 1..64, refuted by the tally of 1..64
@example(name="doubling", k=0, r=0, off=-1)  # a size of -1, refused by the form check
def test_a_size_lie_on_a_periodic_rule_gives_the_honest_answer_or_is_refuted(name, k, r, off):
    # ROADMAP item 22's size lies: one finite head or block entry of a shipped periodic rule's
    # sizes off by off, read at the target t that the entry states (the r-th copy of a block entry).
    # At -1 the form check refuses a negative entry and the tally of eval_fn over 1..64 refutes
    # every other lie: each fiber of a drawn head and block has all its members inside 1..64.
    # At +1 and +2 apply refutes by member count, while fiber_card and apply_norm_sq read the lie,
    # and so does classify wherever the lie moves what it reads
    honest = PERIODIC_SHIPPED[name]()
    head, block = honest.sizes
    sizes = list(head + block)
    i = [j for j, c in enumerate(sizes) if c != math.inf][k % sum(c != math.inf for c in sizes)]
    t = i + 1 + (r * len(block) if i >= len(head) else 0)
    sizes[i] += off
    lied = (tuple(sizes[:len(head)]), tuple(sizes[len(head):]))
    if sizes[i] < 0:
        with pytest.raises(ParseError, match=rf"^rule '{honest.name}' declares sizes "):
            dataclasses.replace(honest, sizes=lied)
        return
    liar = dataclasses.replace(honest, sizes=lied)
    e_t = from_entries(COUNTABLE, {t: 1})
    ops = {"classify": classify, "apply": lambda m: apply(m, e_t), "apply_norm_sq": lambda m: apply_norm_sq(m, e_t),
           "in_domain": lambda m: in_domain(m, e_t), "fiber_card": lambda m: m.fiber_card(t)}
    refuted, wrong = set(), set()
    for op_name, op in ops.items():
        got = outcome(op, IndexMap(rule=liar))
        if got[:2] == ("error", IntegrityError):
            refuted.add(op_name)
        elif got != outcome(op, IndexMap(rule=honest)):
            wrong.add(op_name)
    if off == -1:
        assert (refuted, wrong) == (set(ops), set())
    else:
        moved = classify_reads(sizes) != classify_reads(head + block)
        assert (refuted, wrong) == ({"apply"}, {"fiber_card", "apply_norm_sq"} | ({"classify"} if moved else set()))


def test_a_rule_apply_reads_each_fiber_once():
    block = block_rule(3)
    for declared in (False, True):  # block(3), and its declared form with a card_fn that counts
        cards, members = Counter(), Counter()
        rule = dataclasses.replace(block, members_fn=lambda a: members.update([a]) or block.members_fn(a))
        if declared:
            rule = declared_form(rule, card_fn=lambda a: cards.update([a]) or 3)
        x = from_entries(COUNTABLE, {9: 1, 2: 1j, 5: 2})
        assert apply(IndexMap(rule=rule), x) == apply(symbolic_map("block", 3), x)
        assert members == Counter({2: 1, 5: 1, 9: 1})
        # a rule with sizes has no card_fn; the declared form's one check of the certificates
        # reads 1..DEFAULT_WINDOW once, and each support index once more
        assert cards == (Counter(range(1, DEFAULT_WINDOW + 1)) + members if declared else Counter())


def test_in_domain_reads_each_size_at_most_once_and_stops_at_an_infinite_one():
    oc = odd_collapse_rule()
    cards = Counter()
    m = IndexMap(rule=declared_form(oc, card_fn=lambda a: cards.update([a]) or sizes_card(oc.sizes)(a)))
    assert not in_domain(m, from_entries(COUNTABLE, {4: 1, 1: 1, 6: 1}))
    # the one check of the certificates reads 1..DEFAULT_WINDOW once; then in_domain reads 4 and 1 and stops
    assert cards == Counter(range(1, DEFAULT_WINDOW + 1)) + Counter({4: 1, 1: 1})
    cards.clear()
    assert in_domain(m, from_entries(COUNTABLE, {4: 1, 6: 1}))
    assert cards == Counter({4: 1, 6: 1})
    assert in_domain(IndexMap(rule=oc), from_entries(COUNTABLE, {4: 1, 6: 1}))  # the same, read off sizes


def test_vector_paths_never_reach_the_checked_accessors(monkeypatch):
    calls = Counter()
    for name in ("fiber", "fiber_card", "eval"):
        def counted(self, a, _name=name, _method=getattr(IndexMap, name)):
            calls.update([_name])
            return _method(self, a)
        monkeypatch.setattr(IndexMap, name, counted)
    table, perm = make_finite_map([2, 2, 1, 3], 4), make_finite_map([3, 1, 4, 2], 4)
    x = from_entries(table.domain, {1: 1, 2: 2j})
    assert apply(table, x).entries == {3: 1, 1: 2j, 2: 2j}
    assert solve(perm, x).entries == {3: 1, 1: 2j}
    assert apply_norm_sq(table, x) == 9.0 and in_domain(table, x)
    for m in (symbolic_map("block", 3), symbolic_map("doubling"), symbolic_map("odd_collapse")):
        z = from_entries(COUNTABLE, {2: 1, 4: 1j})
        apply(m, z), apply_norm_sq(m, z), in_domain(m, z)
    assert solve(symbolic_map("doubling"), from_entries(COUNTABLE, {2: 1})).entries == {4: 1}
    assert calls == {}


def test_the_search_budget_is_inclusive():
    assert symbolic_map("block", SEARCH_CAP).fiber(1) == frozenset(range(1, SEARCH_CAP + 1))
    e1 = unit_vector(COUNTABLE, 1)
    with pytest.raises(UnsupportedError, match=rf"^fiber\(1\) has size {SEARCH_CAP + 1}, above"):
        apply(symbolic_map("block", SEARCH_CAP + 1), e1)
    y = apply(symbolic_map("block", SEARCH_CAP // 2), from_entries(COUNTABLE, {1: 1, 2: 2}))
    assert len(y.entries) == SEARCH_CAP
    assert y[SEARCH_CAP // 2] == 1 and y[SEARCH_CAP // 2 + 1] == y[SEARCH_CAP] == 2


@pytest.mark.parametrize("op", [apply, apply_norm_sq, solve, in_domain],
                         ids=["apply", "apply_norm_sq", "solve", "in_domain"])
def test_apply_domain_mismatch(op):
    with pytest.raises(ParseError, match="map and vector domains differ"):
        op(make_finite_map([1, 2], 2), unit_vector(IndexSet(3), 1))
    # the domains are checked before a rule's certificates, so a liar is refused as a mismatch
    with pytest.raises(ParseError, match="map and vector domains differ"):
        op(IndexMap(rule=consistent_liar_rule()), unit_vector(IndexSet(3), 1))


@given(map_and_vector())
def test_apply_support_is_union_of_fibers(mv):
    m, x = mv
    y = apply(m, x)
    expected = set()
    for theta in x.entries:
        expected |= m.fiber(theta)
    assert set(y.entries) == expected


nonzero_scalars = st.complex_numbers(min_magnitude=1e-3, max_magnitude=100.0,
                                     allow_nan=False, allow_infinity=False)


@given(finite_maps(max_n=40), st.booleans(), st.data())
def test_table_apply_is_the_brute_reindex(m, full, data):
    n = m.domain.size
    support = range(1, n + 1) if full else data.draw(st.sets(st.integers(1, n), max_size=3))
    x = from_entries(m.domain, {a: data.draw(nonzero_scalars) for a in support})
    expected = {b: x.entries[a] for b, a in enumerate(m.table, start=1) if a in x.entries}
    assert apply(m, x).entries == expected


# --- apply_norm_sq ----------------------------------------------------------

def test_apply_norm_sq_identity_is_norm_sq():
    m = make_finite_map([1, 2, 3], 3)
    x = from_entries(m.domain, {1: 3, 3: 4j})
    assert apply_norm_sq(m, x) == norm_sq(x)


def test_apply_norm_sq_clamp_table_e1():
    images = [1] + list(range(1, 10))
    m = make_finite_map(images, 10)
    assert images.count(1) == 2  # brute preimage count
    assert apply_norm_sq(m, unit_vector(m.domain, 1)) == 2.0


def test_apply_norm_sq_empty_fiber_contributes_nothing():
    # |x_1|^2 overflows to inf, but the fiber over 1 is empty: 0 * inf = 0
    for m, expected in ((make_finite_map([2, 2], 2), 18.0), (symbolic_map("successor"), 9.0)):
        x = from_entries(m.domain, {1: 1e200, 2: 3})
        assert apply_norm_sq(m, x) == expected
        assert norm_sq(apply(m, x)) == expected


def test_apply_norm_sq_past_the_float_range_is_inf():
    # finite terms whose sum overflows: math.fsum raises, the norms give inf
    for m, x in ((make_finite_map([1, 2, 1], 3), {1: 1e154, 2: 1e154}),
                 (symbolic_map("successor"), {1: 1e154, 2: 1e154, 3: 1e154})):
        x = from_entries(m.domain, x)
        assert apply_norm_sq(m, x) == math.inf
        assert norm_sq(apply(m, x)) == math.inf


def test_apply_norm_sq_of_a_fiber_size_past_the_float_range():
    # triangular's fiber over k has k members: 10**400 cannot be converted to a float
    m, k = symbolic_map("triangular"), 10**400
    assert apply_norm_sq(m, from_entries(COUNTABLE, {k: 1})) == math.inf
    tiny = 1e-150  # the exact term 10**400 * tiny**2 is about 1e100, rounded once
    exact = float(k * Fraction(tiny) ** 2)
    assert exact == pytest.approx(1e100, rel=1e-15)
    assert apply_norm_sq(m, from_entries(COUNTABLE, {k: tiny})) == exact
    assert apply_norm_sq(m, from_entries(COUNTABLE, {k: tiny * 1j, 3: 2})) == math.fsum([exact, 12.0])


def test_apply_norm_sq_triangular_unit_vectors():
    m = symbolic_map("triangular")
    for k in (1, 2, 5, 12):
        assert apply_norm_sq(m, unit_vector(COUNTABLE, k)) == float(k)


def test_apply_norm_sq_infinite_fiber():
    oc = symbolic_map("odd_collapse")
    assert apply_norm_sq(oc, unit_vector(COUNTABLE, 1)) == math.inf
    assert apply_norm_sq(oc, unit_vector(COUNTABLE, 2)) == 1.0
    # |x_1|^2 underflows to 0, yet x_1 != 0 sits on an infinite fiber: inf * 0 = inf
    tiny = from_entries(COUNTABLE, {1: 1e-200})
    assert refused_index(oc, tiny) == 1
    assert apply_norm_sq(oc, tiny) == math.inf


def reference_norm_sq(terms) -> float:
    """math.fsum of c * (re*re + im*im) over (c, v); math.inf when the partial sum overflows."""
    try:
        return math.fsum(c * (v.real * v.real + v.imag * v.imag) for c, v in terms)
    except OverflowError:
        return math.inf


# magnitudes whose squares overflow to inf, underflow to 0 or land in the subnormals
extreme_components = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.builds(lambda mant, exp: mant * 10.0 ** exp, st.floats(-9.99, 9.99),
              st.sampled_from([-308, -200, -162, -154, -150, 0, 150, 154, 162, 200, 307])),
)
extreme_scalars = st.builds(complex, extreme_components, extreme_components)
BOUNDED_RULES = [("successor", None), ("clamp_pred", None), ("block", 2), ("block", 7), ("doubling", None)]


@given(st.one_of(finite_maps(), st.sampled_from(BOUNDED_RULES).map(lambda r: symbolic_map(*r))), st.data())
def test_the_norms_are_the_exact_fsum_of_their_terms(m, data):
    x = data.draw(vectors_on(m.domain, max_index=40, values=extreme_scalars))
    sizes = Counter(m.table) if m.table is not None else {a: len(m.fiber(a)) for a in x.entries}
    assert norm_sq(x).hex() == reference_norm_sq((1, v) for v in x.entries.values()).hex()
    expected = reference_norm_sq((sizes[a], v) for a, v in x.entries.items() if sizes[a])
    assert apply_norm_sq(m, x).hex() == expected.hex()


@given(map_and_vector())
def test_norm_identity_on_finite_maps(mv):
    m, x = mv
    lhs = norm_sq(apply(m, x))
    rhs = apply_norm_sq(m, x)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, lhs, rhs)


@pytest.mark.parametrize("name,param", [
    ("successor", None), ("clamp_pred", None), ("block", 2),
    ("block", 7), ("doubling", None),
])
@given(x=vectors_on(COUNTABLE, max_index=40))
def test_norm_identity_on_bounded_countable_rules(name, param, x):
    m = symbolic_map(name, param)
    lhs = norm_sq(apply(m, x))
    rhs = apply_norm_sq(m, x)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, lhs, rhs)


# --- operator_norm ----------------------------------------------------------

def test_operator_norm_identity():
    assert operator_norm(make_finite_map([1, 2, 3, 4, 5], 5)) == 1.0


def test_operator_norm_constant_map():
    assert operator_norm(make_finite_map([1, 1, 1, 1], 4)) == 2.0


def test_operator_norm_block_rule_with_truncation_oracle():
    assert operator_norm(symbolic_map("block", 3)) == math.sqrt(3)
    truncation = make_finite_map([1, 1, 1, 2, 2, 2, 3, 3, 3], 9)
    assert abs(spectral_norm(to_dense(truncation)) - math.sqrt(3)) <= 1e-9


def test_operator_norm_unbounded_rules():
    assert operator_norm(symbolic_map("triangular")) == math.inf
    assert operator_norm(symbolic_map("odd_collapse")) == math.inf


# --- classify ---------------------------------------------------------------

def test_classify_three_cycle_is_unitary():
    rep = classify(make_finite_map([2, 3, 1], 3))
    assert rep.maps_into_l2 is True
    assert rep.operator_norm == 1.0
    assert rep.sigma_injective is True and rep.sigma_surjective is True
    assert rep.isometry is True
    assert rep.compact is True
    assert structural_check(to_dense(make_finite_map([2, 3, 1], 3))) == 3


def test_classify_doubling():
    rep = classify(symbolic_map("doubling"))
    assert rep.sigma_surjective is True    # the index map is one-to-one
    assert rep.sigma_injective is False    # 1 is not hit by k -> 2k
    assert rep.isometry is False
    assert rep.compact is False
    assert rep.maps_into_l2 is True


def test_classify_constant_map():
    rep = classify(make_finite_map([1, 1, 1, 1], 4))
    assert rep.sigma_surjective is False and rep.sigma_injective is False
    assert rep.operator_norm == 2.0
    assert structural_check(to_dense(make_finite_map([1, 1, 1, 1], 4))) == 1


def test_classify_clamp_pred():
    rep = classify(symbolic_map("clamp_pred"))
    assert rep.sigma_injective is True     # the index map is onto
    assert rep.sigma_surjective is False   # fiber over 1 has two elements
    assert rep.operator_norm == math.sqrt(2)


def test_classify_clamp_liar_integrity_error():
    # without the check, the false injectivity claim reads as sigma_surjective=True
    with pytest.raises(IntegrityError):
        classify(IndexMap(rule=clamp_liar_rule()))


def test_classify_consistent_liar_integrity_error():
    # card_fn, members_fn and the certificates agree, so only the images of 1..64 refute them
    with pytest.raises(IntegrityError,
                       match=r"^rule 'consistent_liar' maps 2 of 1\.\.64 to 1 but fiber\(1\) has size 1$"):
        classify(IndexMap(rule=consistent_liar_rule()))


@pytest.mark.parametrize("op", [apply, apply_norm_sq, in_domain, solve])
def test_vector_operations_refute_the_consistent_liar(op):
    # read as declared, e_1 goes to e_2 (norm 1, in the domain); the shift gives e_1 + e_2
    with pytest.raises(IntegrityError,
                       match=r"^rule 'consistent_liar' maps 2 of 1\.\.64 to 1 but fiber\(1\) has size 1$"):
        op(IndexMap(rule=consistent_liar_rule()), from_entries(COUNTABLE, {1: 1}))


@pytest.mark.parametrize("op", [apply, apply_norm_sq, in_domain])
def test_vector_operations_build_no_certificates_for_a_table(op):
    # a table's certificates are exact, so the one check of a vector operation reads none
    m = IndexMap(table=(2, 2, 1, 4))
    op(m, from_entries(m.domain, {1: 1, 2: 2j}))
    assert "certificates" not in vars(m)


class Index(int):
    def __repr__(self):
        return f"Index({int(self)})"


def stray_rule(images: dict) -> SymbolicRule:
    """The identity's fibers and certificates, with eval(k) replaced by ``images[k]``."""
    return SymbolicRule(name="stray", eval_fn=lambda k: images.get(k, k), card_fn=lambda a: 1,
                        members_fn=lambda a: frozenset((a,)), m_sup=1, surjective=True,
                        infinite_fibers=frozenset())


# an unhashable image is refused by the image check, before the tally would raise TypeError
@pytest.mark.parametrize("image, shown", [(0, "0"), (-1, "-1"), (1.0, "1.0"), (True, "True"),
                                          (Index(0), "Index(0)"), ([1], "[1]")])
def test_classify_refutes_an_image_outside_the_index_set(image, shown):
    with pytest.raises(IntegrityError, match=rf"^rule 'stray' maps 1 to {re.escape(shown)}, not an int >= 1$"):
        classify(IndexMap(rule=stray_rule({1: image})))


@pytest.mark.parametrize("images, shown", [({5: 0, 9: [1]}, "5 to 0"), ({5: [1], 9: 0}, "5 to [1]"),
                                           ({9: True, 64: 1.5}, "9 to True")])
def test_the_image_check_names_the_first_offender(images, shown):
    with pytest.raises(IntegrityError, match=rf"^rule 'stray' maps {re.escape(shown)}, not an int >= 1$"):
        classify(IndexMap(rule=stray_rule(images)))


def test_the_image_check_stops_at_the_first_offender():
    # eval_fn is not called past a stray image, so a later failure of its own never shows
    def eval_fn(k):
        if k > 5:
            raise ZeroDivisionError(k)
        return 0 if k == 5 else k

    rule = dataclasses.replace(stray_rule({}), eval_fn=eval_fn)
    with pytest.raises(IntegrityError, match=r"^rule 'stray' maps 5 to 0, not an int >= 1$"):
        classify(IndexMap(rule=rule))


@pytest.mark.parametrize("image", [0, -3, "x", 2.0])
@pytest.mark.parametrize("ctor", [successor_rule, doubling_rule], ids=["successor", "doubling"])
def test_solve_and_eval_refute_an_image_past_the_tally_outside_the_index_set(ctor, image):
    # 1000 lies past the tally of 1..64, so only the read of its image can refute it
    honest = ctor()
    m = IndexMap(rule=dataclasses.replace(honest, eval_fn=lambda k: image if k == 1000 else honest.eval_fn(k)))
    message = rf"^rule '{honest.name}' maps 1000 to {re.escape(repr(image))}, not an int >= 1$"
    with pytest.raises(IntegrityError, match=message):
        solve(m, from_entries(COUNTABLE, {1000: 1}))
    with pytest.raises(IntegrityError, match=message):
        m.eval(1000)


def test_an_int_subclass_image_is_tallied_as_its_int():
    # Index(k) is an int >= 1, so it is no stray image; it counts against fiber(k)
    assert classify(IndexMap(rule=stray_rule({k: Index(k) for k in range(1, 65)}))).isometry
    with pytest.raises(IntegrityError,
                       match=r"^rule 'stray' maps 2 of 1\.\.64 to 3 but fiber\(3\) has size 1$"):
        classify(IndexMap(rule=stray_rule({7: Index(3)})))


def test_classify_triangular_not_into_l2():
    rep = classify(symbolic_map("triangular"))
    assert rep.maps_into_l2 is False
    assert rep.operator_norm == math.inf
    assert rep.compact is False


def test_classify_window_refutes_injectivity_exactly():
    # pairs-collapse: the honest rule is not one-to-one; liar_rule's claim that
    # it is (m_sup = 1) is refuted by the first size-2 fiber inside the window
    honest = SymbolicRule(
        name="pairs",
        eval_fn=lambda k: (k + 1) // 2,
        card_fn=lambda a: 2,
        members_fn=lambda a: frozenset((2 * a - 1, 2 * a)),
        m_sup=2,
        surjective=True,
        infinite_fibers=frozenset(),
    )
    assert classify(IndexMap(rule=honest)).sigma_surjective is False
    with pytest.raises(IntegrityError, match=r"finite-fiber bound 1 but fiber\(1\) has size 2"):
        classify(IndexMap(rule=liar_rule()))


@given(permutation_maps())
def test_permutations_are_isometries(m):
    rep = classify(m)
    assert rep.isometry is True
    assert rep.operator_norm == 1.0
    assert rep.sigma_injective is True and rep.sigma_surjective is True


# --- algebraic properties -----------------------------------------------------

@given(finite_maps(), st.data())
def test_linearity_integer_scalars_exact(m, data):
    n = m.domain.size
    ints = st.integers(-4, 4)
    gauss = st.builds(complex, ints, ints)
    x = data.draw(vectors_on(m.domain, values=gauss))
    y = data.draw(vectors_on(m.domain, values=gauss))
    a = data.draw(gauss)
    b = data.draw(gauss)
    lhs = apply(m, add(scale(a, x), scale(b, y)))
    rhs = add(scale(a, apply(m, x)), scale(b, apply(m, y)))
    assert lhs == rhs


@given(map_and_vector(), st.data())
def test_linearity_float_scalars(mv, data):
    m, x = mv
    y = data.draw(vectors_on(m.domain))
    lhs = apply(m, add(scale(1.5 - 0.5j, x), scale(-2.25j, y)))
    rhs = add(scale(1.5 - 0.5j, apply(m, x)), scale(-2.25j, apply(m, y)))
    assert set(lhs.entries) == set(rhs.entries)
    diff = add(lhs, scale(-1, rhs))
    assert norm(diff) <= 1e-12 * max(1.0, norm(lhs))


@given(finite_maps())
def test_sharpness_some_basis_vector_attains_the_norm(m):
    nrm = operator_norm(m)
    attained = max(norm(apply(m, unit_vector(m.domain, t))) for t in range(1, m.domain.size + 1))
    assert attained == nrm


@given(st.data())
def test_contravariant_composition(data):
    n = data.draw(st.integers(2, 6))
    dom = IndexSet(n)
    t1 = data.draw(st.lists(st.integers(1, n), min_size=n, max_size=n))
    t2 = data.draw(st.lists(st.integers(1, n), min_size=n, max_size=n))
    m1 = make_finite_map(t1, n)
    m2 = make_finite_map(t2, n)
    x = data.draw(vectors_on(dom))
    # applying m2's shift then m1's equals the shift of the pointwise composite m2(m1(.))
    composite = make_finite_map([t2[i - 1] for i in t1], n)
    assert apply(m1, apply(m2, x)) == apply(composite, x)


# --- solve --------------------------------------------------------------------

def test_solve_identity():
    m = make_finite_map([1, 2, 3], 3)
    y = from_entries(m.domain, {1: 2, 3: -1j})
    assert solve(m, y) == y


def test_solve_doubling_example():
    m = symbolic_map("doubling")
    y = from_entries(COUNTABLE, {3: 1 + 1j})
    x = solve(m, y)
    assert x.entries == {6: 1 + 1j}
    assert apply(m, x) == y
    assert norm(x) == norm(y)


def test_solve_five_cycle_unit_vector():
    m = make_finite_map([2, 3, 4, 5, 1], 5)
    y = unit_vector(m.domain, 1)
    x = solve(m, y)
    assert apply(m, x) == y
    assert x.entries == {2: 1 + 0j}  # eval(1) = 2 carries y_1


def test_solve_rejects_non_injective_naming_pair():
    with pytest.raises(UnsupportedError, match=r"^index map is not one-to-one: fiber\(3\) has size 2$"):
        solve(make_finite_map([3, 3, 1], 3), unit_vector(IndexSet(3), 1))
    with pytest.raises(UnsupportedError, match=r"^index map is not one-to-one: fiber\(1\) has size 2$"):
        solve(symbolic_map("clamp_pred"), unit_vector(COUNTABLE, 1))


def test_solve_names_an_infinite_fiber():
    with pytest.raises(UnsupportedError, match=r"not one-to-one: fiber\(1\) has size infinite$"):
        solve(symbolic_map("odd_collapse"), unit_vector(COUNTABLE, 2))


def test_solve_collision_refutes_a_false_injectivity_certificate():
    # certified one-to-one, and honest on the window 1..64, but eval(100) == eval(101)
    rule = SymbolicRule(
        name="late_collision",
        eval_fn=lambda k: 100 if k == 101 else k,
        card_fn=lambda a: 1,
        members_fn=lambda a: frozenset((a,)),
        m_sup=1,
        surjective=True,
        infinite_fibers=frozenset(),
    )
    m = IndexMap(rule=rule)
    assert classify(m).sigma_surjective is True
    assert solve(m, from_entries(COUNTABLE, {100: 1, 102: 2})).entries == {100: 1, 102: 2}
    # fiber(100) holds one member, so 101 is outside it
    message = r"^rule 'late_collision' maps 101 to 100 but fiber\(100\) is \[100\]$"
    for y in ({100: 1, 101: 2}, {5: 3, 100: 1, 101: 2}):  # 5 comes first and collides with nothing
        with pytest.raises(IntegrityError, match=message):
            solve(m, from_entries(COUNTABLE, y))


@pytest.mark.parametrize("ctor, image, fiber", [(successor_rule, 5, "[4]"), (doubling_rule, 6, "[3]"),
                                                 (doubling_rule, 5, "[]")])
def test_solve_refutes_an_int_image_past_the_tally_outside_its_fiber(ctor, image, fiber):
    # 1000 lies past the tally of 1..64 and its image is an int >= 1 that collides with nothing in y,
    # so only the fiber of that image, which does not hold 1000, can refute it
    honest = ctor()
    m = IndexMap(rule=dataclasses.replace(honest, eval_fn=lambda k: image if k == 1000 else honest.eval_fn(k)))
    for y in ({1000: 1}, {7: 2, 1000: 1}):
        with pytest.raises(IntegrityError, match=rf"^rule '{honest.name}' maps 1000 to {image} "
                                                 rf"but fiber\({image}\) is {re.escape(fiber)}$"):
            solve(m, from_entries(COUNTABLE, y))
    y = from_entries(COUNTABLE, {7: 2})
    assert solve(m, y) == solve(IndexMap(rule=honest), y)  # the honest entries are unchanged


def test_solve_reads_the_fibers_of_more_images_than_search_cap_in_runs(monkeypatch):
    # one-to-one, each fiber has one member, so a run of SEARCH_CAP images is within the budget
    monkeypatch.setattr(index_domain, "SEARCH_CAP", 64)
    monkeypatch.setattr(gen_shift, "SEARCH_CAP", 64)
    m, y = IndexMap(rule=successor_rule()), from_entries(COUNTABLE, {b: b for b in range(1, 151)})
    assert solve(m, y) == from_entries(COUNTABLE, {b + 1: b for b in range(1, 151)})
    lie = IndexMap(rule=dataclasses.replace(successor_rule(), eval_fn=lambda k: 500 if k == 140 else k + 1))
    with pytest.raises(IntegrityError, match=r"^rule 'successor' maps 140 to 500 but fiber\(500\) is \[499\]$"):
        solve(lie, y)  # in the third run


@given(permutation_maps(), st.data())
def test_solve_round_trip_preserves_norm_exactly(m, data):
    y = data.draw(vectors_on(m.domain))
    x = solve(m, y)
    assert apply(m, x) == y
    assert norm(x) == norm(y)


# --- exhaustive equivalence against the dense oracle ---------------------------

def test_exhaustive_classification_equivalence_n6():
    disagreements = 0
    for m in exhaustive_maps(6):
        rep = classify(m)
        oracle = structural_check(to_dense(m)) == 6
        phi_inj = len(set(m.table)) == 6
        phi_surj = set(m.table) == set(range(1, 7))
        if not (
            rep.sigma_surjective == phi_inj == oracle
            and rep.sigma_injective == phi_surj == oracle
            and rep.isometry == (phi_inj and phi_surj) == oracle
        ):
            disagreements += 1
    assert disagreements == 0
