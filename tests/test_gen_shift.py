import dataclasses
import math
import pickle
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from genshift import (
    COUNTABLE,
    SEARCH_CAP,
    DomainError,
    GenShiftError,
    IndexMap,
    IndexSet,
    IntegrityError,
    NotInL2,
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
from genshift.gen_shift import operator_norm
from genshift.index_domain import block_rule, make_finite_map, odd_collapse_rule
from helpers import (
    add,
    clamp_liar_rule,
    finite_maps,
    liar_rule,
    map_and_vector,
    norm,
    parity_rule,
    permutation_maps,
    scale,
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


def test_a_rule_apply_reads_each_fiber_once():
    cards, members = Counter(), Counter()
    block = block_rule(3)
    rule = dataclasses.replace(block, card_fn=lambda a: cards.update([a]) or 3,
                               members_fn=lambda a: members.update([a]) or block.members_fn(a))
    x = from_entries(COUNTABLE, {9: 1, 2: 1j, 5: 2})
    assert apply(IndexMap(rule=rule), x) == apply(symbolic_map("block", 3), x)
    assert cards == members == Counter({2: 1, 5: 1, 9: 1})


def test_in_domain_reads_each_size_at_most_once_and_stops_at_an_infinite_one():
    cards = Counter()
    oc = odd_collapse_rule()
    m = IndexMap(rule=dataclasses.replace(oc, card_fn=lambda a: cards.update([a]) or oc.card_fn(a)))
    assert not in_domain(m, from_entries(COUNTABLE, {4: 1, 1: 1, 6: 1}))
    assert cards == Counter({4: 1, 1: 1})
    cards.clear()
    assert in_domain(m, from_entries(COUNTABLE, {4: 1, 6: 1}))
    assert cards == Counter({4: 1, 6: 1})


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
    with pytest.raises(DomainError, match="map and vector domains differ"):
        op(make_finite_map([1, 2], 2), unit_vector(IndexSet(3), 1))


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
    for y in ({100: 1, 101: 2}, {5: 3, 100: 1, 101: 2}):  # 5 comes first and collides with nothing
        with pytest.raises(IntegrityError, match=r"rule 'late_collision' .* but eval\(100\) == eval\(101\)$"):
            solve(m, from_entries(COUNTABLE, y))


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
