import math

import pytest
from hypothesis import given

from genshift import (
    COUNTABLE,
    DomainError,
    IndexSet,
    ParseError,
    add,
    from_entries,
    inner,
    norm,
    norm_sq,
    parse_vector,
    scale,
    unit_vector,
    vector_to_json,
    zero,
)
from helpers import vectors_on

DOM5 = IndexSet.finite(5)


def test_unit_vector_entries_and_norm():
    e2 = unit_vector(IndexSet.finite(3), 2)
    assert e2.entries == {2: 1 + 0j}
    assert norm(e2) == 1.0
    e7 = unit_vector(COUNTABLE, 7)
    assert e7.entries == {7: 1 + 0j}
    assert norm(e7) == 1.0


def test_unit_vector_outside_domain():
    with pytest.raises(DomainError):
        unit_vector(IndexSet.finite(3), 4)
    with pytest.raises(DomainError):
        unit_vector(COUNTABLE, 0)


def test_add_cancellation_gives_empty_support():
    e1 = unit_vector(DOM5, 1)
    assert add(e1, scale(-1, e1)) == zero(DOM5)


def test_scale_example():
    x = from_entries(DOM5, {1: 1, 3: 1j})
    assert scale(2, x).entries == {1: 2 + 0j, 3: 2j}


def test_add_disjoint_supports():
    assert add(unit_vector(DOM5, 1), unit_vector(DOM5, 2)).entries == {1: 1 + 0j, 2: 1 + 0j}


def test_inner_disjoint_supports_is_zero():
    assert inner(unit_vector(DOM5, 1), unit_vector(DOM5, 2)) == 0j


def test_inner_conjugates_second_argument():
    x = from_entries(DOM5, {1: 1j})
    y = from_entries(DOM5, {1: 1j})
    assert inner(x, y) == 1 + 0j
    assert inner(x, unit_vector(DOM5, 1)) == 1j


def test_reciprocal_partial_sums_stay_below_basel_bound():
    for K in (1, 10, 1000):
        v = from_entries(COUNTABLE, {k: 1.0 / k for k in range(1, K + 1)})
        expected = math.sqrt(math.fsum((1.0 / k) ** 2 for k in range(1, K + 1)))
        assert norm(v) == expected
        assert norm(v) < math.pi / math.sqrt(6)


def test_domain_mismatch_raised():
    x = unit_vector(DOM5, 1)
    y = unit_vector(IndexSet.finite(6), 1)
    for op in (lambda: add(x, y), lambda: inner(x, y)):
        with pytest.raises(DomainError):
            op()


def test_from_entries_drops_exact_zeros_and_validates():
    v = from_entries(DOM5, {1: 0.0, 2: 3.0})
    assert v.entries == {2: 3 + 0j}
    with pytest.raises(DomainError):
        from_entries(DOM5, {9: 1.0})


@given(vectors_on(DOM5))
def test_inner_with_self_is_real_nonneg(x):
    p = inner(x, x)
    assert p.imag == 0.0
    assert p.real >= 0.0
    assert abs(p.real - norm_sq(x)) <= 1e-12 * max(1.0, p.real)


@given(vectors_on(DOM5), vectors_on(DOM5))
def test_cauchy_schwarz(x, y):
    assert abs(inner(x, y)) <= norm(x) * norm(y) + 1e-9


@given(vectors_on(DOM5), vectors_on(DOM5))
def test_parallelogram_law(x, y):
    lhs = norm_sq(add(x, y)) + norm_sq(add(x, scale(-1, y)))
    rhs = 2 * norm_sq(x) + 2 * norm_sq(y)
    assert abs(lhs - rhs) <= 1e-9 * max(1.0, lhs, rhs)


@given(vectors_on(DOM5), vectors_on(DOM5))
def test_arithmetic_keeps_canonical_form(x, y):
    for v in (add(x, y), scale(2.5 - 1j, x), add(x, scale(-1, x))):
        assert all(value != 0 for value in v.entries.values())


@given(vectors_on(COUNTABLE, max_index=50))
def test_json_round_trip_identity(x):
    assert parse_vector(vector_to_json(x), COUNTABLE) == x


def test_parse_vector_drops_zeros():
    doc = [{"i": 1, "re": 0.0, "im": 0.0}, {"i": 2, "re": 1.5, "im": -2.0}]
    assert parse_vector(doc, DOM5).entries == {2: 1.5 - 2j}


def test_parse_vector_keeps_the_largest_finite_values():
    doc = [{"i": 1, "re": 10 ** 308, "im": -1.7e308}]
    assert parse_vector(doc, DOM5).entries == {1: complex(1e308, -1.7e308)}


def test_parse_vector_missing_im_defaults_to_zero():
    assert parse_vector([{"i": 3, "re": 2.0}], DOM5).entries == {3: 2 + 0j}


@pytest.mark.parametrize("doc", [
    {"i": 1},
    [[1, 2.0]],
    [{"i": "one", "re": 1.0}],
    [{"i": 0, "re": 1.0}],
    [{"i": 9, "re": 1.0}],
    [{"i": 1, "re": "big"}],
    [{"i": 1, "re": 1.0}, {"i": 1, "re": 2.0}],
    [{"i": 1, "re": math.nan}],
    [{"i": 1, "im": math.inf}],
    [{"i": 1, "re": -math.inf}],
    [{"i": 1, "re": 10 ** 400}],
    [{"i": 1, "im": -(10 ** 400)}],
])
def test_parse_vector_rejects_malformed(doc):
    with pytest.raises(ParseError):
        parse_vector(doc, DOM5)


def test_support_is_sorted():
    v = from_entries(DOM5, {4: 1.0, 1: 2.0, 3: 3.0})
    assert v.support == (1, 3, 4)
    assert v[2] == 0j and v[4] == 1 + 0j
