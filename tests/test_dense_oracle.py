import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from genshift import (
    IndexMap,
    ParseError,
    UnsupportedError,
    apply,
    classify,
    symbolic_map,
)
from genshift.dense_oracle import (
    check_map_agreement,
    exhaustive_maps,
    spectral_norm,
    structural_check,
    sweep,
    to_dense,
)
from genshift import dense_oracle
from genshift.index_domain import make_finite_map
from helpers import finite_maps, unit_vector


def test_the_oracle_builds_no_index_set_for_a_table_map():
    m = IndexMap(table=(2, 2, 1, 4))
    assert check_map_agreement(m).ok
    classify(m)
    assert "domain" not in vars(m)
    maps = list(exhaustive_maps(3))
    assert sweep(maps)[0] == 27
    assert not any("domain" in vars(m) for m in maps)


def test_to_dense_identity():
    op = to_dense(make_finite_map([1, 2, 3], 3))
    assert np.array_equal(op.matrix, np.eye(3, dtype=np.int64))


def test_to_dense_constant_map_first_column_ones():
    op = to_dense(make_finite_map([1, 1, 1], 3))
    assert op.matrix[:, 0].tolist() == [1, 1, 1]
    assert op.matrix[:, 1:].sum() == 0


def test_to_dense_three_cycle_is_permutation_matrix():
    op = to_dense(make_finite_map([2, 3, 1], 3))
    assert op.matrix.sum(axis=0).tolist() == [1, 1, 1]
    assert op.matrix.sum(axis=1).tolist() == [1, 1, 1]


def test_to_dense_rejects_countable():
    with pytest.raises(UnsupportedError):
        to_dense(symbolic_map("successor"))


def test_to_dense_refuses_past_the_dense_cap_before_allocating(monkeypatch):
    n = dense_oracle.DENSE_CAP + 1
    m = make_finite_map([1] * n, n)
    monkeypatch.setattr(dense_oracle.np, "zeros", None)  # any allocation attempt would fail here
    with pytest.raises(UnsupportedError, match=f"capped at n = {dense_oracle.DENSE_CAP}, got {n}"):
        to_dense(m)


@given(finite_maps())
def test_matrix_rows_single_one_and_column_sums_are_fibers(m):
    A = to_dense(m).matrix
    assert (A.sum(axis=1) == 1).all()
    for a in range(1, m.domain.size + 1):
        assert A[:, a - 1].sum() == m.fiber_card(a)


@given(finite_maps())
def test_matvec_agrees_with_apply_on_basis_vectors(m):
    n = m.domain.size
    A = to_dense(m).matrix
    for theta in range(1, m.domain.size + 1):
        y = apply(m, unit_vector(m.domain, theta))
        dense = A @ np.eye(n, dtype=np.int64)[theta - 1]
        assert [y[k].real for k in range(1, n + 1)] == dense.tolist()


def test_dense_operators_compare_and_hash_by_identity():
    m = make_finite_map([2, 1, 2], 3)
    a, b = to_dense(m), to_dense(m)
    assert a == a and a != b
    assert hash(a) == hash(a) and len({a, b, a}) == 2


def test_spectral_norm_identity():
    assert abs(spectral_norm(to_dense(make_finite_map([1, 2, 3], 3))) - 1.0) <= 1e-9


def test_spectral_norm_constant_map():
    # A^T A collapses to a single nonzero eigenvalue 4
    assert abs(spectral_norm(to_dense(make_finite_map([1, 1, 1, 1], 4))) - 2.0) <= 1e-9


def test_spectral_norm_clamp_table():
    images = [1] + list(range(1, 10))
    op = to_dense(make_finite_map(images, 10))
    assert abs(spectral_norm(op) - math.sqrt(2)) <= 1e-9


def test_spectral_norm_deterministic():
    m = make_finite_map([2, 2, 3, 1], 4)
    assert spectral_norm(to_dense(m)) == spectral_norm(to_dense(m))


def test_structural_check_permutation():
    assert structural_check(to_dense(make_finite_map([2, 3, 1], 3))) == 3


def test_structural_check_constant_map():
    assert structural_check(to_dense(make_finite_map([1, 1, 1, 1], 4))) == 1


def test_structural_check_rank_two_example():
    assert structural_check(to_dense(make_finite_map([1, 1, 3], 3))) == 2


@given(finite_maps())
def test_integer_rank_matches_float_oracle(m):
    op = to_dense(m)
    rank = structural_check(op)
    image_size = len(set(m.table))
    assert rank == np.linalg.matrix_rank(op.matrix.astype(np.float64))
    assert rank == image_size
    assert abs(spectral_norm(op) - math.sqrt(max(Counter(m.table).values()))) <= 1e-12


def test_exhaustive_maps_counts():
    assert sum(1 for _ in exhaustive_maps(2)) == 4
    maps3 = list(exhaustive_maps(3))
    assert len(maps3) == 27
    assert sum(1 for m in maps3 if len(set(m.table)) == 3) == 6  # the permutations
    tables = [m.table for m in maps3]
    assert tables == sorted(tables)  # lexicographic order


def test_exhaustive_maps_bounds():
    with pytest.raises(ParseError):
        exhaustive_maps(1)  # index sets smaller than 2 are rejected
    with pytest.raises(UnsupportedError):
        exhaustive_maps(8)


def test_malformed_table_never_reaches_the_oracle(monkeypatch):
    # the image 0 would wrap round to the last column, and the oracle would agree
    seen = []
    monkeypatch.setattr(dense_oracle, "to_dense", seen.append)
    with pytest.raises(ParseError, match="position 1"):
        check_map_agreement(IndexMap(table=(0, 1)))
    assert seen == []


def test_unitary_iff_bijective_exhaustive_n4():
    for m in exhaustive_maps(4):
        bijective = len(set(m.table)) == 4
        assert (structural_check(to_dense(m)) == 4) == bijective


def test_check_map_agreement_smoke():
    for images in ([1, 2, 3], [3, 3, 3], [2, 1, 2]):
        res = check_map_agreement(make_finite_map(images, 3))
        assert res.ok, (images, res)


def test_check_map_agreement_near_tie_of_largest_fibers():
    # fibers of sizes 400 and 399 give A^T A two nearly equal top eigenvalues,
    # the hard case for an iterative norm estimate
    res = check_map_agreement(make_finite_map([1] * 400 + [2] * 399 + [3], 800))
    assert res.ok, res


def test_sweep_counts_worst_error_and_disagreements(monkeypatch):
    checked, worst, bad = sweep(exhaustive_maps(3))
    assert (checked, bad) == (27, [])
    assert worst <= dense_oracle.NORM_TOL == 1e-9
    monkeypatch.setattr(dense_oracle, "NORM_TOL", -1.0)  # no error is below -1
    checked, worst, bad = sweep(exhaustive_maps(3))
    assert checked == 27
    assert [res.table for res in bad] == [m.table for m in exhaustive_maps(3)]


# --- the oracle catches a wrong library answer --------------------------------

def wrong_second_fiber_count():
    m = IndexMap(table=(1, 1, 1, 2, 2, 4))  # fiber sizes (3, 2, 0, 1, 0, 0)
    m.__dict__["fiber_counts"] = (3, 1, 0, 1, 0, 0)  # the same largest count and the same zeros
    return m


def truncated_fiber_counts():
    m = IndexMap(table=(1, 1, 1, 2, 2, 4))
    m.__dict__["fiber_counts"] = (3, 2, 0, 1)  # the trailing empty fibers dropped
    return m


def test_the_spectrum_catches_fiber_counts_with_the_right_top_count_and_zeros():
    res = check_map_agreement(wrong_second_fiber_count())
    assert res.norm_error <= dense_oracle.NORM_TOL and res.classification_ok  # norm and rank agree
    assert not res.norm_ok and not res.ok  # sqrt(2) against the singular value 1


def test_the_spectrum_catches_fiber_counts_shorter_than_the_spectrum():
    # every count there is matches a singular value: only the count of counts is wrong
    res = check_map_agreement(truncated_fiber_counts())
    assert res.norm_error <= dense_oracle.NORM_TOL and res.classification_ok
    assert not res.norm_ok and not res.ok
    assert sweep([truncated_fiber_counts()])[2] == [res]


@pytest.mark.parametrize("bad, tol", [(math.nan, 1e-9), (math.nan, 1), (3.0, 1)])
@pytest.mark.parametrize("place", [0, 1, 2])
def test_a_nan_or_far_singular_value_fails_the_spectrum_test(monkeypatch, place, bad, tol):
    # an int tolerance too: 3.0 is more than 1 from sqrt(2), 1 and 0 alike
    m = make_finite_map([1, 1, 2], 3)  # singular values sqrt(2), 1, 0
    true_to_dense = dense_oracle.to_dense

    def with_bad(m):
        op = true_to_dense(m)
        op.singular_values[place] = bad
        return op

    monkeypatch.setattr(dense_oracle, "NORM_TOL", tol)
    monkeypatch.setattr(dense_oracle, "to_dense", with_bad)
    res = check_map_agreement(m)
    assert not res.norm_ok and not res.ok
    assert (res.norm_error == 0.0) is (place > 0)  # past the top, only the spectrum test sees it


@pytest.fixture
def svd_calls(monkeypatch):
    """The shape of the array passed to each ``np.linalg.svd`` call, in order."""
    shapes, svd = [], np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a, **kw: shapes.append(a.shape) or svd(a, **kw))
    return shapes


def test_a_chunked_sweep_returns_what_one_map_at_a_time_does(monkeypatch, svd_calls):
    maps = [*exhaustive_maps(5), wrong_second_fiber_count(), truncated_fiber_counts()]
    monkeypatch.setattr(dense_oracle, "NORM_TOL", -1.0)  # every result is returned
    checked, worst, bad = sweep(maps)
    # 3,125 tables on {1..5} cross a chunk boundary; the two on {1..6} are a chunk of their own
    chunk5 = dense_oracle.CHUNK_ENTRIES // 25
    assert svd_calls == [(chunk5, 5, 5), (3125 - chunk5, 5, 5), (2, 6, 6)]
    assert checked == len(maps) == len(bad)
    assert bad == [check_map_agreement(m) for m in maps]  # each field, bit for bit
    assert worst == max(res.norm_error for res in bad)
    assert [res.norm_ok for res in bad[-2:]] == [False, False]


def test_check_map_agreement_makes_one_svd_call_per_map(svd_calls):
    for images in ([2, 3, 1], [1, 1, 3, 3], [1] * 12):
        assert check_map_agreement(make_finite_map(images, len(images))).ok
    assert svd_calls == [(1, 3, 3), (1, 4, 4), (1, 12, 12)]


def test_past_the_chunk_bound_each_map_is_its_own_chunk(svd_calls):
    assert sweep(dense_oracle.random_maps(256, 2, 0))[::2] == (2, [])
    assert svd_calls == [(1, 256, 256)] * 2


VERDICTS = ("sigma_injective", "sigma_surjective", "isometry")


@pytest.mark.parametrize("flip", [(v,) for v in VERDICTS] + [VERDICTS], ids=[*VERDICTS, "all_three"])
def test_a_flipped_verdict_is_caught(monkeypatch, flip):
    true_classify = dense_oracle.classify

    def flipped(m):
        rep = true_classify(m)
        return rep._replace(**{v: not getattr(rep, v) for v in flip})

    maps = [make_finite_map(images, 3) for images in ([2, 3, 1], [1, 1, 3])]  # bijective, not
    assert all(check_map_agreement(m).ok for m in maps)
    monkeypatch.setattr(dense_oracle, "classify", flipped)
    for m in maps:
        res = check_map_agreement(m)
        assert res.norm_ok and not res.classification_ok and not res.ok


def test_a_wrong_top_singular_value_is_caught(monkeypatch):
    m = make_finite_map([1, 1, 2], 3)  # singular values sqrt(2), 1, 0
    assert check_map_agreement(m).ok
    monkeypatch.setattr(dense_oracle, "spectral_norm", lambda op: float(op.singular_values[1]))
    res = check_map_agreement(m)
    assert res.oracle_norm == pytest.approx(1.0) and res.structural_norm == math.sqrt(2)
    assert not res.norm_ok and not res.ok


def test_every_table_up_to_n5_agrees_with_the_oracle():
    checked, worst, bad = sweep(itertools.chain.from_iterable(exhaustive_maps(n) for n in range(2, 6)))
    assert (checked, bad) == (4 + 27 + 256 + 3125, [])
    assert worst <= dense_oracle.NORM_TOL


# --- the records are immutable, so tables may share one certificate record ----

def test_tables_with_one_profile_share_their_certificates_and_keep_their_fiber_counts():
    m, other = IndexMap(table=(2, 2, 1, 4)), IndexMap(table=(3, 1, 3, 2))  # m_sup 2, not onto
    assert m.certificates is other.certificates
    assert (m.certificates.m_sup, m.certificates.surjective) == (2, False)
    assert m.fiber_counts == (1, 2, 0, 1) and other.fiber_counts == (1, 1, 2, 0)
    assert IndexMap(table=(1, 1, 1, 2)).certificates is not m.certificates  # m_sup 3
    assert IndexMap(table=(2, 1, 4, 3)).certificates.surjective  # m_sup 1, onto


def test_no_field_of_a_record_can_be_assigned():
    m = IndexMap(table=(2, 2, 1, 4))
    rep, res, cert = classify(m), check_map_agreement(m), m.certificates
    for record, field in ((rep, "isometry"), (res, "norm_ok"), (cert, "m_sup"), (cert, "surjective")):
        with pytest.raises(AttributeError):
            setattr(record, field, True)
    assert (rep.isometry, res.norm_ok, cert.m_sup, cert.surjective) == (False, True, 2, False)


def test_the_records_are_positional_and_hashable():
    m = IndexMap(table=(2, 2, 1, 4))
    rep, res = classify(m), check_map_agreement(m)
    assert type(rep)(*rep) == rep and hash(type(rep)(*rep)) == hash(rep)
    assert list(rep._asdict()) == ["maps_into_l2", "operator_norm", "sigma_injective",
                                   "sigma_surjective", "isometry", "compact"]
    assert type(res)(*res) == res and res.ok and res[0] == m.table
