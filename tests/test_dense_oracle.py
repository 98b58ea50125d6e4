import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from genshift import (
    ConstructionError,
    UnsupportedError,
    apply,
    check_map_agreement,
    exhaustive_maps,
    make_finite_map,
    spectral_norm,
    structural_check,
    sweep,
    symbolic_map,
    to_dense,
    unit_vector,
)
from helpers import finite_maps


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


@given(finite_maps())
def test_matrix_rows_single_one_and_column_sums_are_fibers(m):
    A = to_dense(m).matrix
    assert (A.sum(axis=1) == 1).all()
    for a in m.domain.indices():
        assert A[:, a - 1].sum() == m.fiber_card(a).count


@given(finite_maps())
def test_matvec_agrees_with_apply_on_basis_vectors(m):
    n = m.domain.size
    A = to_dense(m).matrix
    for theta in m.domain.indices():
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
    rep = structural_check(to_dense(make_finite_map([2, 3, 1], 3)))
    assert rep.rank == 3 and rep.injective and rep.surjective and rep.unitary


def test_structural_check_constant_map():
    rep = structural_check(to_dense(make_finite_map([1, 1, 1, 1], 4)))
    assert rep.rank == 1
    assert not rep.injective and not rep.surjective and not rep.unitary


def test_structural_check_rank_two_example():
    rep = structural_check(to_dense(make_finite_map([1, 1, 3], 3)))
    assert rep.rank == 2 and not rep.injective


@given(finite_maps())
def test_integer_rank_matches_float_oracle(m):
    op = to_dense(m)
    rep = structural_check(op)
    image_size = len(set(m.table))
    assert rep.rank == np.linalg.matrix_rank(op.matrix.astype(np.float64))
    assert rep.rank == image_size
    assert rep.unitary == (image_size == m.domain.size)
    assert abs(spectral_norm(op) - math.sqrt(max(Counter(m.table).values()))) <= 1e-12


def test_exhaustive_maps_counts():
    assert sum(1 for _ in exhaustive_maps(2)) == 4
    maps3 = list(exhaustive_maps(3))
    assert len(maps3) == 27
    assert sum(1 for m in maps3 if len(set(m.table)) == 3) == 6  # the permutations
    tables = [m.table for m in maps3]
    assert tables == sorted(tables)  # lexicographic order


def test_exhaustive_maps_bounds():
    with pytest.raises(ConstructionError):
        exhaustive_maps(1)  # index sets smaller than 2 are rejected
    with pytest.raises(UnsupportedError):
        exhaustive_maps(8)


def test_unitary_iff_bijective_exhaustive_n4():
    for m in exhaustive_maps(4):
        bijective = len(set(m.table)) == 4
        assert structural_check(to_dense(m)).unitary == bijective


def test_check_map_agreement_smoke():
    for images in ([1, 2, 3], [3, 3, 3], [2, 1, 2]):
        res = check_map_agreement(make_finite_map(images, 3))
        assert res.ok, (images, res)


def test_check_map_agreement_near_tie_of_largest_fibers():
    # fibers of sizes 400 and 399 give A^T A two nearly equal top eigenvalues,
    # the hard case for an iterative norm estimate
    res = check_map_agreement(make_finite_map([1] * 400 + [2] * 399 + [3], 800))
    assert res.ok, res


def test_sweep_counts_worst_error_and_disagreements():
    checked, worst, bad = sweep(exhaustive_maps(3))
    assert (checked, bad) == (27, [])
    assert worst <= 1e-9
    checked, worst, bad = sweep(exhaustive_maps(3), tol=-1.0)  # no error is below -1
    assert checked == 27
    assert [res.table for res in bad] == [m.table for m in exhaustive_maps(3)]
