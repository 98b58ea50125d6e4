"""Dense matrix realisation of the shift on a finite index set.

An independent numerical route used to validate the fiber-based analysis.
The matrix A has a single 1 per row, at the image column, so A^T A is the
diagonal matrix of fiber sizes and every nonzero singular value of A is the
square root of a positive integer. One LAPACK SVD per matrix therefore gives
the norm (the largest singular value), the exact rank (the number of
singular values above 1/2) and unitarity (full rank and a norm below 5/4),
with no reference to fibers; `sweep` runs that check over many maps.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import UnsupportedError
from .gen_shift import classify, operator_norm
from .index_domain import DENSE_CAP, IndexMap, IndexSet, memo

EXHAUSTIVE_CAP = 7
NORM_TOL = 1e-9  # acceptance criterion 1: |oracle norm - fiber norm| within this bound


@dataclass(frozen=True, eq=False)  # identity: an array has no truth value and no hash
class DenseOperator:
    """n x n 0/1 matrix with a 1 in row a at column eval(a).

    Each row holds exactly one 1 (the map is total and single-valued) and
    each column sum equals the corresponding fiber cardinality.
    """

    matrix: np.ndarray

    @memo
    def singular_values(self) -> np.ndarray:
        """Singular values of the matrix, largest first, from one SVD computed on first use."""
        return np.linalg.svd(self.matrix.astype(np.float64), compute_uv=False)


def to_dense(m: IndexMap) -> DenseOperator:
    """The matrix of ``m``; n above ``DENSE_CAP`` is refused before anything is allocated."""
    if not m.domain.is_finite:
        raise UnsupportedError("dense realisation needs a finite domain")
    n = m.domain.size
    if n > DENSE_CAP:
        raise UnsupportedError(f"dense realisation capped at n = {DENSE_CAP}, got {n}")
    A = np.zeros((n, n), dtype=np.int64)
    A[np.arange(n), np.asarray(m.table) - 1] = 1
    return DenseOperator(A)


def spectral_norm(op: DenseOperator) -> float:
    """Largest singular value of the matrix, i.e. its operator 2-norm."""
    return float(op.singular_values[0])


@dataclass(frozen=True)
class StructuralReport:
    rank: int
    injective: bool
    surjective: bool
    unitary: bool


def structural_check(op: DenseOperator) -> StructuralReport:
    """Exact verdicts for the dense matrix, read from its singular values.

    A^T A is the diagonal matrix of fiber sizes, so every singular value is
    0 or the square root of an integer >= 1. LAPACK returns each within
    p(n)*eps*||A|| <= p(n)*eps*sqrt(n) of the true value (a modest
    polynomial p), far below 0.16 at any n a dense matrix can hold, and
    0.16 is less than the distance from the thresholds 1/2 and 5/4 to any
    of 0, 1 and sqrt(2). So the rank is the number of singular values above
    1/2, a square matrix is injective iff surjective iff of full rank, and
    it is unitary iff it has full rank and sigma_max < 5/4 (every fiber
    has exactly one element).
    """
    n = op.matrix.shape[0]
    sv = op.singular_values
    rank = int(np.count_nonzero(sv > 0.5))
    unitary = bool(rank == n and sv[0] < 1.25)
    return StructuralReport(rank=rank, injective=rank == n, surjective=rank == n, unitary=unitary)


def exhaustive_maps(n: int) -> Iterator[IndexMap]:
    """Every image table on {1..n} exactly once, in lexicographic order."""
    if n > EXHAUSTIVE_CAP:
        raise UnsupportedError(f"exhaustive enumeration capped at n = {EXHAUSTIVE_CAP}, got {n}")
    IndexSet(n)  # rejects n < 2, before the first map is asked for
    return (IndexMap(table=images) for images in itertools.product(range(1, n + 1), repeat=n))


def random_tables(n: int, count: int, rng: np.random.Generator) -> Iterator[tuple[int, ...]]:
    for _ in range(count):
        yield tuple(int(v) for v in rng.integers(1, n + 1, size=n))


@dataclass(frozen=True)
class MapAgreement:
    """Outcome of checking one finite map against the dense oracle."""

    table: tuple[int, ...]
    structural_norm: float
    oracle_norm: float
    norm_error: float
    norm_ok: bool
    classification_ok: bool

    @property
    def ok(self) -> bool:
        return self.norm_ok and self.classification_ok


def check_map_agreement(m: IndexMap) -> MapAgreement:
    """Compare the fiber-based analysis of one finite map against the oracle, norms within NORM_TOL."""
    op = to_dense(m)
    oracle = spectral_norm(op)
    structural = operator_norm(m)
    err = abs(oracle - structural)
    rep = classify(m)
    st = structural_check(op)
    cls_ok = (
        rep.sigma_injective == st.injective
        and rep.sigma_surjective == st.surjective
        and rep.isometry == st.unitary
    )
    return MapAgreement(
        table=m.table,
        structural_norm=structural,
        oracle_norm=oracle,
        norm_error=err,
        norm_ok=err <= NORM_TOL,
        classification_ok=cls_ok,
    )


def sweep(maps: Iterable[IndexMap]) -> tuple[int, float, list[MapAgreement]]:
    """Check every map against the oracle.

    Returns the number of maps checked, the largest norm error seen and the
    agreements that failed, in the order of ``maps``.
    """
    checked = 0
    max_err = 0.0
    bad = []
    for m in maps:
        res = check_map_agreement(m)
        checked += 1
        max_err = max(max_err, res.norm_error)
        if not res.ok:
            bad.append(res)
    return checked, max_err, bad
