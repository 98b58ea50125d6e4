"""Dense matrix realisation of the shift on a finite index set.

An independent numerical route used to validate the fiber-based analysis.
The matrix A has a single 1 per row, at the image column, so A^T A is the
diagonal matrix of fiber sizes and every nonzero singular value of A is the
square root of a positive integer. One LAPACK SVD per matrix therefore gives
the norm (the largest singular value) and the exact rank (the number of
singular values above 1/2), with no reference to fibers; `sweep` runs that
check over many maps.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np

from .errors import UnsupportedError
from .gen_shift import classify, operator_norm
from .index_domain import IndexMap, IndexSet

EXHAUSTIVE_CAP = 7


@dataclass(frozen=True, eq=False)  # identity: an array has no truth value and no hash
class DenseOperator:
    """n x n 0/1 matrix with a 1 in row a at column eval(a).

    Each row holds exactly one 1 (the map is total and single-valued) and
    each column sum equals the corresponding fiber cardinality.
    """

    matrix: np.ndarray

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def singular_values(self) -> np.ndarray:
        """Singular values of the matrix, largest first, from one SVD computed on first use."""
        return np.linalg.svd(self.matrix.astype(np.float64), compute_uv=False)


def to_dense(m: IndexMap) -> DenseOperator:
    if not m.is_finite:
        raise UnsupportedError("dense realisation needs a finite domain")
    n = m.domain.size
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
    """Exact verdicts for the dense matrix.

    The rank counts singular values above 1/2. That count is exact: every
    singular value is 0 or the square root of an integer >= 1, and LAPACK
    returns each one within p(n)*eps*||A|| <= p(n)*eps*sqrt(n) of the true
    value (a modest polynomial p), far below 1/2 at any n a dense matrix can
    hold. A square matrix is injective iff surjective iff full rank;
    unitarity compares A^T A with the identity. That comparison is exact in
    float64 too: every entry of A^T A is an integer <= n, and every partial
    sum of 0/1 products is one, so no rounding occurs in any summation order.
    """
    n = op.n
    rank = int(np.count_nonzero(op.singular_values > 0.5))
    A = op.matrix.astype(np.float64)
    unitary = bool(np.array_equal(A.T @ A, np.eye(n)))
    return StructuralReport(rank=rank, injective=rank == n, surjective=rank == n, unitary=unitary)


def exhaustive_maps(n: int) -> Iterator[IndexMap]:
    """Every image table on {1..n} exactly once, in lexicographic order."""
    if n > EXHAUSTIVE_CAP:
        raise UnsupportedError(f"exhaustive enumeration capped at n = {EXHAUSTIVE_CAP}, got {n}")
    domain = IndexSet.finite(n)  # rejects n < 2

    def generate() -> Iterator[IndexMap]:
        for images in itertools.product(range(1, n + 1), repeat=n):
            yield IndexMap(domain, table=images)

    return generate()


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


def check_map_agreement(m: IndexMap, tol: float = 1e-9) -> MapAgreement:
    """Compare the fiber-based analysis of one finite map against the oracle."""
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
        norm_ok=err <= tol,
        classification_ok=cls_ok,
    )


def sweep(maps: Iterable[IndexMap], tol: float = 1e-9) -> tuple[int, float, list[MapAgreement]]:
    """Check every map against the oracle.

    Returns the number of maps checked, the largest norm error seen and the
    agreements that failed, in the order of ``maps``.
    """
    checked = 0
    max_err = 0.0
    bad = []
    for m in maps:
        res = check_map_agreement(m, tol)
        checked += 1
        max_err = max(max_err, res.norm_error)
        if not res.ok:
            bad.append(res)
    return checked, max_err, bad
