"""Dense matrix realisation of the shift on a finite index set.

An independent numerical route used to validate the fiber-based analysis.
The matrix A has a single 1 per row, at the image column, so A^T A is the
diagonal matrix of fiber sizes and the singular values of A, largest first,
are the square roots of the fiber sizes, largest first. One LAPACK SVD per
matrix therefore gives, with no reference to fibers, the norm (the largest
singular value), the whole fiber profile (every singular value, compared
with the library's fiber counts) and the exact rank (the number of singular
values above 1/2), which is n iff the map is bijective; `sweep` runs that
check over many maps.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import UnsupportedError
from .gen_shift import classify, operator_norm
from .index_domain import DENSE_CAP, EXHAUSTIVE_CAP, IndexMap, IndexSet, memo

NORM_TOL = 1e-9  # acceptance criterion 1: |oracle norm - fiber norm| within this bound


@dataclass(frozen=True, eq=False)  # identity: an array has no truth value and no hash
class DenseOperator:
    """n x n float64 0/1 matrix with a 1 in row a at column eval(a).

    Each row holds exactly one 1 (the map is total and single-valued) and
    each column sum equals the corresponding fiber cardinality.
    """

    matrix: np.ndarray

    @memo
    def singular_values(self) -> np.ndarray:
        """Singular values of the matrix, largest first, from one SVD computed on first use."""
        return np.linalg.svd(self.matrix, compute_uv=False)


def to_dense(m: IndexMap) -> DenseOperator:
    """The matrix of ``m``; n above ``DENSE_CAP`` is refused before anything is allocated."""
    if m.table is None:
        raise UnsupportedError("dense realisation needs a finite domain")
    n = len(m.table)
    if n > DENSE_CAP:
        raise UnsupportedError(f"dense realisation capped at n = {DENSE_CAP}, got {n}")
    A = np.zeros((n, n))
    A[np.arange(n), np.asarray(m.table) - 1] = 1
    return DenseOperator(A)


def spectral_norm(op: DenseOperator) -> float:
    """Largest singular value of the matrix, i.e. its operator 2-norm."""
    return float(op.singular_values[0])


def structural_check(op: DenseOperator) -> int:
    """The exact rank of the matrix: the number of its singular values above 1/2.

    A^T A is the diagonal matrix of fiber sizes, so every singular value is
    0 or the square root of an integer >= 1. LAPACK returns each within
    p(n)*eps*||A|| <= p(n)*eps*sqrt(n) of the true value (a modest
    polynomial p), far below 1/2 at any n a dense matrix can hold. So the
    rank is the number of nonempty fibers, and it is n exactly when the map
    is bijective: then, and only then, the operator is one-to-one, onto and
    an isometry at once.
    """
    return int(np.count_nonzero(op.singular_values > 0.5))


def exhaustive_maps(n: int) -> Iterator[IndexMap]:
    """Every image table on {1..n} exactly once, in lexicographic order."""
    if n > EXHAUSTIVE_CAP:
        raise UnsupportedError(f"exhaustive enumeration capped at n = {EXHAUSTIVE_CAP}, got {n}")
    IndexSet(n)  # rejects n < 2, before the first map is asked for
    return (IndexMap(table=images) for images in itertools.product(range(1, n + 1), repeat=n))


def random_maps(n: int, count: int, seed: int | np.random.Generator) -> Iterator[IndexMap]:
    """``count`` uniformly random maps on {1..n}, drawn from ``np.random.default_rng(seed)``,
    which returns a ``Generator`` seed as it is, so a caller may go on drawing from its own."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield IndexMap(table=tuple(int(v) for v in rng.integers(1, n + 1, size=n)))


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
    """Compare the fiber-based analysis of one finite map against the oracle.

    The norms must agree within NORM_TOL, and so must every singular value
    and the square root of the fiber size at its place in descending order;
    the three structural verdicts must each equal the oracle's one bit, full
    rank.
    """
    op = to_dense(m)
    oracle = spectral_norm(op)
    structural = operator_norm(m)
    err = abs(oracle - structural)
    fibers = map(math.sqrt, sorted(m.fiber_counts, reverse=True))
    spectrum_ok = all(abs(s - f) <= NORM_TOL for s, f in zip(op.singular_values.tolist(), fibers))
    rep = classify(m)
    bijective = structural_check(op) == len(m.table)
    return MapAgreement(
        table=m.table,
        structural_norm=structural,
        oracle_norm=oracle,
        norm_error=err,
        norm_ok=err <= NORM_TOL and spectrum_ok,
        classification_ok=rep.sigma_injective == rep.sigma_surjective == rep.isometry == bijective,
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
