"""Dense matrix realisation of the shift on a finite index set.

An independent numerical route used to validate the fiber-based analysis. The matrix A has
a single 1 per row, at the image column, so A^T A is the diagonal matrix of fiber sizes and
the singular values of A, largest first, are the square roots of the fiber sizes, largest
first. One LAPACK SVD of the matrix therefore gives, with no reference to fibers, the norm
(the largest singular value), the whole fiber profile (every singular value, compared with
the library's fiber counts) and the exact rank (the number of singular values above 1/2),
which is n iff the map is bijective. ``check_map_agreement`` checks one map with one public
``np.linalg.svd`` call on a (1, n, n) stack; ``sweep`` checks many, stacking consecutive
tables of one n into chunks of at most ``CHUNK_ENTRIES`` = 2^16 matrix entries, one call a
chunk. Both compare in ``_compare``, whose Python per map (C-level ``map``s, ``NamedTuple``
records, a table's shared ``Certificates``) is kept to a few microseconds beside the SVD."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import sub
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .errors import UnsupportedError
from .gen_shift import classify, operator_norm
from .index_domain import DENSE_CAP, EXHAUSTIVE_CAP, IndexMap, IndexSet

NORM_TOL = 1e-9  # acceptance criterion 1: |oracle norm - fiber norm| within this bound
CHUNK_ENTRIES = 1 << 16  # matrix entries in one stack of same-n tables, one SVD call in `sweep`


@dataclass(frozen=True, eq=False)  # identity: an array has no truth value and no hash
class DenseOperator:
    """n x n float64 0/1 matrix with a 1 in row a at column eval(a), and its singular values.

    Each row holds exactly one 1 (the map is total and single-valued) and
    each column sum equals the corresponding fiber cardinality.
    """

    matrix: np.ndarray
    singular_values: list[float]  # largest first, from the LAPACK SVD that built the operator


def _dense_size(m: IndexMap) -> int:
    """n of a table map; a rule, or n above ``DENSE_CAP``, is refused before anything is allocated."""
    if m.table is None:
        raise UnsupportedError("dense realisation needs a finite domain")
    n = len(m.table)
    if n > DENSE_CAP:
        raise UnsupportedError(f"dense realisation capped at n = {DENSE_CAP}, got {n}")
    return n


def _realise(images: Iterable[int], k: int, n: int) -> Iterator[DenseOperator]:
    """The operators of k tables of n entries each, given one after another as ``images``:
    one stack of k matrices, and one SVD call for all their spectra."""
    stack = np.zeros((k, n, n))
    ones = np.fromiter(images, np.intp, k * n)
    ones += np.arange(-1, stack.size - 1, n)  # stacked row r holds its 1 at r * n + image - 1
    stack.reshape(-1)[ones] = 1
    return map(DenseOperator, stack, np.linalg.svd(stack, compute_uv=False).tolist())


def to_dense(m: IndexMap) -> DenseOperator:
    """The matrix of ``m`` and its spectrum; n above ``DENSE_CAP`` is refused before allocating."""
    n = _dense_size(m)
    return next(_realise(m.table, 1, n))


def spectral_norm(op: DenseOperator) -> float:
    """Largest singular value of the matrix, i.e. its operator 2-norm."""
    return op.singular_values[0]


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
    return len([s for s in op.singular_values if s > 0.5])


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


class MapAgreement(NamedTuple):
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
    and the square root of the fiber size at its place in descending order,
    with as many fiber sizes as singular values; the three structural
    verdicts must each equal the oracle's one bit, full rank.
    """
    return MapAgreement(*_compare(m, to_dense(m)))


def _compare(m: IndexMap, op: DenseOperator) -> tuple:
    """The fields of the ``MapAgreement`` of ``m`` with its operator, in order:
    the one comparison behind ``check_map_agreement`` and ``sweep``."""
    oracle = spectral_norm(op)
    structural = operator_norm(m)
    err = abs(oracle - structural)
    spectrum, counts = op.singular_values, sorted(m.fiber_counts, reverse=True)
    spectrum_ok = len(spectrum) == len(counts) and all(  # C-level maps; a NaN fails float.__ge__
        map(float(NORM_TOL).__ge__, map(abs, map(sub, spectrum, map(math.sqrt, counts)))))
    rep = classify(m)
    bijective = structural_check(op) == len(m.table)
    return (m.table, structural, oracle, err, err <= NORM_TOL and spectrum_ok,
            rep.sigma_injective == rep.sigma_surjective == rep.isometry == bijective)


def sweep(maps: Iterable[IndexMap]) -> tuple[int, float, list[MapAgreement]]:
    """Check every map against the oracle.

    Consecutive maps with the same n are realised in chunks of at most
    ``CHUNK_ENTRIES`` matrix entries (one map once n * n exceeds it), each
    chunk's spectra from one stacked SVD call. Returns the number of maps
    checked, the largest norm error seen and the agreements that failed, in
    the order of ``maps``; only those are built as ``MapAgreement``s.
    """
    checked = 0
    max_err = 0.0
    bad = []
    for n, run in itertools.groupby(maps, key=_dense_size):
        while chunk := list(itertools.islice(run, max(1, CHUNK_ENTRIES // (n * n)))):
            images = itertools.chain.from_iterable(m.table for m in chunk)
            for m, op in zip(chunk, _realise(images, len(chunk), n)):
                table, structural, oracle, err, norm_ok, classification_ok = fields = _compare(m, op)
                checked += 1
                max_err = max(max_err, err)
                if not (norm_ok and classification_ok):
                    bad.append(MapAgreement(*fields))
    return checked, max_err, bad
