"""The natural domain of the shift: vectors whose image stays square-summable.

For finitely supported z, membership is exactly "every support index has a
finite fiber", so the finite-fiber index set M carries the structure: it is the
complement of ``m.certificates.infinite_fibers``, and closedness of the domain is
the one derived fact ``m.certificates.closed``, a finite bound over M. This module
reads both, and builds the record witnesses when fiber sizes over M are unbounded.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from itertools import repeat, tee
from operator import mul, truediv
from typing import Iterator

from .errors import ParseError, UnsupportedError
from .gen_shift import _check_domains
from .index_domain import COUNTABLE, SEARCH_CAP, IndexMap, finite_runs
from .sparse_vec import SparseVector, fsum_or_inf


def in_domain(m: IndexMap, z: SparseVector) -> bool:
    """Whether the image of z is square-summable.

    For finitely supported z this holds exactly when every support index has a
    finite fiber (always on {1..n}): exactly when apply(m, z) does not raise
    NotInL2. A rule's sizes are ``m.sizes_at``'s, read until the first infinite one.
    """
    _check_domains(m, z)
    return m.table is not None or math.inf not in m.sizes_at(z.entries)


def fiber_records(m: IndexMap, count: int) -> tuple[array, tuple[int, ...]]:
    """Greedy record scan over the finite fibers.

    Returns up to ``count`` records as two columns, smallest index first: the
    indices as an ``array('q')`` (each is at most ``SEARCH_CAP`` or n) and
    their fiber sizes as a tuple, since a rule's finite size has no int64
    bound. Each size strictly exceeds every earlier one. Indices with
    infinite fibers are skipped, so all records lie in M. A symbolic map is
    scanned up to ``SEARCH_CAP`` targets, a finite one in full.
    """
    if count < 1:
        raise ParseError(f"count must be >= 1, got {count}")
    indices, sizes = array("q"), []
    best = 0
    for a, chunk in m.scan(count):
        for run in finite_runs(m.certificates.infinite_fibers, a, a + len(chunk)):
            for b, c in zip(run, chunk[run.start - a:run.stop - a]):
                if c > best:
                    indices.append(b)
                    sizes.append(c)
                    best = c
        if len(sizes) >= count:
            break
    del indices[count:], sizes[count:]  # the last chunk may hold more records than asked for
    return indices, tuple(sizes)


@dataclass(frozen=True)
class DivergenceWitness:
    """A square-summable vector whose image norm admits a divergent bound.

    The entry 1/k sits at the k-th record index, whose fiber size n_k is
    strictly increasing, hence n_k >= k. The image norm squared is therefore
    at least sum of n_k / k^2 >= sum of 1/k, the K-th harmonic number, while
    the vector norm squared stays below pi^2 / 6. Only the records are kept,
    as the columns ``fiber_records`` returns; ``weights`` is where 1/k lives,
    and every number and ``vector`` are derived from them on each read.
    """

    indices: array
    fiber_sizes: tuple[int, ...]

    @property
    def image_norm_sq_lower_bound(self) -> float:
        """The sum of n_k / k^2: math.inf when a term or the sum passes the float range."""
        k = range(1, len(self.indices) + 1)
        return fsum_or_inf(map(truediv, self.fiber_sizes, map(mul, k, k)))

    @property
    def weights(self) -> Iterator[float]:
        """The vector's entries in index order, 1/k for k = 1..K: a fresh iterator each read."""
        return map(truediv, repeat(1.0), range(1, len(self.indices) + 1))

    @property
    def vector(self) -> SparseVector:
        return SparseVector(COUNTABLE, dict(zip(self.indices, map(complex, self.weights))))

    @property
    def vector_norm_sq(self) -> float:
        """``norm_sq(self.vector)``: the same terms, summed without building the vector."""
        return math.fsum(map(mul, *tee(self.weights)))  # each 1/k computed once


def divergence_witness(m: IndexMap, K: int) -> DivergenceWitness:
    """Truncated divergence certificate with K harmonic terms.

    Requires fibers over M to be unbounded; maps certified bounded (every
    finite-domain map, and symbolic rules with a finite certified bound over
    M) are rejected, and so is a search that finds fewer than K records within
    ``SEARCH_CAP`` targets.
    """
    if K < 1:
        raise ParseError(f"K must be >= 1, got {K}")
    if m.certificates.closed:
        raise UnsupportedError(f"map is certified bounded over M (fiber bound {m.certificates.m_sup})")
    indices, sizes = fiber_records(m, K)
    if len(sizes) < K:
        raise UnsupportedError(f"found only {len(sizes)} fiber-size records within {SEARCH_CAP} targets")
    return DivergenceWitness(indices, sizes)


def domain_report(m: IndexMap) -> tuple[array, tuple[int, ...]] | None:
    """The witness that the domain is not closed: None when ``m.certificates.closed``,
    else the first eight records, as ``fiber_records`` returns them."""
    return None if m.certificates.closed else fiber_records(m, 8)
