"""Explicit non-compactness witnesses for the shift operator.

On a finite index set every linear operator is compact (the verdict is
``classify(m).compact``). On the unbounded index set the scaled basis
vectors at indices with nonempty fibers have pairwise-separated images, so
the image of the unit ball contains a sequence with no convergent
subsequence.
"""

from __future__ import annotations

import heapq
import itertools
import math
from array import array
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParseError, UnsupportedError
from .index_domain import COUNTABLE, SEARCH_CAP, IndexMap, memo
from .sparse_vec import SparseVector


@dataclass(frozen=True)
class WitnessSequence:
    """Vectors (1/2) e_alpha whose images stay uniformly far apart.

    Distinct indices have disjoint fibers, so the image distance between
    items i and j is exactly sqrt(c_i + c_j) / 2 with c the fiber sizes.
    Nonempty fibers make that at least sqrt(2)/2. Only the columns the search
    finds are stored, as ``fiber_records`` returns them; the exact minimum over
    all pairs is derived from them on its first read and kept (the sizes are a
    tuple, so it cannot go stale), and its root and ``vectors`` on each read.
    """

    indices: array
    fiber_sizes: tuple[int, ...]

    @memo
    def min_distance_sq(self) -> Fraction:
        a, b = heapq.nsmallest(2, self.fiber_sizes)  # the two smallest sizes, without a full sort
        return Fraction(a + b, 4)

    @property
    def pairwise_separation(self) -> float:
        return math.sqrt(self.min_distance_sq)

    @property
    def vectors(self) -> tuple[SparseVector, ...]:
        return tuple(SparseVector(COUNTABLE, {a: complex(0.5)}) for a in self.indices)


def witness_sequence(m: IndexMap, count: int) -> WitnessSequence:
    """Non-compactness certificate on the unbounded index set.

    Collects the ``count`` smallest indices with nonempty fibers, reading
    fiber sizes through ``IndexMap.scan`` up to ``SEARCH_CAP`` targets, once
    ``m.certificates`` has checked the rule. Requires a map
    with a certified finite fiber bound (for unbounded maps the operator
    does not even act within the square-summable family).
    """
    if m.table is not None:
        raise UnsupportedError("finite index set: the operator is compact, no witness exists")
    if count < 2:
        raise ParseError(f"need at least 2 witness vectors, got {count}")
    if m.certificates.sup_card == math.inf:
        raise UnsupportedError("witness needs a map with a certified finite fiber bound")
    # bounded fibers are finite, so this skips exactly the empty ones
    nonempty = itertools.chain.from_iterable(itertools.compress(range(a, a + len(sizes)), sizes)
                                             for a, sizes in m.scan(count))
    indices = array("q", itertools.islice(nonempty, min(count, SEARCH_CAP)))  # at most one per target
    if len(indices) < count:  # the search budget: SEARCH_CAP targets may hold fewer nonempty fibers
        raise UnsupportedError(f"only {len(indices)} nonempty fibers within {SEARCH_CAP} targets; "
                               f"need {count}")
    sizes = tuple(filter(None, m.window_sizes(indices[-1])))  # scanned: the cache
    return WitnessSequence(indices, sizes)
