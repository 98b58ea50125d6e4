"""The natural domain of the shift: vectors whose image stays square-summable.

For finitely supported z, membership is exactly "every support index has a
finite fiber", so the finite-fiber index set M carries all the structure:
membership, closedness of the domain as a subspace, and the divergence
certificates produced when fiber sizes over M grow without bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, SearchExhaustedError, UnsupportedError
from .index_domain import (
    COUNTABLE,
    DEFAULT_WINDOW,
    SEARCH_CAP,
    IndexMap,
    Verdict,
    WindowOnly,
    finite_sup,
)
from .sparse_vec import SparseVector


def in_domain(m: IndexMap, z: SparseVector) -> bool:
    """Whether the image of z is square-summable.

    For finitely supported z this holds exactly when every support index has
    a finite fiber, and agrees with apply(m, z) returning a vector. Every
    fiber of a map on {1..n} is finite, so there the answer is always True.
    """
    if m.domain != z.domain:
        raise DomainError("map and vector domains differ")
    if m.domain.is_finite:
        return True
    return all(m.fiber_card(theta) != math.inf for theta in z.entries)


def fiber_records(m: IndexMap, count: int) -> tuple[tuple[int, int], ...]:
    """Greedy record scan over the finite fibers.

    Returns up to ``count`` pairs (index, fiber size), smallest index first,
    where each fiber size strictly exceeds every earlier one. Indices with
    infinite fibers are skipped, so all records lie in M. A symbolic map is
    scanned up to ``SEARCH_CAP`` targets, a finite one in full.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    records: list[tuple[int, int]] = []
    best = 0
    for a, c in m.scan(count):
        if c > best and c != math.inf:
            records.append((a, c))
            best = c
            if len(records) == count:
                break
    return tuple(records)


@dataclass(frozen=True)
class DivergenceWitness:
    """A square-summable vector whose image norm admits a divergent bound.

    The entry 1/k sits at the k-th record index, whose fiber size n_k is
    strictly increasing, hence n_k >= k. The image norm squared is therefore
    at least sum of n_k / k^2 >= sum of 1/k, the K-th harmonic number, while
    the vector norm squared stays below pi^2 / 6. Only the records are
    kept; ``vector`` is built from them on each read.
    """

    records: tuple[tuple[int, int], ...]
    image_norm_sq_lower_bound: float

    @property
    def vector(self) -> SparseVector:
        entries = {alpha: complex(1.0 / k) for k, (alpha, _) in enumerate(self.records, start=1)}
        return SparseVector(COUNTABLE, entries)

    @property
    def vector_norm_sq(self) -> float:
        """``norm_sq(self.vector)``: the same terms, summed without building the vector."""
        return math.fsum((1.0 / k) * (1.0 / k) for k in range(1, len(self.records) + 1))


def divergence_witness(m: IndexMap, K: int) -> DivergenceWitness:
    """Truncated divergence certificate with K harmonic terms.

    Requires fibers over M to be unbounded; maps certified bounded (every
    finite-domain map, and symbolic rules with a finite certified bound over
    M) are rejected. A search that finds fewer than K records within
    ``SEARCH_CAP`` targets raises SearchExhaustedError.
    """
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    m.window_sizes(min(K, SEARCH_CAP))  # the scan's first window: refutes a false certificate
    certified = m.certificates.m_sup
    if certified is not None and certified != math.inf:
        raise UnsupportedError(f"map is certified bounded over M (fiber bound {certified})")
    records = fiber_records(m, K)
    if len(records) < K:
        raise SearchExhaustedError(
            f"found only {len(records)} fiber-size records within {SEARCH_CAP} targets"
        )
    terms = (size / (k * k) for k, (_, size) in enumerate(records, start=1))
    return DivergenceWitness(records, math.fsum(terms))


@dataclass(frozen=True)
class DomainReport:
    """Aggregate domain analysis: M, closedness, the uniform bound over M,
    and the record witness when closedness fails.

    ``m_set`` is M on the window (all of a table's indices). The domain is
    closed exactly when it equals the vectors vanishing off M, so ``closed``
    also answers whether that characterization holds.
    """

    m_set: frozenset[int]
    closed: Verdict
    uniform_bound_on_m: int | float  # math.inf when certified unbounded
    unbounded_witness: tuple[tuple[int, int], ...] | None


def domain_report(m: IndexMap, window: int = DEFAULT_WINDOW) -> DomainReport:
    sizes = m.window_sizes(window)
    if math.inf in sizes:
        members = frozenset(a for a, c in enumerate(sizes, start=1) if c != math.inf)
    else:
        members = frozenset(range(1, len(sizes) + 1))
    bound = m.certificates.m_sup
    witness = None
    if bound is None:
        bound = finite_sup(sizes)
        closed = WindowOnly(f"fibers over M bounded by {bound} on window 1..{window}", value=bound)
    else:
        closed = bound != math.inf
        if not closed:
            witness = fiber_records(m, 8)
    return DomainReport(
        m_set=members,
        closed=closed,
        uniform_bound_on_m=bound,
        unbounded_witness=witness,
    )
