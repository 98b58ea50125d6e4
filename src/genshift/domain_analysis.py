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
    DEFAULT_WINDOW,
    FiberCard,
    IndexMap,
    Verdict,
    WindowOnly,
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
    if m.is_finite:
        return True
    return all(not m.fiber_card(theta).is_infinite for theta in z.entries)


@dataclass(frozen=True)
class MDescription:
    """The finite-fiber index set M, exactly (finite domains) or windowed."""

    members: frozenset[int]
    window: int | None  # None when the scan covered the whole domain
    infinite_fibers: frozenset[int] | None  # certified complement; None = unknown beyond window


def m_set(m: IndexMap, window: int = DEFAULT_WINDOW) -> MDescription:
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if m.is_finite:
        return MDescription(frozenset(m.domain.indices()), None, frozenset())
    sizes = m.window_sizes(window)
    members = frozenset(a for a, c in enumerate(sizes, start=1) if c is not None)
    return MDescription(members, window, m.rule.infinite_fibers)


def domain_closed(m: IndexMap, window: int = DEFAULT_WINDOW) -> Verdict:
    """True when fiber sizes over M admit a finite uniform bound.

    Always True on finite domains. False comes with arbitrarily large finite
    fibers (see fiber_records for the witness); uncertified rules get a
    WindowOnly verdict carrying the bound seen on the window.
    """
    if m.is_finite:
        return True
    sizes = m.window_sizes(window)
    certified = m.rule.m_sup
    if certified is not None:
        return not certified.is_infinite
    bound = max(filter(None, sizes), default=0)
    return WindowOnly(
        f"fibers over M bounded by {bound} on window 1..{window}", value=float(bound)
    )


def fiber_records(m: IndexMap, count: int, search_cap: int | None = None) -> tuple[tuple[int, int], ...]:
    """Greedy record scan over the finite fibers.

    Returns up to ``count`` pairs (index, fiber size), smallest index first,
    where each fiber size strictly exceeds every earlier one. Indices with
    infinite fibers are skipped, so all records lie in M.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    cap = search_cap if search_cap is not None else 16 * count + 1024
    records: list[tuple[int, int]] = []
    best = 0
    if m.is_finite:
        counts = m.fiber_counts
        source = ((a, counts[a]) for a in m.domain.indices())
    else:
        card_fn = m.rule.card_fn
        source = ((a, card_fn(a)) for a in range(1, cap + 1))
    for a, c in source:
        if c is not None and c > best:
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
    the vector norm squared stays below pi^2 / 6.
    """

    vector: SparseVector
    image_norm_sq_lower_bound: float
    records: tuple[tuple[int, int], ...]


def divergence_witness(m: IndexMap, K: int, search_cap: int | None = None) -> DivergenceWitness:
    """Truncated divergence certificate with K harmonic terms.

    Requires fibers over M to be unbounded; maps certified bounded (every
    finite-domain map, and symbolic rules with a finite certified bound over
    M) are rejected.
    """
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    if m.is_finite:
        raise UnsupportedError("map is certified bounded (finite domain)")
    certified = m.rule.m_sup
    if certified is not None and not certified.is_infinite:
        raise UnsupportedError(f"map is certified bounded over M (fiber bound {certified.count})")
    records = fiber_records(m, K, search_cap)
    if len(records) < K:
        raise SearchExhaustedError(
            f"found only {len(records)} fiber-size records within the search cap"
        )
    entries: dict[int, complex] = {}
    terms = []
    for k, (alpha, size) in enumerate(records, start=1):
        entries[alpha] = complex(1.0 / k)
        terms.append(size / (k * k))
    return DivergenceWitness(
        vector=SparseVector(m.domain, entries),
        image_norm_sq_lower_bound=math.fsum(terms),
        records=records,
    )


@dataclass(frozen=True)
class DomainReport:
    """Aggregate domain analysis: M, closedness, the uniform bound over M,
    and the record witness when closedness fails.

    The domain is closed exactly when it equals the vectors vanishing off M,
    so ``closed`` also answers whether that characterization holds.
    """

    m: MDescription
    closed: Verdict
    uniform_bound_on_m: FiberCard
    unbounded_witness: tuple[tuple[int, int], ...] | None


def domain_report(m: IndexMap, window: int = DEFAULT_WINDOW) -> DomainReport:
    closed = domain_closed(m, window)
    witness = None
    if m.is_finite:
        bound = FiberCard(max(m.fiber_counts))
    elif m.rule.m_sup is not None:
        bound = m.rule.m_sup
        if bound.is_infinite:
            witness = fiber_records(m, 8)
    else:
        bound = FiberCard(int(closed.value))  # the largest finite fiber on the window
    return DomainReport(
        m=m_set(m, window),
        closed=closed,
        uniform_bound_on_m=bound,
        unbounded_witness=witness,
    )
