"""Shared strategies, reference functions, vector algebra and hand-rolled test rules."""

import math

from hypothesis import strategies as st

from genshift import (
    DEFAULT_WINDOW,
    DomainError,
    IndexMap,
    IndexSet,
    IntegrityError,
    SparseVector,
    SymbolicRule,
    from_entries,
    norm_sq,
)
from genshift.index_domain import make_finite_map


def sup_card(cards) -> int | float:
    """Reference sup of finitely many fiber cardinalities; infinite dominates."""
    best = 0
    for c in cards:
        if c == math.inf:
            return math.inf
        best = max(best, c)
    return best


# ---------------------------------------------------------------------------
# vector algebra: canonical results, exact zeros dropped


def zero(domain: IndexSet) -> SparseVector:
    return SparseVector(domain, {})


def unit_vector(domain: IndexSet, theta: int) -> SparseVector:
    """The standard basis vector with a single 1 at theta."""
    if theta not in domain:
        raise DomainError(f"index {theta!r} outside the domain")
    return SparseVector(domain, {theta: 1 + 0j})


def _same_domain(x: SparseVector, y: SparseVector) -> None:
    if x.domain != y.domain:
        raise DomainError("vector domains differ")


def add(x: SparseVector, y: SparseVector) -> SparseVector:
    _same_domain(x, y)
    out = dict(x.entries)
    for alpha, v in y.entries.items():
        s = out.get(alpha, 0j) + v
        if s == 0:
            out.pop(alpha, None)
        else:
            out[alpha] = s
    return SparseVector(x.domain, out)


def scale(c, x: SparseVector) -> SparseVector:
    c = complex(c)
    if c == 0:
        return SparseVector(x.domain, {})
    out = {}
    for alpha, v in x.entries.items():
        w = c * v
        if w != 0:
            out[alpha] = w
    return SparseVector(x.domain, out)


def inner(x: SparseVector, y: SparseVector) -> complex:
    """Sum over the common support of x_a * conj(y_a)."""
    _same_domain(x, y)
    re_parts = []
    im_parts = []
    for alpha, xv in x.entries.items():
        yv = y.entries.get(alpha)
        if yv is None:
            continue
        p = xv * yv.conjugate()
        re_parts.append(p.real)
        im_parts.append(p.imag)
    return complex(math.fsum(re_parts), math.fsum(im_parts))


def norm(x: SparseVector) -> float:
    """Square root of the square-sum; math.hypot of the components if that under- or overflows."""
    sq = norm_sq(x)
    if (sq == 0 or sq == math.inf) and x.entries:
        return math.hypot(*(c for v in x.entries.values() for c in (v.real, v.imag)))
    return math.sqrt(sq)


# ---------------------------------------------------------------------------
# strategies


scalars = st.complex_numbers(max_magnitude=100.0, allow_nan=False, allow_infinity=False)


@st.composite
def finite_maps(draw, min_n=2, max_n=8):
    n = draw(st.integers(min_n, max_n))
    images = draw(st.lists(st.integers(1, n), min_size=n, max_size=n))
    return make_finite_map(images, n)


@st.composite
def permutation_maps(draw, min_n=2, max_n=8):
    n = draw(st.integers(min_n, max_n))
    images = draw(st.permutations(list(range(1, n + 1))))
    return make_finite_map(list(images), n)


@st.composite
def vectors_on(draw, domain, max_index=None, max_support=8, values=scalars):
    hi = domain.size if domain.is_finite else (max_index or 64)
    entries = draw(st.dictionaries(st.integers(1, hi), values, max_size=max_support))
    return from_entries(domain, entries)


@st.composite
def map_and_vector(draw, min_n=2, max_n=8, values=scalars):
    m = draw(finite_maps(min_n, max_n))
    v = draw(vectors_on(m.domain, values=values))
    return m, v


def parity_rule() -> SymbolicRule:
    """odd -> 1, even -> 2: two infinite fibers, everything else empty.

    No finite fiber is nonempty, so the finite-fiber bound is 0.
    """
    return SymbolicRule(
        name="parity",
        eval_fn=lambda k: 1 if k % 2 == 1 else 2,
        card_fn=lambda a: math.inf if a in (1, 2) else 0,
        members_fn=lambda a: None if a in (1, 2) else frozenset(),
        m_sup=0,
        surjective=False,
        infinite_fibers=frozenset({1, 2}),
    )


def liar_rule() -> SymbolicRule:
    """Pairs-collapse map eval(k) = ceil(k/2) with a false bound certificate."""
    return SymbolicRule(
        name="liar",
        eval_fn=lambda k: (k + 1) // 2,
        card_fn=lambda a: 2,
        members_fn=lambda a: frozenset((2 * a - 1, 2 * a)),
        m_sup=1,
        surjective=True,
        infinite_fibers=frozenset(),
    )


def clamp_liar_rule() -> SymbolicRule:
    """clamp_pred's formulas with a false finite-fiber bound certificate.

    Its surjectivity and infinite-fiber certificates are true; the lie
    ``m_sup = 1`` (the fiber over 1 is {1, 2}) also makes the derived
    ``sup_card`` 1 and ``injective`` True, both false.
    """
    return SymbolicRule(
        name="clamp_liar",
        eval_fn=lambda k: 1 if k == 1 else k - 1,
        card_fn=lambda a: 2 if a == 1 else 1,
        members_fn=lambda a: frozenset((1, 2)) if a == 1 else frozenset((a + 1,)),
        m_sup=1,
        surjective=True,
        infinite_fibers=frozenset(),
    )


def verify_fiber_soundness(m: IndexMap, window: int = DEFAULT_WINDOW) -> None:
    """Spot-check eval/fiber consistency on a window; raises IntegrityError.

    Checks that every beta in the window lies in the fiber of its image,
    that every enumerated fiber member maps back onto the fiber's index, and
    that ``fiber_card`` agrees with the member set (math.inf when there is
    none). One pass inverts eval over the window, so each beta there is
    evaluated once and each target's fiber is read once.
    """
    hi = min(window, m.domain.size) if m.domain.is_finite else window
    images = [m.eval(beta) for beta in range(1, hi + 1)]
    seen: dict[int, set[int]] = {alpha: set() for alpha in range(1, hi + 1)}
    for beta, alpha in enumerate(images, start=1):
        seen.setdefault(alpha, set()).add(beta)
    for alpha, betas in seen.items():
        members = m.fiber(alpha)
        count = math.inf if members is None else len(members)
        if m.fiber_card(alpha) != count:
            raise IntegrityError(f"fiber({alpha}) has size {m.fiber_card(alpha)} but {count} members")
        if members is None:
            continue
        for beta in members:
            image = images[beta - 1] if beta <= hi else m.eval(beta)
            if image != alpha:
                raise IntegrityError(f"fiber({alpha}) contains {beta} but eval({beta}) = {image}")
        if not betas <= members:
            raise IntegrityError(f"fiber({alpha}) is missing {sorted(betas - members)}")
