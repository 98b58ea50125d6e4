"""Shared strategies and hand-rolled test rules."""

from hypothesis import strategies as st

from genshift import FiberCard, SymbolicRule, from_entries, make_finite_map

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


def uncertified_successor_rule() -> SymbolicRule:
    """The successor map stripped of every certificate."""
    return SymbolicRule(
        name="succ_nocert",
        eval_fn=lambda k: k + 1,
        card_fn=lambda a: 0 if a == 1 else 1,
        members_fn=lambda a: frozenset() if a == 1 else frozenset((a - 1,)),
    )


def parity_rule() -> SymbolicRule:
    """odd -> 1, even -> 2: two infinite fibers, everything else empty.

    Deliberately uncertified, so unboundedness must be observed on a window.
    """
    return SymbolicRule(
        name="parity",
        eval_fn=lambda k: 1 if k % 2 == 1 else 2,
        card_fn=lambda a: None if a in (1, 2) else 0,
        members_fn=lambda a: None if a in (1, 2) else frozenset(),
    )


def liar_rule() -> SymbolicRule:
    """Pairs-collapse map eval(k) = ceil(k/2) with a false bound certificate."""
    return SymbolicRule(
        name="liar",
        eval_fn=lambda k: (k + 1) // 2,
        card_fn=lambda a: 2,
        members_fn=lambda a: frozenset((2 * a - 1, 2 * a)),
        m_sup=FiberCard(1),
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
        m_sup=FiberCard(1),
        surjective=True,
        infinite_fibers=frozenset(),
    )
