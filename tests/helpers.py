"""Shared strategies, reference functions, vector algebra, hand-rolled test rules and the
in-process CLI harness."""

import contextlib
import dataclasses
import io
import math
import types
from itertools import chain

from hypothesis import strategies as st

from genshift import (
    DEFAULT_WINDOW,
    IndexMap,
    IndexSet,
    IntegrityError,
    ParseError,
    SparseVector,
    SymbolicRule,
    from_entries,
    norm_sq,
)
from genshift.cli import main
from genshift.index_domain import finite_runs, make_finite_map


def invoke(args):
    """Run ``genshift ARGS`` in this process: its ``exit_code``, ``stdout`` (and its UTF-8
    ``stdout_bytes``), ``stderr``, ``output`` (stdout then stderr) and ``exception`` (the
    ``SystemExit``, or None on exit 0). ``main`` must end in ``SystemExit``; any other
    exception is re-raised, so a traceback fails the calling test."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(args=list(args), prog_name="genshift")
        except SystemExit as exc:
            exited = exc
        else:
            raise AssertionError(f"main({args!r}) returned without SystemExit")
    stdout, stderr = out.getvalue(), err.getvalue()
    return types.SimpleNamespace(
        exit_code=exited.code, stdout=stdout, stdout_bytes=stdout.encode(), stderr=stderr,
        output=stdout + stderr, exception=exited if exited.code else None)


def sup_card(cards) -> int | float:
    """Reference sup of finitely many fiber cardinalities; infinite dominates."""
    best = 0
    for c in cards:
        if c == math.inf:
            return math.inf
        best = max(best, c)
    return best


def m_members(m: IndexMap, window: int = DEFAULT_WINDOW) -> tuple[int, ...]:
    """M on the window as ``analyze`` takes it: the window's sizes first, then the
    targets ``finite_runs`` keeps outside the certified infinite fibers, in order."""
    stop = len(m.window_sizes(window)) + 1
    return tuple(chain(*finite_runs(m.certificates.infinite_fibers, 1, stop)))


# ---------------------------------------------------------------------------
# vector algebra: canonical results, exact zeros dropped


def zero(domain: IndexSet) -> SparseVector:
    return SparseVector(domain, {})


def unit_vector(domain: IndexSet, theta: int) -> SparseVector:
    """The standard basis vector with a single 1 at theta."""
    if theta not in domain:
        raise ParseError(f"index {theta!r} outside the domain")
    return SparseVector(domain, {theta: 1 + 0j})


def _same_domain(x: SparseVector, y: SparseVector) -> None:
    if x.domain != y.domain:
        raise ParseError("vector domains differ")


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
    hi = domain.size if domain.size is not None else (max_index or 64)
    entries = draw(st.dictionaries(st.integers(1, hi), values, max_size=max_support))
    return from_entries(domain, entries)


@st.composite
def map_and_vector(draw, min_n=2, max_n=8, values=scalars):
    m = draw(finite_maps(min_n, max_n))
    v = draw(vectors_on(m.domain, values=values))
    return m, v


def sizes_card(sizes):
    """The size function that ``sizes=(head, block, step)`` states: ``head[a - 1]`` while
    a <= len(head), then ``block[r] + step * q`` with ``q, r = divmod(a - 1 - len(head), len(block))``;
    written apart from ``IndexMap`` so that tests can compare with it."""
    head, block, step = sizes

    def card(a):
        if a <= len(head):
            return head[a - 1]
        q, r = divmod(a - 1 - len(head), len(block))
        return block[r] + step * q
    return card


def with_head(rule: SymbolicRule, stated: dict) -> SymbolicRule:
    """``rule`` with the sizes ``stated`` ({target: size}) in its head, grown to the largest target;
    every other target keeps the rule's own size, so the block is the rule's, moved to the new
    start. A liar test states one fiber's size apart from its members and images."""
    card, (head, block, step) = sizes_card(rule.sizes), rule.sizes
    stop = max(len(head), *stated)
    return dataclasses.replace(rule, sizes=(tuple(stated.get(a, card(a)) for a in range(1, stop + 1)),
                                            tuple(map(card, range(stop + 1, stop + 1 + len(block)))), step))


def parity_rule() -> SymbolicRule:
    """odd -> 1, even -> 2: two infinite fibers, everything else empty.

    No finite fiber is nonempty, so the finite-fiber bound is 0.
    """
    return SymbolicRule(
        name="parity",
        eval_fn=lambda k: 1 if k % 2 == 1 else 2,
        members_fn=lambda a: None if a in (1, 2) else frozenset(),
        sizes=((math.inf, math.inf), (0,), 0),
    )


def liar_rule() -> SymbolicRule:
    """Pairs-collapse map eval(k) = ceil(k/2), its fibers of size 2 stated as size 1, so that
    its derived bound ``m_sup = 1`` is false; the tally of 1..64 refutes it at fiber(1)."""
    return SymbolicRule(
        name="liar",
        eval_fn=lambda k: (k + 1) // 2,
        members_fn=lambda a: frozenset((2 * a - 1, 2 * a)),
        sizes=((), (1,), 0),
    )


def clamp_liar_rule() -> SymbolicRule:
    """clamp_pred's formulas with fiber(1) = {1, 2} stated as size 1.

    Its derived surjectivity and infinite-fiber certificates are true; the
    derived ``m_sup = 1`` also makes ``sup_card`` 1 and ``injective`` True, both
    false. The tally of 1..64 refutes it at fiber(1).
    """
    return SymbolicRule(
        name="clamp_liar",
        eval_fn=lambda k: 1 if k == 1 else k - 1,
        members_fn=lambda a: frozenset((1, 2)) if a == 1 else frozenset((a + 1,)),
        sizes=((1,), (1,), 0),
    )


def consistent_liar_rule() -> SymbolicRule:
    """clamp_pred's ``eval_fn`` with the fibers of a bijection: sizes, members_fn and the derived
    certificates agree with one another, and only ``eval_fn`` (1 and 2 both map to 1) refutes
    them. Were it read as stated, ``classify`` would report an isometry of norm 1, not sqrt(2).
    """
    return SymbolicRule(
        name="consistent_liar",
        eval_fn=lambda k: 1 if k == 1 else k - 1,
        members_fn=lambda a: frozenset((a + 1,)),
        sizes=((), (1,), 0),
    )


def verify_fiber_soundness(m: IndexMap, window: int = DEFAULT_WINDOW) -> None:
    """Spot-check eval/fiber consistency on a window; raises IntegrityError.

    Checks that every beta in the window lies in the fiber of its image,
    that every enumerated fiber member maps back onto the fiber's index, and
    that ``fiber_card`` agrees with the member set (math.inf when there is
    none). One pass inverts eval over the window, so each beta there is
    evaluated once and each target's fiber is read once.
    """
    hi = min(window, m.domain.size) if m.table is not None else window
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
