"""Index sets and total self-maps with exact preimage structure.

Everything downstream (norms, classification, domain analysis) reduces to
questions about fibers, the preimage sets of single indices. A fiber size is
an int, or math.inf for an infinite fiber. A map is built one way, from an
image table or a symbolic rule, and carries an exact fiber oracle and one
certificate record, ``IndexMap.certificates``: a rule declares all three of
its own, a table reads exact ones off its fiber sizes, so every verdict is a
plain value. Fiber sizes are read in one place, ``IndexMap.window_sizes``,
and searched past a window in one place, ``IndexMap.scan``. A window read
refutes a false declared certificate; ``certificates`` reads one first.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable, Iterator, Sequence

from .errors import ConstructionError, DomainError, IntegrityError, ParseError, UnsupportedError

DEFAULT_WINDOW = 64
SEARCH_CAP = 1 << 20  # targets any search past a window may read: the one search budget
DENSE_CAP = 2048  # largest n the dense oracle realises; here so the CLI can bound --n without numpy
EXHAUSTIVE_CAP = 7  # largest n whose n^n tables the dense oracle enumerates; here for the same reason


class memo:
    """``functools.cached_property`` without its lock, which Python 3.10 and 3.11 take
    on every first read: the first read stores the value in the instance's ``__dict__``,
    where every later read finds it before this descriptor. Two threads racing on a
    first read both compute the value, which is the same, and one store wins."""

    def __init__(self, fn):
        self.fn = fn
        self.__doc__ = fn.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


@dataclass(frozen=True)
class IndexSet:
    """The index set {1, ..., size}, or all positive integers when size is None."""

    size: int | None = None

    def __post_init__(self):
        if self.size is not None and self.size < 2:
            raise ConstructionError(f"finite index set must have size >= 2, got {self.size}")

    @property
    def is_finite(self) -> bool:
        return self.size is not None

    def __contains__(self, alpha: object) -> bool:
        if not isinstance(alpha, int) or isinstance(alpha, bool):
            return False
        return alpha >= 1 and (self.size is None or alpha <= self.size)


COUNTABLE = IndexSet()


@dataclass(frozen=True, kw_only=True)
class Certificates:
    """What is proved about every fiber of a map.

    ``m_sup`` bounds the finite fibers, ``surjective`` says no fiber is
    empty and ``infinite_fibers`` is the exact set of indices with an
    infinite fiber. The global bound ``sup_card`` is infinite when some
    fiber or ``m_sup`` is, and ``m_sup`` when no fiber is. ``injective`` is
    False when some fiber is infinite or ``m_sup > 1``, True when none is
    and ``m_sup <= 1``. The natural domain is ``closed`` exactly when
    ``m_sup`` is finite. Being derived, none can contradict the others.
    """

    m_sup: int | float
    surjective: bool
    infinite_fibers: frozenset[int]

    @property
    def sup_card(self) -> int | float:
        """Certified sup of all fiber sizes, derived from the certificates."""
        return math.inf if self.infinite_fibers else self.m_sup

    @property
    def injective(self) -> bool:
        """Certified injectivity, derived from the certificates."""
        return not self.infinite_fibers and self.m_sup <= 1

    @property
    def closed(self) -> bool:
        """Whether the natural domain is closed: the finite fibers are uniformly bounded."""
        return self.m_sup != math.inf


@dataclass(frozen=True)
class SymbolicRule(Certificates):
    """A self-map of the positive integers with closed-form fiber structure.

    ``card_fn`` and ``members_fn`` must be exact: over an infinite fiber they
    return math.inf and None, otherwise its size and complete preimage set.
    The three certificates are required keywords, checked here for form (an int
    ``m_sup`` >= 0 or math.inf, a bool, a frozenset of ints >= 1) and for truth by
    ``IndexMap.window_sizes``, which raises IntegrityError when a scanned window
    contradicts one.
    """

    name: str
    eval_fn: Callable[[int], int]
    card_fn: Callable[[int], int | float]
    members_fn: Callable[[int], frozenset[int] | None]
    param: int | None = None

    def __post_init__(self):
        def count(x: object) -> bool:
            return isinstance(x, int) and not isinstance(x, bool) and x >= 0

        def refuse(key: str, what: str) -> None:
            raise ConstructionError(f"rule {self.name!r} declares {key} {getattr(self, key)!r}, not {what}")

        if not (count(self.m_sup) or self.m_sup == math.inf):  # nan, a float, a bool fail
            refuse("m_sup", "an int >= 0 or math.inf")
        if not isinstance(self.surjective, bool):
            refuse("surjective", "a bool")
        if not (isinstance(self.infinite_fibers, frozenset)
                and all(count(a) and a >= 1 for a in self.infinite_fibers)):
            refuse("infinite_fibers", "a frozenset of ints >= 1")
        if math.inf > self.m_sup > sys.float_info.max:  # exact for ints; the norm must be a float
            raise ConstructionError(f"rule {self.name!r} declares finite-fiber bound past the float range")


@dataclass(frozen=True, kw_only=True)
class IndexMap:
    """A total self-map: ``IndexMap(table=t)`` with eval(k) = t[k-1], or ``IndexMap(rule=r)``.

    A table is checked here: a tuple of n >= 2 ints (not bools) in 1..n. ``domain``
    is derived, not passed: {1..n} for a table, COUNTABLE for a rule.
    """

    table: tuple[int, ...] | None = None
    rule: SymbolicRule | None = None
    domain: IndexSet = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if (self.table is None) == (self.rule is None):
            raise ConstructionError("exactly one of table and rule is required")
        if self.rule is not None:
            object.__setattr__(self, "domain", COUNTABLE)
            return
        if not isinstance(self.table, tuple):
            raise ConstructionError(f"image table must be a tuple, got {type(self.table).__name__}")
        n = len(self.table)
        object.__setattr__(self, "domain", IndexSet(n))  # rejects n < 2
        for pos, img in enumerate(self.table, start=1):
            if not isinstance(img, int) or isinstance(img, bool) or not 1 <= img <= n:
                raise ConstructionError(f"image at position {pos} is {img!r}, not in 1..{n}")

    def _check_index(self, alpha: int) -> None:
        if alpha not in self.domain:
            raise DomainError(f"index {alpha!r} outside the domain")

    def eval(self, alpha: int) -> int:
        self._check_index(alpha)
        if self.table is not None:
            return self.table[alpha - 1]
        return self.rule.eval_fn(alpha)

    # Caches live in __dict__, outside the fields, so ==, hash and repr ignore them.
    # Only the rule's window scan, which grows, is filled by hand (``window_sizes``).

    @memo
    def fiber_counts(self) -> tuple[int, ...]:
        """Fiber sizes of a finite map: ``counts[a - 1] == |fiber(a)|``."""
        if self.table is None:
            raise DomainError("fiber counts need a finite domain")
        tally = [0] * self.domain.size
        for img in self.table:
            tally[img - 1] += 1
        return tuple(tally)

    @memo
    def preimages(self) -> tuple[tuple[int, ...], ...]:
        """A table's fiber index, built by a counting sort into one flat list cut into runs:
        ``pre[a]`` is fiber(a) as an increasing tuple, and every empty fiber is ``()``."""
        counts = self.fiber_counts
        nxt = [0, 0, *accumulate(counts[:-1])]  # nxt[a]: the next free slot in fiber(a)'s run
        flat = [0] * len(self.table)
        for beta, img in enumerate(self.table, start=1):
            slot = nxt[img]
            flat[slot] = beta
            nxt[img] = slot + 1
        flat = tuple(flat)  # nxt[a] now ends the run of fiber(a)
        return ((), *(flat[end - c:end] if c else () for end, c in zip(nxt[1:], counts)))

    @memo
    def certificates(self) -> Certificates:
        """Proved fiber facts: exact for a table; a rule, once 1..DEFAULT_WINDOW checks it."""
        if self.rule is not None:
            self.window_sizes(DEFAULT_WINDOW)
            return self.rule
        counts = self.fiber_counts
        return Certificates(m_sup=max(counts), surjective=0 not in counts, infinite_fibers=frozenset())

    def window_sizes(self, window: int) -> tuple[int | float, ...]:
        """Fiber sizes over targets 1..window (math.inf if infinite); all n for a table.

        The one check that a window is in 1..SEARCH_CAP, and of a rule's certificates:
        the targets a read adds are checked against them, then cached (a smaller
        window is a prefix of the cache), so each size is checked once.
        """
        if not 1 <= window <= SEARCH_CAP:
            raise ConstructionError(f"window must be in 1..{SEARCH_CAP}, got {window}")
        if self.table is not None:
            return self.fiber_counts
        scanned = self.__dict__.get("_window_sizes", ())
        if window <= len(scanned):
            return scanned[:window]
        added = tuple(map(self.rule.card_fn, range(len(scanned) + 1, window + 1)))
        _check_certificates(self.rule, added, len(scanned) + 1)
        sizes = self.__dict__["_window_sizes"] = scanned + added
        return sizes

    def scan(self, first: int) -> Iterator[tuple[int, tuple[int | float, ...]]]:
        """The fiber sizes of targets 1, 2, ..., up to ``SEARCH_CAP`` (all n for a table),
        in chunks ``(a, sizes)``: ``sizes`` are those of targets a, a + 1, ...

        The chunks are the new targets of ``window_sizes`` over windows first,
        2*first, 4*first, ..., so a caller that stops early has scanned at most
        twice what it used.
        """
        seen, window = 0, first
        while seen < SEARCH_CAP:
            sizes = self.window_sizes(min(window, SEARCH_CAP))
            if len(sizes) == seen:  # a table has no targets beyond n
                return
            yield seen + 1, sizes[seen:]
            seen, window = len(sizes), 2 * window

    def fiber_card(self, alpha: int) -> int | float:
        self._check_index(alpha)
        if self.table is not None:
            return self.fiber_counts[alpha - 1]
        return self.rule.card_fn(alpha)

    def fiber(self, alpha: int) -> frozenset[int] | None:
        """Exact preimage of alpha; None when infinite, UnsupportedError past SEARCH_CAP members."""
        self._check_index(alpha)
        if self.table is not None:
            return frozenset(self.preimages[alpha])
        size = self.rule.card_fn(alpha)
        if SEARCH_CAP < size < math.inf:
            raise UnsupportedError(f"{describe_fiber(alpha, size)}, above SEARCH_CAP = {SEARCH_CAP}")
        members = self.rule.members_fn(alpha)
        return None if members is None else frozenset(members)


def make_finite_map(images: Sequence[int], n: int) -> IndexMap:
    """``IndexMap(table=tuple(images))`` on {1..n}; unexported, kept for perfbench to time."""
    if len(images) != n:
        raise ConstructionError(f"expected {n} images, got {len(images)}")
    return IndexMap(table=tuple(images))


# ---------------------------------------------------------------------------
# shipped symbolic rules


def successor_rule() -> SymbolicRule:
    """k -> k + 1; every fiber a singleton except the empty fiber over 1."""
    return SymbolicRule(
        name="successor",
        eval_fn=lambda k: k + 1,
        card_fn=lambda a: 0 if a == 1 else 1,
        members_fn=lambda a: frozenset() if a == 1 else frozenset((a - 1,)),
        m_sup=1,
        surjective=False,
        infinite_fibers=frozenset(),
    )


def clamp_pred_rule() -> SymbolicRule:
    """1 -> 1 and k -> k - 1; the fiber over 1 is {1, 2}."""
    return SymbolicRule(
        name="clamp_pred",
        eval_fn=lambda k: 1 if k == 1 else k - 1,
        card_fn=lambda a: 2 if a == 1 else 1,
        members_fn=lambda a: frozenset((1, 2)) if a == 1 else frozenset((a + 1,)),
        m_sup=2,
        surjective=True,
        infinite_fibers=frozenset(),
    )


def block_rule(b: int) -> SymbolicRule:
    """Compress consecutive blocks of length b: every fiber has size exactly b."""
    if not isinstance(b, int) or isinstance(b, bool) or b < 1:
        raise ConstructionError(f"block size must be an integer >= 1, got {b!r}")
    return SymbolicRule(
        name="block",
        eval_fn=lambda k: (k - 1) // b + 1,
        card_fn=lambda a: b,
        members_fn=lambda a: frozenset(range(b * (a - 1) + 1, b * a + 1)),
        m_sup=b,
        surjective=True,
        infinite_fibers=frozenset(),
        param=b,
    )


def triangular_rule() -> SymbolicRule:
    """Compress the k-th consecutive block of length k to k.

    The fiber over k has size exactly k, so every fiber is finite while the
    sizes admit no uniform bound. This is the canonical example separating
    "all fibers finite" from "fibers uniformly bounded".
    """
    return SymbolicRule(
        name="triangular",
        eval_fn=lambda j: (1 + math.isqrt(8 * j - 7)) // 2,
        card_fn=lambda a: a,
        members_fn=lambda a: frozenset(range(a * (a - 1) // 2 + 1, a * (a + 1) // 2 + 1)),
        m_sup=math.inf,
        surjective=True,
        infinite_fibers=frozenset(),
    )


def doubling_rule() -> SymbolicRule:
    """k -> 2k; one-to-one but misses every odd index."""
    return SymbolicRule(
        name="doubling",
        eval_fn=lambda k: 2 * k,
        card_fn=lambda a: 1 if a % 2 == 0 else 0,
        members_fn=lambda a: frozenset((a // 2,)) if a % 2 == 0 else frozenset(),
        m_sup=1,
        surjective=False,
        infinite_fibers=frozenset(),
    )


def odd_collapse_rule() -> SymbolicRule:
    """Odd k -> 1 and even k -> k/2 + 1: the fiber over 1 is infinite.

    Away from index 1 every fiber is the singleton {2(a - 1)}, so the map is
    wildly unbounded globally yet uniformly bounded over its finite-fiber set.
    """
    return SymbolicRule(
        name="odd_collapse",
        eval_fn=lambda k: 1 if k % 2 == 1 else k // 2 + 1,
        card_fn=lambda a: math.inf if a == 1 else 1,
        members_fn=lambda a: None if a == 1 else frozenset((2 * (a - 1),)),
        m_sup=1,
        surjective=True,
        infinite_fibers=frozenset((1,)),
    )


BUILTIN_RULES: dict[str, Callable[..., SymbolicRule]] = {
    "successor": successor_rule,
    "clamp_pred": clamp_pred_rule,
    "block": block_rule,
    "triangular": triangular_rule,
    "doubling": doubling_rule,
    "odd_collapse": odd_collapse_rule,
}


def symbolic_map(name: str, param: int | None = None) -> IndexMap:
    """Shipped symbolic map by name; ``param`` is the block size for "block"."""
    try:
        ctor = BUILTIN_RULES[name]
    except KeyError:
        raise ConstructionError(f"unknown symbolic rule {name!r}") from None
    if name == "block":
        if param is None:
            raise ConstructionError('rule "block" needs an integer param')
        return IndexMap(rule=ctor(param))
    if param is not None:
        raise ConstructionError(f"rule {name!r} takes no param")
    return IndexMap(rule=ctor())


# ---------------------------------------------------------------------------
# serialization

def map_to_json(m: IndexMap) -> dict:
    if m.table is not None:
        return {"kind": "finite", "images": list(m.table)}
    doc: dict = {"kind": "symbolic", "name": m.rule.name}
    if m.rule.param is not None:
        doc["param"] = m.rule.param
    return doc


def parse_map(doc: object) -> IndexMap:
    """Parse the map file format (the inverse of map_to_json); the constructors are the
    one check of ``name`` and ``param``, and their ConstructionError becomes a ParseError
    with the same text."""
    if not isinstance(doc, dict):
        raise ParseError("map document must be a JSON object")
    kind = doc.get("kind")
    try:
        if kind == "finite":
            images = doc.get("images")
            if not isinstance(images, list):
                raise ParseError('finite map needs an "images" array')
            return IndexMap(table=tuple(images))
        if kind == "symbolic":
            name = doc.get("name")
            if not isinstance(name, str):
                raise ParseError('symbolic map needs a "name" string')
            return symbolic_map(name, doc.get("param"))
    except ConstructionError as exc:
        raise ParseError(str(exc)) from exc
    raise ParseError(f'map "kind" must be "finite" or "symbolic", got {kind!r}')


# ---------------------------------------------------------------------------
# fiber reports

def describe_fiber(a: int, size: int | float) -> str:
    """The wording every report of one fiber's size shares: ``fiber(a) has size s``."""
    return f"fiber({a}) has size {'infinite' if size == math.inf else size}"


def finite_runs(infinite_fibers: frozenset[int], start: int, stop: int) -> list[range]:
    """The targets start, ..., stop - 1 outside ``infinite_fibers``, as maximal runs: over
    targets that ``window_sizes`` has read, exactly those with a finite fiber."""
    infinite = sorted(a for a in infinite_fibers if start <= a < stop)
    edges = (start - 1, *infinite, stop)
    return [range(lo + 1, hi) for lo, hi in zip(edges, edges[1:]) if hi > lo + 1]


def _check_certificates(rule: SymbolicRule, sizes: tuple[int | float, ...], start: int) -> None:
    """Raise IntegrityError when a certificate contradicts the sizes of targets start, start + 1, ...

    A window can refute a finite ``m_sup``, a claim of surjectivity, and the
    infinite-fiber set restricted to the window, never an unbounded or a
    negative certificate. A window that refutes the derived ``sup_card`` or
    ``injective`` refutes ``m_sup`` or ``infinite_fibers``. The latter is checked
    first, so the ``peak`` size over its ``finite_runs`` is finite for ``m_sup``.
    """

    def refute(claim: str, bad: Callable[[int, int | float], bool]) -> None:
        a, c = next((a, c) for a, c in enumerate(sizes, start=start) if bad(a, c))
        raise IntegrityError(f"rule {rule.name!r} declares {claim} but {describe_fiber(a, c)}")

    declared, stop = rule.infinite_fibers, start + len(sizes)
    peak = max((max(sizes[r.start - start:r.stop - start])
                for r in finite_runs(declared, start, stop)), default=0)
    if peak == math.inf or any(sizes[a - start] != math.inf for a in declared if start <= a < stop):
        refute(f"infinite fibers exactly over {sorted(declared)}",
               lambda a, c: (c == math.inf) != (a in declared))
    if peak > rule.m_sup:
        refute(f"finite-fiber bound {rule.m_sup}", lambda a, c: rule.m_sup < c < math.inf)
    if rule.surjective and 0 in sizes:
        refute("the map onto", lambda a, c: c == 0)


def fiber_report(m: IndexMap) -> int | float:
    """The certified sup of all fiber sizes (math.inf when unbounded), from ``m.certificates``."""
    return m.certificates.sup_card
