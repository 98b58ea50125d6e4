"""Index sets and total self-maps with exact preimage structure.

Everything downstream (norms, classification, domain analysis) reduces to
questions about fibers, the preimage sets of single indices. A fiber size is
an int, or math.inf for an infinite fiber. A map is built one way, from an
image table or a symbolic rule, and stores only that; its domain, exact fiber
oracle and one certificate record, ``IndexMap.certificates``, are derived on
first read: a table reads exact ones off its fiber sizes, and a rule's come from
the rule, so every verdict is a plain value. A periodic rule states its sizes
once, as ``sizes=(head, block)``, and its certificates are derived from them;
any other rule reads its sizes by ``card_fn`` and declares its certificates.
Fiber sizes are read in one place, ``IndexMap``: a window by ``window_sizes``, a
search past it by ``scan``, a rule's given targets by ``sizes_at`` and
``members_at``. A window read refutes a false declared certificate;
``certificates`` reads one first and tallies a rule's images of it against its
sizes, and every other read of a rule reads ``certificates`` first. A rule's
images are read in one place, ``_image``, which refuses one outside the index
set, and each size that ``sizes_at`` reads by ``card_fn`` is checked against the
certificates as a one-target window. A window of a rule with ``sizes`` is a tuple
repetition of the block with the head prepended, and its largest size is that of
the read of 1..DEFAULT_WINDOW (``window_sup``).
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate
from typing import Callable, Iterable, Iterator, Sequence

from .errors import IntegrityError, NotInL2, ParseError, UnsupportedError

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
        if self.size is not None and (not isinstance(self.size, int) or isinstance(self.size, bool)):
            raise ParseError(f"finite index set size must be an int, got {self.size!r}")
        if self.size is not None and self.size < 2:
            raise ParseError(f"finite index set must have size >= 2, got {self.size}")

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


@dataclass(frozen=True, kw_only=True)
class SymbolicRule:
    """A self-map of the positive integers with closed-form fiber structure.

    ``members_fn`` must be exact: None over an infinite fiber, else its complete
    preimage set. A rule states its fiber sizes in exactly one of two ways. A
    periodic rule gives ``sizes=(head, block)``: target a has size ``head[a - 1]``
    while a <= len(head), and ``block`` repeats after that; the head holds ints >= 0
    or math.inf, the block one or more ints >= 0, and both together at most
    DEFAULT_WINDOW - 1 sizes, so the read of 1..DEFAULT_WINDOW holds a whole block.
    Its three certificates are derived from them, never declared. Any other rule
    gives ``card_fn``, exact like ``members_fn`` (math.inf over an infinite fiber),
    and declares ``m_sup``, ``surjective`` and ``infinite_fibers``, checked here for
    form (an int >= 0 or math.inf, a bool, a frozenset of ints >= 1) and for truth by
    ``IndexMap.window_sizes``, which raises IntegrityError when a scanned window
    contradicts one. ``certificates`` is the record of the three, either way.
    """

    name: str
    eval_fn: Callable[[int], int]
    members_fn: Callable[[int], frozenset[int] | None]
    sizes: tuple[tuple[int | float, ...], tuple[int, ...]] | None = None
    card_fn: Callable[[int], int | float] | None = None
    m_sup: int | float | None = None
    surjective: bool | None = None
    infinite_fibers: frozenset[int] | None = None
    param: int | None = None
    certificates: Certificates = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        def count(x: object) -> bool:
            return isinstance(x, int) and not isinstance(x, bool) and x >= 0

        def refuse(key: str, what: str) -> None:
            raise ParseError(f"rule {self.name!r} declares {key} {getattr(self, key)!r}, not {what}")

        if (self.sizes is None) == (self.card_fn is None):
            raise ParseError(f"rule {self.name!r} needs exactly one of sizes and card_fn")
        if self.sizes is not None:
            for key in ("m_sup", "surjective", "infinite_fibers"):
                if getattr(self, key) is not None:
                    refuse(key, "None: a rule with sizes derives its certificates")
            sizes = self.sizes
            if not (isinstance(sizes, tuple) and len(sizes) == 2 and all(isinstance(part, tuple) for part in sizes)
                    and all(count(c) or c == math.inf for c in sizes[0])
                    and 0 < len(sizes[1]) < DEFAULT_WINDOW - len(sizes[0]) and all(map(count, sizes[1]))):
                refuse("sizes", f"a head of ints >= 0 or math.inf and a block of one or more ints >= 0,"
                                f" {DEFAULT_WINDOW - 1} sizes at most")
            head, every = sizes[0], sizes[0] + sizes[1]
            cert = Certificates(m_sup=max((c for c in every if c != math.inf), default=0), surjective=0 not in every,
                                infinite_fibers=frozenset(a for a, c in enumerate(head, start=1) if c == math.inf))
        else:
            if not (count(self.m_sup) or self.m_sup == math.inf):  # nan, a float, a bool fail
                refuse("m_sup", "an int >= 0 or math.inf")
            if not isinstance(self.surjective, bool):
                refuse("surjective", "a bool")
            if not (isinstance(self.infinite_fibers, frozenset)
                    and all(count(a) and a >= 1 for a in self.infinite_fibers)):
                refuse("infinite_fibers", "a frozenset of ints >= 1")
            cert = Certificates(m_sup=self.m_sup, surjective=self.surjective, infinite_fibers=self.infinite_fibers)
        if math.inf > cert.m_sup > sys.float_info.max:  # exact for ints; the norm must be a float
            raise ParseError(f"rule {self.name!r} declares finite-fiber bound past the float range")
        object.__setattr__(self, "certificates", cert)


@dataclass(frozen=True, kw_only=True)
class IndexMap:
    """A total self-map: ``IndexMap(table=t)`` with eval(k) = t[k-1], or ``IndexMap(rule=r)``.

    A table is checked here: a tuple of n >= 2 ints (not bools) in 1..n. A table map
    stores only its table; ``domain`` is derived on first read: {1..n} for a table,
    COUNTABLE for a rule.
    """

    table: tuple[int, ...] | None = None
    rule: SymbolicRule | None = None

    def __post_init__(self):
        if (self.table is None) == (self.rule is None):
            raise ParseError("exactly one of table and rule is required")
        if self.rule is not None:
            return
        table = self.table
        if not isinstance(table, tuple):
            raise ParseError(f"image table must be a tuple, got {type(table).__name__}")
        n = len(table)
        if n < 2:
            raise ParseError(f"finite index set must have size >= 2, got {n}")
        # one pass of builtins; the walk only names the first offender (or passes an int subclass)
        if set(map(type, table)) != {int} or min(table) < 1 or max(table) > n:
            for pos, img in enumerate(table, start=1):
                if not isinstance(img, int) or isinstance(img, bool) or not 1 <= img <= n:
                    raise ParseError(f"image at position {pos} is {img!r}, not in 1..{n}")

    def _check_index(self, alpha: int) -> None:
        if alpha not in self.domain:
            raise ParseError(f"index {alpha!r} outside the domain")

    def eval(self, alpha: int) -> int:
        """alpha's image: a table's entry, or a rule's through ``_image``, which checks it."""
        self._check_index(alpha)
        if self.table is not None:
            return self.table[alpha - 1]
        return _image(self.rule, alpha)

    # Caches live in __dict__, outside the fields, so ==, hash and repr ignore them.
    # Only the rule's window scan, which grows, is filled by hand (``window_sizes``).

    @memo
    def domain(self) -> IndexSet:
        """{1..n} for a table of n entries, COUNTABLE for a rule."""
        return COUNTABLE if self.table is None else IndexSet(len(self.table))

    @memo
    def fiber_counts(self) -> tuple[int, ...]:
        """Fiber sizes of a finite map: ``counts[a - 1] == |fiber(a)|``."""
        if self.table is None:
            raise UnsupportedError("fiber counts need a finite domain")
        tally = [0] * len(self.table)
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
        """Proved fiber facts: exact for a table; a rule's, once 1..DEFAULT_WINDOW checks them
        and ``eval_fn`` sends no more of 1..DEFAULT_WINDOW to a target there than its fiber holds."""
        if self.rule is not None:
            _check_images(self.rule, self.window_sizes(DEFAULT_WINDOW))
            return self.rule.certificates
        counts = self.fiber_counts
        return _table_certificates(max(counts), 0 not in counts)

    def window_sizes(self, window: int) -> tuple[int | float, ...]:
        """Fiber sizes over targets 1..window (math.inf if infinite); all n for a table.

        The one check that a window is in 1..SEARCH_CAP, and of a declared rule's
        certificates: the targets a ``card_fn`` read adds are checked against them, then
        cached (a smaller window is a prefix of the cache), so each size is checked once.
        A rule with ``sizes`` has its window tiled from them, a tuple repetition of the
        block with the head prepended, and cached; its certificates are derived from
        the same sizes, so nothing is read by ``card_fn`` and nothing needs a check.
        """
        if not 1 <= window <= SEARCH_CAP:
            raise ParseError(f"window must be in 1..{SEARCH_CAP}, got {window}")
        if self.table is not None:
            return self.fiber_counts
        scanned = self.__dict__.get("_window_sizes", ())
        if window <= len(scanned):
            return scanned[:window]
        rule, lo = self.rule, len(scanned) + 1
        if rule.sizes is None:
            added = tuple(map(rule.card_fn, range(lo, window + 1)))
            _check_certificates(rule, added, lo)
        else:  # the added targets of the head, then those of the block, sliced once from its repetition
            head, block = rule.sizes
            skip = max(lo - 1 - len(head), 0)  # the block's targets already cached
            n, offset = window - len(head) - skip, skip % len(block)
            added = head[lo - 1:window] + (block * ((offset + n - 1) // len(block) + 1))[offset:offset + n]
        sizes = self.__dict__["_window_sizes"] = scanned + added  # no copy on a first read
        return sizes

    def window_sup(self, sizes: tuple[int | float, ...]) -> int | float:
        """The largest of ``sizes``, a read of ``window_sizes``. A rule with ``sizes`` takes it
        over the first min(len(sizes), DEFAULT_WINDOW) sizes alone: those hold its head and a
        whole block, so every size past them copies one of them."""
        if self.rule is not None and self.rule.sizes is not None:
            sizes = sizes[:DEFAULT_WINDOW]
        return max(sizes)

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

    def sizes_at(self, targets: Iterable[int]) -> Iterator[int | float]:
        """A rule's fiber sizes over ``targets`` (ints >= 1), read lazily once ``certificates`` has
        checked the rule: off its ``sizes``, past the head from the block; or by ``card_fn``, each
        checked as a one-target window unless an int in int(surjective)..m_sup off a declared
        infinite fiber, which no certificate refutes."""
        rule, _ = self.rule, self.certificates  # checks the rule
        if rule.sizes is None:
            card, lo, hi, infinite = rule.card_fn, int(rule.surjective), rule.m_sup, rule.infinite_fibers

            def checked(a: int) -> int | float:
                if type(c := card(a)) is not int or not lo <= c <= hi or a in infinite:
                    _check_certificates(rule, (c,), a)
                return c
            return map(checked, targets)
        head, block = rule.sizes
        start, length = len(head), len(block)
        return (head[a - 1] if a <= start else block[(a - 1 - start) % length] for a in targets)

    def members_at(self, targets: Sequence[int]) -> list[frozenset[int]]:
        """A rule's fibers over ``targets``, all sizes read first: the first target whose running
        total passes SEARCH_CAP raises NotInL2 if infinite, else UnsupportedError. ``members_fn``
        is then read once per target, and IntegrityError names the first fiber of the wrong length."""
        sizes = list(self.sizes_at(targets))
        if math.inf in sizes or sum(sizes) > SEARCH_CAP:  # no float sum: inf + 10**400 overflows
            i, total = next((i, t) for i, t in enumerate(accumulate(sizes)) if t > SEARCH_CAP)
            if sizes[i] == math.inf:
                raise NotInL2(targets[i])
            found = (describe_fiber(targets[i], sizes[i]) if sizes[i] > SEARCH_CAP
                     else f"the image has {total} entries or more")
            raise UnsupportedError(f"{found}, above SEARCH_CAP = {SEARCH_CAP}")
        fibers = list(map(self.rule.members_fn, targets))
        if list(map(len, fibers)) != sizes:
            theta, size, fiber = next(t for t in zip(targets, sizes, fibers) if len(t[2]) != t[1])
            raise IntegrityError(f"rule {self.rule.name!r} has len(members_fn({theta})) == {len(fiber)}"
                                 f" but {describe_fiber(theta, size)}")
        return fibers

    def fiber_card(self, alpha: int) -> int | float:
        self._check_index(alpha)
        if self.table is not None:
            return self.fiber_counts[alpha - 1]
        return next(self.sizes_at((alpha,)))

    def fiber(self, alpha: int) -> frozenset[int] | None:
        """Exact preimage of alpha; None when infinite. A rule's is ``members_at``'s, with its refusals."""
        self._check_index(alpha)
        if self.table is not None:
            return frozenset(self.preimages[alpha])
        try:
            return frozenset(self.members_at((alpha,))[0])
        except NotInL2:  # an infinite fiber
            return None


def make_finite_map(images: Sequence[int], n: int) -> IndexMap:
    """``IndexMap(table=tuple(images))`` on {1..n}; unexported, kept for perfbench to time."""
    if len(images) != n:
        raise ParseError(f"expected {n} images, got {len(images)}")
    return IndexMap(table=tuple(images))


# ---------------------------------------------------------------------------
# shipped symbolic rules


def successor_rule() -> SymbolicRule:
    """k -> k + 1; every fiber a singleton except the empty fiber over 1."""
    return SymbolicRule(
        name="successor",
        eval_fn=lambda k: k + 1,
        members_fn=lambda a: frozenset() if a == 1 else frozenset((a - 1,)),
        sizes=((0,), (1,)),
    )


def clamp_pred_rule() -> SymbolicRule:
    """1 -> 1 and k -> k - 1; the fiber over 1 is {1, 2}."""
    return SymbolicRule(
        name="clamp_pred",
        eval_fn=lambda k: 1 if k == 1 else k - 1,
        members_fn=lambda a: frozenset((1, 2)) if a == 1 else frozenset((a + 1,)),
        sizes=((2,), (1,)),
    )


def block_rule(b: int) -> SymbolicRule:
    """Compress consecutive blocks of length b: every fiber has size exactly b."""
    if not isinstance(b, int) or isinstance(b, bool) or b < 1:
        raise ParseError(f"block size must be an integer >= 1, got {b!r}")
    return SymbolicRule(
        name="block",
        eval_fn=lambda k: (k - 1) // b + 1,
        members_fn=lambda a: frozenset(range(b * (a - 1) + 1, b * a + 1)),
        sizes=((), (b,)),
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
        members_fn=lambda a: frozenset((a // 2,)) if a % 2 == 0 else frozenset(),
        sizes=((), (0, 1)),
    )


def odd_collapse_rule() -> SymbolicRule:
    """Odd k -> 1 and even k -> k/2 + 1: the fiber over 1 is infinite.

    Away from index 1 every fiber is the singleton {2(a - 1)}, so the map is
    wildly unbounded globally yet uniformly bounded over its finite-fiber set.
    """
    return SymbolicRule(
        name="odd_collapse",
        eval_fn=lambda k: 1 if k % 2 == 1 else k // 2 + 1,
        members_fn=lambda a: None if a == 1 else frozenset((2 * (a - 1),)),
        sizes=((math.inf,), (1,)),
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
        raise ParseError(f"unknown symbolic rule {name!r}") from None
    if name == "block":
        if param is None:
            raise ParseError('rule "block" needs an integer param')
        return IndexMap(rule=ctor(param))
    if param is not None:
        raise ParseError(f"rule {name!r} takes no param")
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
    """Parse the map file format (the inverse of map_to_json), which has no other key; the
    constructors are the one check of the images, ``name`` and ``param``, and raise ParseError."""
    if not isinstance(doc, dict):
        raise ParseError("map document must be a JSON object")
    kind = doc.get("kind")
    if kind not in ("finite", "symbolic"):
        raise ParseError(f'map "kind" must be "finite" or "symbolic", got {kind!r}')
    keys = ("kind", "images") if kind == "finite" else ("kind", "name", "param")
    unknown = [key for key in doc if key not in keys]
    if unknown:
        raise ParseError(f"{kind} map has no key {unknown[0]!r}")
    if kind == "finite":
        images = doc.get("images")
        if not isinstance(images, list):
            raise ParseError('finite map needs an "images" array')
        return IndexMap(table=tuple(images))
    name = doc.get("name")
    if not isinstance(name, str):
        raise ParseError('symbolic map needs a "name" string')
    return symbolic_map(name, doc.get("param"))


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
    """Raise IntegrityError when a declared certificate contradicts the ``card_fn`` sizes of targets
    start, start + 1, ... (a rule with ``sizes`` declares none).

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


def _image(rule: SymbolicRule, beta: int) -> int:
    """``rule.eval_fn(beta)``, the one read of a rule's images: IntegrityError unless an int >= 1."""
    if (img := rule.eval_fn(beta)) not in COUNTABLE:
        raise IntegrityError(f"rule {rule.name!r} maps {beta} to {img!r}, not an int >= 1")
    return img


def _check_images(rule: SymbolicRule, sizes: tuple[int | float, ...]) -> None:
    """Raise IntegrityError when ``eval_fn`` sends one of 1..len(sizes) outside the index set, or
    more of them to a target there than its fiber holds (the rest of a fiber may lie past them)."""
    hits = Counter(_image(rule, beta) for beta in range(1, len(sizes) + 1))
    for a, c in enumerate(sizes, start=1):
        if hits[a] > c:
            raise IntegrityError(f"rule {rule.name!r} maps {hits[a]} of 1..{len(sizes)} to {a}"
                                 f" but {describe_fiber(a, c)}")


@lru_cache(maxsize=256)  # immutable, so every table with one (m_sup, surjective) shares one record
def _table_certificates(m_sup: int, surjective: bool) -> Certificates:
    return Certificates(m_sup=m_sup, surjective=surjective, infinite_fibers=frozenset())


def fiber_report(m: IndexMap) -> int | float:
    """The certified sup of all fiber sizes (math.inf when unbounded), from ``m.certificates``."""
    return m.certificates.sup_card
