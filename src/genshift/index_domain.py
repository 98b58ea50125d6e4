"""Index sets and total self-maps with exact preimage structure.

Everything downstream (norms, classification, domain analysis) reduces to
questions about fibers, the preimage sets of single indices. Maps therefore
carry an exact fiber oracle. A finite map counts its image table once into a
cached fiber-count profile (``IndexMap.fiber_counts``). A symbolic map on
{1, 2, ...} has closed-form fibers plus three optional, independent
certificates: ``m_sup`` (the bound over finite fibers), ``surjective`` and
``infinite_fibers``. The global bound ``sup_card`` is derived from them: it
is infinite when some fiber or ``m_sup`` is, and ``m_sup`` when no fiber is.
So is ``injective``: False when some fiber is infinite or ``m_sup > 1``, True
when none is and ``m_sup <= 1``. Both are None (unknown) otherwise. Windows
are scanned in one place, ``IndexMap.window_sizes``, which validates every
certificate and caches the largest validated scan. A rule without
certificates can still be analysed, but only on finite windows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence

from .errors import ConstructionError, DomainError, IntegrityError, ParseError

DEFAULT_WINDOW = 64


@dataclass(frozen=True)
class FiberCard:
    """Cardinality of a fiber: a non-negative integer, or infinite (count=None)."""

    count: int | None

    def __post_init__(self):
        if self.count is not None and self.count < 0:
            raise ConstructionError(f"negative cardinality {self.count}")

    @property
    def is_infinite(self) -> bool:
        return self.count is None

    def as_float(self) -> float:
        return math.inf if self.count is None else float(self.count)

    def weight(self, mag_sq: float) -> float:
        """Product against a squared magnitude, using 0 * inf = inf * 0 = 0."""
        if mag_sq == 0.0:
            return 0.0
        if self.count is None:
            return math.inf
        return self.count * mag_sq


INFINITE = FiberCard(None)


def sup_card(cards: Iterable[FiberCard]) -> FiberCard:
    """Largest of finitely many fiber cardinalities; infinite dominates."""
    best = 0
    for c in cards:
        if c.count is None:
            return INFINITE
        if c.count > best:
            best = c.count
    return FiberCard(best)


@dataclass(frozen=True)
class IndexSet:
    """The index set {1, ..., size}, or all positive integers when size is None."""

    size: int | None = None

    def __post_init__(self):
        if self.size is not None and self.size < 2:
            raise ConstructionError(f"finite index set must have size >= 2, got {self.size}")

    @classmethod
    def finite(cls, n: int) -> "IndexSet":
        return cls(n)

    @property
    def is_finite(self) -> bool:
        return self.size is not None

    def __contains__(self, alpha: object) -> bool:
        if not isinstance(alpha, int) or isinstance(alpha, bool):
            return False
        return alpha >= 1 and (self.size is None or alpha <= self.size)

    def indices(self) -> range:
        if self.size is None:
            raise DomainError("cannot enumerate the unbounded index set")
        return range(1, self.size + 1)


COUNTABLE = IndexSet()


@dataclass(frozen=True)
class Fiber:
    """A preimage set: exact cardinality plus the member set when finite."""

    card: FiberCard
    members: frozenset[int] | None  # None exactly when the fiber is infinite


@dataclass(frozen=True)
class SymbolicRule:
    """A self-map of the positive integers with closed-form fiber structure.

    ``card_fn`` and ``members_fn`` must be exact: ``members_fn(a)`` is None
    exactly when the fiber over ``a`` is infinite, otherwise the complete
    preimage set. The certificates are optional; when present they must be
    truthful (``IndexMap.window_sizes`` checks them on every window it scans
    and raises IntegrityError on contradiction). ``sup_card`` and
    ``injective`` are derived from them, so they cannot contradict them.
    """

    name: str
    eval_fn: Callable[[int], int]
    card_fn: Callable[[int], int | None]
    members_fn: Callable[[int], frozenset[int] | None]
    m_sup: FiberCard | None = None  # certified sup over finite fibers only
    surjective: bool | None = None
    infinite_fibers: frozenset[int] | None = None  # certified infinite-fiber indices
    param: int | None = None

    @property
    def sup_card(self) -> FiberCard | None:
        """Certified sup of all fiber sizes, derived from the certificates; None if unknown."""
        if self.infinite_fibers or self.m_sup == INFINITE:
            return INFINITE
        return None if self.infinite_fibers is None else self.m_sup

    @property
    def injective(self) -> bool | None:
        """Certified injectivity, derived from the certificates; None if unknown."""
        if self.infinite_fibers or (self.m_sup is not None and self.m_sup.as_float() > 1):
            return False
        return None if self.sup_card is None else True


@dataclass(frozen=True)
class IndexMap:
    """A total self-map of an index set, given by image table or symbolic rule."""

    domain: IndexSet
    table: tuple[int, ...] | None = None
    rule: SymbolicRule | None = None

    def __post_init__(self):
        if (self.table is None) == (self.rule is None):
            raise ConstructionError("exactly one of table and rule is required")
        if self.table is not None and not self.domain.is_finite:
            raise ConstructionError("image tables need a finite domain")
        if self.rule is not None and self.domain.is_finite:
            raise ConstructionError("symbolic rules live on the unbounded domain")

    @property
    def is_finite(self) -> bool:
        return self.domain.is_finite

    @property
    def name(self) -> str:
        if self.table is not None:
            return f"table{list(self.table)}"
        return self.rule.name

    def _check_index(self, alpha: int) -> None:
        if alpha not in self.domain:
            raise DomainError(f"index {alpha!r} outside the domain")

    def eval(self, alpha: int) -> int:
        self._check_index(alpha)
        if self.table is not None:
            return self.table[alpha - 1]
        return self.rule.eval_fn(alpha)

    @cached_property
    def fiber_counts(self) -> tuple[int, ...]:
        """Fiber-count profile of a finite map: ``counts[a] == |fiber(a)|``.

        Built in one pass over the image table on first use and cached on the
        instance (outside the dataclass fields, so equality, hashing and repr
        ignore it). ``counts[0]`` is always 0, so positions match indices.
        """
        if self.table is None:
            raise DomainError("fiber counts need a finite domain")
        counts = [0] * (self.domain.size + 1)
        for img in self.table:
            counts[img] += 1
        return tuple(counts)

    def window_sizes(self, window: int) -> tuple[int | None, ...]:
        """Fiber sizes of a symbolic map over targets 1..window, None if infinite.

        Every certificate is checked against them first. Only the largest
        validated scan is cached (outside the dataclass fields): a smaller
        window is its prefix, a larger one scans only the targets beyond it.
        """
        if self.rule is None:
            raise DomainError("window scans need a symbolic map")
        if window < 1:
            raise ConstructionError(f"window must be >= 1, got {window}")
        scanned = self.__dict__.get("_window_sizes", ())
        if window <= len(scanned):
            return scanned[:window]
        sizes = scanned + tuple(map(self.rule.card_fn, range(len(scanned) + 1, window + 1)))
        _check_certificates(self.rule, sizes)
        self.__dict__["_window_sizes"] = sizes
        return sizes

    def fiber_card(self, alpha: int) -> FiberCard:
        self._check_index(alpha)
        if self.table is not None:
            return FiberCard(self.fiber_counts[alpha])
        c = self.rule.card_fn(alpha)
        return INFINITE if c is None else FiberCard(c)

    def fiber(self, alpha: int) -> Fiber:
        """Exact preimage of alpha: {beta : eval(beta) == alpha}."""
        self._check_index(alpha)
        if self.table is not None:
            members = frozenset(i for i, img in enumerate(self.table, start=1) if img == alpha)
            return Fiber(FiberCard(len(members)), members)
        members = self.rule.members_fn(alpha)
        if members is None:
            return Fiber(INFINITE, None)
        return Fiber(FiberCard(len(members)), frozenset(members))


def make_finite_map(images: Sequence[int], n: int) -> IndexMap:
    """Total map on {1..n} with eval(k) = images[k-1]."""
    if n < 2:
        raise ConstructionError(f"need n >= 2, got {n}")
    if len(images) != n:
        raise ConstructionError(f"expected {n} images, got {len(images)}")
    for pos, img in enumerate(images, start=1):
        if not isinstance(img, int) or isinstance(img, bool) or not 1 <= img <= n:
            raise ConstructionError(f"image at position {pos} is {img!r}, not in 1..{n}")
    return IndexMap(IndexSet.finite(n), table=tuple(images))


def make_symbolic_map(rule: SymbolicRule) -> IndexMap:
    """Wrap a symbolic rule as a map on the unbounded index set."""
    return IndexMap(COUNTABLE, rule=rule)


def compose_finite(outer: IndexMap, inner: IndexMap) -> IndexMap:
    """The map alpha -> outer(inner(alpha)) on a shared finite domain."""
    if not (outer.is_finite and inner.is_finite) or outer.domain != inner.domain:
        raise DomainError("composition needs matching finite domains")
    return IndexMap(outer.domain, table=tuple(outer.table[i - 1] for i in inner.table))


# ---------------------------------------------------------------------------
# shipped symbolic rules


def successor_rule() -> SymbolicRule:
    """k -> k + 1; every fiber a singleton except the empty fiber over 1."""
    return SymbolicRule(
        name="successor",
        eval_fn=lambda k: k + 1,
        card_fn=lambda a: 0 if a == 1 else 1,
        members_fn=lambda a: frozenset() if a == 1 else frozenset((a - 1,)),
        m_sup=FiberCard(1),
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
        m_sup=FiberCard(2),
        surjective=True,
        infinite_fibers=frozenset(),
    )


def block_rule(b: int) -> SymbolicRule:
    """Compress consecutive blocks of length b: every fiber has size exactly b."""
    if not isinstance(b, int) or isinstance(b, bool) or b < 1:
        raise ConstructionError(f"block size must be an integer >= 1, got {b!r}")

    def members(a: int) -> frozenset[int]:
        lo = b * (a - 1) + 1
        return frozenset(range(lo, lo + b))

    return SymbolicRule(
        name="block",
        eval_fn=lambda k: (k - 1) // b + 1,
        card_fn=lambda a: b,
        members_fn=members,
        m_sup=FiberCard(b),
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

    def block_of(j: int) -> int:
        return (1 + math.isqrt(8 * j - 7)) // 2

    def members(a: int) -> frozenset[int]:
        lo = a * (a - 1) // 2 + 1
        return frozenset(range(lo, lo + a))

    return SymbolicRule(
        name="triangular",
        eval_fn=block_of,
        card_fn=lambda a: a,
        members_fn=members,
        m_sup=INFINITE,
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
        m_sup=FiberCard(1),
        surjective=False,
        infinite_fibers=frozenset(),
    )


def odd_collapse_rule() -> SymbolicRule:
    """Odd k -> 1 and even k -> k/2 + 1: the fiber over 1 is infinite.

    Away from index 1 every fiber is the singleton {2(a - 1)}, so the map is
    wildly unbounded globally yet uniformly bounded over its finite-fiber set.
    """

    def card(a: int) -> int | None:
        return None if a == 1 else 1

    def members(a: int) -> frozenset[int] | None:
        return None if a == 1 else frozenset((2 * (a - 1),))

    return SymbolicRule(
        name="odd_collapse",
        eval_fn=lambda k: 1 if k % 2 == 1 else k // 2 + 1,
        card_fn=card,
        members_fn=members,
        m_sup=FiberCard(1),
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
        return make_symbolic_map(ctor(param))
    if param is not None:
        raise ConstructionError(f"rule {name!r} takes no param")
    return make_symbolic_map(ctor())


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
    """Parse the map file format (the inverse of map_to_json)."""
    if not isinstance(doc, dict):
        raise ParseError("map document must be a JSON object")
    kind = doc.get("kind")
    if kind == "finite":
        images = doc.get("images")
        if not isinstance(images, list):
            raise ParseError('finite map needs an "images" array')
        try:
            return make_finite_map(images, len(images))
        except ConstructionError as exc:
            raise ParseError(str(exc)) from exc
    if kind == "symbolic":
        name = doc.get("name")
        if not isinstance(name, str):
            raise ParseError('symbolic map needs a "name" string')
        param = doc.get("param")
        if param is not None and (not isinstance(param, int) or isinstance(param, bool)):
            raise ParseError('"param" must be an integer')
        try:
            return symbolic_map(name, param)
        except ConstructionError as exc:
            raise ParseError(str(exc)) from exc
    raise ParseError(f'map "kind" must be "finite" or "symbolic", got {kind!r}')


# ---------------------------------------------------------------------------
# fiber reports

@dataclass(frozen=True)
class Certified:
    """Fiber sizes are uniformly bounded by ``bound``, proved for the whole domain."""

    bound: int


@dataclass(frozen=True)
class CertifiedUnbounded:
    """Fiber sizes certified to admit no finite uniform bound."""


@dataclass(frozen=True)
class WindowBound:
    """Largest fiber size seen on a finite window; nothing proved beyond it."""

    bound: int
    window: int


BoundVerdict = Certified | CertifiedUnbounded | WindowBound


@dataclass(frozen=True)
class WindowOnly:
    """A truth value established on a finite window only."""

    note: str
    value: float | None = None


Verdict = bool | WindowOnly


@dataclass(frozen=True)
class FiberReport:
    cardinalities: dict[int, FiberCard]
    sup: FiberCard  # max over the reported cardinalities, infinite dominating
    verdict: BoundVerdict
    m_set: frozenset[int]  # reported indices whose fiber is finite


def _check_certificates(rule: SymbolicRule, sizes: tuple[int | None, ...]) -> None:
    """Raise IntegrityError when a certificate contradicts a window scan.

    A window can refute a finite ``m_sup``, a claim of surjectivity, and the
    infinite-fiber set restricted to the window, never an unbounded or a
    negative certificate. A window that refutes the derived ``sup_card`` or
    ``injective`` refutes ``m_sup`` or ``infinite_fibers``.
    """

    def refute(claim: str, bad: Callable[[int, int | None], bool]) -> None:
        a, c = next((a, c) for a, c in enumerate(sizes, start=1) if bad(a, c))
        size = "infinite" if c is None else c
        raise IntegrityError(f"rule {rule.name!r} declares {claim} but fiber({a}) has size {size}")

    if rule.m_sup is not None and not rule.m_sup.is_infinite:
        m_bound = rule.m_sup.count
        if max(filter(None, sizes), default=0) > m_bound:  # skips infinite and empty fibers
            refute(f"finite-fiber bound {m_bound}", lambda a, c: c is not None and c > m_bound)
    if rule.surjective and 0 in sizes:
        refute("the map onto", lambda a, c: c == 0)
    if rule.infinite_fibers is not None:
        declared = {a for a in rule.infinite_fibers if a <= len(sizes)}
        if sizes.count(None) != len(declared) or any(sizes[a - 1] is not None for a in declared):
            refute(
                f"infinite fibers exactly over {sorted(rule.infinite_fibers)}",
                lambda a, c: (c is None) != (a in declared),
            )


def fiber_report(m: IndexMap, window: int = DEFAULT_WINDOW) -> FiberReport:
    """Per-index fiber sizes and a boundedness verdict.

    Finite domains are read off the map's fiber-count profile in full and
    always come back Certified. On the unbounded domain the rule's
    certificate decides, after every certificate has been validated against
    the window; without a bound certificate the verdict is WindowBound,
    unless an infinite fiber inside the window settles unboundedness exactly.
    """
    if window < 1:
        raise ConstructionError(f"window must be >= 1, got {window}")
    if m.is_finite:
        counts = m.fiber_counts
        cards = {a: FiberCard(counts[a]) for a in m.domain.indices()}
        sup = FiberCard(max(counts))
        return FiberReport(cards, sup, Certified(sup.count), frozenset(cards))
    sizes = m.window_sizes(window)
    cards = {a: INFINITE if c is None else FiberCard(c) for a, c in enumerate(sizes, start=1)}
    sup = INFINITE if None in sizes else FiberCard(max(sizes))
    m_window = frozenset(a for a, c in cards.items() if not c.is_infinite)
    certified = m.rule.sup_card
    if certified is None:
        verdict = CertifiedUnbounded() if sup.is_infinite else WindowBound(sup.count, window)
    else:
        verdict = CertifiedUnbounded() if certified.is_infinite else Certified(certified.count)
    return FiberReport(cards, sup, verdict, m_window)


def verify_fiber_soundness(m: IndexMap, window: int = DEFAULT_WINDOW) -> None:
    """Spot-check eval/fiber consistency on a window; raises IntegrityError.

    Checks both directions: every beta lies in the fiber of its image, and
    every enumerated fiber member maps back onto the fiber's index.
    """
    hi = min(window, m.domain.size) if m.is_finite else window
    for beta in range(1, hi + 1):
        fib = m.fiber(m.eval(beta))
        if fib.members is not None and beta not in fib.members:
            raise IntegrityError(f"{beta} missing from fiber({m.eval(beta)})")
    for alpha in range(1, hi + 1):
        fib = m.fiber(alpha)
        if fib.members is None:
            continue
        if fib.card.count != len(fib.members):
            raise IntegrityError(f"fiber({alpha}) cardinality disagrees with its member set")
        for beta in fib.members:
            if m.eval(beta) != alpha:
                raise IntegrityError(
                    f"fiber({alpha}) contains {beta} but eval({beta}) = {m.eval(beta)}"
                )
        stray = [b for b in range(1, hi + 1) if m.eval(b) == alpha and b not in fib.members]
        if stray:
            raise IntegrityError(f"fiber({alpha}) is missing {stray}")
