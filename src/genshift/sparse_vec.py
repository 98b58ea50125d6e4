"""Finitely supported complex vectors with the square-sum norm.

Vectors are kept canonical: no stored entry is exactly zero, and every stored
index lies in the vector's domain. Exactness matters here because support
semantics drive the operator analysis; tolerances belong in comparisons, not
in storage.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

from .errors import ParseError
from .index_domain import IndexSet


@dataclass(frozen=True)
class SparseVector:
    """Canonical finitely supported vector over an index set."""

    domain: IndexSet
    entries: dict[int, complex] = field(default_factory=dict)

    def __getitem__(self, alpha: int) -> complex:
        return self.entries.get(alpha, 0j)


def from_entries(domain: IndexSet, entries) -> SparseVector:
    """Canonicalise a mapping or pair-iterable: validate indices, coerce
    scalars to complex, drop exact zeros."""
    out: dict[int, complex] = {}
    for alpha, value in dict(entries).items():
        if alpha not in domain:
            raise ParseError(f"index {alpha!r} outside the domain")
        v = complex(value)
        if v != 0:
            out[alpha] = v
    return SparseVector(domain, out)


def fsum_or_inf(terms) -> float:
    """math.fsum of nonnegative terms, each rounded once to a float first (a Fraction
    term too); math.inf when a term, its lazy computation, or their sum passes the float range."""
    try:
        return math.fsum(terms)
    except OverflowError:  # a term past the range (a Fraction, an int quotient), or a sum that overflows
        return math.inf


def norm_sq(x: SparseVector) -> float:
    return fsum_or_inf([(re := v.real) * re + (im := v.imag) * im for v in x.entries.values()])


def vector_to_json(x: SparseVector) -> list[dict]:
    return [{"i": alpha, "re": v.real, "im": v.imag} for alpha, v in sorted(x.entries.items())]


def parse_vector(doc: object, domain: IndexSet) -> SparseVector:
    """Parse the vector file format: a JSON array of {"i", "re", "im"} objects, no other key.

    Exact-zero entries are dropped on the way in, so parsing the output of
    vector_to_json reproduces the original vector entry for entry. NaN,
    infinities and numbers beyond the float range raise ParseError.
    """
    if not isinstance(doc, list):
        raise ParseError("vector document must be a JSON array")
    out: dict[int, complex] = {}
    last = math.inf if domain.size is None else domain.size
    top = sys.float_info.max
    for entry in doc:
        if not isinstance(entry, dict):
            raise ParseError("vector entries must be objects")
        alpha = entry.get("i")
        # each exact-type test passes what JSON yields; the isinstance rules decide the rest
        if type(alpha) is not int and (not isinstance(alpha, int) or isinstance(alpha, bool)):
            raise ParseError(f"entry index must be an integer, got {alpha!r}")
        if not 1 <= alpha <= last:  # ``alpha in domain``, the type already checked
            raise ParseError(f"index {alpha} outside the map domain")
        if len(entry) != 1 + ("re" in entry) + ("im" in entry):  # two lookups: no set per entry
            unknown = next(key for key in entry if key not in ("i", "re", "im"))
            raise ParseError(f"vector entry at index {alpha} has no key {unknown!r}")
        if alpha in out:
            raise ParseError(f"duplicate index {alpha}")
        re = entry.get("re", 0.0)
        im = entry.get("im", 0.0)
        for component in (re, im):
            kind = type(component)
            if kind is not float and kind is not int and (
                    not isinstance(component, (int, float)) or isinstance(component, bool)):
                raise ParseError(f"non-numeric component at index {alpha}")
            if not -top <= component <= top:  # exact for ints; False for NaN
                raise ParseError(f"non-finite or out-of-range component at index {alpha}")
        v = complex(re, im)
        if v != 0:
            out[alpha] = v
    return SparseVector(domain, out)
