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

from .errors import DomainError, ParseError
from .index_domain import IndexSet


@dataclass(frozen=True)
class SparseVector:
    """Canonical finitely supported vector over an index set."""

    domain: IndexSet
    entries: dict[int, complex] = field(default_factory=dict)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self.entries))

    def __getitem__(self, alpha: int) -> complex:
        return self.entries.get(alpha, 0j)


def zero(domain: IndexSet) -> SparseVector:
    return SparseVector(domain, {})


def from_entries(domain: IndexSet, entries) -> SparseVector:
    """Canonicalise a mapping or pair-iterable: validate indices, coerce
    scalars to complex, drop exact zeros."""
    out: dict[int, complex] = {}
    for alpha, value in dict(entries).items():
        if alpha not in domain:
            raise DomainError(f"index {alpha!r} outside the domain")
        v = complex(value)
        if v != 0:
            out[alpha] = v
    return SparseVector(domain, out)


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


def norm_sq(x: SparseVector) -> float:
    return math.fsum(v.real * v.real + v.imag * v.imag for v in x.entries.values())


def norm(x: SparseVector) -> float:
    """Square root of the sum of squared entry magnitudes."""
    return math.sqrt(norm_sq(x))


def vector_to_json(x: SparseVector) -> list[dict]:
    return [
        {"i": alpha, "re": x.entries[alpha].real, "im": x.entries[alpha].imag}
        for alpha in sorted(x.entries)
    ]


def parse_vector(doc: object, domain: IndexSet) -> SparseVector:
    """Parse the vector file format: a JSON array of {"i", "re", "im"} objects.

    Exact-zero entries are dropped on the way in, so parsing the output of
    vector_to_json reproduces the original vector entry for entry. NaN,
    infinities and numbers beyond the float range raise ParseError.
    """
    if not isinstance(doc, list):
        raise ParseError("vector document must be a JSON array")
    out: dict[int, complex] = {}
    for entry in doc:
        if not isinstance(entry, dict):
            raise ParseError("vector entries must be objects")
        alpha = entry.get("i")
        if not isinstance(alpha, int) or isinstance(alpha, bool):
            raise ParseError(f"entry index must be an integer, got {alpha!r}")
        if alpha not in domain:
            raise ParseError(f"index {alpha} outside the map domain")
        if alpha in out:
            raise ParseError(f"duplicate index {alpha}")
        re = entry.get("re", 0.0)
        im = entry.get("im", 0.0)
        for component in (re, im):
            if not isinstance(component, (int, float)) or isinstance(component, bool):
                raise ParseError(f"non-numeric component at index {alpha}")
            if not abs(component) <= sys.float_info.max:  # exact for ints; False for NaN
                raise ParseError(f"non-finite or out-of-range component at index {alpha}")
        v = complex(re, im)
        if v != 0:
            out[alpha] = v
    return SparseVector(domain, out)
