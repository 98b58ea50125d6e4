"""The shift operator induced by an index self-map.

The operator sends x to the family beta -> x[eval(beta)]. Its entire
analytic behaviour is controlled by fiber sizes: the image norm satisfies

    ||image||^2 = sum over alpha of card(fiber(alpha)) * |x_alpha|^2

(with 0 * inf = 0), the operator norm is the square root of the largest
fiber size, the operator is onto iff the index map is one-to-one, one-to-one
iff the index map is onto, and an isometry iff the index map is bijective.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .errors import IntegrityError, ParseError, UnsupportedError
from .index_domain import DEFAULT_WINDOW, SEARCH_CAP, IndexMap, _image, describe_fiber, fiber_report
from .sparse_vec import SparseVector, fsum_or_inf


class ClassificationReport(NamedTuple):
    """The verdicts of ``classify``: an immutable record; ``_asdict()`` names them in this order."""
    maps_into_l2: bool
    operator_norm: float  # math.inf when certified unbounded
    sigma_injective: bool
    sigma_surjective: bool
    isometry: bool
    compact: bool


def _check_domains(m: IndexMap, x: SparseVector) -> None:
    """The one check of a vector operation's domains: a canonical vector stores only indices of its
    domain, so once they agree (else ParseError) a table is read unchecked per index, and a rule
    through ``m.sizes_at``, ``members_at`` or ``certificates``, which check its certificates first,
    and its images through ``_image``, which checks each one it reads."""
    if m.domain != x.domain:
        raise ParseError("map and vector domains differ")


def apply(m: IndexMap, x: SparseVector) -> SparseVector:
    """Image vector beta -> x[eval(beta)].

    The support of the result is the union of the fibers of x's support
    indices, read on a table from its fiber index ``m.preimages``: O(support
    + image) after the index's one-time O(n) build, and on a rule by
    ``m.members_at`` in index order, which refuses an image past SEARCH_CAP
    before any member is built and a ``members_fn`` that lists the wrong number
    of members. The domains are checked first, by ``_check_domains``.
    """
    _check_domains(m, x)
    if m.table is not None:
        pre = m.preimages
        return SparseVector(m.domain, {beta: v for theta, v in x.entries.items() for beta in pre[theta]})
    thetas = sorted(x.entries)
    fibers = m.members_at(thetas)
    values = map(x.entries.__getitem__, thetas)
    return SparseVector(m.domain, {beta: v for v, fiber in zip(values, fibers) for beta in fiber})


def apply_norm_sq(m: IndexMap, x: SparseVector) -> float:
    """Image norm squared computed from fiber sizes alone.

    Two rules settle 0 * inf: an entry on an empty fiber adds 0, even when
    its |v|^2 overflows to inf, and an entry on an infinite fiber gives
    math.inf, even when its |v|^2 underflows to 0 (canonical vectors store
    no zeros). So the result is math.inf when apply raises NotInL2, and
    otherwise agrees with norm_sq(apply(m, x)), math.inf included when the
    sum passes the float range. A rule's size past the float range gives its
    exact term, rounded once, or math.inf when that term passes the range.
    A rule's sizes are ``m.sizes_at``'s, the sizes every other reader of the rule gets.
    """
    _check_domains(m, x)
    if m.table is not None:
        counts = m.fiber_counts
        return fsum_or_inf([c * ((re := v.real) * re + (im := v.imag) * im)
                            for theta, v in x.entries.items() if (c := counts[theta - 1])])
    terms = []
    for v, c in zip(x.entries.values(), m.sizes_at(x.entries)):
        if c == math.inf:
            return math.inf
        if c:
            try:
                terms.append(c * ((re := v.real) * re + (im := v.imag) * im))
            except OverflowError:  # int c past the float range: fsum_or_inf rounds the exact term
                terms.append(c * (Fraction(v.real) ** 2 + Fraction(v.imag) ** 2))
    return fsum_or_inf(terms)


def operator_norm(m: IndexMap) -> float:
    """Square root of the sup of fiber sizes, the ``fiber_report`` verdict;
    math.inf when the sup is infinite."""
    return math.sqrt(fiber_report(m))


def classify(m: IndexMap) -> ClassificationReport:
    """Structural verdicts for the induced operator.

    Surjectivity of the operator mirrors injectivity of the index map and
    vice versa; the isometry verdict needs both; compactness holds exactly on
    finite domains. Every verdict comes from ``m.certificates``, which a rule
    passes only once a window read has checked it.
    """
    nrm, cert = operator_norm(m), m.certificates
    inj, surj = cert.injective, cert.surjective
    return ClassificationReport(not math.isinf(nrm), nrm, surj, inj, inj and surj, m.table is not None)


def solve(m: IndexMap, y: SparseVector) -> SparseVector:
    """Preimage under the shift: x with x[eval(beta)] = y[beta], zero elsewhere.

    Requires the index map to be certified one-to-one; the entries of y are
    then merely relabelled, so apply(m, solve(m, y)) == y and the norm is
    preserved exactly. A map that is not one-to-one is refused, naming the
    first fiber with two or more members that ``IndexMap.scan`` finds. A rule's
    images are read once through ``_image``, which refuses one outside the index
    set, and a beta outside the fiber of its image refutes the rule's certificate.
    The fibers are read by ``m.members_at`` in runs of SEARCH_CAP images, so that y
    may have any number of entries. A certified one-to-one rule's fiber holds at most
    one member, so two betas with one image cannot both lie in it: that refutes a
    collision too.
    """
    _check_domains(m, y)
    if not m.certificates.injective:  # sigma is onto iff the index map is one-to-one
        found = next((describe_fiber(b, c) for a, sizes in m.scan(DEFAULT_WINDOW)
                      for b, c in enumerate(sizes, start=a) if c >= 2), None)
        raise UnsupportedError("index map is not one-to-one" + (f": {found}" if found else ""))
    if m.table is not None:  # a table's certificates are exact: one-to-one, it never collides
        table = m.table
        return SparseVector(m.domain, {table[beta - 1]: v for beta, v in y.entries.items()})
    rule, betas = m.rule, list(y.entries)
    images = [_image(rule, beta) for beta in betas]
    for i in range(0, len(images), SEARCH_CAP):  # one member a fiber: SEARCH_CAP a members_at read
        chunk = images[i:i + SEARCH_CAP]
        for beta, alpha, fiber in zip(betas[i:i + SEARCH_CAP], chunk, m.members_at(chunk)):
            if beta not in fiber:
                raise IntegrityError(f"rule {rule.name!r} maps {beta} to {alpha} but fiber({alpha}) is "
                                     f"{sorted(fiber)}")
    return SparseVector(m.domain, dict(zip(images, y.entries.values())))
