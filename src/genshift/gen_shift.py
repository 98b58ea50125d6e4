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
from dataclasses import dataclass

from .errors import DomainError, UnsupportedError
from .index_domain import (
    DEFAULT_WINDOW,
    Certified,
    CertifiedUnbounded,
    IndexMap,
    Verdict,
    WindowOnly,
    fiber_report,
)
from .sparse_vec import SparseVector


@dataclass(frozen=True)
class NotInL2:
    """Escape value: the image repeats the entry at ``index`` infinitely often."""

    index: int


@dataclass(frozen=True)
class ClassificationReport:
    maps_into_l2: Verdict
    operator_norm: float | WindowOnly  # math.inf when certified unbounded
    sigma_injective: Verdict
    sigma_surjective: Verdict
    isometry: Verdict
    compact: bool


def _check_domains(m: IndexMap, x: SparseVector) -> None:
    if m.domain != x.domain:
        raise DomainError("map and vector domains differ")


def apply(m: IndexMap, x: SparseVector) -> SparseVector | NotInL2:
    """Image vector beta -> x[eval(beta)].

    The support of the result is the union of the fibers of x's support
    indices. When some support index has an infinite fiber the image is not
    square-summable; the smallest such index is reported via NotInL2.
    """
    _check_domains(m, x)
    if m.is_finite:
        out = {}
        for beta, alpha in enumerate(m.table, start=1):
            v = x.entries.get(alpha)
            if v is not None:
                out[beta] = v
        return SparseVector(m.domain, out)
    out = {}
    for theta in sorted(x.entries):
        fib = m.fiber(theta)
        if fib.members is None:
            return NotInL2(theta)
        v = x.entries[theta]
        for beta in fib.members:
            out[beta] = v
    return SparseVector(m.domain, out)


def apply_norm_sq(m: IndexMap, x: SparseVector) -> float:
    """Image norm squared computed from fiber sizes alone.

    Returns math.inf exactly when some nonzero entry sits on an infinite
    fiber (the 0 * inf = 0 convention never fires on canonical vectors, which
    store no zeros). Agrees with norm(apply(m, x)) ** 2 whenever apply
    returns a vector.
    """
    _check_domains(m, x)
    if m.is_finite:
        counts = m.fiber_counts
        return math.fsum(  # entries on empty fibers are skipped: 0 * inf = 0
            c * (v.real * v.real + v.imag * v.imag)
            for theta, v in x.entries.items()
            if (c := counts[theta])
        )
    terms = []
    for theta, v in x.entries.items():
        w = m.fiber_card(theta).weight(v.real * v.real + v.imag * v.imag)
        if math.isinf(w):
            return math.inf
        terms.append(w)
    return math.fsum(terms)


def operator_norm(m: IndexMap, window: int = DEFAULT_WINDOW) -> float | WindowOnly:
    """Square root of the sup of fiber sizes.

    math.inf when the sup is certified infinite; a WindowOnly lower bound
    when the map carries no certificate.
    """
    verdict = fiber_report(m, window).verdict
    if isinstance(verdict, Certified):
        return math.sqrt(verdict.bound)
    if isinstance(verdict, CertifiedUnbounded):
        return math.inf
    return WindowOnly(
        note=f"lower bound from fiber sizes on window 1..{verdict.window}",
        value=math.sqrt(verdict.bound),
    )


def phi_injective(m: IndexMap, window: int = DEFAULT_WINDOW) -> Verdict:
    """Is the index map one-to-one?

    Exact on finite domains and for rules carrying a certificate. A window
    can refute exactly (a fiber of size >= 2 is a witness) but never prove.
    """
    if m.is_finite:
        return max(m.fiber_counts) <= 1
    sizes = m.window_sizes(window)
    if m.rule.injective is not None:
        return m.rule.injective
    if None in sizes or max(sizes) >= 2:
        return False
    return WindowOnly(f"no fiber of size >= 2 over targets 1..{window}")


def phi_surjective(m: IndexMap, window: int = DEFAULT_WINDOW) -> Verdict:
    """Does the index map cover every index? An empty fiber refutes exactly."""
    if m.is_finite:
        return 0 not in m.fiber_counts[1:]
    sizes = m.window_sizes(window)
    if m.rule.surjective is not None:
        return m.rule.surjective
    if 0 in sizes:
        return False
    return WindowOnly(f"all targets 1..{window} have nonempty fibers")


def _both(a: Verdict, b: Verdict) -> Verdict:
    if a is False or b is False:
        return False
    if a is True and b is True:
        return True
    notes = [v.note for v in (a, b) if isinstance(v, WindowOnly)]
    return WindowOnly("; ".join(notes))


def classify(
    m: IndexMap,
    injectivity_window: int = DEFAULT_WINDOW,
    surjectivity_window: int = DEFAULT_WINDOW,
) -> ClassificationReport:
    """Structural verdicts for the induced operator.

    Surjectivity of the operator mirrors injectivity of the index map and
    vice versa; the isometry verdict needs both; compactness holds exactly on
    finite domains. Window sizes only matter for uncertified symbolic rules.
    """
    inj = phi_injective(m, injectivity_window)
    surj = phi_surjective(m, surjectivity_window)
    report_window = max(injectivity_window, surjectivity_window)
    nrm = operator_norm(m, report_window)
    into: Verdict
    if isinstance(nrm, WindowOnly):
        into = WindowOnly(f"fiber bound unknown beyond window 1..{report_window}")
    else:
        into = not math.isinf(nrm)
    return ClassificationReport(
        maps_into_l2=into,
        operator_norm=nrm,
        sigma_injective=surj,
        sigma_surjective=inj,
        isometry=_both(inj, surj),
        compact=m.is_finite,
    )


def _collision_pair(m: IndexMap, cap: int = 4096) -> tuple[int, int] | None:
    seen: dict[int, int] = {}
    hi = m.domain.size if m.is_finite else cap
    for beta in range(1, hi + 1):
        alpha = m.eval(beta)
        if alpha in seen:
            return (seen[alpha], beta)
        seen[alpha] = beta
    return None


def solve(
    m: IndexMap,
    y: SparseVector,
    *,
    accept_window_injectivity: bool = False,
    injectivity_window: int = DEFAULT_WINDOW,
) -> SparseVector:
    """Preimage under the shift: x with x[eval(beta)] = y[beta], zero elsewhere.

    Requires the index map to be one-to-one; the entries of y are then merely
    relabelled, so apply(m, solve(m, y)) == y and the norm is preserved
    exactly. When injectivity is only window-certified the call refuses
    unless ``accept_window_injectivity`` acknowledges the limitation.
    """
    _check_domains(m, y)
    inj = phi_injective(m, injectivity_window)
    if inj is False:
        pair = _collision_pair(m)
        detail = f": eval({pair[0]}) == eval({pair[1]})" if pair else ""
        raise UnsupportedError("index map is not one-to-one" + detail)
    if isinstance(inj, WindowOnly) and not accept_window_injectivity:
        raise UnsupportedError(
            "injectivity is only window-certified; "
            "pass accept_window_injectivity=True to proceed"
        )
    out: dict[int, complex] = {}
    for beta, v in y.entries.items():
        alpha = m.eval(beta)
        if alpha in out:
            other = next(b for b in y.entries if b != beta and m.eval(b) == alpha)
            raise UnsupportedError(
                f"index map is not one-to-one: eval({other}) == eval({beta})"
            )
        out[alpha] = v
    return SparseVector(m.domain, out)
