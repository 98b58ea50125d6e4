"""Command line front end: JSON files in, deterministic JSON out.

Exit codes are stable: 0 ok, 2 parse error or usage, 3 integrity error, 4
image not square-summable, 5 precondition failure (a witness, or a rule's
``apply`` image past ``SEARCH_CAP``), 6 oracle disagreement. ``LIBRARY_EXITS``
maps each library refusal class, one per code from 2 to 5, to its code and label,
once around every command; a disagreement is a result, reported after stdout.
One float rule, ``_float`` (``_infinite`` on the pieces of ``_window`` and ``_vector``),
holds everywhere: 17 significant digits so that reruns diff exactly, "infinite" for inf.

Every document is streamed: ``_walk`` yields its small skeleton value by
value, and each array that grows with the window or the witness comes from a
helper that knows its shape (``_rows`` for columns, stored or computed, and
``_window``) as pieces of at most ``PIECE`` entries, one ``%`` format each, so
no int array goes through ``json``. Each window target's digits are formatted
once: ``_window`` makes one piece of keys both the template of the
``{index: size}`` map and a piece of M, read from the runs
``DomainReport.m_runs``, so ``analyze`` never builds M's tuple of ints.
``_echo`` writes the pieces straight to ``sys.stdout`` and flushes once, so no
document is joined whole, and peak memory is bounded by the computed values,
not by the text.
stdout never goes through ``click.echo``, whose default stream cache keeps
every redirected stream alive; stderr lines pass it ``file=sys.stderr``.
"""

from __future__ import annotations

import json
import math
import sys
from collections.abc import Iterator
from itertools import chain, islice
from operator import attrgetter

import click

from . import compact_witness, domain_analysis, gen_shift, index_domain, sparse_vec
from .errors import GenShiftError, IntegrityError, NotInL2, ParseError, UnsupportedError
from .index_domain import IndexMap

SCHEMA_VERSION = 1

EXIT_DISAGREEMENT = 6

DEFAULT_SEED = 74


# ---------------------------------------------------------------------------
# JSON rendering with fixed float formatting, written to stdout in pieces

PIECE = 4096  # entries per piece of an array that grows with the window or the witness


def _float(x: float) -> str:
    return '"infinite"' if math.isinf(x) else format(x, ".17g")


def _joined(open_: str, parts, close: str):
    """``open_``, then ``parts`` joined by commas, then ``close``."""
    yield open_
    for i, part in enumerate(parts):
        if i:
            yield ","
        yield part
    yield close


def _format(template: str, *columns) -> str:
    """``template`` once per row of ``columns`` (a sequence, then iterables as long),
    joined by commas: one ``%`` format over one flat tuple, and nothing more. A ``%d``
    refuses an infinity, so only a caller whose template writes floats applies ``_infinite``."""
    width, rows = len(columns), len(columns[0])
    args = [None] * (width * rows)
    for i, column in enumerate(columns):
        args[i::width] = column
    return ((template + ",") * rows)[:-1] % tuple(args)


def _infinite(text: str) -> str:
    """As ``_float``: an infinity after a colon becomes "infinite"; nan and -0 stay as is."""
    return text.replace(":inf", ':"infinite"').replace(":-inf", ':"infinite"')


def _rows(template: str, first, *rest):
    """The array of ``template`` filled from row i of the columns ``first`` (a sequence, cut
    into pieces of PIECE rows), *``rest`` (iterables, stored or computed, read in step):
    ``"%d"`` for an int array, ``"[%d,%d]"`` for (index, size) records kept as columns."""
    rest = [iter(column) for column in rest]
    parts = (first[offset:offset + PIECE] for offset in range(0, len(first), PIECE))
    yield from _joined("[", (_format(template, part, *(islice(c, len(part)) for c in rest))
                             for part in parts), "]")


def _window(sizes: tuple[int | float, ...], runs):
    """The object {"a": size of fiber(a)} over targets 1..len(sizes), as pieces, and
    the pieces of the members of ``runs`` (increasing ranges of those targets), as
    a list for ``_joined`` to write as often as needed.

    Each piece of targets formats its keys once. That text is M's piece when one
    run covers the piece, and, quoted, the template that one ``%`` fills with its sizes."""
    starts = range(1, len(sizes) + 1, PIECE)
    keys, members = [], []
    for lo in starts:
        hi = min(lo + starts.step, len(sizes) + 1)
        keys.append(_format("%d", range(lo, hi)))
        inside = [range(max(r.start, lo), min(r.stop, hi))
                  for r in runs if r.start < hi and lo < r.stop]
        if inside:  # a piece without a declared infinite target is one run
            members.append(keys[-1] if inside == [range(lo, hi)]
                           else _format("%d", [*chain(*inside)]))
    cardinalities = (_infinite(('"' + text.replace(",", '":%s,"') + '":%s')  # '"1":%s,"2":%s'
                               % sizes[lo - 1:lo - 1 + starts.step])
                     for lo, text in zip(starts, keys))
    return _joined("{", cardinalities, "}"), members


def _vector(x: sparse_vec.SparseVector):
    """``vector_to_json(x)`` rendered straight from the entries."""
    keys, value = sorted(x.entries), x.entries.__getitem__  # keys only: no (index, value) tuples
    return map(_infinite, _rows('{"i":%d,"re":%.17g,"im":%.17g}', keys,
                                map(attrgetter("real"), map(value, keys)),
                                map(attrgetter("imag"), map(value, keys))))


def _walk(doc):
    """Yield the JSON text of ``doc``: its small skeleton value by value, and
    the pieces of a shaped array (an iterator from a helper above) as they come."""
    if isinstance(doc, float):
        yield _float(doc)
    elif doc is None or isinstance(doc, (str, int)):  # bool is an int: true, false
        yield json.dumps(doc)
    elif isinstance(doc, dict):
        yield "{"
        for i, (k, v) in enumerate(doc.items()):
            yield f"{',' if i else ''}{json.dumps(str(k))}:"
            yield from _walk(v)
        yield "}"
    elif isinstance(doc, (list, tuple)):
        yield "["
        for i, v in enumerate(doc):
            if i:
                yield ","
            yield from _walk(v)
        yield "]"
    elif isinstance(doc, Iterator):
        yield from doc
    else:
        raise TypeError(f"cannot render {type(doc).__name__}")


def _echo(doc) -> None:
    """Write ``doc`` and a newline to stdout piece by piece, then flush once.

    Callers compute every value first, so a library error ends a command
    before its first byte; the pieces only format values."""
    write = sys.stdout.write
    for piece in _walk(doc):
        write(piece)
    write("\n")
    sys.stdout.flush()


def _map_doc(m: IndexMap) -> dict:
    doc = index_domain.map_to_json(m)
    if m.table is not None:
        doc["images"] = _rows("%d", m.table)  # table-sized
    return doc


# ---------------------------------------------------------------------------
# file loading

def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad JSON, UTF-8 or int
        raise ParseError(f"{path}: {exc}") from exc


def _load_map(path: str) -> IndexMap:
    return index_domain.parse_map(_load_json(path))


# ---------------------------------------------------------------------------
# commands

# Every library refusal a command may end in, one class per row, with its exit code and
# stderr label; a budget refusal (SearchExhaustedError) is an UnsupportedError.
LIBRARY_EXITS = (
    (ParseError, 2, "parse error"),
    (IntegrityError, 3, "integrity error"),
    (NotInL2, 4, "image not square-summable"),
    (UnsupportedError, 5, "precondition failed"),
)


class _Commands(click.Group):
    """Ends a library error in its table row; any other class is a bug and keeps its traceback."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except GenShiftError as exc:
            for cls, code, label in LIBRARY_EXITS:
                if isinstance(exc, cls):
                    click.echo(f"{label}: {exc}", file=sys.stderr)
                    sys.exit(code)
            raise


@click.group(cls=_Commands)
def main():
    """Analyse shift operators induced by index self-maps, over JSON files."""


@main.command()
@click.argument("map_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--window", type=click.IntRange(1, index_domain.SEARCH_CAP), show_default=True,
              default=index_domain.DEFAULT_WINDOW, help="scan window for symbolic maps")
def analyze(map_file, window):
    """Fiber report, operator classification and domain analysis for a map."""
    m = _load_map(map_file)
    sizes = m.window_sizes(window)  # first, so a window past DEFAULT_WINDOW checks the certificates
    cert = m.certificates
    rep = gen_shift.classify(m)
    domain = domain_analysis.domain_report(m, window)
    cardinalities, members = _window(sizes, domain.m_runs)  # M's pieces serve both m_set keys
    doc = {
        "schema_version": SCHEMA_VERSION,
        "map": _map_doc(m),
        "window": window,
        "fiber_report": {
            "cardinalities": cardinalities,
            "sup": max(sizes),
            "verdict": ({"kind": "certified_unbounded"} if cert.sup_card == math.inf
                        else {"kind": "certified", "bound": cert.sup_card}),
            "m_set": _joined("[", members, "]"),
        },
        "classification": {
            "maps_into_l2": rep.maps_into_l2,
            "operator_norm": rep.operator_norm,
            "sigma_injective": rep.sigma_injective,
            "sigma_surjective": rep.sigma_surjective,
            "isometry": rep.isometry,
            "compact": rep.compact,
        },
        "domain": {
            "m_set": {
                "members": _joined("[", members, "]"),
                "window": None if m.domain.is_finite else window,  # a table's M is all of 1..n
                "certified_infinite_fibers": sorted(cert.infinite_fibers),
            },
            "closed": cert.closed,
            "uniform_bound_on_m": cert.m_sup,
            "characterization_holds": cert.closed,
            "unbounded_witness": (None if domain.unbounded_witness is None
                                  else _rows("[%d,%d]", *domain.unbounded_witness)),
        },
    }
    _echo(doc)


@main.command("apply")
@click.argument("map_file", type=click.Path(exists=True, dir_okay=False))
@click.argument("vector_file", type=click.Path(exists=True, dir_okay=False))
def apply_cmd(map_file, vector_file):
    """Apply the shift to a vector; prints the image in the vector file format."""
    m = _load_map(map_file)
    x = sparse_vec.parse_vector(_load_json(vector_file), m.domain)
    _echo(_vector(gen_shift.apply(m, x)))


@main.command()
@click.argument("map_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--kind", type=click.Choice(["compact", "divergence"]), required=True)
@click.option("--count", type=click.IntRange(min=2), default=3, show_default=True,
              help="number of vectors for the compact witness")
@click.option("--K", "truncation", type=click.IntRange(min=1), default=16, show_default=True,
              help="truncation length for the divergence witness")
def witness(map_file, kind, count, truncation):
    """Non-compactness or norm-divergence certificate for a map."""
    m = _load_map(map_file)
    doc = {"schema_version": SCHEMA_VERSION, "kind": kind, "map": _map_doc(m)}
    if kind == "compact":
        w = compact_witness.witness_sequence(m, count)
        doc |= {
            "indices": _rows("%d", w.indices),
            "fiber_sizes": _rows("%d", w.fiber_sizes),
            "min_distance_sq": {
                "num": w.min_distance_sq.numerator,
                "den": w.min_distance_sq.denominator,
            },
            "pairwise_separation": w.pairwise_separation,
            "vectors": _rows('[{"i":%d,"re":0.5,"im":0}]', w.indices),  # (1/2) e_a, as _vector writes it
        }
    else:
        w = domain_analysis.divergence_witness(m, truncation)
        doc |= {
            "K": truncation,
            "records": _rows("[%d,%d]", w.indices, w.fiber_sizes),
            "vector_norm_sq": w.vector_norm_sq,
            "image_norm_sq_lower_bound": w.image_norm_sq_lower_bound,
            "vector": _rows('{"i":%d,"re":%.17g,"im":0}', w.indices, w.weights),
        }
    _echo(doc)


@main.command("oracle-check")
@click.option("--n", "n", type=click.IntRange(2, index_domain.DENSE_CAP), required=True)
@click.option("--exhaustive", "exhaustive", is_flag=True, help="sweep all n^n image tables")
@click.option("--random", "random_count", type=click.IntRange(min=1), default=None,
              help="check this many random image tables instead")
@click.option("--seed", type=click.IntRange(min=0), default=DEFAULT_SEED, show_default=True,
              help="seed for --random tables")
def oracle_check(n, exhaustive, random_count, seed):
    """Agreement sweep between the fiber analysis and the dense oracle."""
    if exhaustive == (random_count is not None):
        raise click.UsageError("pass exactly one of --exhaustive or --random R")
    if exhaustive and n > index_domain.EXHAUSTIVE_CAP:
        raise click.UsageError(f"--exhaustive needs n <= {index_domain.EXHAUSTIVE_CAP}")
    from . import dense_oracle  # only this command needs numpy, so the others start without it
    checked, max_err, bad = dense_oracle.sweep(dense_oracle.exhaustive_maps(n) if exhaustive
                                               else dense_oracle.random_maps(n, random_count, seed))
    doc = {
        "schema_version": SCHEMA_VERSION,
        "n": n,
        "mode": "exhaustive" if exhaustive else "random",
        "seed": seed,
        "maps_checked": checked,
        "disagreements": len(bad),
        "max_norm_error": max_err,
    }
    _echo(doc)
    if bad:
        for res in bad[:20]:
            click.echo(f"disagreement on image table {list(res.table)}", file=sys.stderr)
        sys.exit(EXIT_DISAGREEMENT)


if __name__ == "__main__":
    main()
