"""Command line front end: JSON files in, deterministic JSON out.

Exit codes are stable: 0 ok, 2 parse error or usage, 3 integrity error, 4
image not square-summable, 5 precondition failure (a witness, or a rule's
``apply`` image past ``SEARCH_CAP``), 6 oracle disagreement. ``LIBRARY_EXITS``
maps each library refusal class, one per code from 2 to 5, to its code and label,
once around every command; a disagreement is a result, reported after stdout.
One float rule, ``_float`` (``_infinite`` on the pieces of ``_window`` and ``_vector``),
holds everywhere: 17 significant digits so that reruns diff exactly, "infinite" for inf.

Every document is streamed: ``_walk`` yields its small skeleton value by
value, each scalar as ``json.dumps`` writes it but without its call, and each
array that grows with the window or the witness comes from a
helper that knows its shape (``_rows`` for columns, stored or computed, and
``_window``) as pieces of at most ``PIECE`` entries, one ``%`` format each, so
no int array goes through ``json``. A window's keys are cut by ``_offset`` from
blocks of 1000 targets' digits, one ``replace`` per block (``_targets``), not
formatted per target: ``_window`` makes one piece of keys the template of the
``{index: size}`` map and cuts M's piece from it, by the runs ``finite_runs`` gives
between the certificate's infinite fibers, so ``analyze`` never builds M's tuple of ints.
A piece of the map whose targets all have one size, as every piece past
DEFAULT_WINDOW of a rule whose ``sizes`` block has length 1 and step 0 does, is one ``replace`` of that
size into its keys (``_keyed``), not a ``%`` conversion per target.
``_echo`` writes the pieces straight to ``sys.stdout`` and flushes once, so no document is
joined whole and peak memory is bounded by the computed values, not by the text. The
front end is one ``argparse`` parser, built at import; ``main`` ends in ``SystemExit``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections.abc import Iterator
from itertools import islice
from json.encoder import encode_basestring_ascii as _quote
from operator import attrgetter

from . import compact_witness, domain_analysis, gen_shift, index_domain, sparse_vec
from .errors import GenShiftError, IntegrityError, NotInL2, ParseError, UnsupportedError
from .index_domain import DEFAULT_WINDOW, DENSE_CAP, SEARCH_CAP, IndexMap

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


def _offset(a: int) -> int:
    """The length of the text "1,2,...,a-1,": the digits and commas of the targets before a."""
    width, power = a - 1, 1
    while power < a:
        width += a - power  # the targets power..a-1 each have a digit at this place
        power *= 10
    return width


_HEAD = _format("%d", range(1, 1000))  # the targets 1..999
_BLOCK = _format("@%03d", range(1000))  # "@000,...,@999": block c with c for @


def _targets(lo: int, hi: int) -> str:
    """``",".join(map(str, range(lo, hi)))`` for 1 <= lo < hi: the blocks of 1000 targets
    that cover them, one ``replace`` each, joined and cut by ``_offset``."""
    start = lo - lo % 1000
    text = ",".join([_BLOCK.replace("@", str(c)) if c else _HEAD
                     for c in range(start // 1000, (hi - 1) // 1000 + 1)])
    base = _offset(max(start, 1))
    return text[_offset(lo) - base:_offset(hi) - base - 1]


def _window(sizes: tuple[int | float, ...], runs):
    """The object {"a": size of fiber(a)} over targets 1..len(sizes), as pieces, and
    the pieces of the members of ``runs`` (increasing ranges of those targets), as
    a list for ``_joined`` to write as often as needed.

    Pieces start at 1, at DEFAULT_WINDOW + 1 (past which a rule's window holds only
    rows of its block), then every PIECE targets. Each piece cuts its keys once from
    1000-target digit blocks (``_targets``). M's piece is cut from that text by
    ``_offset`` (all of it when one run covers the piece), and, quoted, the text is
    the template of the piece's sizes: one ``replace`` of the size when the piece has
    one size throughout, else one ``%`` of them all."""
    n, head = len(sizes), DEFAULT_WINDOW
    starts = [*range(1, min(n, head) + 1, PIECE), *range(head + 1, n + 1, PIECE)]
    spans = list(zip(starts, [*starts[1:], n + 1]))
    keys, members = [], []
    for lo, hi in spans:
        text, base = _targets(lo, hi), _offset(lo)
        keys.append(text)
        inside = [range(max(r.start, lo), min(r.stop, hi))
                  for r in runs if r.start < hi and lo < r.stop]
        if inside:
            members.append(",".join(text[_offset(r.start) - base:_offset(r.stop) - base - 1]
                                    for r in inside))
    return _joined("{", map(_keyed, keys, (sizes[lo - 1:hi - 1] for lo, hi in spans)), "}"), members


def _keyed(text: str, sizes: tuple[int | float, ...]) -> str:
    """'"1":s1,"2":s2,...' from the keys' ``text`` "1,2,...": a piece of one size, found
    by its first and last sizes and then a count, is one ``replace`` of that size."""
    first = sizes[0]
    if first == sizes[-1] and sizes.count(first) == len(sizes):
        size = '":' + ('"infinite"' if first == math.inf else str(first))
        return '"' + text.replace(",", size + ',"') + size
    return _infinite(('"' + text.replace(",", '":%s,"') + '":%s') % sizes)  # '"1":%s,"2":%s'


def _vector(x: sparse_vec.SparseVector):
    """``vector_to_json(x)`` rendered straight from the entries."""
    keys, value = sorted(x.entries), x.entries.__getitem__  # keys only: no (index, value) tuples
    return map(_infinite, _rows('{"i":%d,"re":%.17g,"im":%.17g}', keys,
                                map(attrgetter("real"), map(value, keys)),
                                map(attrgetter("imag"), map(value, keys))))


_LITERALS = {None: "null", True: "true", False: "false"}


def _walk(doc):
    """Yield the JSON text of ``doc``: its small skeleton value by value, and
    the pieces of a shaped array (an iterator from a helper above) as they come.
    A scalar is written as ``json.dumps`` writes it, without its call: an int by
    ``int.__repr__``, a string or key by ``_quote``, the function it calls for a str."""
    if isinstance(doc, float):
        yield _float(doc)
    elif doc is None or doc is True or doc is False:
        yield _LITERALS[doc]
    elif isinstance(doc, int):
        yield int.__repr__(doc)
    elif isinstance(doc, str):
        yield _quote(doc)
    elif isinstance(doc, dict):
        yield "{"
        for i, (k, v) in enumerate(doc.items()):
            yield f"{',' if i else ''}{_quote(str(k))}:"
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
    sys.stdout.writelines(_walk(doc))
    sys.stdout.write("\n")
    sys.stdout.flush()


def _map_doc(m: IndexMap) -> dict:
    if m.table is not None:  # map_to_json's document, its table as pieces rather than a list copy
        return {"kind": "finite", "images": _rows("%d", m.table)}
    return index_domain.map_to_json(m)


# ---------------------------------------------------------------------------
# commands, and the file loading they share

def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad JSON, UTF-8 or int
        raise ParseError(f"{path}: {exc}") from exc


# Every library refusal a command may end in, one class per row, with its exit code and
# stderr label; a budget refusal is an UnsupportedError.
LIBRARY_EXITS = (
    (ParseError, 2, "parse error"),
    (IntegrityError, 3, "integrity error"),
    (NotInL2, 4, "image not square-summable"),
    (UnsupportedError, 5, "precondition failed"),
)


def analyze(map_file, window):
    """Fiber report, operator classification and domain analysis for a map."""
    m = index_domain.parse_map(_load_json(map_file))
    sizes = m.window_sizes(window)  # first, so the certificates' read of 1..DEFAULT_WINDOW is its prefix
    cert = m.certificates
    unbounded = domain_analysis.domain_report(m)
    m_runs = index_domain.finite_runs(cert.infinite_fibers, 1, len(sizes) + 1)  # M on the window
    cardinalities, members = _window(sizes, m_runs)  # M's pieces serve both m_set keys
    doc = {
        "schema_version": SCHEMA_VERSION,
        "map": _map_doc(m),
        "window": window,
        "fiber_report": {
            "cardinalities": cardinalities,
            "sup": m.window_sup(sizes),
            "verdict": ({"kind": "certified_unbounded"} if cert.sup_card == math.inf
                        else {"kind": "certified", "bound": cert.sup_card}),
            "m_set": _joined("[", members, "]"),
        },
        "classification": gen_shift.classify(m)._asdict(),
        "domain": {
            "m_set": {
                "members": _joined("[", members, "]"),
                "window": None if m.table is not None else window,  # a table's M is all of 1..n
                "certified_infinite_fibers": sorted(cert.infinite_fibers),
            },
            "closed": cert.closed,
            "uniform_bound_on_m": cert.m_sup,
            "characterization_holds": cert.closed,
            "unbounded_witness": None if unbounded is None else _rows("[%d,%d]", *unbounded),
        },
    }
    _echo(doc)


def apply_cmd(map_file, vector_file):
    """Apply the shift to a vector; prints the image in the vector file format."""
    m = index_domain.parse_map(_load_json(map_file))
    x = sparse_vec.parse_vector(_load_json(vector_file), m.domain)
    _echo(_vector(gen_shift.apply(m, x)))


def witness(map_file, kind, count, truncation):
    """Non-compactness or norm-divergence certificate for a map."""
    m = index_domain.parse_map(_load_json(map_file))
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


def oracle_check(n, exhaustive, random_count, seed):
    """Agreement sweep between the fiber analysis and the dense oracle."""
    if exhaustive == (random_count is not None):
        _ORACLE.error("pass exactly one of --exhaustive or --random R")
    if exhaustive and n > index_domain.EXHAUSTIVE_CAP:
        _ORACLE.error(f"--exhaustive needs n <= {index_domain.EXHAUSTIVE_CAP}")
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
            print(f"disagreement on image table {list(res.table)}", file=sys.stderr)
        raise SystemExit(EXIT_DISAGREEMENT)


# ---------------------------------------------------------------------------
# the parser, built once at import

def _bounded(lo: int, hi: float = math.inf):
    """An int option's ``type``, refusing a value outside lo..hi: "0 is not in the range x>=1"."""
    def integer(text: str) -> int:
        value = int(text)  # a ValueError reads "invalid integer value: 'x'"
        if not lo <= value <= hi:
            span = f"{lo}<=x<={hi}" if hi < math.inf else f"x>={lo}"
            raise argparse.ArgumentTypeError(f"{value} is not in the range {span}")
        return value
    return integer


_PARSER = argparse.ArgumentParser(prog="genshift", allow_abbrev=False, description=(
    "Analyse shift operators induced by index self-maps, over JSON files."))
_COMMANDS = _PARSER.add_subparsers(dest="command", required=True)
_RUNS = {"analyze": analyze, "apply": apply_cmd, "witness": witness, "oracle-check": oracle_check}
_ANALYZE, _APPLY, _WITNESS, _ORACLE = (
    _COMMANDS.add_parser(name, help=run.__doc__, description=run.__doc__, allow_abbrev=False)
    for name, run in _RUNS.items())
for _sub in (_ANALYZE, _APPLY, _WITNESS):
    _sub.add_argument("map_file")
_APPLY.add_argument("vector_file")
_ANALYZE.add_argument("--window", type=_bounded(1, SEARCH_CAP), default=DEFAULT_WINDOW,
                      help="scan window for symbolic maps (default: %(default)s)")
_WITNESS.add_argument("--kind", choices=["compact", "divergence"], required=True)
_WITNESS.add_argument("--count", type=_bounded(2), default=3,
                      help="number of vectors for the compact witness (default: %(default)s)")
_WITNESS.add_argument("--K", dest="truncation", metavar="K", type=_bounded(1), default=16,
                      help="truncation length for the divergence witness (default: %(default)s)")
_ORACLE.add_argument("--n", type=_bounded(2, DENSE_CAP), required=True)
_ORACLE.add_argument("--exhaustive", action="store_true", help="sweep all n^n image tables")
_ORACLE.add_argument("--random", dest="random_count", metavar="R", type=_bounded(1),
                     help="check this many random image tables instead")
_ORACLE.add_argument("--seed", type=_bounded(0), default=DEFAULT_SEED,
                     help="seed for --random tables (default: %(default)s)")


def main(args=None, prog_name=None):
    """Run one command (``prog_name`` is unused) and end in ``SystemExit``, 0 on success."""
    options, unknown = _PARSER.parse_known_args(args)
    if unknown:  # the command's parser refuses them, so its usage line names its options
        _COMMANDS.choices[options.command].error(f"unrecognized arguments: {' '.join(unknown)}")
    options = vars(options)
    try:
        _RUNS[options.pop("command")](**options)
    except GenShiftError as exc:
        for cls, code, label in LIBRARY_EXITS:
            if isinstance(exc, cls):
                print(f"{label}: {exc}", file=sys.stderr)
                raise SystemExit(code) from None
        raise  # a class without a row is a bug, and keeps its traceback
    raise SystemExit(0)


if __name__ == "__main__":
    main()
