"""The benchmark's four workloads: seeded inputs, operations and output checks.

Every workload is a sequence of rounds with a fixed composition; the timed
loop runs whole rounds, so the mix of operations is the same in every run
and on every commit. Inputs come only from the seed. Each operation's output
is checked against a computation that does not go through genshift's fiber
code: brute reindexing, ``collections.Counter`` fiber sizes, closed-form
fiber sizes of the shipped rules written out here, or the mathematical
facts the CLI output must satisfy.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterator

from genshift import cli, dense_oracle, domain_analysis, gen_shift, index_domain, sparse_vec
from tracing import CLI_MAIN

HERE = os.path.dirname(os.path.abspath(__file__))


class CheckFailed(Exception):
    """An operation returned a wrong answer."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], None]


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int, str], object]  # (seed, work directory) -> inputs
    rounds: Callable[[object, int, object], Iterator[list[Op]]]  # (inputs, first round, tracer)
    tail_percentile: float  # highest percentile with >= 10 samples beyond it at min_rounds
    min_rounds: int  # the timed loop runs at least this many rounds
    trace_rounds: int  # rounds in the traced phase of a --trace 1 run
    import_module: str  # what set-up imports
    calibration: str = "kernel"  # reference task that times are scaled by (see run.py)


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def _complex_entries(rng: random.Random, indices) -> dict[int, complex]:
    return {a: complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for a in indices}


def _weighted_norm_sq(entries: dict[int, complex], size: Callable[[int], int]) -> float:
    return math.fsum(size(a) * (v.real * v.real + v.imag * v.imag) for a, v in entries.items())


def _close(value: float, ref: float, rel: float) -> bool:
    return abs(value - ref) <= rel * abs(ref)


# ---------------------------------------------------------------------------
# oracle_sweep: check_map_agreement on distinct small maps

ORACLE_MIX = ((6, 78), (12, 20), (64, 2))  # (n, maps per round)
ORACLE_POOL_ROUNDS = 590  # 46,020 of the 46,656 tables on {1..6}


def _decode_table(code: int, n: int) -> list[int]:
    digits = []
    for _ in range(n):
        code, d = divmod(code, n)
        digits.append(d + 1)
    return digits


@dataclass
class OraclePool:
    rounds: list[list[index_domain.IndexMap]]
    worst_error: float = 0.0
    worst_table: tuple[int, ...] | None = None


def build_oracle(seed: int, workdir: str) -> OraclePool:
    """Distinct maps for every round: a seeded sample without repetition of
    all tables on {1..6}, and seeded random tables at n = 12 and n = 64."""
    rng = random.Random(seed)
    per_round = dict(ORACLE_MIX)
    tiny_codes = rng.sample(range(6 ** 6), ORACLE_POOL_ROUNDS * per_round[6])
    tables = {6: [_decode_table(c, 6) for c in tiny_codes]}
    for n, k in ORACLE_MIX[1:]:
        tables[n] = [rng.choices(range(1, n + 1), k=n) for _ in range(ORACLE_POOL_ROUNDS * k)]
    rounds = []
    for r in range(ORACLE_POOL_ROUNDS):
        maps = [index_domain.make_finite_map(t, n)
                for n, k in ORACLE_MIX for t in tables[n][r * k:(r + 1) * k]]
        rng.shuffle(maps)
        rounds.append(maps)
    return OraclePool(rounds)


def _oracle_check(pool: OraclePool, m: index_domain.IndexMap):
    top = max(Counter(m.table).values())
    permutation = top == 1

    def check(res) -> None:
        expect(res.table == m.table, "result belongs to another table")
        if res.norm_error > pool.worst_error or pool.worst_table is None:
            pool.worst_error, pool.worst_table = res.norm_error, res.table
        expect(res.norm_ok and res.norm_error <= 1e-9, f"norm error {res.norm_error}")
        expect(res.classification_ok, "classify disagrees with structural_check")
        expect(res.structural_norm == math.sqrt(top), "structural norm != sqrt(max fiber size)")
        expect(abs(res.oracle_norm - math.sqrt(top)) <= 1e-9, "oracle norm != sqrt(max fiber size)")
        rep = gen_shift.classify(m)
        expect(rep.sigma_injective is permutation and rep.sigma_surjective is permutation
               and rep.isometry is permutation, "classification != Counter-based verdict")

    return check


def oracle_rounds(pool: OraclePool, start: int, tracer) -> Iterator[list[Op]]:
    for maps in pool.rounds[start:]:
        yield [Op(f"n{m.domain.size}", lambda m=m: dense_oracle.check_map_agreement(m),
                  _oracle_check(pool, m)) for m in maps]


# ---------------------------------------------------------------------------
# vector_ops: many vectors through a few large maps

# (label, n, support fraction, ops per round)
TABLE_MIX = (("full_1e3", 1000, 1.0, 8), ("sparse_1e4", 10000, 0.01, 6),
             ("full_3e3", 3000, 1.0, 2), ("sparse_3e4", 30000, 0.01, 2))
PERM_N = 10000
PERM_SUPPORT = 1000
SOLVE_PER_ROUND = 2
RULE_MIX = (("successor", None), ("clamp_pred", None), ("block", 3), ("doubling", None))
RULE_SUPPORT = (500, 5000)  # entries, largest index
RULE_PER_ROUND = 2
VECTORS_PER_KIND = 8


def _rule_phi(name: str, param: int | None) -> Callable[[int], int]:
    return {
        "successor": lambda k: k + 1,
        "clamp_pred": lambda k: 1 if k == 1 else k - 1,
        "block": lambda k: (k - 1) // param + 1,
        "doubling": lambda k: 2 * k,
    }[name]


def _rule_fiber_size(name: str, param: int | None) -> Callable[[int], int]:
    return {
        "successor": lambda a: 0 if a == 1 else 1,
        "clamp_pred": lambda a: 2 if a == 1 else 1,
        "block": lambda a: param,
        "doubling": lambda a: 1 if a % 2 == 0 else 0,
    }[name]


@dataclass
class VectorCase:
    """A map with vectors for it, and what the checks compare against."""

    label: str
    m: index_domain.IndexMap
    vectors: list[sparse_vec.SparseVector]
    raw: list[dict[int, complex]]
    image_of: Callable[[dict[int, complex]], dict[int, complex]]
    fiber_size: Callable[[int], int]


def _table_case(label, table, n, entries_list) -> VectorCase:
    m = index_domain.make_finite_map(table, n)
    counts = Counter(table)
    return VectorCase(
        label, m, [sparse_vec.from_entries(m.domain, e) for e in entries_list], entries_list,
        lambda x: {b: x[a] for b, a in enumerate(table, start=1) if a in x},
        lambda a: counts[a])


def _rule_case(name, param, entries_list) -> VectorCase:
    m = index_domain.symbolic_map(name, param)
    phi = _rule_phi(name, param)
    reach = 3 * RULE_SUPPORT[1] + 1  # every preimage of an index <= RULE_SUPPORT[1] lies below

    def image_of(x):
        return {b: x[phi(b)] for b in range(1, reach + 1) if phi(b) in x}

    return VectorCase(name, m, [sparse_vec.from_entries(m.domain, e) for e in entries_list],
                      entries_list, image_of, _rule_fiber_size(name, param))


@dataclass
class VectorInputs:
    tables: list[tuple[VectorCase, int]]  # case, ops per round
    perm: VectorCase
    rules: list[VectorCase]
    seed: int


def build_vectors(seed: int, workdir: str) -> VectorInputs:
    rng = random.Random(seed)
    tables = []
    for label, n, frac, per_round in TABLE_MIX:
        table = rng.choices(range(1, n + 1), k=n)
        k = max(1, round(n * frac))
        entries = [_complex_entries(rng, rng.sample(range(1, n + 1), k))
                   for _ in range(VECTORS_PER_KIND)]
        tables.append((_table_case(label, table, n, entries), per_round))
    perm = list(range(1, PERM_N + 1))
    rng.shuffle(perm)
    ys = [_complex_entries(rng, rng.sample(range(1, PERM_N + 1), PERM_SUPPORT))
          for _ in range(VECTORS_PER_KIND)]
    rules = []
    for name, param in RULE_MIX:
        count, hi = RULE_SUPPORT
        entries = [_complex_entries(rng, rng.sample(range(1, hi + 1), count))
                   for _ in range(VECTORS_PER_KIND)]
        rules.append(_rule_case(name, param, entries))
    return VectorInputs(tables, _table_case("perm_1e4", perm, PERM_N, ys), rules, seed)


def _vector_op(case: VectorCase, i: int) -> Op:
    m, x, raw = case.m, case.vectors[i], case.raw[i]

    def run():
        y = gen_shift.apply(m, x)
        return (y, sparse_vec.norm_sq(y), gen_shift.apply_norm_sq(m, x),
                domain_analysis.in_domain(m, x))

    def check(out) -> None:
        y, image_sq, identity_sq, inside = out
        expect(isinstance(y, sparse_vec.SparseVector), f"apply returned {type(y).__name__}")
        expect(y.entries == case.image_of(raw), "image differs from the brute reindex")
        ref = _weighted_norm_sq(raw, case.fiber_size)
        expect(_close(image_sq, ref, 1e-12), f"norm_sq(image) {image_sq} != {ref}")
        expect(_close(identity_sq, ref, 1e-12), f"apply_norm_sq {identity_sq} != {ref}")
        expect(inside is True, "in_domain is not True for a bounded map")

    return Op(case.label, run, check)


def _solve_op(case: VectorCase, i: int) -> Op:
    m, y, raw = case.m, case.vectors[i], case.raw[i]
    table = m.table

    def run():
        x = gen_shift.solve(m, y)
        return x, gen_shift.apply(m, x)

    def check(out) -> None:
        x, back = out
        expect(x.entries == {table[b - 1]: v for b, v in raw.items()}, "solve is not the relabelling")
        expect(back.entries == raw, "apply(solve(y)) != y")

    return Op("solve", run, check)


def vector_rounds(inputs: VectorInputs, start: int, tracer) -> Iterator[list[Op]]:
    r = start
    while True:
        ops = []
        for case, per_round in inputs.tables:
            ops += [_vector_op(case, (r * per_round + j) % VECTORS_PER_KIND)
                    for j in range(per_round)]
        ops += [_solve_op(inputs.perm, (r * SOLVE_PER_ROUND + j) % VECTORS_PER_KIND)
                for j in range(SOLVE_PER_ROUND)]
        for j in range(RULE_PER_ROUND):
            case = inputs.rules[(r * RULE_PER_ROUND + j) % len(inputs.rules)]
            ops.append(_vector_op(case, r % VECTORS_PER_KIND))
        random.Random(inputs.seed * 7919 + r).shuffle(ops)
        yield ops
        r += 1


# ---------------------------------------------------------------------------
# CLI workloads: files written at set-up, requests through genshift.cli

RULE_FILES = (("successor", None), ("clamp_pred", None), ("block", 3),
              ("triangular", None), ("doubling", None), ("odd_collapse", None))
RULE_NORM = {"successor": 1.0, "clamp_pred": math.sqrt(2), "block": math.sqrt(3),
             "triangular": "infinite", "doubling": 1.0, "odd_collapse": "infinite"}
RULE_CLOSED = {"successor": True, "clamp_pred": True, "block": True,
               "triangular": False, "doubling": True, "odd_collapse": True}
SEPARATION = math.sqrt(2) / 2


def _write_json(path: str, doc) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


@dataclass
class CliFiles:
    rules: dict[str, str]  # rule name -> map file
    table: str
    table_images: list[int]
    vector: str
    vector_entries: dict[int, complex]
    seed: int


def build_cli_files(seed: int, workdir: str, table_n: int, support: int) -> CliFiles:
    """Maps and vectors built and serialised through the library."""
    rng = random.Random(seed)
    rules = {name: _write_json(os.path.join(workdir, f"{name}.json"),
                               index_domain.map_to_json(index_domain.symbolic_map(name, param)))
             for name, param in RULE_FILES}
    images = rng.choices(range(1, table_n + 1), k=table_n)
    m = index_domain.make_finite_map(images, table_n)
    entries = _complex_entries(rng, rng.sample(range(1, table_n + 1), support))
    x = sparse_vec.from_entries(m.domain, entries)
    return CliFiles(
        rules=rules,
        table=_write_json(os.path.join(workdir, "table.json"), index_domain.map_to_json(m)),
        table_images=images,
        vector=_write_json(os.path.join(workdir, "vector.json"), sparse_vec.vector_to_json(x)),
        vector_entries=entries,
        seed=seed,
    )


def _check_cli_output(files: CliFiles, args: list[str], code, stdout: str) -> None:
    expect(code == 0, f"exit code {code}")
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"stdout is not JSON: {exc}") from None
    command = args[0]
    if command == "analyze":
        path = args[1]
        window = int(args[args.index("--window") + 1]) if "--window" in args else 64
        if path == files.table:
            counts = Counter(files.table_images)
            norm, closed, cards = math.sqrt(max(counts.values())), True, len(files.table_images)
        else:
            name = next(n for n, p in files.rules.items() if p == path)
            norm, closed, cards = RULE_NORM[name], RULE_CLOSED[name], window
        got = doc["classification"]["operator_norm"]
        expect(got == norm, f"operator norm {got!r}, expected {norm!r}")
        expect(doc["domain"]["closed"] is closed, f"closed {doc['domain']['closed']!r}, expected {closed}")
        expect(len(doc["fiber_report"]["cardinalities"]) == cards, "fiber report has the wrong length")
    elif command == "apply":
        image = {e["i"]: complex(e["re"], e["im"]) for e in doc}
        x = files.vector_entries
        brute = {b: x[a] for b, a in enumerate(files.table_images, start=1) if a in x}
        expect(image == brute, "apply output differs from the brute reindex")
    elif command == "witness" and doc["kind"] == "divergence":
        K = int(args[args.index("--K") + 1])
        sizes = [size for _, size in doc["records"]]
        expect(len(sizes) == K, f"{len(sizes)} records for K = {K}")
        expect(all(b > a for a, b in zip(sizes, sizes[1:])), "record sizes not strictly increasing")
        expect(all(size >= k for k, size in enumerate(sizes, start=1)), "record k has size < k")
        harmonic = math.fsum(1.0 / k for k in range(1, K + 1))
        bound = doc["image_norm_sq_lower_bound"]
        expect(bound >= harmonic * (1 - 1e-12), f"lower bound {bound} < H_K = {harmonic}")
        expect(doc["vector_norm_sq"] < math.pi ** 2 / 6, "witness vector norm_sq >= pi^2/6")
    elif command == "witness":
        count = int(args[args.index("--count") + 1])
        expect(len(doc["indices"]) == count and len(doc["vectors"]) == count, "wrong witness count")
        expect(all(b > a for a, b in zip(doc["indices"], doc["indices"][1:])), "indices not increasing")
        expect(doc["min_distance_sq"] == {"num": 1, "den": 2}, f"min distance^2 {doc['min_distance_sq']}")
        expect(doc["pairwise_separation"] == SEPARATION, f"separation {doc['pairwise_separation']!r}")
    elif command == "oracle-check":
        n = int(args[args.index("--n") + 1])
        expect(doc["maps_checked"] == n ** n, f"{doc['maps_checked']} maps checked")
        expect(doc["disagreements"] == 0, f"{doc['disagreements']} disagreements")
        expect(doc["max_norm_error"] <= 1e-9, f"max norm error {doc['max_norm_error']}")
    else:
        raise CheckFailed(f"no check for {args!r}")


def _cli_op(files: CliFiles, kind: str, args: list[str], tracer) -> Op:
    def run():
        out, err = io.StringIO(), io.StringIO()
        code = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                _span(tracer, CLI_MAIN):
            try:
                cli.main(args=args, prog_name="genshift")
            except SystemExit as exc:
                code = exc.code
        stdout = out.getvalue()
        if tracer is not None and tracer.recording:
            tracer.counts["cli.stdout_bytes"] += len(stdout.encode())
        return code, stdout

    return Op(kind, run, lambda res: _check_cli_output(files, args, *res))


CLI_TABLE_N = 10000


def build_cli_requests(seed: int, workdir: str) -> CliFiles:
    return build_cli_files(seed, workdir, CLI_TABLE_N, CLI_TABLE_N)


def cli_request_args(files: CliFiles) -> list[tuple[str, list[str]]]:
    """One round: every shipped rule at windows 1e3 and 1e4, four rules at
    1e5, the 1e4 table, a full-support apply, divergence witnesses at
    K = 2^10, 2^14 and 2^16, and compact witnesses of 100 and 1000 vectors.

    The five heaviest requests (window 1e5 and K = 2^16) are about a fifth
    of the round, so p90 falls inside them rather than at their edge, and
    the median falls inside the cluster of window-1e4 analyses."""
    reqs = []
    for name, path in files.rules.items():
        for window in (1000, 10000):
            reqs.append((f"analyze_{name}_w{window}", ["analyze", path, "--window", str(window)]))
    for name in ("triangular", "odd_collapse", "successor", "doubling"):
        reqs.append((f"analyze_{name}_w100000",
                     ["analyze", files.rules[name], "--window", "100000"]))
    reqs.append(("analyze_table", ["analyze", files.table]))
    reqs.append(("apply_table", ["apply", files.table, files.vector]))
    for K in (1 << 10, 1 << 14, 1 << 16):
        reqs.append((f"divergence_K{K}", ["witness", files.rules["triangular"], "--kind",
                                          "divergence", "--K", str(K)]))
    for name, count in (("successor", 100), ("clamp_pred", 1000)):
        reqs.append((f"compact_{count}", ["witness", files.rules[name], "--kind", "compact",
                                          "--count", str(count)]))
    return reqs


def cli_request_rounds(files: CliFiles, start: int, tracer) -> Iterator[list[Op]]:
    reqs = cli_request_args(files)
    r = start
    while True:
        ops = [_cli_op(files, kind, args, tracer) for kind, args in reqs]
        random.Random(r).shuffle(ops)  # the same for every seed, so peak memory is too
        yield ops
        r += 1


# ---------------------------------------------------------------------------
# cli_cold: one fresh interpreter per command

COLD_TABLE_N = 12


def child_env(root: str) -> dict[str, str]:
    """Environment for child interpreters: this one's (thread caps included),
    with the checkout's sources first on the import path."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclass
class ColdInputs:
    files: CliFiles
    root: str
    env: dict[str, str]
    workdir: str
    peak_rss_kb: int = 0


def cold_command_args(files: CliFiles) -> list[tuple[str, list[str]]]:
    rule = sorted(files.rules)[files.seed % len(files.rules)]
    return [
        ("analyze", ["analyze", files.rules[rule]]),
        ("apply", ["apply", files.table, files.vector]),
        ("compact", ["witness", files.rules["successor"], "--kind", "compact", "--count", "3"]),
        ("oracle", ["oracle-check", "--n", "4", "--exhaustive"]),
    ]


def run_child(argv: list[str], cwd: str, env: dict[str, str]) -> tuple[int, str, int]:
    """Run one child to completion; returns exit code, stdout and its peak RSS in KiB."""
    proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, stdin=subprocess.DEVNULL)
    try:
        stdout = proc.stdout.read()
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, stdout.decode("utf-8", "replace"), usage.ru_maxrss


def _cold_op(inputs: ColdInputs, kind: str, args: list[str], tracer) -> Op:
    spans_path = os.path.join(inputs.workdir, "child-spans.json")

    def run():
        if tracer is not None and tracer.recording:
            argv = [sys.executable, os.path.join(HERE, "cold_child.py"), spans_path, *args]
        else:
            argv = [sys.executable, "-m", "genshift.cli", *args]
        code, stdout, rss = run_child(argv, inputs.root, inputs.env)
        inputs.peak_rss_kb = max(inputs.peak_rss_kb, rss)
        if tracer is not None and tracer.recording:
            tracer.counts["cli.stdout_bytes"] += len(stdout.encode())
            with open(spans_path, encoding="utf-8") as fh:
                tracer.adopt(json.load(fh), tracer.stack[-1])
        return code, stdout

    return Op(kind, run, lambda res: _check_cli_output(inputs.files, args, *res))


def build_cold(seed: int, workdir: str) -> ColdInputs:
    root = os.path.dirname(HERE)
    files = build_cli_files(seed, workdir, COLD_TABLE_N, COLD_TABLE_N)
    return ColdInputs(files, root, child_env(root), workdir)


def cold_rounds(inputs: ColdInputs, start: int, tracer) -> Iterator[list[Op]]:
    cmds = cold_command_args(inputs.files)
    while True:
        yield [_cold_op(inputs, kind, args, tracer) for kind, args in cmds]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("oracle_sweep", build_oracle, oracle_rounds, tail_percentile=99.0,
                 min_rounds=20, trace_rounds=40, import_module="genshift"),
        Workload("vector_ops", build_vectors, vector_rounds, tail_percentile=95.0,
                 min_rounds=12, trace_rounds=4, import_module="genshift"),
        Workload("cli_requests", build_cli_requests, cli_request_rounds, tail_percentile=90.0,
                 min_rounds=5, trace_rounds=2, import_module="genshift.cli"),
        Workload("cli_cold", build_cold, cold_rounds, tail_percentile=80.0,
                 min_rounds=13, trace_rounds=6, import_module="genshift.cli",
                 calibration="process"),
    )
}
