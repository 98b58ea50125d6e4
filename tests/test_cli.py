import contextlib
import dataclasses
import gc
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import types
import weakref
from array import array
from itertools import chain

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from genshift import (
    COUNTABLE, DivergenceWitness, IntegrityError, NotInL2, ParseError, SearchExhaustedError,
    UnsupportedError, apply, cli, from_entries, index_domain, norm_sq, parse_vector, vector_to_json,
)
from genshift.cli import main
from genshift.domain_analysis import DomainReport, domain_report
from genshift.index_domain import finite_runs, make_finite_map
from helpers import clamp_liar_rule, liar_rule
from test_cli_golden import GOLDEN


@pytest.fixture
def runner():
    return CliRunner()


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


IDENTITY5 = {"kind": "finite", "images": [1, 2, 3, 4, 5]}
CONST4 = {"kind": "finite", "images": [1, 1, 1, 1]}
TRIANGULAR = {"kind": "symbolic", "name": "triangular"}
SUCCESSOR = {"kind": "symbolic", "name": "successor"}
ODD_COLLAPSE = {"kind": "symbolic", "name": "odd_collapse"}
E1 = [{"i": 1, "re": 1.0, "im": 0.0}]


def test_analyze_identity(runner, tmp_path):
    result = runner.invoke(main, ["analyze", write(tmp_path, "m.json", IDENTITY5)])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["schema_version"] == 1
    assert doc["classification"]["operator_norm"] == 1
    assert doc["classification"]["isometry"] is True
    assert doc["fiber_report"]["verdict"] == {"kind": "certified", "bound": 1}


def test_analyze_triangular(runner, tmp_path):
    result = runner.invoke(main, ["analyze", write(tmp_path, "m.json", TRIANGULAR), "--window", "8"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["fiber_report"]["verdict"] == {"kind": "certified_unbounded"}
    assert doc["classification"]["operator_norm"] == "infinite"
    assert doc["domain"]["closed"] is False
    assert doc["domain"]["characterization_holds"] == doc["domain"]["closed"]
    assert doc["domain"]["unbounded_witness"][:3] == [[1, 1], [2, 2], [3, 3]]


def test_analyze_constant_norm_two(runner, tmp_path):
    result = runner.invoke(main, ["analyze", write(tmp_path, "m.json", CONST4)])
    assert result.exit_code == 0
    assert json.loads(result.output)["classification"]["operator_norm"] == 2


def test_analyze_malformed_file_exits_2(runner, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    result = runner.invoke(main, ["analyze", str(path)])
    assert result.exit_code == 2
    path.write_text(json.dumps({"kind": "finite", "images": [1, 7]}))
    assert runner.invoke(main, ["analyze", str(path)]).exit_code == 2
    # a block size beyond the float range has no float norm sqrt(b)
    path.write_text(json.dumps({"kind": "symbolic", "name": "block", "param": 10**400}))
    for args in (["analyze", str(path)], ["witness", str(path), "--kind", "compact"]):
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert result.output.startswith("parse error: rule 'block' declares finite-fiber bound")
    path.write_text(json.dumps({"kind": "symbolic", "name": "block", "param": 10**300}))
    result = runner.invoke(main, ["analyze", str(path)])
    assert result.exit_code == 0
    assert json.loads(result.output)["classification"]["operator_norm"] == 1e150


@pytest.mark.parametrize("content", [
    b"\xff\xfe[]",
    b"[" + b"9" * 5000 + b"]",
    b"[" * 100_000,
], ids=["not_utf8", "int_5000_digits", "nested_100000"])
@pytest.mark.parametrize("command", ["analyze", "apply"])
def test_undecodable_or_overlong_file_exits_2(runner, tmp_path, command, content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    if command == "analyze":
        args = ["analyze", str(bad)]
    else:
        args = ["apply", write(tmp_path, "m.json", IDENTITY5), str(bad)]
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert result.output.startswith("parse error: ")


def test_analyze_false_certificate_exits_3(runner, tmp_path, monkeypatch):
    monkeypatch.setitem(index_domain.BUILTIN_RULES, "clamp_liar", clamp_liar_rule)
    doc = {"kind": "symbolic", "name": "clamp_liar"}
    result = runner.invoke(main, ["analyze", write(tmp_path, "m.json", doc)])
    assert result.exit_code == 3
    assert result.output.startswith("integrity error: rule 'clamp_liar' declares")


def test_apply_identity_round_trip(runner, tmp_path):
    result = runner.invoke(main, ["apply", write(tmp_path, "m.json", IDENTITY5),
                                  write(tmp_path, "v.json", E1)])
    assert result.exit_code == 0
    m = make_finite_map([1, 2, 3, 4, 5], 5)
    reparsed = parse_vector(json.loads(result.output), m.domain)
    assert reparsed == apply(m, parse_vector(E1, m.domain))


def test_apply_successor_empties_e1(runner, tmp_path):
    result = runner.invoke(main, ["apply", write(tmp_path, "m.json", SUCCESSOR),
                                  write(tmp_path, "v.json", E1)])
    assert result.exit_code == 0
    assert json.loads(result.output) == []


def test_apply_odd_collapse_e1_exits_4(runner, tmp_path):
    result = runner.invoke(main, ["apply", write(tmp_path, "m.json", ODD_COLLAPSE),
                                  write(tmp_path, "v.json", E1)])
    assert result.exit_code == 4
    assert result.stdout == ""
    assert result.stderr == "image not square-summable: support index 1 has an infinite fiber\n"


def test_apply_fiber_past_the_search_budget_exits_5(runner, tmp_path):
    block = {"kind": "symbolic", "name": "block", "param": index_domain.SEARCH_CAP + 1}
    result = runner.invoke(main, ["apply", write(tmp_path, "m.json", block),
                                  write(tmp_path, "v.json", E1)])
    assert result.exit_code == 5
    assert result.output == ("precondition failed: fiber(1) has size 1048577,"
                             " above SEARCH_CAP = 1048576\n")


def test_apply_image_past_the_search_budget_exits_5(runner, tmp_path):
    # two fibers of 2**20 members each: both within the budget, their union is not
    block = {"kind": "symbolic", "name": "block", "param": index_domain.SEARCH_CAP}
    vector = [{"i": 1, "re": 1.0, "im": 0.0}, {"i": 2, "re": 1.0, "im": 0.0}]
    result = runner.invoke(main, ["apply", write(tmp_path, "m.json", block),
                                  write(tmp_path, "v.json", vector)])
    assert result.exit_code == 5
    assert result.stdout == ""
    assert result.stderr == ("precondition failed: the image has 2097152 entries or more,"
                             " above SEARCH_CAP = 1048576\n")


def test_apply_duplicate_vector_index_exits_2(runner, tmp_path):
    bad = [{"i": 1, "re": 1.0}, {"i": 1, "re": 2.0}]
    result = runner.invoke(main, ["apply", write(tmp_path, "m.json", IDENTITY5),
                                  write(tmp_path, "v.json", bad)])
    assert result.exit_code == 2


@pytest.mark.parametrize("text", [
    '[{"i": 1, "re": NaN}]',
    '[{"i": 1, "im": -Infinity}]',
    '[{"i": 1, "re": 1e400}]',
    '[{"i": 1, "re": ' + "9" * 400 + "}]",
], ids=["nan", "infinity", "float_overflow", "int_400_digits"])
def test_apply_non_finite_entry_exits_2(runner, tmp_path, text):
    vec = tmp_path / "v.json"
    vec.write_text(text)
    result = runner.invoke(main, ["apply", write(tmp_path, "m.json", IDENTITY5), str(vec)])
    assert result.exit_code == 2
    assert result.output == "parse error: non-finite or out-of-range component at index 1\n"


def test_witness_compact_successor(runner, tmp_path):
    result = runner.invoke(main, ["witness", write(tmp_path, "m.json", SUCCESSOR),
                                  "--kind", "compact", "--count", "3"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["indices"] == [2, 3, 4]
    assert doc["min_distance_sq"] == {"num": 1, "den": 2}
    assert doc["pairwise_separation"] == math.sqrt(0.5)
    assert len(doc["vectors"]) == 3


def test_witness_divergence_triangular_k16(runner, tmp_path):
    result = runner.invoke(main, ["witness", write(tmp_path, "m.json", TRIANGULAR),
                                  "--kind", "divergence", "--K", "16"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    h16 = math.fsum(1.0 / k for k in range(1, 17))
    assert doc["image_norm_sq_lower_bound"] >= h16
    assert abs(h16 - 3.3807289932289932) < 1e-12
    assert doc["vector_norm_sq"] < math.pi ** 2 / 6


def test_witness_compact_on_finite_map_exits_5(runner, tmp_path):
    path = write(tmp_path, "m.json", CONST4)
    for kind, reason in (("compact", "finite index set"), ("divergence", "map is certified bounded")):
        result = runner.invoke(main, ["witness", path, "--kind", kind])
        assert result.exit_code == 5
        assert result.output.startswith(f"precondition failed: {reason}")


def test_witness_false_certificate_exits_3(runner, tmp_path, monkeypatch):
    monkeypatch.setitem(index_domain.BUILTIN_RULES, "clamp_liar", clamp_liar_rule)
    doc = {"kind": "symbolic", "name": "clamp_liar"}
    # the lie makes the map look bounded: a divergence witness is refuted, not refused
    for kind in ("compact", "divergence"):
        result = runner.invoke(main, ["witness", write(tmp_path, "m.json", doc), "--kind", kind])
        assert result.exit_code == 3
        assert result.output == ("integrity error: rule 'clamp_liar' declares finite-fiber bound 1"
                                 " but fiber(1) has size 2\n")


def _successor_with_false_infinite_fiber():
    """successor, declaring an infinite fiber over 3, where its fiber is {2}."""
    return dataclasses.replace(index_domain.successor_rule(), infinite_fibers=frozenset({3}))


@pytest.mark.parametrize("args", [
    ["analyze", "MAP", "--window", "1"],
    ["witness", "MAP", "--kind", "compact", "--count", "2"],
], ids=["analyze_window_1", "compact_count_2"])
def test_false_certificate_past_the_window_exits_3(runner, tmp_path, monkeypatch, args):
    # the window 1..1 or 1..2 misses target 3; the first certificate read (1..64) reaches it
    monkeypatch.setitem(index_domain.BUILTIN_RULES, "successor_liar",
                        _successor_with_false_infinite_fiber)
    path = write(tmp_path, "m.json", {"kind": "symbolic", "name": "successor_liar"})
    result = runner.invoke(main, [path if a == "MAP" else a for a in args])
    assert result.exit_code == 3
    assert result.stdout == ""
    assert result.stderr == ("integrity error: rule 'successor' declares infinite fibers exactly"
                             " over [3] but fiber(3) has size 1\n")


def test_witness_divergence_on_bounded_map_exits_5(runner, tmp_path):
    result = runner.invoke(main, ["witness", write(tmp_path, "m.json", SUCCESSOR),
                                  "--kind", "divergence", "--K", "4"])
    assert result.exit_code == 5
    assert result.output == ("precondition failed: map is certified bounded over M"
                             " (fiber bound 1)\n")


@pytest.mark.parametrize("m, args, message", [
    (SUCCESSOR, ["--kind", "compact", "--count", "9223372036854775808"],
     "only 1048575 nonempty fibers within 1048576 targets; need 9223372036854775808"),
    (TRIANGULAR, ["--kind", "divergence", "--K", "9223372036854775808"],
     "found only 1048576 fiber-size records within 1048576 targets"),
], ids=["compact", "divergence"])
def test_witness_size_past_sys_maxsize_exits_5(runner, tmp_path, m, args, message):
    # 2**63 passes click's IntRange; the search budget refuses it after at most SEARCH_CAP targets
    result = runner.invoke(main, ["witness", write(tmp_path, "m.json", m), *args])
    assert result.exit_code == 5
    assert result.stdout == ""
    assert result.stderr == f"precondition failed: {message}\n"


def test_oracle_check_exhaustive_n3(runner):
    result = runner.invoke(main, ["oracle-check", "--n", "3", "--exhaustive"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["maps_checked"] == 27
    assert doc["disagreements"] == 0
    assert doc["seed"] == 74


def test_oracle_check_disagreement_exits_6(runner, monkeypatch):
    from genshift import dense_oracle

    monkeypatch.setattr(dense_oracle, "NORM_TOL", -1.0)  # no error is below -1: all 27 disagree
    result = runner.invoke(main, ["oracle-check", "--n", "3", "--exhaustive"])
    assert result.exit_code == 6
    doc = json.loads(result.stdout)
    assert doc["maps_checked"] == 27
    assert '"disagreements":27' in result.stdout
    lines = result.stderr.splitlines()
    assert len(lines) == 20  # the first 20 of the 27 tables are named
    assert lines[0] == "disagreement on image table [1, 1, 1]"


def test_oracle_check_exhaustive_past_its_cap_exits_2(runner, monkeypatch):
    from genshift import dense_oracle

    monkeypatch.setattr(dense_oracle, "exhaustive_maps", None)  # refused before any enumeration
    n = dense_oracle.EXHAUSTIVE_CAP + 1
    result = runner.invoke(main, ["oracle-check", "--n", str(n), "--exhaustive"])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert f"--exhaustive needs n <= {dense_oracle.EXHAUSTIVE_CAP}" in result.stderr
    assert result.stdout == ""


def test_oracle_check_random_with_seed(runner):
    result = runner.invoke(main, ["oracle-check", "--n", "6", "--random", "25", "--seed", "42"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["maps_checked"] == 25 and doc["seed"] == 42


@pytest.mark.parametrize("env", ["99", "seven"])
def test_oracle_check_ignores_the_environment(runner, monkeypatch, env):
    # the seed is --seed only: no environment variable, GENSHIFT_SEED included, moves it
    monkeypatch.setenv("GENSHIFT_SEED", env)
    result = runner.invoke(main, ["oracle-check", "--n", "4", "--exhaustive"])
    digest = hashlib.sha256(result.stdout_bytes).hexdigest()
    assert (digest, result.exit_code) == GOLDEN["oracle-check --n 4 --exhaustive"]
    result = runner.invoke(main, ["oracle-check", "--n", "4", "--random", "5"])
    assert result.exit_code == 0 and '"seed":74' in result.stdout
    result = runner.invoke(main, ["oracle-check", "--help"])
    assert result.exit_code == 0 and "GENSHIFT_SEED" not in result.output


@pytest.mark.parametrize("mode", [["--exhaustive"], ["--random", "5"]])
def test_oracle_check_negative_seed_exits_2(runner, mode):
    result = runner.invoke(main, ["oracle-check", "--n", "4", *mode, "--seed", "-1"])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)


@pytest.mark.parametrize("args", [
    ["analyze", "MAP", "--window", str(index_domain.SEARCH_CAP + 1)],
    ["oracle-check", "--n", str(index_domain.DENSE_CAP + 1), "--random", "1"],
], ids=["window", "dense_n"])
def test_options_past_their_budget_exit_2(runner, tmp_path, monkeypatch, args):
    # click rejects the value before the command runs: no window is scanned, no table drawn
    monkeypatch.setattr(index_domain.IndexMap, "window_sizes", None)
    args = [write(tmp_path, "m.json", SUCCESSOR) if a == "MAP" else a for a in args]
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "is not in the range" in result.output


def test_oracle_check_requires_exactly_one_mode(runner):
    assert runner.invoke(main, ["oracle-check", "--n", "3"]).exit_code == 2
    assert runner.invoke(
        main, ["oracle-check", "--n", "3", "--exhaustive", "--random", "5"]
    ).exit_code == 2


# --- the exit-code contract under arbitrary input ---------------------------

# small ints, and the ones past a budget or the float range
json_ints = st.integers(-3, 3000) | st.sampled_from([2**63, 10**400, index_domain.SEARCH_CAP + 1])
json_leaves = st.none() | st.booleans() | json_ints | st.floats() | st.text(max_size=8)
json_values = st.recursive(
    json_leaves,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
rule_names = st.sampled_from([*index_domain.BUILTIN_RULES, "clamp_liar", "liar"])
rule_maps = rule_names.filter(lambda name: name != "block").map(
    lambda name: {"kind": "symbolic", "name": name})
good_maps = st.one_of(
    st.integers(2, 8).flatmap(lambda n: st.lists(st.integers(1, n), min_size=n, max_size=n))
    .map(lambda images: {"kind": "finite", "images": images}),
    rule_maps,
    rule_maps,  # twice as likely: seven rules against one table shape
    (st.integers(1, 64) | st.just(index_domain.SEARCH_CAP + 1))
    .map(lambda b: {"kind": "symbolic", "name": "block", "param": b}),
)
bad_maps = st.one_of(
    json_values,
    st.lists(st.integers(1, 8) | json_leaves, max_size=8)
    .map(lambda images: {"kind": "finite", "images": images}),
    st.fixed_dictionaries({"kind": st.just("symbolic"), "name": rule_names | st.text(max_size=8)},
                          optional={"param": json_leaves}),
)
finite_floats = st.floats(allow_nan=False, allow_infinity=False)
good_vectors = st.dictionaries(
    st.just(1) | st.integers(1, 8), st.tuples(finite_floats.filter(bool), finite_floats), max_size=4,
).map(lambda xs: [{"i": i, "re": re, "im": im} for i, (re, im) in xs.items()])
bad_vectors = json_values | st.lists(
    st.fixed_dictionaries({"i": st.integers(1, 40) | json_leaves},
                          optional={"re": st.floats() | json_leaves, "im": json_leaves}),
    max_size=4,
)


def in_range(lo, hi, *rejected):
    """Values click accepts, and the ones past its range that it rejects."""
    return st.integers(lo, hi) | st.sampled_from([*rejected, "x"])


def option(name, values):
    return st.just([]) | values.map(lambda v: [name, str(v)])


@st.composite
def cli_requests(draw):
    command = draw(st.sampled_from(["analyze", "apply", "witness", "oracle-check"]))
    files = {"m.json": draw(st.one_of(good_maps, good_maps, bad_maps))}
    args = [command, "m.json"]
    if command == "analyze":
        args += draw(option("--window", in_range(1, 2000, 0, index_domain.SEARCH_CAP + 1)))
    elif command == "apply":
        files["v.json"] = draw(st.one_of(good_vectors, good_vectors, bad_vectors))
        args.append("v.json")
    elif command == "witness":
        args += ["--kind", draw(st.sampled_from(["compact", "divergence", "x"]))]
        args += draw(option("--count", in_range(2, 64, 1, -1)))
        args += draw(option("--K", in_range(1, 64, 0, -1)))
    else:
        files, args = {}, [command, "--n", draw(in_range(2, 4, 1, -1))]
        random = option("--random", in_range(1, 64, 0, -1)).filter(bool)
        others = st.sampled_from([["--exhaustive"], [], ["--exhaustive", "--random", "3"]])
        args += draw(random | random | others)
        args += draw(option("--seed", in_range(0, 2**64, -1)))
    return files, [str(a) for a in args]


LABELS = {2: "parse error: ", 3: "integrity error: ", 4: "image not square-summable: ",
          5: "precondition failed: "}


@settings(max_examples=600)
@given(cli_requests())
@example(({"m.json": {"kind": "finite", "images": [1, 7]}}, ["analyze", "m.json"]))  # exit 2
@example(({"m.json": {"kind": "symbolic", "name": "liar"}}, ["analyze", "m.json"]))  # exit 3
@example(({"m.json": ODD_COLLAPSE, "v.json": E1}, ["apply", "m.json", "v.json"]))  # exit 4
@example(({"m.json": IDENTITY5}, ["witness", "m.json", "--kind", "compact"]))  # exit 5
def test_every_input_ends_in_a_documented_exit_code(case):
    files, args = case
    runner = CliRunner()
    with runner.isolated_filesystem(), pytest.MonkeyPatch.context() as mp:
        mp.setitem(index_domain.BUILTIN_RULES, "clamp_liar", clamp_liar_rule)
        mp.setitem(index_domain.BUILTIN_RULES, "liar", liar_rule)
        for name, doc in files.items():
            with open(name, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        result = runner.invoke(main, args)
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert result.exit_code in (0, 2, 3, 4, 5)  # n <= 4: the oracle agrees, so never 6
    if result.exit_code == 0:
        json.loads(result.stdout)
    elif not result.stderr.startswith("Usage:"):  # else click rejected an option or argument
        assert result.stdout == ""
        assert result.stderr.startswith(LABELS[result.exit_code])
        assert result.stderr.count("\n") == 1 and result.stderr.endswith("\n")


def test_each_exit_row_names_one_class():
    # a budget refusal is an UnsupportedError, so it ends in row 5 with every other precondition
    rows = [(cls, code) for cls, code, _ in cli.LIBRARY_EXITS]
    assert rows == [(ParseError, 2), (IntegrityError, 3), (NotInL2, 4), (UnsupportedError, 5)]
    assert issubclass(SearchExhaustedError, UnsupportedError)


def test_analyze_output_is_deterministic(runner, tmp_path):
    path = write(tmp_path, "m.json", TRIANGULAR)
    first = runner.invoke(main, ["analyze", path])
    second = runner.invoke(main, ["analyze", path])
    assert first.output == second.output


def test_floats_are_rendered_with_17_digits(runner, tmp_path):
    m = {"kind": "finite", "images": [1, 1, 2]}  # norm sqrt(2)
    result = runner.invoke(main, ["analyze", write(tmp_path, "m.json", m)])
    assert "1.4142135623730951" in result.output


# --- shaped rendering -----------------------------------------------------

EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-07, 0.1, 123456789.125,
               1.7976931348623157e308, -1.7976931348623157e308, math.inf, -math.inf, math.nan]
edge_floats = st.sampled_from(EDGE_FLOATS) | st.floats()


def joined(pieces):
    """The text of a shaped helper's pieces, or of the walker's, cut into pieces of
    two entries so that an empty array, one piece, a partial last piece and an
    infinite size on a piece boundary all occur."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "PIECE", 2)
        return "".join(pieces)


@given(st.dictionaries(st.integers(1, 10**9), st.tuples(edge_floats, edge_floats), max_size=12))
@example({})
@example({1: (0.5, 0.0)})
@example({1: (1.0, 0.0), 2: (2.0, 0.0), 3: (math.inf, 0.0)})
# infinities, nan and -0.0 on the second piece too (entries 3 and later under PIECE = 2)
@example({1: (1.0, 0.0), 2: (2.0, 0.0), 3: (-math.inf, math.inf), 4: (math.inf, -0.0)})
@example({1: (1.0, 0.0), 2: (2.0, 0.0), 3: (math.nan, -0.0), 4: (-0.0, -math.inf), 5: (math.nan, 1.0)})
def test_vector_helper_renders_like_the_generic_walker(parts):
    x = from_entries(COUNTABLE, {a: complex(re, im) for a, (re, im) in parts.items()})
    assert joined(cli._vector(x)) == joined(cli._walk(vector_to_json(x)))


def test_format_only_fills_the_template():
    # the "infinite" rule is applied by the helpers whose templates write floats
    assert cli._format('"a":%s', [math.inf]) == '"a":inf'


def columns(*records):
    """(index, size) records as the two columns ``fiber_records`` returns."""
    return array("q", [a for a, _ in records]), tuple(c for _, c in records)


@st.composite
def increasing_records(draw):
    """Record columns, both strictly increasing, as ``fiber_records`` returns them."""
    indices = sorted(draw(st.lists(st.integers(1, 10**12), unique=True, max_size=12)))
    sizes = draw(st.lists(st.integers(1, 10**12), unique=True,
                          min_size=len(indices), max_size=len(indices)))
    return array("q", indices), tuple(sorted(sizes))


@given(increasing_records())
@example(columns((5, 1)))
@example(columns((1, 1), (3, 2), (6, 3)))  # a partial last piece
@example(columns((10**12 - 2, 4), (10**12 - 1, 9), (10**12, 10**12)))
def test_record_vector_renders_like_the_witness_vector(records):
    indices, sizes = records
    w = DivergenceWitness(indices, sizes, 0.0)
    vector_text = cli._rows('{"i":%d,"re":%.17g,"im":0}', indices, w.weights)
    assert joined(vector_text) == joined(cli._walk(vector_to_json(w.vector)))
    assert w.vector_norm_sq == norm_sq(w.vector)


@given(increasing_records())
@example(columns())
@example(columns((5, 1)))
@example(columns((1, 1), (3, 2), (6, 3)))  # a partial last piece
@example(columns((1, 2**63), (2, 10**30), (3, 10**40)))  # sizes past int64 on both pieces
def test_record_helper_renders_like_the_generic_walker(records):
    indices, sizes = records
    pairs = list(zip(indices, sizes))
    assert joined(cli._rows("[%d,%d]", indices, sizes)) == joined(cli._walk(pairs))


@given(st.lists(st.integers(1, 10**12), max_size=40))
@example([])
@example([7])
@example([1, 2, 3])
def test_half_unit_vectors_render_like_the_vector_helper(indices):
    halves = [from_entries(COUNTABLE, {a: 0.5}) for a in indices]
    halves_text = cli._rows('[{"i":%d,"re":0.5,"im":0}]', indices)
    assert joined(halves_text) == joined(cli._walk([cli._vector(x) for x in halves]))


@pytest.mark.parametrize("piece", [1, 2, 3])
@given(st.lists(st.just(math.inf) | st.integers(0, 10**12), max_size=40))
@example([])
@example([math.inf])
@example([math.inf, math.inf, math.inf, 4])  # wholly infinite pieces
@example([1, math.inf, math.inf, 4, 5, math.inf, 7])  # infinities at piece edges, a one-entry last piece
def test_window_helper_renders_like_the_generic_walker(piece, sizes):
    # infinities at random targets, and M as the finite runs around them
    sizes = tuple(sizes)
    runs = finite_runs(frozenset(a for a, c in enumerate(sizes, start=1) if c == math.inf),
                       1, len(sizes) + 1)
    plain = {str(a): "infinite" if c == math.inf else c for a, c in enumerate(sizes, start=1)}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "PIECE", piece)
        cardinalities, members = cli._window(sizes, runs)
        assert "".join(cardinalities) == "".join(cli._walk(plain))
        assert "".join(cli._joined("[", members, "]")) == "".join(cli._walk(list(chain(*runs))))


@given(st.lists(st.integers()))
@example([])
@example([1])
@example([-1, 0, -(2**63), -(10**30)])  # negatives, one past a piece
@example([2**63, 2**64 + 1, 10**30])  # above int64
def test_int_array_helper_renders_like_the_generic_walker(xs):
    assert joined(cli._rows("%d", xs)) == joined(cli._walk(xs))
    assert joined(cli._walk({"k": cli._rows("%d", xs)})) == joined(cli._walk({"k": xs}))


@pytest.mark.parametrize("doc, args", [
    (SUCCESSOR, ["analyze", "--window", "10000"]),
    (TRIANGULAR, ["witness", "--kind", "divergence", "--K", "4096"]),
], ids=["analyze", "divergence"])
def test_large_outputs_are_rendered_by_shape(runner, tmp_path, monkeypatch, doc, args):
    calls = 0
    walk = cli._walk

    def counting(value):
        nonlocal calls
        calls += 1
        return walk(value)

    monkeypatch.setattr(cli, "_walk", counting)
    result = runner.invoke(main, [args[0], write(tmp_path, "m.json", doc), *args[1:]])
    assert result.exit_code == 0
    assert calls < 200


@pytest.mark.parametrize("doc", [ODD_COLLAPSE, IDENTITY5], ids=["odd_collapse", "table"])
def test_analyze_renders_m_from_its_runs(runner, tmp_path, doc):
    # M's runs are all the report keeps of M: both m_set keys print their members, the same bytes each run
    assert [f.name for f in dataclasses.fields(DomainReport)] == ["m_runs", "unbounded_witness"]
    args = ["analyze", write(tmp_path, "m.json", doc), "--window", "10000"]
    before, after = runner.invoke(main, args), runner.invoke(main, args)
    assert before.exit_code == after.exit_code == 0
    assert after.output == before.output
    out = json.loads(after.output)
    members = [*chain(*domain_report(index_domain.parse_map(doc), 10000).m_runs)]
    assert out["fiber_report"]["m_set"] == out["domain"]["m_set"]["members"] == members


class RecordingStdout(io.StringIO):
    def __init__(self):
        super().__init__()
        self.write_lengths = []

    def write(self, text):
        self.write_lengths.append(len(text))
        return super().write(text)


@pytest.mark.parametrize("doc, args, size, sha256", [
    (TRIANGULAR, ["witness", "--kind", "divergence", "--K", "65536"], 3955784,
     "f518233fb7d2d8f56505b6f790231e1640b5bd2b2941310a461265d0dbe25f2f"),
    (SUCCESSOR, ["analyze", "--window", "100000"], 2167171,
     "4df3b8d0e285ef72948cf3a1d10edbbe1e93919e20bace38d434951b04fb4988"),
    # the whole window: M's 2**20 - 1 members are written twice, never joined
    (ODD_COLLAPSE, ["analyze", "--window", "1048576"], 26027332,
     "80bdc1a6524250f2936c033b601c00b127acfc45556465de475aa2d57822c195"),
], ids=["divergence", "analyze", "analyze_whole_window"])
def test_large_documents_are_written_in_bounded_pieces(tmp_path, doc, args, size, sha256):
    # the bytes, hashed before the output was streamed, are unchanged
    out = RecordingStdout()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exited:
        main(args=[args[0], write(tmp_path, "m.json", doc), *args[1:]], prog_name="genshift")
    assert exited.value.code == 0
    text = out.getvalue()
    assert len(text) == size and hashlib.sha256(text.encode()).hexdigest() == sha256
    assert max(out.write_lengths) < 2**20


def test_redirected_streams_are_not_kept_alive(tmp_path):
    # click.echo's default stream cache would keep each captured stdout and stderr
    rule, table = write(tmp_path, "rule.json", SUCCESSOR), write(tmp_path, "table.json", IDENTITY5)
    streams = []
    for args, expected in [(["analyze", rule], 0), (["witness", table, "--kind", "divergence"], 5)]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                main(args=args, prog_name="genshift")
            except SystemExit as exc:
                code = exc.code
        assert code == expected
        streams += [weakref.ref(out), weakref.ref(err)]
        del out, err
    gc.collect()
    assert [ref() for ref in streams] == [None] * 4


@pytest.mark.parametrize("module", ["genshift", "genshift.cli"])
def test_import_leaves_numpy_out(module):
    src = os.path.dirname(os.path.dirname(cli.__file__))  # import this same genshift
    code = f"import sys, {module}; sys.exit('numpy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0


def test_oracle_check_past_the_exhaustive_cap_leaves_numpy_out():
    # the cap is index_domain's constant, checked before the oracle, and numpy with it, is imported
    src = os.path.dirname(os.path.dirname(cli.__file__))
    n = index_domain.EXHAUSTIVE_CAP + 1
    code = ("import sys\nfrom genshift.cli import main\n"
            f"try:\n    main(['oracle-check', '--n', '{n}', '--exhaustive'])\n"
            "except SystemExit as exc:\n    print(exc.code, 'numpy' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                            timeout=60)
    assert result.stdout == "2 False\n"
    assert result.stderr.endswith(f"Error: --exhaustive needs n <= {index_domain.EXHAUSTIVE_CAP}\n")


PUBLIC_NAMES = sorted([
    "COUNTABLE", "ClassificationReport", "ConstructionError", "DEFAULT_WINDOW", "DivergenceWitness",
    "DomainError", "DomainReport", "GenShiftError", "IndexMap", "IndexSet",
    "IntegrityError", "NotInL2", "ParseError", "SEARCH_CAP", "SearchExhaustedError", "SparseVector",
    "SymbolicRule", "UnsupportedError", "WitnessSequence", "apply", "apply_norm_sq",
    "classify", "divergence_witness", "domain_report", "fiber_records",
    "from_entries", "in_domain", "map_to_json", "norm_sq",
    "parse_map", "parse_vector", "solve", "symbolic_map", "vector_to_json", "witness_sequence",
])


def test_public_surface_is_pinned():
    # a name joins or leaves the package only by editing this list
    import genshift

    exported = sorted(name for name, value in vars(genshift).items()
                      if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert exported == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 35


def test_dense_oracle_names_resolve_from_the_package():
    # from its own module only: the package does not re-export the oracle
    import genshift
    from genshift import dense_oracle

    assert genshift.dense_oracle is dense_oracle
    assert callable(dense_oracle.check_map_agreement) and dense_oracle.EXHAUSTIVE_CAP == 7
    for name in ("check_map_agreement", "EXHAUSTIVE_CAP"):
        with pytest.raises(AttributeError):
            getattr(genshift, name)
    with pytest.raises(AttributeError):
        genshift.no_such_name


def test_alias_names_resolve_from_their_modules_only():
    # one package name per question: m.certificates.sup_card, classify(m).operator_norm,
    # IndexMap(table=...); the aliases stay in their modules, where the benchmark wraps them
    import genshift
    from genshift import gen_shift

    for module, name in ((index_domain, "fiber_report"), (gen_shift, "operator_norm"),
                         (index_domain, "make_finite_map")):
        assert callable(getattr(module, name))
        with pytest.raises(AttributeError):
            getattr(genshift, name)
    assert gen_shift.fiber_report is index_domain.fiber_report
