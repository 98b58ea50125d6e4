import json
import math

import pytest
from click.testing import CliRunner

from genshift import apply, index_domain, make_finite_map, parse_vector
from genshift.cli import main
from helpers import clamp_liar_rule


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
    assert "index 1" in result.output


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
    result = runner.invoke(main, ["witness", write(tmp_path, "m.json", CONST4),
                                  "--kind", "compact"])
    assert result.exit_code == 5


def test_witness_divergence_on_bounded_map_exits_5(runner, tmp_path):
    result = runner.invoke(main, ["witness", write(tmp_path, "m.json", SUCCESSOR),
                                  "--kind", "divergence", "--K", "4"])
    assert result.exit_code == 5


def test_oracle_check_exhaustive_n3(runner):
    result = runner.invoke(main, ["oracle-check", "--n", "3", "--exhaustive"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["maps_checked"] == 27
    assert doc["disagreements"] == 0
    assert doc["seed"] == 74


def test_oracle_check_random_with_seed(runner):
    result = runner.invoke(main, ["oracle-check", "--n", "6", "--random", "25", "--seed", "42"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["maps_checked"] == 25 and doc["seed"] == 42


def test_oracle_check_seed_env_fallback(runner, monkeypatch):
    monkeypatch.setenv("GENSHIFT_SEED", "99")
    result = runner.invoke(main, ["oracle-check", "--n", "4", "--random", "5"])
    assert result.exit_code == 0
    assert json.loads(result.output)["seed"] == 99


@pytest.mark.parametrize("mode", [["--exhaustive"], ["--random", "5"]])
def test_oracle_check_negative_seed_exits_2(runner, mode):
    result = runner.invoke(main, ["oracle-check", "--n", "4", *mode, "--seed", "-1"])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)


@pytest.mark.parametrize("mode", [["--exhaustive"], ["--random", "5"]])
@pytest.mark.parametrize("env", ["-5", "seven"])
def test_oracle_check_bad_seed_env_exits_2(runner, monkeypatch, mode, env):
    monkeypatch.setenv("GENSHIFT_SEED", env)
    result = runner.invoke(main, ["oracle-check", "--n", "4", *mode])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "GENSHIFT_SEED" in result.output


def test_oracle_check_requires_exactly_one_mode(runner):
    assert runner.invoke(main, ["oracle-check", "--n", "3"]).exit_code == 2
    assert runner.invoke(
        main, ["oracle-check", "--n", "3", "--exhaustive", "--random", "5"]
    ).exit_code == 2


def test_analyze_output_is_deterministic(runner, tmp_path):
    path = write(tmp_path, "m.json", TRIANGULAR)
    first = runner.invoke(main, ["analyze", path])
    second = runner.invoke(main, ["analyze", path])
    assert first.output == second.output


def test_floats_are_rendered_with_17_digits(runner, tmp_path):
    m = {"kind": "finite", "images": [1, 1, 2]}  # norm sqrt(2)
    result = runner.invoke(main, ["analyze", write(tmp_path, "m.json", m)])
    assert "1.4142135623730951" in result.output
