"""Tests of the benchmark itself: its checker, its span accounting, its seeding.

Run from the repository root with ``python -m pytest perfbench``.
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from genshift import dense_oracle, gen_shift, index_domain  # noqa: E402


def _outcome(op, result):
    """Hand ``result`` to ``op``'s checker through the benchmark's op loop."""
    stats = run.Stats()
    run.run_op(workloads.Op(op.kind, lambda: result, op.check), stats, None,
               workloads.CheckFailed, run.Speed.of("kernel", {}))
    return stats


@pytest.fixture(scope="module")
def vector_inputs():
    return workloads.build_vectors(3, "")


@pytest.fixture
def cli_files(tmp_path):
    return workloads.build_cli_files(3, str(tmp_path), 12, 12)


# ---------------------------------------------------------------------------
# wrong results count as failures


def test_correct_vector_result_passes(vector_inputs):
    op = next(workloads.vector_rounds(vector_inputs, 0, None))[0]
    assert _outcome(op, op.run()).failed == 0


def test_wrong_image_counts_as_failure(vector_inputs):
    case = vector_inputs.tables[0][0]
    op = workloads._vector_op(case, 0)
    y, image_sq, identity_sq, inside = op.run()
    entries = dict(y.entries)
    entries.pop(next(iter(entries)))
    wrong = (type(y)(y.domain, entries), image_sq, identity_sq, inside)
    stats = _outcome(op, wrong)
    assert (stats.attempted, stats.failed) == (1, 1)
    assert "brute reindex" in stats.errors[0]


def test_wrong_norm_counts_as_failure(vector_inputs):
    op = workloads._vector_op(vector_inputs.tables[1][0], 0)
    y, image_sq, identity_sq, inside = op.run()
    assert _outcome(op, (y, image_sq, identity_sq * (1 + 1e-9), inside)).failed == 1


def test_wrong_solve_counts_as_failure(vector_inputs):
    op = workloads._solve_op(vector_inputs.perm, 0)
    x, back = op.run()
    assert _outcome(op, (x, x)).failed == 1


def test_wrong_oracle_agreement_counts_as_failure():
    pool = workloads.build_oracle(3, "")
    m = pool.rounds[0][0]
    op = next(workloads.oracle_rounds(pool, 0, None))[0]
    good = dense_oracle.check_map_agreement(m)
    assert _outcome(op, good).failed == 0
    off = good.oracle_norm + 1e-6
    bad = dense_oracle.MapAgreement(good.table, good.structural_norm, off,
                                    abs(off - good.structural_norm), True, True)
    assert _outcome(op, bad).failed == 1


def test_crashing_operation_counts_as_failure(vector_inputs):
    stats = run.Stats()
    op = workloads.Op("boom", lambda: 1 / 0, lambda out: None)
    run.run_op(op, stats, None, workloads.CheckFailed, run.Speed.of("kernel", {}))
    assert (stats.failed, len(stats.latencies)) == (1, 1)


@pytest.mark.parametrize("tamper", [
    lambda code, out: (1, out),                                   # non-zero exit
    lambda code, out: (code, out[:-2]),                           # invalid JSON
    lambda code, out: (code, out.replace('"pairwise_separation":0.70710678118654757',
                                         '"pairwise_separation":0.70710678118654746')),
])
def test_wrong_cli_output_counts_as_failure(cli_files, tamper):
    args = ["witness", cli_files.rules["successor"], "--kind", "compact", "--count", "5"]
    op = workloads._cli_op(cli_files, "compact", args, None)
    code, out = op.run()
    assert _outcome(op, (code, out)).failed == 0
    assert _outcome(op, tamper(code, out)).failed == 1


def test_wrong_divergence_bound_counts_as_failure(cli_files):
    args = ["witness", cli_files.rules["triangular"], "--kind", "divergence", "--K", "64"]
    op = workloads._cli_op(cli_files, "divergence", args, None)
    code, out = op.run()
    doc = json.loads(out)
    assert _outcome(op, (code, out)).failed == 0
    doc["image_norm_sq_lower_bound"] = 4.0  # below H_64 = 4.74...
    assert _outcome(op, (code, json.dumps(doc))).failed == 1


# ---------------------------------------------------------------------------
# span accounting


def test_self_times_of_nested_spans_add_up_to_the_root():
    spans = [["a", 0.0, 10.0, -1, 1], ["b", 1.0, 4.0, 0, 1], ["c", 5.0, 9.0, 0, 1],
             ["d", 6.0, 7.0, 2, 1], ["e", 12.0, 13.0, -1, 2]]
    selfs = tracing.self_times(spans)
    assert selfs == [3.0, 3.0, 3.0, 1.0, 1.0]
    assert sum(selfs[:4]) == spans[0][2] - spans[0][1]


def test_instrumented_library_spans_account_for_the_root():
    m = index_domain.make_finite_map([2, 2, 1, 4], 4)
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        with tracer.span("harness.op"):
            gen_shift.classify(m)
            dense_oracle.check_map_agreement(m)
    names = [s[0] for s in tracer.spans]
    assert "gen_shift.fiber_report" not in names  # charged to index_domain's name
    assert names.count("index_domain.fiber_report") == 3  # classify, and twice via the oracle
    assert "dense_oracle.structural_check" in names
    root = tracer.spans[0]
    assert sum(tracing.self_times(tracer.spans)) == pytest.approx(root[2] - root[1], abs=1e-12)
    assert all(s >= 0 for s in tracing.self_times(tracer.spans))


def test_instrument_restores_every_name():
    original = index_domain.fiber_report
    method = index_domain.IndexMap.fiber_card
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        assert gen_shift.fiber_report is index_domain.fiber_report is not original
        index_domain.make_finite_map([1, 1], 2).fiber_card(1)
    assert gen_shift.fiber_report is original and index_domain.fiber_report is original
    assert index_domain.IndexMap.fiber_card is method
    assert tracer.counts["index_domain.IndexMap.fiber_card"] == 1


def test_paused_tracer_records_nothing():
    tracer = tracing.Tracer()
    with tracing.instrument(tracer), tracer.paused():
        gen_shift.classify(index_domain.make_finite_map([1, 2], 2))
    assert tracer.spans == []


def test_parse_importtime():
    text = ("import time: self [us] | cumulative | imported package\n"
            "import time:       935 |     208456 |   genshift\n"
            "import time:       508 |      13670 |   click\n")
    assert tracing.parse_importtime(text) == {"genshift": 208456.0, "click": 13670.0}


# ---------------------------------------------------------------------------
# seeding


def _fingerprint(name, seed, workdir):
    wl = workloads.WORKLOADS[name]
    inputs = wl.build(seed, workdir)
    kinds = [[op.kind for op in ops] for _, ops in zip(range(3), wl.rounds(inputs, 0, None))]
    if name == "oracle_sweep":
        data = [[m.table for m in maps] for maps in inputs.rounds[:3]]
    elif name == "vector_ops":
        data = [(case.m.table, case.raw) for case, _ in inputs.tables] + [inputs.perm.raw]
    else:
        files = inputs.files if name == "cli_cold" else inputs
        data = {}
        for path in [*files.rules.values(), files.table, files.vector]:
            with open(path, encoding="utf-8") as fh:
                data[os.path.basename(path)] = fh.read()
    return kinds, data


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(name, tmp_path):
    dirs = [tmp_path / d for d in "abc"]
    for d in dirs:
        d.mkdir()
    first = _fingerprint(name, 5, str(dirs[0]))
    assert _fingerprint(name, 5, str(dirs[1])) == first
    assert _fingerprint(name, 6, str(dirs[2])) != first


def test_percentile_interpolates_like_statistics_quantiles():
    import statistics

    values = [float(v) for v in (7, 1, 5, 3, 9, 2, 8)]
    assert run.percentile(values, 25) == statistics.quantiles(values, n=4, method="inclusive")[0]
    assert run.percentile(values, 50) == statistics.median(values)


def test_speed_scale_uses_the_median_of_the_latest_samples():
    times = iter([2.0, 4.0, 3.0, 8.0])
    speed = run.Speed(lambda: next(times), nominal=1.0, every=0.0)
    assert [speed.scale() for _ in range(4)] == [1 / 2.0, 1 / 3.0, 1 / 3.0, 1 / 4.0]
    assert list(speed.samples) == [2.0, 4.0, 3.0, 8.0]


def test_speed_samples_at_most_every_interval():
    calls = []
    speed = run.Speed(lambda: calls.append(1) or 1.0, nominal=1.0, every=3600.0)
    speed.refresh()
    speed.scale()
    assert len(calls) == 1


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    start = time.monotonic()
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli_cold",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
    assert time.monotonic() - start < 60
