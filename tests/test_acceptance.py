"""End-to-end acceptance checks.

Each test covers one criterion at its stated tolerance and prints a single
PASS/FAIL line (visible with pytest -s). The expected values come from
independent routes: brute-force preimage scans, harmonic partial sums, dense
linear algebra, exact integer rank.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from genshift import (
    COUNTABLE,
    IndexMap,
    IndexSet,
    NotInL2,
    apply,
    apply_norm_sq,
    classify,
    divergence_witness,
    domain_report,
    fiber_records,
    from_entries,
    in_domain,
    norm_sq,
    solve,
    symbolic_map,
    witness_sequence,
)
from genshift.dense_oracle import (
    exhaustive_maps,
    random_maps,
    spectral_norm,
    structural_check,
    to_dense,
)
from genshift.gen_shift import operator_norm
from helpers import norm, parity_rule, unit_vector

BOUNDED_RULES = [("successor", None), ("clamp_pred", None), ("block", 2),
                 ("block", 5), ("doubling", None)]


def _run(num, name, body):
    try:
        body()
    except BaseException:
        print(f"ACCEPTANCE {num} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {num} ({name}): PASS")


def _random_vector(rng, domain, hi, size, integer=False):
    indices = rng.choice(np.arange(1, hi + 1), size=min(size, hi), replace=False)
    entries = {}
    for i in indices:
        if integer:
            v = complex(int(rng.integers(-5, 6)), int(rng.integers(-5, 6)))
        else:
            v = complex(rng.standard_normal(), rng.standard_normal())
        entries[int(i)] = v
    return from_entries(domain, entries)


def test_criterion_1_norm_formula():
    def body():
        start = time.monotonic()
        worst = 0.0
        count = 0
        for m in exhaustive_maps(5):
            err = abs(spectral_norm(to_dense(m)) - operator_norm(m))
            worst = max(worst, err)
            count += 1
        assert count == 3125
        rng12 = np.random.default_rng(42)
        for m in random_maps(12, 1000, rng12):
            err = abs(spectral_norm(to_dense(m)) - operator_norm(m))
            worst = max(worst, err)
        elapsed = time.monotonic() - start
        assert worst <= 1e-9, f"worst norm error {worst}"
        assert elapsed < 60.0, f"took {elapsed:.1f}s"

    _run(1, "norm formula vs dense oracle", body)


def test_criterion_2_image_norm_identity():
    def body():
        rng = np.random.default_rng(2)
        checked = 0
        for _ in range(9000):
            n = int(rng.integers(2, 13))
            m = next(random_maps(n, 1, rng))
            x = _random_vector(rng, m.domain, n, size=int(rng.integers(1, n + 1)))
            lhs = norm_sq(apply(m, x))
            rhs = apply_norm_sq(m, x)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, lhs, rhs), (m.table, x.entries)
            checked += 1
        for name, param in BOUNDED_RULES:
            m = symbolic_map(name, param)
            for _ in range(200):
                x = _random_vector(rng, COUNTABLE, 50, size=int(rng.integers(1, 9)))
                lhs = norm_sq(apply(m, x))
                rhs = apply_norm_sq(m, x)
                assert abs(lhs - rhs) <= 1e-12 * max(1.0, lhs, rhs), (name, x.entries)
                checked += 1
        assert checked == 10_000

    _run(2, "image norm identity", body)


def test_criterion_3_classification_equivalences():
    def body():
        disagreements = 0
        for n in range(2, 6):
            full = set(range(1, n + 1))
            for m in exhaustive_maps(n):
                phi_inj = len(set(m.table)) == n
                phi_surj = set(m.table) == full
                rep = classify(m)
                oracle = structural_check(to_dense(m)) == n
                ok = (
                    rep.sigma_surjective == phi_inj == oracle
                    and rep.sigma_injective == phi_surj == oracle
                    and rep.isometry == (phi_inj and phi_surj) == oracle
                )
                if not ok:
                    disagreements += 1
        assert disagreements == 0

    _run(3, "classification equivalences", body)


def test_criterion_4_solve_round_trip():
    def body():
        rng = np.random.default_rng(4)
        for i in range(900):
            n = int(rng.integers(2, 13))
            table = tuple(int(v) + 1 for v in rng.permutation(n))
            m = IndexMap(table=table)
            integer = i % 2 == 0
            y = _random_vector(rng, m.domain, n, size=int(rng.integers(1, n + 1)), integer=integer)
            x = solve(m, y)
            assert apply(m, x) == y
            if integer:
                assert norm(x) == norm(y)
            else:
                assert abs(norm(x) - norm(y)) <= 1e-12 * max(1.0, norm(y))
        for name in ("successor", "doubling"):
            m = symbolic_map(name)
            for i in range(50):
                y = _random_vector(rng, COUNTABLE, 60, size=6, integer=i % 2 == 0)
                x = solve(m, y)
                assert apply(m, x) == y
                assert abs(norm(x) - norm(y)) <= 1e-12 * max(1.0, norm(y))

    _run(4, "preimage construction", body)


def test_criterion_5_divergence_witness():
    def body():
        tri = symbolic_map("triangular")
        basel = math.pi ** 2 / 6
        previous = -math.inf
        for K in (2 ** 4, 2 ** 10, 2 ** 20):
            w = divergence_witness(tri, K)
            assert norm_sq(w.vector) < basel + 1e-9
            # exact integer certification: record sizes grow at least linearly
            assert all(size >= k for k, size in enumerate(w.fiber_sizes, start=1))
            harmonic = math.fsum(1.0 / k for k in range(1, K + 1))
            assert w.image_norm_sq_lower_bound >= harmonic
            assert w.image_norm_sq_lower_bound > previous
            previous = w.image_norm_sq_lower_bound

    _run(5, "divergence witness", body)


def test_criterion_6_domain_theorem():
    def body():
        dom = IndexSet(6)
        supports = [
            frozenset(s)
            for r in range(7)
            for s in itertools.combinations(range(1, 7), r)
        ]
        vectors = [(s, from_entries(dom, {i: 1.0 for i in s})) for s in supports]
        for m in exhaustive_maps(6):
            members = set(itertools.chain(*domain_report(m).m_runs))
            for support, z in vectors:
                assert in_domain(m, z) == support.issubset(members)
        tri = symbolic_map("triangular")
        assert domain_report(tri).unbounded_witness is not None
        assert tri.certificates.closed is False
        _, sizes = fiber_records(tri, 10)
        assert all(b > a for a, b in zip(sizes, sizes[1:]))  # strictly increasing
        block3 = symbolic_map("block", 3)
        rep = domain_report(block3)
        assert rep.unbounded_witness is None
        assert block3.certificates.closed is True
        assert block3.certificates.m_sup == 3

    _run(6, "natural domain characterization", body)


def test_criterion_6_domain_theorem_infinite_fibers():
    # On {1..n} every fiber is finite, so M is the whole index set there; this
    # companion checks the characterization where M is a proper subset.
    def body():
        window = 12
        cases = [
            (symbolic_map("odd_collapse"), tuple(range(2, window + 1))),
            (IndexMap(rule=parity_rule()), tuple(range(3, window + 1))),
        ]
        for m, expected_members in cases:
            members = tuple(itertools.chain(*domain_report(m, window).m_runs))
            assert members == expected_members  # closed-form finite-fiber set
            for r in range(4):
                for support in itertools.combinations(range(1, window + 1), r):
                    z = from_entries(COUNTABLE, {i: 1.0 for i in support})
                    assert in_domain(m, z) == frozenset(support).issubset(members)

    _run(6, "natural domain characterization, infinite fibers", body)


def test_criterion_7_compactness():
    def body():
        rng = np.random.default_rng(7)
        for n in range(2, 8):
            for m in random_maps(n, 40, rng):
                assert classify(m).compact is True
        for name, param in BOUNDED_RULES + [("triangular", None), ("odd_collapse", None)]:
            assert classify(symbolic_map(name, param)).compact is False
        w = witness_sequence(symbolic_map("successor"), 100)
        assert len(w.indices) == 100
        # exact rational pairwise distances from fiber sizes
        min_sq = min(
            Fraction(ci + cj, 4)
            for i, ci in enumerate(w.fiber_sizes)
            for cj in w.fiber_sizes[i + 1:]
        )
        assert min_sq == Fraction(1, 2)
        assert w.min_distance_sq == min_sq
        assert w.pairwise_separation == math.sqrt(2) / 2

    _run(7, "compactness", body)


def test_criterion_8_unit_vector_images():
    def body():
        def check(m):
            n = m.domain.size
            counts = {a: m.table.count(a) for a in range(1, n + 1)}  # brute preimages
            for theta in range(1, n + 1):
                y = apply(m, unit_vector(m.domain, theta))
                assert norm(y) == math.sqrt(counts[theta])

        for n in (2, 3, 4):
            for m in exhaustive_maps(n):
                check(m)
        rng = np.random.default_rng(8)
        for n in range(5, 9):
            for m in random_maps(n, 200, rng):
                check(m)
        oc = symbolic_map("odd_collapse")
        with pytest.raises(NotInL2) as refused:
            apply(oc, unit_vector(COUNTABLE, 1))
        assert refused.value.index == 1

    _run(8, "unit-vector image norms", body)
