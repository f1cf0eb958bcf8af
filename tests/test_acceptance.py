"""End-to-end acceptance checks.

One test per shipping criterion; each prints a single `[acceptance]`
PASS/FAIL line (visible with `pytest -s`). All count comparisons are exact
integer equality; the only tolerances anywhere are wall-clock bounds.

This module is the one home of the small-grid identity checks (criteria 1-7),
so the unit modules do not repeat these grids: they hold examples, refusals,
properties at other inputs, and engine internals.
"""

import json
from fractions import Fraction
from time import perf_counter

from subchains import chains, qarith
from subchains.chains import (
    bounded_chains_closed_form,
    bounded_chains_poly,
    bounded_chains_recurrence,
    chain_counts,
    rooted_chains_poly,
)
from subchains.cli import main
from subchains.lattice import build_lattice, count_chains
from subchains.polynomial import IntPolynomial
from subchains.qarith import gaussian_binomial

# Frozen first terms of the rooted-chain-count polynomials, ascending.
FIRST_TERMS = {
    0: (1,),
    1: (2,),
    2: (4, 2),
    3: (8, 8, 8, 2),
    4: (16, 24, 36, 36, 24, 12, 2),
}

ORACLE_GRID = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1), (7, 2)]


def _report(criterion, ok, detail=""):
    line = f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_1_rooted_polynomials_match_frozen_first_terms():
    rooted_chains_poly(4)  # warm the interpreter, then measure from cold caches
    chains.clear_caches()
    start = perf_counter()
    got = {n: rooted_chains_poly(n) for n in range(5)}
    elapsed = perf_counter() - start
    exact = all(got[n] == IntPolynomial(coeffs) for n, coeffs in FIRST_TERMS.items())
    _report(
        "criterion-1 polynomial regression n=0..4",
        exact and elapsed < 0.001,
        f"exact={exact}, elapsed={elapsed * 1000:.3f} ms (budget 1 ms)",
    )


def test_2_recurrence_and_closed_form_agree():
    start = perf_counter()
    mismatches = [
        (n, p)
        for p in (2, 3, 5, 7)
        for n in range(13)
        if bounded_chains_recurrence(n, p) != bounded_chains_closed_form(n, p)
    ]
    elapsed = perf_counter() - start
    _report(
        "criterion-2 method equivalence n<=12, p in {2,3,5,7}",
        not mismatches and elapsed < 10.0,
        f"mismatches={mismatches}, elapsed={elapsed:.2f} s (budget 10 s)",
    )


def test_3_lattice_oracle_matches_formula_counts():
    mismatches = []
    slow = []
    for p, n in ORACLE_GRID:
        start = perf_counter()
        oracle = count_chains(build_lattice(p, n))
        elapsed = perf_counter() - start
        formula = chain_counts(n, p)
        if oracle.counts.rooted != formula.rooted:
            mismatches.append((p, n, oracle.counts.rooted, formula.rooted))
        if (p, n) in ((3, 3), (2, 4)) and elapsed >= 1.0:
            slow.append((p, n, elapsed))
    _report(
        "criterion-3 lattice DP equals formula on the grid",
        not mismatches and not slow,
        f"mismatches={mismatches}, slow={slow}",
    )


def test_4_lattice_census_matches_gaussian_binomials():
    mismatches = []
    for p, n in ORACLE_GRID:
        oracle = count_chains(build_lattice(p, n))
        expected = tuple(gaussian_binomial(n, k, p) for k in range(n + 1))
        if oracle.subgroups_by_dim != expected or oracle.total_subgroups != sum(oracle.subgroups_by_dim):
            mismatches.append((p, n, oracle.subgroups_by_dim, expected, oracle.total_subgroups))
    spot = gaussian_binomial(4, 2, 2)
    _report(
        "criterion-4 per-dimension subspace census",
        not mismatches and spot == 35,
        f"mismatches={mismatches}, [4 choose 2]_2={spot}",
    )


def test_5_tallied_counts_satisfy_chain_identities():
    violations = []
    for p, n in ORACLE_GRID:
        c = count_chains(build_lattice(p, n)).counts  # each field summed directly
        if c.rooted != c.unrooted + 1 or c.total != 2 * c.rooted - 1:
            violations.append((p, n, c))
    _report("criterion-5 rooted/unrooted/total identities", not violations, f"violations={violations}")


def q_factorial(r, p):
    """The paper's (p - 1)(p^2 - 1)...(p^r - 1); the empty product (r = 0) is 1."""
    out = 1
    for s in range(1, r + 1):
        out *= p**s - 1
    return out


def _rooted_count_reciprocal_form(n, p):
    """Doubled reciprocal sum over dimension chains, in exact rationals."""
    total = Fraction(0)
    for mask in range(1, 1 << (n - 1)):
        dims = [b + 1 for b in range(n - 1) if (mask >> b) & 1]
        den = q_factorial(n - dims[-1], p) * q_factorial(dims[0], p)
        for lower, upper in zip(dims, dims[1:]):
            den *= q_factorial(upper - lower, p)
        total += Fraction(1, den)
    return 2 + 2 * q_factorial(n, p) * total


def test_6_reciprocal_rational_form_matches():
    # rank 0 is outside this identity: the formula gives 2, the count is 1
    mismatches = []
    for p in (2, 3):
        for n in range(1, 7):
            value = _rooted_count_reciprocal_form(n, p)
            if value != chain_counts(n, p).rooted:
                mismatches.append((p, n, value))
    _report("criterion-6 reciprocal-form identity n=1..6, p in {2,3}", not mismatches, f"mismatches={mismatches}")


def test_7_identity_property_suite():
    failures = []
    for n in range(11):
        for k in range(n + 1):
            poly = qarith.gaussian_binomial_poly(n, k)
            if poly != qarith.gaussian_binomial_poly(n, n - k):
                failures.append(("poly-symmetry", n, k))
            if any(c < 0 for c in poly.coeffs):
                failures.append(("nonnegative-coefficients", n, k))
            for p in (2, 3, 5, 7, 11):
                if gaussian_binomial(n, k, p) != gaussian_binomial(n, n - k, p):
                    failures.append(("symmetry", n, k, p))
                # [n k]_p is q!(n) / (q!(k) q!(n - k)) exactly, q! a literal product independent of the library.
                if gaussian_binomial(n, k, p) * q_factorial(k, p) * q_factorial(n - k, p) != q_factorial(n, p):
                    failures.append(("divisibility", n, k, p))
                if poly.evaluate(p) != gaussian_binomial(n, k, p):
                    failures.append(("coherence", n, k, p))
    for n in range(11):
        for p in (2, 3, 5, 7, 11):
            if bounded_chains_poly(n).evaluate(p) != bounded_chains_recurrence(n, p):
                failures.append(("chain-coherence", n, p))
    for n in range(1, 11):
        poly = rooted_chains_poly(n)
        if poly.degree != n * (n - 1) // 2 or poly.coeffs[-1] != 2:
            failures.append(("degree-law", n))
        if poly.coeffs[0] != 2**n:
            failures.append(("constant-term", n))
    _report("criterion-7 identity property suite n<=10", not failures, f"failures={failures[:5]}")


def test_8_large_rank_recurrence_and_cli_round_trip(capsys, digit_limit):
    digit_limit(0)  # F at rank 200 has 6,073 digits, rendered here again by str()
    start = perf_counter()
    bounded = bounded_chains_recurrence(200, 2)
    elapsed = perf_counter() - start

    code = main(["count", "--p", "2", "--n", "200", "--format", "json"])
    out, _ = capsys.readouterr()
    record = json.loads(out)
    rendered_exactly = (
        code == 0
        and record["F"] == str(2 * bounded)
        and record["D"] == str(2 * bounded - 1)
        and record["C"] == str(4 * bounded - 1)
    )
    round_trips = json.dumps(record, separators=(",", ":")) == out.strip()
    _report(
        "criterion-8 rank-200 recurrence and CLI round trip",
        elapsed < 5.0 and rendered_exactly and round_trips,
        f"elapsed={elapsed:.2f} s (budget 5 s), digits={len(record['F'])}",
    )
