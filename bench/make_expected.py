"""Write expected.json, the values the correctness gate compares against.

Run from the repository root at the commit whose answers are trusted:

    PYTHONPATH=src python3 bench/make_expected.py

Every stored value comes from the package and is cross-checked before it is
written against engines that share no code path with it:

- an independent q-Pascal implementation of the bounded-chain recurrence,
  written here, for every (p, n) the workloads can ask for;
- the rooted-chain polynomial evaluated at p, for n <= 40;
- the closed form against the recurrence, up to the largest verify rank;
- the brute-force lattice oracle on the whole verify grid.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import workloads
from gate import EXPECTED_PATH, digest
from subchains import build_lattice, chains, count_chains, qarith

POLY_EVAL_MAX_N = 40


def independent_rooted(p: int, max_n: int) -> list[int]:
    """Rooted counts F(p, 0..max_n) from q-Pascal rows, without qarith or chains."""
    powers = [p**k for k in range(max_n + 1)]
    row = [1]
    bounded = [1]
    for m in range(1, max_n + 1):
        row = [1] + [row[k - 1] + powers[k] * row[k] for k in range(1, m)] + [1]
        bounded.append(sum(row[k] * bounded[k] for k in range(m)))
    return [1] + [2 * b for b in bounded[1:]]


def check(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"cross-check failed: {what}")


def count_ranks() -> dict[int, int]:
    top: dict[int, int] = {}
    for _, p, n in workloads.COUNT_SLOTS:
        top[p] = max(top.get(p, 0), n + workloads.COUNT_JITTER)
    return top


def main() -> int:
    sys.set_int_max_str_digits(0)
    verify_max_n = max(slot[0] for slot in workloads.VERIFY_SLOTS)
    ranks = count_ranks()
    for p in workloads.VERIFY_BASES:
        ranks[p] = max(ranks.get(p, 0), verify_max_n)

    polys = {n: chains.rooted_chains_poly(n) for n in range(POLY_EVAL_MAX_N + 1)}
    rooted: dict[int, list[int]] = {}
    for p, max_n in sorted(ranks.items()):
        reference = independent_rooted(p, max_n)
        for n, want in enumerate(reference):
            got = chains.chain_counts(n, p)
            check(got.rooted == want, f"recurrence vs q-Pascal at p={p} n={n}")
            check((got.unrooted, got.total) == (want - 1, 2 * want - 1), f"D/C identities at p={p} n={n}")
            if n <= POLY_EVAL_MAX_N:
                check(polys[n].evaluate(p) == want, f"polynomial at p={p} n={n}")
        rooted[p] = reference
        print(f"p={p}: n=0..{max_n} cross-checked", file=sys.stderr)

    for p in workloads.VERIFY_BASES:
        for n in range(verify_max_n + 1):
            closed = chains.bounded_chains_closed_form(n, p)
            check(closed == chains.bounded_chains_recurrence(n, p), f"closed form at p={p} n={n}")
    print(f"closed form agrees up to n={verify_max_n}", file=sys.stderr)

    census: dict[int, list[list[int]]] = {}
    for p, n_hi in workloads.ORACLE_GRID:
        census[p] = [[1]]
        for n in range(1, n_hi + 1):
            oracle = count_chains(build_lattice(p, n))
            binomials = [qarith.gaussian_binomial(n, k, p) for k in range(n + 1)]
            check(oracle.counts.rooted == rooted[p][n], f"oracle rooted count at p={p} n={n}")
            check(list(oracle.subgroups_by_dim) == binomials, f"oracle census at p={p} n={n}")
            check(oracle.counts.unrooted == rooted[p][n] - 1, f"oracle unrooted count at p={p} n={n}")
            check(oracle.counts.total == 2 * rooted[p][n] - 1, f"oracle total count at p={p} n={n}")
            census[p].append(binomials)
    print("lattice oracle agrees on the verify grid", file=sys.stderr)

    count_bases = {p for _, p, _ in workloads.COUNT_SLOTS} | {2}  # 2: the setup probe's base
    expected = {
        "made_at": subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True).stdout.strip(),
        "counts": {
            str(p): [digest(str(f), str(f - 1), str(2 * f - 1)) for f in rooted[p]] for p in sorted(count_bases)
        },
        "poly": {
            str(n): digest(*chains.rooted_chains_poly(n).coefficient_strings())
            for n in sorted(set(workloads.POLY_SLOTS))
        },
        "rooted": {str(p): rooted[p][: verify_max_n + 1] for p in workloads.VERIFY_BASES},
        "census": {str(p): census[p] for p in sorted(census)},
    }
    with open(EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {Path(EXPECTED_PATH).name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
