"""The deepest requests the command line serves, each checked for its answer and under its bound.

No other test makes these requests: verify with the closed form at its cap and
a base of 19 digits, the lattice oracle at (2,7), the largest lattice README
times, table at both edges of the output cap, and poly at rank 120. Each
bound leaves a correct engine room to spare, and an engine that does the work
the slow way goes over it: a walk over the 2^(n-1) compositions takes the
closed form past 30 s, and poly at a single Kronecker point past 85 MB.
"""

import csv
import io
import json
import os
import subprocess
import sys
from time import perf_counter

import pytest

from conftest import SRC, run_cli
from subchains import chains


def record(argv, capsys):
    """The one JSON record a request prints."""
    code, out, err = run_cli([*argv, "--format", "json"], capsys)
    assert (code, err) == (0, "")
    return json.loads(out)


def test_verify_at_a_wide_base_passes_every_rank_within_30_s(capsys):
    # One walk of the partition tree serves ranks 0-24 in well under a second;
    # a walk over the 2^(n-1) compositions took about 50 s for rank 24 alone.
    start = perf_counter()
    code, out, err = run_cli(["verify", "--p", str(10**18 + 9), "--max-n", "24"], capsys)
    assert perf_counter() - start < 30
    assert (code, err) == (0, "")
    *checks, summary = out.splitlines()
    assert [line.split(" ", 2)[:2] for line in checks] == [["PASS", "methods-agree"]] * 25
    assert summary == "25/25 checks passed"


def test_oracle_at_2_7_gives_counts_f_within_120_s(capsys):
    # 29,212 subspaces; its F counts the lattice's chains, sharing no code with the triangle.
    start = perf_counter()
    oracle = record(["oracle", "--p", "2", "--n", "7"], capsys)
    assert perf_counter() - start < 120
    assert oracle["total_subgroups"] == "29212"
    assert oracle["F"] == record(["count", "--p", "2", "--n", "7"], capsys)["F"]


@pytest.mark.parametrize("p,max_n", [(7, 267), (2, 447)])
def test_a_table_at_the_output_cap_parses_back_within_20_s(p, max_n, capsys, digit_limit):
    # The cap's last rank at p: the certificate checks every rank mod a prime,
    # and each row's D and C, derived from the digits of F, must parse back
    # (F's 30,000 digits, past the int-to-str digit limit that main restores).
    digit_limit(0)
    chains.check_count_bits(max_n, p)
    with pytest.raises(ValueError, match="exceeds the output cap"):
        chains.check_count_bits(max_n + 1, p)
    start = perf_counter()
    code, out, err = run_cli(["table", "--p", str(p), "--max-n", str(max_n), "--format", "csv"], capsys)
    assert perf_counter() - start < 20
    assert (code, err) == (0, "")
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [int(row["n"]) for row in rows] == list(range(max_n + 1))
    for row in rows:
        F = int(row["F"])
        assert (int(row["D"]), int(row["C"])) == (F - 1, 2 * F - 1), row["n"]


# A child's ru_maxrss starts from its parent's resident set at the fork, so
# poly is spawned from this small interpreter, which prints its child's peak
# in KiB (Linux) and then the child's stdout, not from the test process.
PEAK = """
import resource, subprocess, sys
done = subprocess.run(sys.argv[1:], check=True, capture_output=True, text=True, timeout=120)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
sys.stdout.write(done.stdout)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux only")
def test_poly_120_peaks_under_85_mb_and_gives_count_at_2(capsys):
    # poly evaluates its triangle at p = +-2^K, K half a coefficient digit; at
    # the single point 2^(2K) the triangle's integers, and the peak, double.
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    poly = [sys.executable, "-m", "subchains", "poly", "--n", "120", "--format", "json"]
    done = subprocess.run([sys.executable, "-c", PEAK, *poly], capture_output=True, text=True, env=env, timeout=180)
    assert (done.returncode, done.stderr) == (0, "")
    peak, out = done.stdout.split("\n", 1)
    assert int(peak) / 1024 < 85
    coefficients = json.loads(out)["coefficients"]
    F = record(["count", "--p", "2", "--n", "120"], capsys)["F"]
    assert sum(int(c) << k for k, c in enumerate(coefficients)) == int(F)
