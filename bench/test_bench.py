"""Tests of the benchmark itself: seeded requests, the correctness gate, the traced launcher."""

from __future__ import annotations

import json
import re
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

import gate
import launcher
import run
import workloads
from subchains import rooted_chains_poly
from subchains.cli import main as cli_main

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
EXPECTED = gate.load_expected()


def cli_stdout(argv, capsys) -> str:
    assert cli_main(list(argv)) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_seed_always_gives_the_same_requests(name):
    first = list(islice(workloads.decks(name, 7), 3))
    again = list(islice(workloads.decks(name, 7), 3))
    assert first == again
    assert first != list(islice(workloads.decks(name, 8), 3))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_request_has_expected_values(name):
    for deck in islice(workloads.decks(name, 3), 5):
        for argv in deck:
            flags = gate._flags(argv)
            if argv[0] in ("count", "table"):
                rank = int(flags.get("n") or flags["max-n"])
                assert rank < len(EXPECTED["counts"][flags["p"]])
            elif argv[0] == "poly":
                assert flags["n"] in EXPECTED["poly"]
            elif argv[0] == "verify":
                assert gate.expected_verify_lines(argv, EXPECTED)
            else:
                assert int(flags["n"]) < len(EXPECTED["census"][flags["p"]])


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--p", "3", "--n", "9", "--format", "json"),
        ("count", "--p", "1000003", "--n", "4"),
        ("table", "--p", "7", "--max-n", "6", "--format", "csv"),
        ("poly", "--n", "6", "--format", "text"),
        ("poly", "--n", "6", "--format", "json"),
        ("verify", "--p", "3,5", "--max-n", "4", "--oracle", "2:3,5:2"),
        ("oracle", "--p", "3", "--n", "3", "--format", "json"),
    ],
)
def test_gate_accepts_correct_and_rejects_corrupted_output(argv, capsys):
    expected = dict(EXPECTED, poly={"6": gate.digest(*rooted_chains_poly(6).coefficient_strings())})
    stdout = cli_stdout(argv, capsys)
    assert gate.check(argv, stdout, expected) is None
    # One wrong digit in the longest number must fail the request.
    longest = max(re.finditer(r"\d+", stdout), key=lambda m: len(m.group()))
    i = longest.end() - 1
    corrupted = stdout[:i] + str((int(stdout[i]) + 1) % 10) + stdout[i + 1:]
    assert gate.check(argv, corrupted, expected) is not None
    lines = stdout.splitlines(keepends=True)
    if len(lines) > 1:
        assert gate.check(argv, "".join(lines[:-1]), expected) is not None


def test_gate_ignores_timing_and_unknown_fields():
    argv = ("count", "--p", "2", "--n", "3", "--format", "json")
    record = {"p": 2, "n": 3, "F": "72", "D": "71", "C": "143", "method": "recurrence", "elapsed_ms": 0.1}
    assert gate.check(argv, json.dumps(record) + "\n", EXPECTED) is None
    record.update(elapsed_ms=99.0, compute_ms=5.0)
    assert gate.check(argv, json.dumps(record) + "\n", EXPECTED) is None
    record["C"] = "142"
    assert gate.check(argv, json.dumps(record) + "\n", EXPECTED) is not None


def test_mask_timing_blanks_only_timing_values():
    a = "p=2 n=3 F=72 D=71 C=143 method=recurrence elapsed_ms=0.035\n"
    b = "p=2 n=3 F=72 D=71 C=143 method=recurrence elapsed_ms=1.5\n"
    assert gate.mask_timing(a) == gate.mask_timing(b)
    assert gate.mask_timing(a) != gate.mask_timing(a.replace("F=72", "F=73"))
    csv_a = "p,n,F,D,C,method,elapsed_ms\n2,0,1,0,1,recurrence,0.002\n"
    assert gate.mask_timing(csv_a) == gate.mask_timing(csv_a.replace("0.002", "0.9"))


@pytest.mark.parametrize("n,q", [(19, 50.0), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0), (100, 90.0), (1000, 99.0)])
def test_tail_percentile_leaves_ten_samples_beyond(n, q):
    assert run.tail_percentile(n) == q


def test_spawner_reports_output_rss_and_timeouts():
    spawner = run.Spawner()
    try:
        probe = spawner.run(run.untraced(workloads.PROBE), timeout=30)
        assert (probe.code, probe.timed_out) == (0, False)
        assert gate.check(workloads.PROBE, probe.stdout, EXPECTED) is None
        assert probe.rss_mb > 1 and probe.wall_s > 0
        reference = spawner.run(list(run.REFERENCE), timeout=30)
        assert (reference.code, reference.stdout, reference.stderr) == (0, "", "")
        slow = spawner.run([sys.executable, "-c", "import time; time.sleep(30)"], timeout=0.2)
        assert slow.timed_out and slow.code != 0 and slow.wall_s < 10
    finally:
        spawner.close()
    assert spawner.proc.returncode == 0
    assert not spawner.tmp.exists()


def _launch(code: str, *argv: str) -> subprocess.CompletedProcess:
    env = {"PYTHONPATH": f"{SRC}:{BENCH}", "PATH": "/usr/bin:/bin"}
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env, timeout=60)


def _report(stderr: str) -> dict:
    (line,) = [line for line in stderr.splitlines() if line.startswith(launcher.MARK)]
    return json.loads(line[len(launcher.MARK):])


def test_traced_stdout_matches_untraced(capsys):
    argv = ("table", "--p", "3", "--max-n", "8", "--format", "csv")
    plain = cli_stdout(argv, capsys)
    done = _launch("import sys, launcher; sys.exit(launcher.main(sys.argv[1:]))", *argv)
    assert done.returncode == 0, done.stderr
    assert gate.mask_timing(done.stdout) == gate.mask_timing(plain)
    report = _report(done.stderr)
    assert report["absent"] == []
    assert report["counters"]["chains.recurrence.mults"] == 8 * 9 // 2
    assert report["spans"]["qarith.gaussian_binomial"]["calls"] == report["caches"]["qarith.gaussian_binomial"]["misses"]
    assert "chains.recurrence" in report["peaks_mb"]


def test_launcher_reports_missing_layers_as_absent():
    code = (
        "import sys, launcher\n"
        "from subchains import chains, lattice, qarith\n"
        "qarith.gaussian_binomial = chains.gaussian_binomial = qarith.gaussian_binomial.__wrapped__\n"
        "del lattice.count_chains\n"
        "sys.exit(launcher.main(sys.argv[1:]))\n"
    )
    argv = ("count", "--p", "2", "--n", "12", "--format", "json")
    done = _launch(code, *argv)
    assert done.returncode == 0, done.stderr
    assert gate.check(argv, done.stdout, EXPECTED) is None
    report = _report(done.stderr)
    assert set(report["absent"]) == {
        "lattice.count_chains",
        "qarith.gaussian_binomial.hit_ratio",
        "qarith.gaussian_binomial.misses",
    }
    assert report["spans"]["qarith.gaussian_binomial"]["calls"] > 0
