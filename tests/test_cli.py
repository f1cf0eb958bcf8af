import csv
import io
import itertools
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from conftest import SRC, mask, run_cli
from subchains import chains, cli, lattice, qarith
from subchains.chains import chain_counts
from subchains.cli import RECORD_KEYS, _rooted_digits, build_parser, main
from subchains.lattice import DEFAULT_NODE_BUDGET


# Built as text: str(10**5000) would meet the interpreter's int-to-str digit limit.
WIDE = "1" + "0" * 5000
WIDE_SHOWN = "100000000000...0000 (5001 digits)"


def test_count_text(capsys):
    code, out, err = run_cli(["count", "--p", "2", "--n", "3"], capsys)
    assert code == 0
    assert "F=72 D=71 C=143" in out
    assert "method=recurrence" in out
    assert err == ""


def test_count_rank_zero(capsys):
    code, out, _ = run_cli(["count", "--p", "2", "--n", "0"], capsys)
    assert code == 0
    assert "F=1 D=0 C=1" in out


def test_count_json_round_trips(capsys):
    code, out, _ = run_cli(["count", "--p", "2", "--n", "3", "--format", "json"], capsys)
    assert code == 0
    record = json.loads(out)
    assert tuple(record) == RECORD_KEYS
    assert (record["F"], record["D"], record["C"]) == ("72", "71", "143")
    assert record["elapsed_ms"] >= 0
    assert json.dumps(record, separators=(",", ":")) == out.strip()


def test_count_csv(capsys):
    code, out, _ = run_cli(["count", "--p", "2", "--n", "3", "--format", "csv"], capsys)
    assert code == 0
    header, row = list(csv.reader(io.StringIO(out)))
    assert header == list(RECORD_KEYS)
    assert row[:5] == ["2", "3", "72", "71", "143"]


@pytest.mark.parametrize(
    "argv,needle",
    [
        (["count", "--p", "1", "--n", "3"], ">= 2"),
        (["count", "--p", "2", "--n", "-1"], ">= 0"),
        (["verify", "--p", "3", "--max-n", "25"], "cap"),
        (["table", "--p", "2", "--max-n", "-2"], "rank n must be >= 0, got -2"),
        (["oracle", "--p", "4", "--n", "2"], "prime"),
        (["verify", "--p", "2", "--max-n", "4", "--oracle", "nonsense"], "p:max_n"),
        (["verify", "--p", "2,1", "--max-n", "3"], ">= 2"),
        (["verify", "--max-n", "-1"], "rank n must be >= 0, got -1"),
        (["oracle", "--p", "2", "--n", "1600"], "2^1600"),
        (["oracle", "--p", "100000000000031", "--n", "1"], "budget"),
        (["verify", "--oracle", "2:0"], "entry 2:0"),
        (["verify", "--p", "2", "--max-n", "3", "--oracle", "3:2,2:0"], "entry 2:0"),
        (["verify", "--oracle", ""], "--oracle expects"),
        (["verify", "--p", "", "--max-n", "1"], "--p expects"),
        (["oracle", "--p", "2", "--n", "2", "--budget", "-5"], "budget must be >= 0, got -5"),
        (["verify", "--oracle", "2:2", "--budget", "-1"], "budget must be >= 0, got -1"),
        (["count", "--p", "2", "--n", "448"], "n=448 at p=2 exceeds the output cap"),
        (["table", "--p", "2", "--max-n", "100000"], "n=100000 at p=2 exceeds the output cap"),
        (["poly", "--n", "167"], "n=167 exceeds the poly output cap"),
        (["count", "--p", "1", "--n", "0"], ">= 2"),
        (["oracle", "--p", "2", "--n", "2", "--dump", ""], "cannot write the lattice dump"),
        (["verify", "--p", "2", "--max-n", "3", "--budget", "-1"], "the node budget must be >= 0, got -1"),
        # verify's families refuse in table order: the methods check's flags before the grid's.
        (["verify", "--p", "2,1", "--max-n", "3", "--oracle", "2:0"], ">= 2"),
        (["verify", "--p", "2", "--max-n", "30", "--oracle", "2:0"], "cap"),
        # count's output cap, at a base too wide for it at rank 24 (p = 10^1000 + 1).
        (["verify", "--p", str(10**1000 + 1), "--max-n", "24"], "n=24 at p=1000"),
        # the same cap on the bits summed over the bases: one base of 10^109 + 1 is admitted, two are not.
        (["verify", "--p", f"{10**109 + 1},{10**109 + 1}", "--max-n", "24"], "cap: over 100000 bits in all"),
        # A 5,001-digit value (10^5000) is shown by its first 12 and last 4 digits and its length.
        (["count", "--p", "2", "--n", WIDE], f"n={WIDE_SHOWN} at p=2 exceeds the output cap"),
        (["count", "--p", WIDE, "--n", "24"], f"n=24 at p={WIDE_SHOWN} exceeds the output cap"),
        (["count", "--p", "2", "--n", f"-{WIDE}"], f"rank n must be >= 0, got -{WIDE_SHOWN}"),
        (["poly", "--n", WIDE], f"n={WIDE_SHOWN} exceeds the poly output cap"),
        (["table", "--p", "2", "--max-n", WIDE], f"n={WIDE_SHOWN} at p=2 exceeds the output cap"),
        (["verify", "--max-n", WIDE], f"n={WIDE_SHOWN} exceeds the closed-form enumeration cap"),
        (["verify", "--p", f"{WIDE},{WIDE}", "--max-n", "24"], f"n=24 at p={WIDE_SHOWN} and 1 more exceeds"),
        (["oracle", "--p", WIDE, "--n", "2"], f"p={WIDE_SHOWN} is over the node budget"),
        (["verify", "--oracle", WIDE], "p:max_n, got '10000000000...000' (5003 characters)"),
        (["verify", "--oracle", f"2:-{WIDE}"], f"entry 2:-{WIDE_SHOWN} checks no rank"),
        # What the parser cannot read is refused the same way, a word over 40 characters shown by brief.
        (["count", "--p", "x", "--n", "2"], "argument --p: invalid int value: 'x'"),
        (["count", "--p", "x" * 5000, "--n", "2"], "invalid int value: 'xxxxxxxxxxx...xxx' (5002 characters)"),
        (["count", "--p", "2", "--n", "2", "--format", "x" * 5000], "invalid choice: 'xxxxxxxxxxx...xxx' (5002"),
        (["count", "--p", "2", "--n", "3", "--frobnicate"], "unrecognized arguments: --frobnicate"),
        (["count", "--p", "2", "--n", "2", "x" * 5000], "unrecognized arguments: xxxxxxxxxxxx...xxxx (5000 characters)"),
        (["count", "--p", "2"], "the following arguments are required: --n"),
        (["frobnicate"], "invalid choice: 'frobnicate'"),
        ([], "the following arguments are required: command"),
        # A message of many short words is cut as a whole: 2,500 one-letter words, then 2,500 stray arguments.
        (["count", "--p", " ".join(["x"] * 2500), "--n", "2"], "invalid int value: 'x x x x x x x x x x"),
        (["count", "--p", "2", "--n", "2", *["x"] * 2500], "unrecognized arguments: x x x x x x x x x x"),
        # The oracle grid is budgeted as a whole: 40 copies of 2:6, each admitted, sum to 113,000 nodes.
        (["verify", "--oracle", ",".join(["2:6"] * 40)], "113000 nodes in all, over the budget of 100000"),
    ],
)
def test_domain_errors_exit_2(argv, needle, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert needle in err
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert len(err.encode()) <= 200


@pytest.mark.parametrize("p,rank", [(2, 31), (7, 2), (10**18 + 9, 12)])
def test_count_that_fails_its_certificate_exits_1_with_one_line(p, rank, monkeypatch, off_at_rank, capsys, pulls):
    off_at_rank(rank, 1)
    code, out, err = run_cli(["count", "--p", str(p), "--n", str(rank + 3)], capsys)
    assert (code, out) == (1, "")
    (line,) = err.splitlines()
    assert line.startswith(f"error: certificate failed at rank n={rank}, base p={qarith.brief(p)}: ")
    assert len(pulls) == rank + 1
    # The failed stream is not kept: with the triangle mended, the next count
    # starts again from rank 0, pulling every rank, and is right.
    monkeypatch.undo()
    pulls.clear()
    code, out, err = run_cli(["count", "--p", str(p), "--n", str(rank + 3)], capsys)
    assert (code, err) == (0, "")
    assert len(pulls) == rank + 4
    assert f" F={chain_counts(rank + 3, p).rooted} " in out


def test_table_prints_only_the_ranks_below_a_failed_certificate(off_at_rank, capsys):
    off_at_rank(31, 1)
    code, out, err = run_cli(["table", "--p", "2", "--max-n", "40"], capsys)
    assert code == 1
    assert len(err.splitlines()) == 1 and err.startswith("error: certificate failed at rank n=31, base p=2: ")
    assert [re.search(r" n=(\d+) ", line).group(1) for line in out.splitlines()] == [str(n) for n in range(31)]


def test_poly_text(capsys):
    assert run_cli(["poly", "--n", "2"], capsys)[1].strip() == "2p + 4"
    assert run_cli(["poly", "--n", "0"], capsys)[1].strip() == "1"


def test_poly_json(capsys):
    code, out, _ = run_cli(["poly", "--n", "4", "--format", "json"], capsys)
    assert code == 0
    record = json.loads(out)
    assert record["coefficients"] == ["16", "24", "36", "36", "24", "12", "2"]
    assert record["n"] == 4


def test_poly_csv(capsys):
    code, out, _ = run_cli(["poly", "--n", "3", "--format", "csv"], capsys)
    assert code == 0
    assert out.strip() == "8,8,8,2"


def test_table_values(capsys):
    code, out, _ = run_cli(["table", "--p", "2", "--max-n", "4", "--format", "csv"], capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == list(RECORD_KEYS)
    assert [row[2] for row in rows[1:]] == ["1", "2", "8", "72", "1392"]


def test_table_single_row(capsys):
    code, out, _ = run_cli(["table", "--p", "2", "--max-n", "0"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1 and "F=1" in lines[0]


def test_table_rank_one_is_base_independent(capsys):
    code, out, _ = run_cli(["table", "--p", "5", "--max-n", "1", "--format", "json"], capsys)
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert [r["F"] for r in records] == ["1", "2"]


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_table_prints_each_record_before_computing_the_next(fmt, monkeypatch, capsys):
    true_counts = chains.chain_counts
    ranks = []

    def first_rank_only(n, p):
        ranks.append(n)
        if len(ranks) > 1:
            raise RuntimeError(f"rank {n} was asked for")
        return true_counts(n, p)

    monkeypatch.setattr(chains, "chain_counts", first_rank_only)
    with pytest.raises(RuntimeError, match="rank 1 was asked for"):
        main(["table", "--p", "2", "--max-n", "3", "--format", fmt])
    lines = capsys.readouterr().out.splitlines()
    if fmt == "text":
        assert len(lines) == 1 and lines[0].startswith("p=2 n=0 F=1 D=0 C=1 method=recurrence ")
    elif fmt == "json":
        assert len(lines) == 1 and json.loads(lines[0])["F"] == "1"
    else:
        rows = list(csv.reader(lines))
        assert rows[0] == list(RECORD_KEYS) and rows[1][:6] == ["2", "0", "1", "0", "1", "recurrence"]
        assert len(rows) == 2


def test_verify_methods_and_oracle(capsys):
    code, out, _ = run_cli(["verify", "--p", "2,3,5,7", "--max-n", "10", "--oracle", "2:4,3:3"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    checks = 4 * 11 + 7 * 3
    assert lines[-1] == f"{checks}/{checks} checks passed"


def test_verify_oracle_only(capsys):
    code, out, _ = run_cli(["verify", "--oracle", "2:2"], capsys)
    assert code == 0
    assert "methods-agree" not in out
    assert "oracle-rooted" in out


FIXTURES = Path(__file__).resolve().parent / "fixtures"


@pytest.mark.parametrize(
    "argv,fixture",
    [
        (["verify"], "verify_default.out"),
        (["verify", "--p", "3,7", "--max-n", "14", "--oracle", "3:4"], "verify_p3_7_n14_oracle3_4.out"),
        (["verify", "--p", "2,13", "--max-n", "24"], "verify_p2_13_n24.out"),
    ],
)
def test_verify_output_is_pinned(argv, fixture, capsys):
    code, out, err = run_cli(argv, capsys)
    assert (code, err) == (0, "")
    assert out == (FIXTURES / fixture).read_text(encoding="utf-8")


def test_verify_detects_a_corrupted_build(monkeypatch, capsys):
    true_closed_form = chains.closed_form_counts
    calls = []

    def corrupted(n, p):
        calls.append((n, p))
        counts = true_closed_form(n, p)
        counts[3] += 1
        return counts

    monkeypatch.setattr(chains, "closed_form_counts", corrupted)
    code, out, _ = run_cli(["verify", "--p", "2", "--max-n", "4"], capsys)
    assert calls == [(4, 2)]  # one walk serves every rank of a base
    assert code == 1
    bad = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert len(bad) == 1
    assert "recurrence 36" in bad[0] and "closed_form 37" in bad[0]
    # exit code 0 exactly when every line reports PASS
    assert any(not line.startswith("PASS") for line in out.splitlines())


def run_corrupted_oracle_grid(capsys):
    """verify --oracle 2:3 under a corruption at rank 2: exit code, FAIL lines, tally."""
    code, out, _ = run_cli(["verify", "--oracle", "2:3"], capsys)
    *checks, tally = out.splitlines()
    return code, [line for line in checks if not line.startswith("PASS ")], tally


def test_verify_reports_a_wrong_rooted_formula(monkeypatch, capsys):
    true_counts = chains.chain_counts

    def corrupted(n, p):
        counts = true_counts(n, p)
        return chains.ChainCounts.from_rooted(counts.rooted + 1) if n == 2 else counts

    monkeypatch.setattr(chains, "chain_counts", corrupted)
    assert run_corrupted_oracle_grid(capsys) == (
        1,
        ["FAIL oracle-rooted p=2 n=2 (lattice 8 != formula 9)"],
        "8/9 checks passed",
    )


def test_verify_reports_a_wrong_subspace_census(monkeypatch, capsys):
    true_row = qarith.q_pascal_row

    def corrupted(n, p, width):
        row = true_row(n, p, width)
        return [x + 1 if (n, k) == (2, 1) else x for k, x in enumerate(row)]

    monkeypatch.setattr(qarith, "q_pascal_row", corrupted)
    assert run_corrupted_oracle_grid(capsys) == (
        1,
        ["FAIL oracle-subspace-counts p=2 n=2 (lattice (1, 3, 1) != formula (1, 4, 1))"],
        "8/9 checks passed",
    )


def test_verify_reports_broken_chain_identities(monkeypatch, capsys):
    true_count_chains = lattice.count_chains

    def corrupted(lat):
        oracle = true_count_chains(lat)
        if lat.n != 2:
            return oracle
        return oracle._replace(counts=oracle.counts._replace(unrooted=oracle.counts.unrooted + 1))

    monkeypatch.setattr(lattice, "count_chains", corrupted)
    assert run_corrupted_oracle_grid(capsys) == (
        1,
        ["FAIL oracle-identities p=2 n=2 (F=8 D=8 C=15)"],
        "8/9 checks passed",
    )


def test_verify_checks_the_identities_count_prints(monkeypatch, capsys):
    # count's D and C come from cli._rooted_digits; the oracle's tallies must equal its output.
    monkeypatch.setattr(cli, "_rooted_digits", lambda rooted: (str(rooted), str(rooted - 1), str(2 * rooted)))
    assert run_corrupted_oracle_grid(capsys) == (
        1,
        [
            "FAIL oracle-identities p=2 n=1 (F=2 D=1 C=3)",
            "FAIL oracle-identities p=2 n=2 (F=8 D=7 C=15)",
            "FAIL oracle-identities p=2 n=3 (F=72 D=71 C=143)",
        ],
        "6/9 checks passed",
    )


def test_oracle_text(capsys):
    code, out, _ = run_cli(["oracle", "--p", "2", "--n", "3"], capsys)
    assert code == 0
    assert "subgroups_by_dim: 1,7,7,1" in out
    assert "total_subgroups: 16" in out
    assert "F=72" in out and "method=oracle" in out


def test_oracle_rank_one(capsys):
    code, out, _ = run_cli(["oracle", "--p", "2", "--n", "1", "--format", "json"], capsys)
    assert code == 0
    record = json.loads(out)
    assert record["subgroups_by_dim"] == ["1", "1"]
    assert (record["F"], record["D"], record["C"]) == ("2", "1", "3")
    assert record["method"] == "oracle"


# oracle stdout in each format, elapsed_ms masked: the extra fields trail the shared record.
ORACLE_LAYOUT = {
    ("0", "text"): "subgroups_by_dim: 1\ntotal_subgroups: 1\np=2 n=0 F=1 D=0 C=1 method=oracle elapsed_ms=<ms>\n",
    ("0", "json"): '{"p":2,"n":0,"F":"1","D":"0","C":"1","method":"oracle","elapsed_ms":<ms>,'
    '"subgroups_by_dim":["1"],"total_subgroups":"1"}\n',
    ("0", "csv"): "p,n,F,D,C,method,elapsed_ms,subgroups_by_dim,total_subgroups\n2,0,1,0,1,oracle,<ms>,1,1\n",
    ("3", "text"): "subgroups_by_dim: 1,7,7,1\ntotal_subgroups: 16\n"
    "p=2 n=3 F=72 D=71 C=143 method=oracle elapsed_ms=<ms>\n",
    ("3", "json"): '{"p":2,"n":3,"F":"72","D":"71","C":"143","method":"oracle","elapsed_ms":<ms>,'
    '"subgroups_by_dim":["1","7","7","1"],"total_subgroups":"16"}\n',
    ("3", "csv"): "p,n,F,D,C,method,elapsed_ms,subgroups_by_dim,total_subgroups\n"
    "2,3,72,71,143,oracle,<ms>,1;7;7;1,16\n",
}


@pytest.mark.parametrize("n,fmt", sorted(ORACLE_LAYOUT))
def test_oracle_output_layout(n, fmt, capsys):
    code, out, err = run_cli(["oracle", "--p", "2", "--n", n, "--format", fmt], capsys)
    assert (code, err) == (0, "")
    assert mask(out) == ORACLE_LAYOUT[n, fmt]


def _cli_env(unbuffered=False):
    """The environment of a CLI subprocess: this package first, stdout block-buffered as from a shell or unbuffered."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(SRC)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def test_closed_stdout_exits_141_without_a_traceback():
    # table prints 1.24 MB here, far past a pipe buffer, so the writes after
    # the reader leaves fail inside the command rather than at exit.
    command = [sys.executable, "-m", "subchains", "table", "--p", "2", "--max-n", "200"]
    with subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_cli_env()) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert first.startswith(b"p=2 n=0 F=1 ")
    assert (code, err) == (141, b"")
    # --help's text fits the stdout buffer, so its write fails at main's last flush, or
    # at once when stdout is unbuffered: the reader is gone before the command starts.
    for args, unbuffered in itertools.product((["--help"], ["count", "--help"]), (False, True)):
        read, write = os.pipe()
        os.close(read)
        try:
            command = [sys.executable, "-m", "subchains", *args]
            done = subprocess.run(command, stdout=write, stderr=subprocess.PIPE, env=_cli_env(unbuffered), timeout=60)
        finally:
            os.close(write)
        assert (args, unbuffered, done.returncode, done.stderr) == (args, unbuffered, 141, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full, whose writes fail with ENOSPC")
@pytest.mark.parametrize(
    "args,stdout_to_full,needle",
    [
        (["verify", "--oracle", "2:2"], True, "error: "),
        (["table", "--p", "2", "--max-n", "3"], True, "error: "),
        (["oracle", "--p", "2", "--n", "3", "--dump", "/dev/full"], False, "error: cannot write the lattice dump: "),
        (["--help"], True, "error: "),
        (["count", "--help"], True, "error: "),
    ],
)
def test_a_failed_write_exits_2_with_one_error_line(args, stdout_to_full, needle):
    # Exit 1 would read as a verification mismatch; a traceback would be more than one line.
    # Block-buffered stdout, as from a shell, would fail again at a later flush if left alone;
    # on unbuffered stdout, argparse itself would drop --help's failed write and exit 0.
    for unbuffered in (False, True):
        with open("/dev/full", "w") as full:
            done = subprocess.run(
                [sys.executable, "-m", "subchains", *args],
                stdout=full if stdout_to_full else subprocess.PIPE,
                stderr=subprocess.PIPE,
                env=_cli_env(unbuffered),
                timeout=60,
            )
        assert (unbuffered, done.returncode) == (unbuffered, 2)
        assert done.stderr.decode().startswith(needle)
        assert len(done.stderr.splitlines()) == 1
        assert not done.stdout


def run_to_exit(monkeypatch, exits: list) -> None:
    """cli.run(), its os._exit appending (status, stdout bytes, stderr bytes) to exits instead of ending the process.

    stdout and stderr are block-buffered streams, as to a file, whose bytes are
    taken as they stand at the call: only what was flushed. They are patched in
    here, inside the test, because pytest's capture sets its own at each phase.
    """
    stdout, stderr = (io.TextIOWrapper(io.BytesIO(), encoding="utf-8") for _ in range(2))
    monkeypatch.setattr(sys, "stdout", stdout)
    monkeypatch.setattr(sys, "stderr", stderr)
    monkeypatch.setattr(os, "_exit", lambda code: exits.append((code, stdout.buffer.getvalue(), stderr.buffer.getvalue())))
    cli.run()


@pytest.mark.parametrize(
    "argv,code,out,err",
    [
        (["count", "--p", "2", "--n", "3"], 0, b"p=2 n=3 F=72 D=71 C=143 ", b""),
        (["count", "--p", "2", "--n", "40"], 1, b"", b"error: certificate failed at rank n=31, base p=2: "),
        (["count", "--p", "2", "--n", "-1"], 2, b"", b"error: rank n must be >= 0, got -1\n"),
    ],
)
def test_run_exits_with_mains_code_once_its_output_is_flushed(argv, code, out, err, monkeypatch, off_at_rank):
    if code == 1:
        off_at_rank(31, 1)
    monkeypatch.setattr(sys, "argv", ["subchains", *argv])
    exits = []
    run_to_exit(monkeypatch, exits)
    ((status, written, warned),) = exits
    assert (status, written[: len(out)], warned[: len(err)]) == (code, out, err)


def test_run_flushes_what_main_left_buffered(monkeypatch):
    def unflushed_main():
        print("out")
        print("err", file=sys.stderr)
        return 3

    monkeypatch.setattr(cli, "main", unflushed_main)
    exits = []
    run_to_exit(monkeypatch, exits)
    assert exits == [(3, b"out\n", b"err\n")]


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_an_exception_escaping_main_skips_os_exit(error, monkeypatch):
    def failing_main():
        raise error("boom")

    monkeypatch.setattr(cli, "main", failing_main)
    exits = []
    with pytest.raises(error, match="boom"):
        run_to_exit(monkeypatch, exits)
    assert exits == []


def test_a_process_ended_by_run_leaves_its_output_complete(tmp_path, capsys):
    # stdout to a file is block-buffered, and os._exit discards what a buffer still holds:
    # the table's last rows and the dump's edges are the bytes a missing flush loses.
    argv = ["table", "--p", "3", "--max-n", "100", "--format", "csv"]
    with open(tmp_path / "table.csv", "wb") as out:
        done = subprocess.run(
            [sys.executable, "-m", "subchains", *argv], stdout=out, stderr=subprocess.PIPE, env=_cli_env(), timeout=60
        )
    assert (done.returncode, done.stderr) == (0, b"")
    code, want, _ = run_cli(argv, capsys)
    assert code == 0 and len(want) > 100_000
    assert mask((tmp_path / "table.csv").read_text()) == mask(want)

    dump = tmp_path / "lattice.txt"
    with open(tmp_path / "oracle.txt", "wb") as out:
        done = subprocess.run(
            [sys.executable, "-m", "subchains", "oracle", "--p", "2", "--n", "4", "--dump", str(dump)],
            stdout=out, stderr=subprocess.PIPE, env=_cli_env(), timeout=60,
        )
    assert done.returncode == 0
    assert (tmp_path / "oracle.txt").read_text().startswith("subgroups_by_dim: 1,15,35,15,1\n")
    lines = dump.read_text().splitlines()
    assert lines[0] == "lattice p=2 n=4 nodes=67"
    # Strict containments: each l-dimensional subspace over each of its proper subspaces.
    census = qarith.q_pascal_row(4, 2, 4)
    containments = sum(count * (sum(qarith.q_pascal_row(dim, 2, dim)) - 1) for dim, count in enumerate(census))
    assert sum(1 for line in lines if line.startswith("edge ")) == containments == 446


@pytest.mark.parametrize(
    "argv,code",
    [
        (["count", "--p", "2", "--n", "200"], 0),  # F has 6,073 digits, past the limit
        (["count", "--p", "2", "--n", "-1"], 2),
        (["count", "--p", "2", "--n", "40"], 1),
    ],
)
@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str digit limit")
def test_main_restores_the_callers_digit_limit(argv, code, digit_limit, off_at_rank, capsys):
    digit_limit(5000)
    if code == 1:
        off_at_rank(31, 1)
    assert run_cli(argv, capsys)[0] == code
    assert sys.get_int_max_str_digits() == 5000


def test_oracle_dump(tmp_path, capsys):
    path = tmp_path / "lattice.txt"
    code, out, err = run_cli(["oracle", "--p", "2", "--n", "2", "--dump", str(path)], capsys)
    assert code == 0
    assert str(path) in err
    lines = path.read_text().splitlines()
    assert lines[0] == "lattice p=2 n=2 nodes=5"
    assert sum(1 for line in lines if line.startswith("edge ")) == 7


def test_oracle_dump_to_a_bad_path_exits_2(tmp_path, capsys):
    path = tmp_path / "missing" / "lattice.txt"
    code, out, err = run_cli(["oracle", "--p", "2", "--n", "2", "--dump", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and str(path) in err
    assert len(err.strip().splitlines()) == 1


def test_verify_refuses_over_cap_rank_before_any_check(capsys):
    start = perf_counter()
    code, out, err = run_cli(["verify", "--p", "2", "--max-n", "30"], capsys)
    assert code == 2
    assert out == ""
    assert "cap" in err and "n=30" in err
    assert perf_counter() - start < 1.0


def test_verify_refuses_over_budget_oracle_point_before_any_check(capsys):
    code, out, err = run_cli(["verify", "--p", "2", "--max-n", "4", "--oracle", "3:3,2:9"], capsys)
    assert code == 2
    assert out == ""
    assert "F_2^9" in err and "budget" in err


def test_oracle_budget_flag(capsys):
    code, _, err = run_cli(["oracle", "--p", "2", "--n", "4", "--budget", "10"], capsys)
    assert code == 2
    assert "67" in err  # the refusal names the lattice size


def test_budget_flag_is_the_only_override(monkeypatch, capsys):
    # --budget is the one override of the default; a leftover
    # SUBCHAINS_ORACLE_BUDGET, valid or not, changes nothing
    for leftover in (None, "5", "4", "lots"):
        if leftover is None:
            monkeypatch.delenv("SUBCHAINS_ORACLE_BUDGET", raising=False)
        else:
            monkeypatch.setenv("SUBCHAINS_ORACLE_BUDGET", leftover)
        code, out, err = run_cli(["oracle", "--p", "2", "--n", "2", "--budget", "4"], capsys)
        assert code == 2 and out == ""
        assert "5 nodes, over the budget of 4" in err
        assert len(err.strip().splitlines()) == 1
        assert run_cli(["verify", "--oracle", "2:2", "--budget", "4"], capsys)[0] == 2
        code, out, _ = run_cli(["oracle", "--p", "2", "--n", "2", "--budget", "5"], capsys)
        assert code == 0 and "total_subgroups: 5" in out
        assert run_cli(["verify", "--oracle", "2:2", "--budget", "5"], capsys)[0] == 0
        assert run_cli(["oracle", "--p", "2", "--n", "2"], capsys)[0] == 0


def test_full_precision_rendering(capsys):
    expected = chain_counts(10, 7)
    code, out, _ = run_cli(["count", "--p", "7", "--n", "10", "--format", "json"], capsys)
    assert code == 0
    record = json.loads(out)
    assert record["F"] == str(expected.rooted)
    assert record["C"] == str(expected.total)
    assert len(record["F"]) > 35  # genuinely past any float precision


@st.composite
def rooted_values(draw):
    # F >= 1 where a borrow runs through every digit (10^k), the top digit doubles
    # into a new one (5 * 10^k) or nearly does, and values of any width up to
    # 200,000 bits, past table's largest F (100,290 bits).
    if draw(st.booleans()):
        power = 10 ** draw(st.integers(0, 60_000))
        return draw(st.sampled_from([power, power - 1 or 1, power + 1, 2 * power, 5 * power]))
    bits = draw(st.integers(1, 200_000))
    return random.Random(draw(st.integers(0, 2**32))).getrandbits(bits) | 1 << bits - 1


# digit_limit sets the same limit for every example.
@settings(deadline=None, max_examples=40, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rooted_values())
@example(1)
@example(5)
@example(10)
@example(10**30_000)
@example(10**30_000 - 1)
@example(5 * 10**30_000 + 1)
def test_rooted_digits_equal_str_of_each_tally(digit_limit, rooted):
    digit_limit(0)
    assert _rooted_digits(rooted) == (str(rooted), str(rooted - 1), str(2 * rooted - 1))


def _parsed_records(out: str, fmt: str) -> list[dict]:
    if fmt == "text":
        return [dict(field.split("=") for field in line.split()) for line in out.splitlines()]
    if fmt == "json":
        return [json.loads(line) for line in out.splitlines()]
    return list(csv.DictReader(io.StringIO(out)))


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_table_records_parse_back_to_the_chain_identities(fmt, capsys):
    code, out, err = run_cli(["table", "--p", "3", "--max-n", "60", "--format", fmt], capsys)
    assert (code, err) == (0, "")
    records = _parsed_records(out, fmt)
    assert [int(record["n"]) for record in records] == list(range(61))
    for record in records:
        F = int(record["F"])
        assert (int(record["D"]), int(record["C"])) == (F - 1, 2 * F - 1)
        assert F == chain_counts(int(record["n"]), 3).rooted


def test_default_budget_is_documented_value(capsys):
    assert f"default {DEFAULT_NODE_BUDGET}" in " ".join(build_parser().format_help().split())
    for command in ("oracle", "verify"):
        code, out, _ = run_cli([command, "--help"], capsys)
        assert code == 0
        assert f"--budget BUDGET lattice node budget (default {DEFAULT_NODE_BUDGET})" in " ".join(out.split())
    code, _, err = run_cli(["oracle", "--p", "2", "--n", "9"], capsys)
    assert code == 2
    assert f"over the budget of {DEFAULT_NODE_BUDGET}" in err


def test_cli_ignores_the_environment(monkeypatch, capsys):
    argv = ["verify", "--p", "2", "--max-n", "6", "--oracle", "2:2"]
    code, plain, _ = run_cli(argv, capsys)
    assert code == 0
    for cap, budget in (("5", "4"), ("never", "never")):
        monkeypatch.setenv("SUBCHAINS_MAX_N", cap)
        monkeypatch.setenv("SUBCHAINS_ORACLE_BUDGET", budget)
        assert run_cli(argv, capsys)[:2] == (0, plain)


# Which of the lazily imported modules each request loads: (argv, loaded);
# argv None imports subchains.cli alone.
START_UP_LOADS = [
    (None, set()),
    (["count", "--p", "2", "--n", "0"], set()),  # the benchmark's setup probe
    (["count", "--p", "2", "--n", "3", "--format", "json"], {"json"}),
    (["table", "--p", "2", "--max-n", "4", "--format", "csv"], {"csv"}),
    (["poly", "--n", "4"], {"subchains.polynomial"}),
    (["poly", "--n", "4", "--format", "json"], {"subchains.polynomial", "json"}),
    (["oracle", "--p", "2", "--n", "3", "--format", "json"], {"subchains.lattice", "json"}),
    (["verify", "--p", "2", "--max-n", "3", "--oracle", "2:2"], {"subchains.lattice"}),
    (["verify", "--p", "2", "--max-n", "3"], set()),
]


def test_cli_start_up_loads_no_introspection_modules():
    # dataclasses pulls in inspect, ast, dis and tokenize: most of the import
    # time of a request that does almost no work. The lattice, polynomial,
    # json and csv modules load only for the requests that use them. Each
    # request runs in a fresh interpreter; -S keeps site hooks out.
    heavy = ["dataclasses", "inspect", "ast", "dis", "tokenize"]
    lazy = ["subchains.lattice", "subchains.polynomial", "json", "csv"]
    for argv, loaded in START_UP_LOADS:
        probe = (
            "import sys; sys.path.insert(0, sys.argv[1]); import subchains.cli; "
            f"code = subchains.cli.main({argv!r}) if {argv!r} else 0; "
            "print(*sorted(set(sys.argv[2:]) & sys.modules.keys()), file=sys.stderr); sys.exit(code)"
        )
        command = [sys.executable, "-I", "-S", "-c", probe, str(SRC), *heavy, *lazy]
        done = subprocess.run(command, capture_output=True, text=True, timeout=60)
        assert (argv, done.returncode, done.stderr.split()) == (argv, 0, sorted(loaded))
