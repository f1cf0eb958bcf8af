import csv
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

import subchains
from subchains import chains, lattice, qarith
from subchains.chains import chain_counts
from subchains.cli import RECORD_KEYS, build_parser, main
from subchains.lattice import DEFAULT_NODE_BUDGET


def run_cli(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


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
        (["table", "--p", "2", "--max-n", "-2"], ">= 0"),
        (["oracle", "--p", "4", "--n", "2"], "prime"),
        (["verify", "--p", "2", "--max-n", "4", "--oracle", "nonsense"], "p:max_n"),
        (["verify", "--p", "2,1", "--max-n", "3"], ">= 2"),
        (["verify", "--max-n", "-1"], ">= 0"),
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
    ],
)
def test_domain_errors_exit_2(argv, needle, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert needle in err
    assert out == ""
    assert len(err.strip().splitlines()) == 1


def test_unknown_flag_exits_2(capsys):
    code = main(["count", "--p", "2", "--n", "3", "--frobnicate"])
    capsys.readouterr()
    assert code == 2


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


def test_verify_default_run(capsys):
    code, out, _ = run_cli(["verify"], capsys)
    assert code == 0
    assert "methods-agree" in out and "oracle-rooted" in out
    *checks, tally = out.splitlines()
    assert all(line.startswith("PASS ") for line in checks)
    # the default grid reaches (2,6): 44 formula checks plus 3 per oracle rank
    assert "PASS oracle-rooted p=2 n=6 (4515776)" in checks
    assert tally == "83/83 checks passed"


def test_verify_detects_a_corrupted_build(monkeypatch, capsys):
    true_closed_form = chains.bounded_chains_closed_form

    def corrupted(n, p):
        value = true_closed_form(n, p)
        return value + 1 if n == 3 else value

    monkeypatch.setattr(chains, "bounded_chains_closed_form", corrupted)
    code, out, _ = run_cli(["verify", "--p", "2", "--max-n", "4"], capsys)
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
    masked = re.sub(r'(elapsed_ms[=":]+|,oracle,)[0-9.]+', r"\1<ms>", out)
    assert masked == ORACLE_LAYOUT[n, fmt]


def test_closed_stdout_exits_141_without_a_traceback():
    # table prints 1.24 MB here, far past a pipe buffer, so the writes after
    # the reader leaves fail inside the command rather than at exit.
    src = str(Path(subchains.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    command = [sys.executable, "-m", "subchains", "table", "--p", "2", "--max-n", "200"]
    with subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert first.startswith(b"p=2 n=0 F=1 ")
    assert (code, err) == (141, b"")


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


def test_budget_env_override(monkeypatch, capsys):
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
]


def test_cli_start_up_loads_no_introspection_modules():
    # dataclasses pulls in inspect, ast, dis and tokenize: most of the import
    # time of a request that does almost no work. The lattice, polynomial,
    # json and csv modules load only for the requests that use them. Each
    # request runs in a fresh interpreter; -S keeps site hooks out.
    heavy = ["dataclasses", "inspect", "ast", "dis", "tokenize"]
    lazy = ["subchains.lattice", "subchains.polynomial", "json", "csv"]
    src = Path(subchains.__file__).resolve().parents[1]
    for argv, loaded in START_UP_LOADS:
        probe = (
            "import sys; sys.path.insert(0, sys.argv[1]); import subchains.cli; "
            f"code = subchains.cli.main({argv!r}) if {argv!r} else 0; "
            "print(*sorted(set(sys.argv[2:]) & sys.modules.keys()), file=sys.stderr); sys.exit(code)"
        )
        command = [sys.executable, "-I", "-S", "-c", probe, str(src), *heavy, *lazy]
        done = subprocess.run(command, capture_output=True, text=True, timeout=60)
        assert (argv, done.returncode, done.stderr.split()) == (argv, 0, sorted(loaded))
