"""Correctness gate: does one CLI request's stdout carry the right mathematics?

Only the mathematical content is compared: F, D and C, the polynomial
coefficients, the `verify` check lines and their tally, and the oracle's
subspace census. Timing fields (`elapsed_ms` today, any `*_ms` or `*_s`
field later) and any other field the gate does not know are ignored, so the
gate keeps working when the output gains fields.

Expected values live in expected.json, made at the seed commit by
make_expected.py. Large values are stored as digests of their decimal
strings, small ones (the verify and oracle grid) as plain integers.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import re
from pathlib import Path

EXPECTED_PATH = Path(__file__).with_name("expected.json")

_TIMING = re.compile(r'(\b\w+_(?:ms|s))(=|":)-?[0-9][0-9.eE+-]*')
_CHECK = re.compile(r"^(PASS|FAIL) (\S+) p=(\d+) n=(\d+) \((.*?)\)")
_TALLY = re.compile(r"^(\d+)/(\d+) checks passed")
_TERM = re.compile(r"^(\d*)(?:p(?:\^(\d+))?)?$")


class GateError(Exception):
    """The output does not match the expected values."""


def load_expected(path: Path = EXPECTED_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def digest(*parts: str) -> str:
    return hashlib.sha256(",".join(parts).encode()).hexdigest()[:32]


def mask_timing(stdout: str) -> str:
    """stdout with every timing value blanked, for comparing two runs' bytes."""
    lines = stdout.splitlines(keepends=True)
    if lines and lines[0].startswith("p,n,"):
        rows = list(csv.reader(lines))
        timed = [i for i, key in enumerate(rows[0]) if key.endswith(("_ms", "_s"))]
        for row in rows[1:]:
            for i in timed:
                if i < len(row):
                    row[i] = ""
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows)
        return buf.getvalue()
    return _TIMING.sub(r"\1\2", stdout)


def _flags(argv) -> dict[str, str]:
    return {argv[i][2:]: argv[i + 1] for i in range(1, len(argv) - 1, 2)}


def _records(stdout: str, fmt: str) -> list[dict]:
    lines = stdout.splitlines()
    if fmt == "json":
        return [json.loads(line) for line in lines]
    if fmt == "csv":
        return list(csv.DictReader(lines))
    return [dict(token.split("=", 1) for token in line.split()) for line in lines]


def _poly_from_text(text: str) -> list[str]:
    coeffs: dict[int, int] = {}
    for term in text.split(" + "):
        match = _TERM.match(term)
        if not match or not term:
            raise GateError(f"unparsable polynomial term {term!r}")
        coeff, power = match.group(1), match.group(2)
        if "p" not in term:
            power = "0"
        elif power is None:
            power = "1"
        coeffs[int(power)] = int(coeff) if coeff else 1
    return [str(coeffs.get(k, 0)) for k in range(max(coeffs) + 1)]


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise GateError(what)


def _check_record(record: dict, p: int, n: int, expected: dict) -> None:
    _require(str(record.get("p")) == str(p) and str(record.get("n")) == str(n), f"record is not p={p} n={n}")
    rows = expected["counts"].get(str(p), [])
    _require(n < len(rows), f"no expected value for p={p} n={n}")
    got = digest(str(record.get("F")), str(record.get("D")), str(record.get("C")))
    _require(got == rows[n], f"wrong F/D/C at p={p} n={n}")


def _check_count(argv, stdout: str, expected: dict) -> None:
    flags = _flags(argv)
    records = _records(stdout, flags.get("format", "text"))
    _require(len(records) == 1, f"expected one record, got {len(records)}")
    _check_record(records[0], int(flags["p"]), int(flags["n"]), expected)


def _check_table(argv, stdout: str, expected: dict) -> None:
    flags = _flags(argv)
    p, max_n = int(flags["p"]), int(flags["max-n"])
    records = _records(stdout, flags.get("format", "text"))
    _require(len(records) == max_n + 1, f"expected {max_n + 1} records, got {len(records)}")
    for n, record in enumerate(records):
        _check_record(record, p, n, expected)


def _check_poly(argv, stdout: str, expected: dict) -> None:
    flags = _flags(argv)
    n, fmt = flags["n"], flags.get("format", "text")
    _require(n in expected["poly"], f"no expected polynomial for n={n}")
    if fmt == "json":
        record = json.loads(stdout)
        _require(str(record.get("n")) == n, f"record is not n={n}")
        coeffs = record["coefficients"]
        _require(_poly_from_text(record["text"]) == coeffs, "text and coefficients disagree")
    elif fmt == "csv":
        coeffs = next(csv.reader(stdout.splitlines()))
    else:
        coeffs = _poly_from_text(stdout.strip())
    _require(digest(*coeffs) == expected["poly"][n], f"wrong coefficients for n={n}")


def _rooted(expected: dict, p: int, n: int) -> int:
    rows = expected["rooted"].get(str(p), [])
    _require(n < len(rows), f"no expected rooted count for p={p} n={n}")
    return rows[n]


def _census(expected: dict, p: int, n: int) -> list[int]:
    rows = expected["census"].get(str(p), [])
    _require(n < len(rows), f"no expected subspace census for p={p} n={n}")
    return rows[n]


def expected_verify_lines(argv, expected: dict) -> list[tuple[str, str, int, int, str]]:
    """The (status, name, p, n, detail) lines a correct `verify` run prints."""
    flags = _flags(argv)
    lines = []
    for p in map(int, flags["p"].split(",")):
        for n in range(int(flags["max-n"]) + 1):
            lines.append(("PASS", "methods-agree", p, n, f"{_rooted(expected, p, n)} rooted"))
    for point in flags["oracle"].split(","):
        p, n_hi = map(int, point.split(":"))
        for n in range(1, n_hi + 1):
            rooted = _rooted(expected, p, n)
            census = ",".join(map(str, _census(expected, p, n)))
            lines.append(("PASS", "oracle-rooted", p, n, str(rooted)))
            lines.append(("PASS", "oracle-subspace-counts", p, n, census))
            lines.append(("PASS", "oracle-identities", p, n, f"F={rooted} D={rooted - 1} C={2 * rooted - 1}"))
    return lines


def _check_verify(argv, stdout: str, expected: dict) -> None:
    want = expected_verify_lines(argv, expected)
    *checks, tally = stdout.splitlines() or [""]
    got = []
    for line in checks:
        match = _CHECK.match(line)
        _require(match is not None, f"unparsable check line {line!r}")
        status, name, p, n, detail = match.groups()
        got.append((status, name, int(p), int(n), detail))
    _require(got == want, "check lines differ from the expected ones")
    match = _TALLY.match(tally)
    _require(match is not None and match.groups() == (str(len(want)),) * 2, f"wrong tally line {tally!r}")


def _check_oracle(argv, stdout: str, expected: dict) -> None:
    flags = _flags(argv)
    p, n = int(flags["p"]), int(flags["n"])
    (record,) = _records(stdout, flags.get("format", "text"))
    rooted = _rooted(expected, p, n)
    census = _census(expected, p, n)
    _require(str(record.get("p")) == str(p) and str(record.get("n")) == str(n), f"record is not p={p} n={n}")
    got = (record.get("F"), record.get("D"), record.get("C"))
    _require(got == (str(rooted), str(rooted - 1), str(2 * rooted - 1)), f"wrong F/D/C at p={p} n={n}")
    _require(record.get("subgroups_by_dim") == list(map(str, census)), "wrong subspace census")
    _require(record.get("total_subgroups") == str(sum(census)), "wrong subspace total")


_CHECKERS = {
    "count": _check_count,
    "table": _check_table,
    "poly": _check_poly,
    "verify": _check_verify,
    "oracle": _check_oracle,
}


def check(argv, stdout: str, expected: dict) -> str | None:
    """None when stdout is a correct answer to the request argv, else the reason."""
    try:
        _CHECKERS[argv[0]](argv, stdout, expected)
    except GateError as exc:
        return str(exc)
    except (ValueError, KeyError, TypeError, IndexError, StopIteration, json.JSONDecodeError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"
    return None
