"""Command-line front-end: chain counts, polynomial tables, verification runs.

Results go to stdout, diagnostics and errors to stderr. Exit codes: 0 on
success, 1 when a verification run finds a mismatch, 2 on bad flags or
domain errors (the message names the violated bound), 141 when the reader
closes stdout early (the status a shell reports for SIGPIPE).
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from time import perf_counter
from typing import TYPE_CHECKING

from . import chains, qarith
from .chains import CLOSED_FORM_CAP, COUNT_BITS_CAP, DEFAULT_NODE_BUDGET, POLY_BITS_CAP

if TYPE_CHECKING:
    from collections.abc import Iterable

RECORD_KEYS = ("p", "n", "F", "D", "C", "method", "elapsed_ms")
FORMATS = ("text", "json", "csv")

DEFAULT_VERIFY_PRIMES = "2,3,5,7"
DEFAULT_VERIFY_MAX_N = 10
DEFAULT_VERIFY_GRID = "2:6,3:3,5:2,7:2"


def _record(p, n: int, counts: chains.ChainCounts, method: str, elapsed_ms: float) -> dict:
    # F/D/C as decimal strings: values are unbounded and must never be
    # truncated or switched to scientific notation.
    return dict(zip(RECORD_KEYS, (p, n, *map(str, counts), method, round(elapsed_ms, 3))))


# json, csv and lattice are imported inside the functions that use them (and
# polynomial inside chains and qarith), so a request loads only the modules
# its subcommand and format run.
def _json_line(obj: dict) -> str:
    import json

    return json.dumps(obj, separators=(",", ":"))


def _csv_writer():
    import csv

    return csv.writer(sys.stdout, lineterminator="\n")


def _print_records(records: Iterable[dict], fmt: str) -> None:
    """Write records as they arrive, with whatever keys they carry; csv takes its header from the first."""
    if fmt == "text":
        for record in records:
            print(" ".join(f"{key}={value}" for key, value in record.items()))
    elif fmt == "json":
        for record in records:
            print(_json_line(record))
    else:
        writer = _csv_writer()
        for i, record in enumerate(records):
            if i == 0:
                writer.writerow(record.keys())
            writer.writerow([";".join(value) if isinstance(value, list) else value for value in record.values()])


def _counts_record(p: int, n: int) -> dict:
    start = perf_counter()
    counts = chains.chain_counts(n, p)
    return _record(p, n, counts, "recurrence", (perf_counter() - start) * 1000.0)


def cmd_count(args: argparse.Namespace) -> int:
    chains.check_count_bits(args.n, args.p)
    _print_records([_counts_record(args.p, args.n)], args.format)
    return 0


def cmd_poly(args: argparse.Namespace) -> int:
    chains.check_poly_bits(args.n)
    poly = chains.rooted_chains_poly(args.n)
    if args.format == "text":
        print(poly.to_text("p"))
    elif args.format == "json":
        print(_json_line({"n": args.n, "coefficients": poly.coefficient_strings(), "text": poly.to_text("p")}))
    else:
        _csv_writer().writerow(poly.coefficient_strings())
    return 0


def cmd_table(args: argparse.Namespace) -> int:
    if args.max_n < 0:
        raise ValueError(f"--max-n must be >= 0, got {args.max_n}")
    chains.check_count_bits(args.max_n, args.p)
    # A generator, so each record is printed before the next rank is computed.
    _print_records((_counts_record(args.p, n) for n in range(args.max_n + 1)), args.format)
    return 0


def _parse_entries(flag: str, text: str, form: str) -> list[tuple[int, ...]]:
    """Comma-separated entries of colon-separated integers shaped like `form` ("p", "p:max_n")."""
    entries = []
    for token in filter(None, map(str.strip, text.split(","))):
        try:
            entry = tuple(map(int, token.split(":")))
        except ValueError:
            entry = ()
        if len(entry) != form.count(":") + 1:
            raise ValueError(f"{flag} expects comma-separated entries of the form {form}, got {token!r}")
        entries.append(entry)
    if not entries:
        raise ValueError(f"{flag} expects comma-separated entries of the form {form}, got {text!r}")
    return entries


def cmd_verify(args: argparse.Namespace) -> int:
    from . import lattice

    # With no flags both parts run on their defaults; otherwise --p or --max-n
    # runs the methods check (the other flag defaulted) and --oracle the grid.
    default_run = args.p is None and args.max_n is None and args.oracle is None
    run_methods = default_run or args.p is not None or args.max_n is not None
    primes = [p for (p,) in _parse_entries("--p", DEFAULT_VERIFY_PRIMES if args.p is None else args.p, "p")]
    max_n = DEFAULT_VERIFY_MAX_N if args.max_n is None else args.max_n
    grid_text = DEFAULT_VERIFY_GRID if default_run else args.oracle
    grid = [] if grid_text is None else _parse_entries("--oracle", grid_text, "p:max_n")

    # Refuse bad or over-limit requests before the first check runs or prints.
    lattice.check_budget(args.budget)
    if run_methods:
        qarith.check_base(min(primes))
        if max_n < 0:
            raise ValueError(f"--max-n must be >= 0, got {max_n}")
        chains.check_closed_form_rank(max_n)
    for p, n_hi in grid:
        if n_hi < 1:
            raise ValueError(f"--oracle entry {p}:{n_hi} checks no rank; max_n must be >= 1")
        lattice.check_size(p, n_hi, args.budget)

    results: list[bool] = []

    def check(name: str, p: int, n: int, ok: bool, detail: str) -> None:
        print(f"{'PASS' if ok else 'FAIL'} {name} p={p} n={n} ({detail})")
        results.append(ok)

    def compare(name: str, p: int, n: int, got, want, shown: str, labels=("lattice", "formula")) -> None:
        ok = got == want
        check(name, p, n, ok, shown if ok else f"{labels[0]} {got} != {labels[1]} {want}")

    if run_methods:
        for p in primes:
            for n in range(max_n + 1):
                a = chains.bounded_chains_recurrence(n, p)
                b = chains.bounded_chains_closed_form(n, p)
                compare("methods-agree", p, n, a, b, f"{2 * a if n else 1} rooted", ("recurrence", "closed_form"))

    for p, n_hi in grid:
        for n in range(1, n_hi + 1):
            oracle = lattice.count_chains(lattice.build_lattice(p, n, budget=args.budget))
            rooted = chains.chain_counts(n, p).rooted
            compare("oracle-rooted", p, n, oracle.counts.rooted, rooted, str(rooted))
            census = tuple(qarith.q_pascal_row(n, p, n))
            compare("oracle-subspace-counts", p, n, oracle.subgroups_by_dim, census, ",".join(map(str, census)))
            c = oracle.counts
            ok = c.rooted == c.unrooted + 1 and c.total == 2 * c.rooted - 1
            check("oracle-identities", p, n, ok, f"F={c.rooted} D={c.unrooted} C={c.total}")

    print(f"{sum(results)}/{len(results)} checks passed")
    return 0 if all(results) else 1


def cmd_oracle(args: argparse.Namespace) -> int:
    from . import lattice

    # Validate the request and open the dump file before the lattice is built,
    # so a bad path costs nothing and leaves no half-done work.
    lattice.check_size(args.p, args.n, args.budget)
    try:
        dump = open(args.dump, "w", encoding="utf-8") if args.dump is not None else contextlib.nullcontext()
    except OSError as exc:
        raise ValueError(f"cannot write the lattice dump: {exc}") from None
    with dump:
        start = perf_counter()
        lat = lattice.build_lattice(args.p, args.n, budget=args.budget)
        oracle = lattice.count_chains(lat)
        elapsed_ms = (perf_counter() - start) * 1000.0
        if args.dump is not None:
            dump.writelines(line + "\n" for line in lat.dump_lines())
    if args.dump is not None:
        print(f"lattice dump written to {args.dump}", file=sys.stderr)
    record = _record(args.p, args.n, oracle.counts, "oracle", elapsed_ms)
    dims = [str(c) for c in oracle.subgroups_by_dim]
    if args.format == "text":
        print(f"subgroups_by_dim: {','.join(dims)}")
        print(f"total_subgroups: {oracle.total_subgroups}")
    else:
        record.update(subgroups_by_dim=dims, total_subgroups=str(oracle.total_subgroups))
    _print_records([record], args.format)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subchains",
        description=(
            "Exact counts of chains of subgroups of the elementary abelian group Z_p^n: "
            "rooted chains (F), unrooted chains (D), and all chains (C), as integers or "
            "as polynomials in p, with a brute-force subgroup-lattice verifier."
        ),
        epilog=(
            f"Limits: verify refuses closed-form ranks above {CLOSED_FORM_CAP}; verify and oracle "
            f"refuse lattices of more than --budget nodes (default {DEFAULT_NODE_BUDGET}); count and "
            f"table refuse counts predicted at more than {COUNT_BITS_CAP} bits (n(n-1)/2*log2(p) at the top rank; "
            "the count itself can have up to n*log2(n)+1 bits more), "
            f"poly polynomials of more than {POLY_BITS_CAP} bits (n(n-1)/2*n*log2(n)). "
            "Exit codes: 0 ok, 1 verification mismatch, 2 usage or domain error, 141 stdout closed early."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    count = sub.add_parser("count", help="chain counts for one (p, n)")
    count.add_argument("--p", type=int, required=True, help="base of the group, any integer >= 2")
    count.add_argument("--n", type=int, required=True, help="rank of the group, >= 0")
    count.add_argument("--format", choices=FORMATS, default="text")
    count.set_defaults(func=cmd_count)

    poly = sub.add_parser("poly", help="rooted-chain count as a polynomial in p")
    poly.add_argument("--n", type=int, required=True, help="rank of the group, >= 0")
    poly.add_argument(
        "--format",
        choices=FORMATS,
        default="text",
        help="text: human form; json/csv: ascending coefficients as decimal strings",
    )
    poly.set_defaults(func=cmd_poly)

    table = sub.add_parser("table", help="chain counts for n = 0..max-n at fixed p")
    table.add_argument("--p", type=int, required=True, help="base of the group, any integer >= 2")
    table.add_argument("--max-n", type=int, required=True, help="largest rank to tabulate")
    table.add_argument("--format", choices=FORMATS, default="text", help="json emits one record per line")
    table.set_defaults(func=cmd_table)

    verify = sub.add_parser(
        "verify",
        help="cross-check recurrence vs closed form and formulas vs the lattice",
        description=(
            "Runs recurrence/closed-form equality for every base listed and every rank up to "
            "--max-n, and compares the formulas against brute-force lattice counts on the "
            "--oracle grid. With no flags, runs both with defaults: "
            f"--p {DEFAULT_VERIFY_PRIMES} --max-n {DEFAULT_VERIFY_MAX_N} --oracle {DEFAULT_VERIFY_GRID}"
        ),
    )
    verify.add_argument("--p", help="comma-separated bases for the method-equivalence check")
    verify.add_argument("--max-n", type=int, help="largest rank for the method-equivalence check")
    verify.add_argument("--oracle", help="lattice comparison grid, e.g. 2:4,3:3 (p:max_n)")
    verify.add_argument(
        "--budget", type=int, default=DEFAULT_NODE_BUDGET, help="lattice node budget (default %(default)s)"
    )
    verify.set_defaults(func=cmd_verify)

    oracle = sub.add_parser("oracle", help="brute-force lattice counts for one (p, n)")
    oracle.add_argument("--p", type=int, required=True, help="prime base of the group")
    oracle.add_argument("--n", type=int, required=True, help="rank of the group, >= 0")
    oracle.add_argument("--dump", metavar="PATH", help="write the full lattice (nodes and edges) to a file")
    oracle.add_argument(
        "--budget", type=int, default=DEFAULT_NODE_BUDGET, help="lattice node budget (default %(default)s)"
    )
    oracle.add_argument("--format", choices=FORMATS, default="text")
    oracle.set_defaults(func=cmd_oracle)

    return parser


def main(argv: list[str] | None = None) -> int:
    # Counts grow past the interpreter's default int-to-str digit limit, and
    # output must be exact decimal, never truncated.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed stdout. Point it at devnull so the interpreter's
        # exit flush of what is still buffered stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
