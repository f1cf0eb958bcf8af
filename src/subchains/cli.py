"""Command-line front-end: chain counts, polynomial tables, verification runs.

Results go to stdout, diagnostics and errors to stderr. Exit codes: 0 on
success, 1 when a verification run finds a mismatch or a count fails its
certificate (chains.CertificateError), 2 on bad flags, domain errors (the
message names the violated bound) or a failed write, 141 when the reader
closes stdout early (the status a shell reports for SIGPIPE).

run() is the process entry, for `python -m subchains` and the `subchains`
script; main() serves one request in-process and returns its exit code.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from collections.abc import Iterable
from time import perf_counter

from . import chains, qarith
from .chains import CLOSED_FORM_CAP, COUNT_BITS_CAP, DEFAULT_NODE_BUDGET, POLY_BITS_CAP
from .qarith import brief

RECORD_KEYS = ("p", "n", "F", "D", "C", "method", "elapsed_ms")
FORMATS = ("text", "json", "csv")

DEFAULT_VERIFY_PRIMES = "2,3,5,7"
DEFAULT_VERIFY_MAX_N = 10
DEFAULT_VERIFY_GRID = "2:6,3:3,5:2,7:2"


def _record(p, n: int, counts: chains.ChainCounts, method: str, elapsed_ms: float) -> dict:
    # F/D/C as decimal strings: values are unbounded and must never be
    # truncated or switched to scientific notation. The recurrence's D and C
    # are F - 1 and 2F - 1 by construction, so they are derived from F's
    # digits; the oracle's are its own lattice tallies, each rendered, so a
    # fault in the lattice count shows.
    digits = _rooted_digits(counts.rooted) if method == "recurrence" else map(str, counts)
    return dict(zip(RECORD_KEYS, (p, n, *digits, method, round(elapsed_ms, 3))))


_TWICE_MOD_10 = str.maketrans("0123456789", "0246802468")
_TWICE_DIV_10 = str.maketrans("0123456789", "\x00" * 5 + "\x01" * 5)


def _rooted_digits(rooted: int) -> tuple[str, str, str]:
    """F, D = F - 1 and C = 2F - 1 in decimal, by one str() of F and linear steps on its digits.

    str() of a big int is quadratic before Python 3.12. D: F's trailing zeros
    become nines and the digit before them drops by one. C = 2D + 1: digit i
    of 2D is 2 d_i mod 10 plus the carry 2 d_(i+1) div 10 of its right
    neighbour, at most 8 + 1, so the two digit strings, read as byte strings
    and added as integers, carry across no byte; 2D is even, so the + 1 only
    raises its last digit. A 1 leads when D's first digit is 5 or more.
    """
    f = str(rooted)
    head = f.rstrip("0")
    d = (head[:-1] + str(int(head[-1]) - 1) + "9" * (len(f) - len(head))).lstrip("0") or "0"
    twice = (d.translate(_TWICE_MOD_10), (d[1:] + "0").translate(_TWICE_DIV_10))
    c = sum(int.from_bytes(part.encode(), "big") for part in twice) + 1
    return f, d, ("1" if d[0] >= "5" else "") + c.to_bytes(len(d), "big").decode()


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
    chains.check_count_bits(args.max_n, args.p)
    # A generator, so each record is printed before the next rank is computed.
    _print_records((_counts_record(args.p, n) for n in range(args.max_n + 1)), args.format)
    return 0


def _parse_entries(flag: str, text: str, form: str) -> list[tuple[int, ...]]:
    """Comma-separated entries of colon-separated integers shaped like `form` ("p", "p:max_n")."""
    entries = []
    # With no entry, the whole text is the one token refused.
    for token in [token for token in map(str.strip, text.split(",")) if token] or [text]:
        try:
            entry = tuple(map(int, token.split(":")))
        except ValueError:
            entry = ()
        if len(entry) != form.count(":") + 1:
            raise ValueError(f"{flag} expects comma-separated entries of the form {form}, got {brief(repr(token))}")
        entries.append(entry)
    return entries


def _compare(got, want, shown: str, labels=("lattice", "formula")) -> tuple[bool, str]:
    """A check's (ok, detail): `shown` when the two agree, else both values under their labels."""
    return got == want, shown if got == want else f"{labels[0]} {got} != {labels[1]} {want}"


def _methods_checks(args: argparse.Namespace):
    primes = [p for (p,) in _parse_entries("--p", DEFAULT_VERIFY_PRIMES if args.p is None else args.p, "p")]
    max_n = DEFAULT_VERIFY_MAX_N if args.max_n is None else args.max_n
    chains.check_closed_form_rank(max_n)
    chains.check_count_bits(max_n, *primes)
    yield
    for p in primes:
        for n, b in enumerate(chains.closed_form_counts(max_n, p)):
            a, shown = chains.bounded_chains_recurrence(n, p), f"{chains.chain_counts(n, p).rooted} rooted"
            yield "methods-agree", p, n, *_compare(a, b, shown, ("recurrence", "closed_form"))


def _oracle_checks(args: argparse.Namespace):
    from . import lattice

    grid = _parse_entries("--oracle", DEFAULT_VERIFY_GRID if args.oracle is None else args.oracle, "p:max_n")
    nodes = 0
    for p, n_hi in grid:
        if n_hi < 1:
            raise ValueError(f"--oracle entry {brief(p)}:{brief(n_hi)} checks no rank; max_n must be >= 1")
        nodes += lattice.check_size(p, n_hi, args.budget)
    # The grid is bounded as a whole, however often it repeats an entry. The lower ranks
    # built for each entry are left out: they add about a tenth at p = 2, less at larger p.
    if nodes > args.budget:
        raise ValueError(
            f"the {brief(len(grid))} lattices have {brief(nodes)} nodes in all, over the budget of {brief(args.budget)}"
        )
    yield
    for p, n_hi in grid:
        for n in range(1, n_hi + 1):
            oracle = lattice.count_chains(lattice.build_lattice(p, n, budget=args.budget))
            rooted = chains.chain_counts(n, p).rooted
            yield "oracle-rooted", p, n, *_compare(oracle.counts.rooted, rooted, str(rooted))
            census = tuple(qarith.q_pascal_row(n, p, n))
            yield "oracle-subspace-counts", p, n, *_compare(oracle.subgroups_by_dim, census, ",".join(map(str, census)))
            # The lattice's three tallies against the D and C that count prints from F.
            F, D, C = oracle.counts
            yield "oracle-identities", p, n, tuple(map(str, oracle.counts)) == _rooted_digits(F), f"F={F} D={D} C={C}"


# verify's check families, keyed by the flags that select them; with no flag
# given, all run. A new family is a row here, its flags in build_parser, and a
# generator of the parsed args that defaults its unset flags, refuses bad values
# with ValueError, does a bare `yield` (so every chosen family refuses before any
# check prints), then yields one (name, p, n, ok, detail) per check.
VERIFY_FAMILIES = {("p", "max_n"): _methods_checks, ("oracle",): _oracle_checks}


def cmd_verify(args: argparse.Namespace) -> int:
    chains.check_budget(args.budget)
    chosen = [family for flags, family in VERIFY_FAMILIES.items() if any(getattr(args, f) is not None for f in flags)]
    families = [family(args) for family in chosen or VERIFY_FAMILIES.values()]
    for checks in families:
        next(checks)
    results = []
    for name, p, n, ok, detail in (line for checks in families for line in checks):
        print(f"{'PASS' if ok else 'FAIL'} {name} p={p} n={n} ({detail})")
        results.append(ok)
    print(f"{sum(results)}/{len(results)} checks passed")
    return 0 if all(results) else 1


def cmd_oracle(args: argparse.Namespace) -> int:
    from . import lattice

    # Validate the request and open the dump file before the lattice is built, so a bad
    # path costs nothing; building and counting do no I/O, so an OSError is the dump's.
    lattice.check_size(args.p, args.n, args.budget)
    try:
        with open(args.dump, "w", encoding="utf-8") if args.dump is not None else contextlib.nullcontext() as dump:
            start = perf_counter()
            lat = lattice.build_lattice(args.p, args.n, budget=args.budget)
            oracle = lattice.count_chains(lat)
            elapsed_ms = (perf_counter() - start) * 1000.0
            if args.dump is not None:
                dump.writelines(line + "\n" for line in lat.dump_lines())
    except OSError as exc:
        raise ValueError(f"cannot write the lattice dump: {exc}") from None
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


class _Parser(argparse.ArgumentParser):
    """A parser whose refusals are main's one `error:` line, each word over 40 characters shown by brief.

    A message still over 160 bytes (many short words) keeps its first 140 bytes and states its length.
    """

    def print_help(self, file=None):
        # argparse (3.11 on) drops an OSError from this write, so on unbuffered stdout a
        # failed --help would exit 0; raised, it is main's failed write like any other.
        (file or sys.stdout).write(self.format_help())

    def error(self, message: str):
        text = " ".join(map(brief, message.split()))
        if len(text.encode()) > 160:
            text = f"{text.encode()[:140].decode(errors='ignore')}... ({len(text)} characters)"
        raise ValueError(text)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="subchains",
        description=(
            "Exact counts of chains of subgroups of the elementary abelian group Z_p^n: "
            "rooted chains (F), unrooted chains (D), and all chains (C), as integers or "
            "as polynomials in p, with a brute-force subgroup-lattice verifier."
        ),
        epilog=(
            f"Limits: verify refuses closed-form ranks above {CLOSED_FORM_CAP}; verify and oracle "
            f"refuse lattices of more than --budget nodes (default {DEFAULT_NODE_BUDGET}), summed over "
            "verify's --oracle grid; count, table "
            f"and verify refuse counts predicted at more than {COUNT_BITS_CAP} bits (n(n-1)/2*log2(p) "
            "at the top rank, summed over verify's bases; a count can have up to n*log2(n)+1 bits more), "
            f"poly polynomials of more than {POLY_BITS_CAP} bits (n(n-1)/2*n*log2(n)). "
            "Exit codes: 0 ok, 1 verification mismatch, 2 usage, domain or write error, 141 stdout closed early."
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
    verify.set_defaults(func=cmd_verify)

    oracle = sub.add_parser("oracle", help="brute-force lattice counts for one (p, n)")
    oracle.add_argument("--p", type=int, required=True, help="prime base of the group")
    oracle.add_argument("--n", type=int, required=True, help="rank of the group, >= 0")
    oracle.add_argument("--dump", metavar="PATH", help="write the full lattice (nodes and edges) to a file")
    for command in (verify, oracle):
        command.add_argument(
            "--budget", type=int, default=DEFAULT_NODE_BUDGET, help="lattice node budget (default %(default)s)"
        )
    oracle.add_argument("--format", choices=FORMATS, default="text")
    oracle.set_defaults(func=cmd_oracle)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Serve one request in-process and return its exit code; the digit limit is lifted only while it runs."""
    # Counts grow past the interpreter's default int-to-str digit limit, and
    # output must be exact decimal, never truncated.
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:  # --help, after printing its text
            code = exc.code or 0
        else:
            code = args.func(args)
        sys.stdout.flush()
        return code
    except (ValueError, OSError, chains.CertificateError) as exc:
        # A bad request, a failed write (a closed pipe, a full disk) or a count that failed its
        # certificate. If stdout failed, a second flush fails too: point it at devnull so the
        # flushes after main returns (run's, or the interpreter's at exit) stay quiet.
        try:
            sys.stdout.flush()
        except OSError:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            return 141
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, chains.CertificateError) else 2
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def run() -> None:
    """The process entry of `subchains` and `python -m subchains`: main, then os._exit with its code.

    Once main has returned and stdout and stderr are flushed, the process ends
    without the interpreter's teardown (clearing modules, the final collections,
    freeing every object), work the OS does anyway at about 7 ms a request.
    atexit handlers do not run; a caller that needs them calls main in-process.
    An exception that escapes main propagates with its traceback, as before.
    """
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)
