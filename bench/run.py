"""The subchains benchmark: wall time of real CLI requests, checked for correctness.

    python3 bench/run.py --workload count-deep --seed 1 --seconds 30 --trace 0

Run it from the repository root. Every request is one `python3 -m subchains`
child process against ./src; one client sends the next request only after the
previous one has exited and its stdout has passed the correctness gate
(closed loop, one child at a time). The requests come from the seeded decks in
workloads.py; the program sees nothing but CLI arguments.

--trace 0 prints the end-to-end metrics. A setup probe (a request with no
counting work) and the REFERENCE request run after every second work request;
the probe's median is setup_s, and the reference calibrates every timing.
Whole decks are replayed until the next one would end past --seconds, and at
least MIN_SAMPLES work requests are made when the time allows, so the tail
percentile stays put from run to run.

--trace 1 prints the per-layer metrics instead. Every request runs twice:
untraced, then through launcher.py. Both stdouts must pass the gate and agree
byte for byte once timing fields are blanked. Whole decks are replayed as
above, without probes. Per-layer values are means per request; ratios and
peaks are taken over the whole run.

The human-readable lines come first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics. The exit code is
0 only when a run completed, whether or not its answers were correct, and 2
when the checkout holds no src/subchains.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import monotonic, perf_counter

import gate
import launcher
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

MIN_SAMPLES = 40
# The shared machine's speed drifts by 20-40% over minutes, and the drift
# moves every timing of a run together. Each run therefore also times this
# reference request, which runs no subchains code (-I ignores PYTHONPATH):
# interpreter start, the CLI's stdlib imports and a fixed loop. Every timing
# metric is scaled by REFERENCE_S / (median reference time of the run), i.e.
# reported as if the reference took REFERENCE_S. The raw values are printed
# above the result.
REFERENCE = (
    sys.executable,
    "-I",
    "-c",
    "import argparse, csv, json\nx = 0\nfor i in range(300000):\n    x += i * i\n",
)
REFERENCE_S = 0.1
PROBE_EVERY = 2
REQUEST_TIMEOUT_S = 60.0
WARMUP_TIMEOUT_S = 30.0
# Past --seconds plus this grace, no new request starts and running ones are
# killed, so a run always exits well inside three minutes.
GRACE_S = 60.0
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
KIB_PER_MB = 1024.0  # ru_maxrss is in KiB on Linux

E2E_UNITS = {
    "wall_s.p50": "s",
    "wall_s.tail": "s",
    "requests_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "success_ratio": "ratio",
}

# name -> unit; see README.md for what each one should move.
LAYER_UNITS = {
    "qarith.gaussian_binomial.s": "s",
    "qarith.gaussian_binomial.calls": "count",
    "qarith.gaussian_binomial.misses": "count",
    "qarith.gaussian_binomial.hit_ratio": "ratio",
    "qarith.gaussian_binomial_poly.s": "s",
    "qarith.gaussian_binomial_poly.misses": "count",
    "qarith.cache_entries": "count",
    "chains.recurrence.self_s": "s",
    "chains.recurrence.mults": "count",
    "chains.recurrence.peak_mb": "MB",
    "chains.poly.self_s": "s",
    "chains.poly.peak_mb": "MB",
    "chains.closed_form.self_s": "s",
    "chains.closed_form.terms": "count",
    "polynomial.mul.calls": "count",
    "polynomial.mul.s": "s",
    "polynomial.mul.coeff_products": "count",
    "lattice.enumerate.s": "s",
    "lattice.nodes": "count",
    "lattice.containment.s": "s",
    "lattice.containment.tests": "count",
    "lattice.containment.pairs": "count",
    "lattice.containment.hit_ratio": "ratio",
    "lattice.count_chains.s": "s",
    "lattice.build.peak_mb": "MB",
    "cli.render.s": "s",
    "cli.render.digits": "count",
    "cli.main.s": "s",
    "trace.overhead_ratio": "ratio",
}

# Layer times whose share of cli.main.s is printed per subcommand.
SHARE_LAYERS = (
    "qarith.gaussian_binomial.s",
    "chains.recurrence.self_s",
    "chains.closed_form.self_s",
    "chains.poly.self_s",
    "polynomial.mul.s",
    "qarith.gaussian_binomial_poly.s",
    "lattice.enumerate.s",
    "lattice.containment.s",
    "lattice.count_chains.s",
    "cli.render.s",
)


class Spawner:
    """Runs requests one at a time through spawn.py and reads back their output."""

    def __init__(self):
        # Request output goes to files in the checkout; the directory is removed by close().
        self.tmp = Path(tempfile.mkdtemp(prefix=".bench_tmp.", dir=ROOT))
        self.files = {"stdout": str(self.tmp / "stdout"), "stderr": str(self.tmp / "stderr")}
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "spawn.py")],
            cwd=ROOT,
            env=child_env(),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def run(self, argv: list[str], timeout: float) -> Child:
        self.proc.stdin.write(json.dumps({"argv": argv, "timeout": timeout, **self.files}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("spawn.py exited")
        outcome = json.loads(line)
        with open(self.files["stdout"], encoding="utf-8", errors="replace") as out:
            stdout = out.read()
        with open(self.files["stderr"], encoding="utf-8", errors="replace") as err:
            stderr = err.read()
        return Child(outcome, stdout, stderr)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        try:
            self.proc.wait(timeout=REQUEST_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        shutil.rmtree(self.tmp, ignore_errors=True)


class Child:
    """Outcome of one request: wall time from spawn to exit, output, max RSS."""

    def __init__(self, outcome: dict, stdout: str, stderr: str):
        self.wall_s = outcome["wall_s"]
        self.code = outcome["code"]
        self.timed_out = outcome["timed_out"]
        self.rss_mb = outcome["max_rss_kib"] / KIB_PER_MB
        self.stdout = stdout
        self.stderr = stderr


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("SUBCHAINS_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def untraced(argv) -> list[str]:
    return [sys.executable, "-m", "subchains", *argv]


def traced(argv) -> list[str]:
    return [sys.executable, str(BENCH_DIR / "launcher.py"), *argv]


def environment() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {
        "python": platform.python_version(),
        "commit": commit or "unknown",
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "int_max_str_digits": sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None,
    }


class Run:
    """Requests of one run and their verdicts."""

    def __init__(self, expected: dict, seconds: float, spawner: Spawner):
        self.expected = expected
        self.spawner = spawner
        self.start = monotonic()
        self.seconds = seconds
        self.attempted = 0
        self.work = 0
        self.failed = 0
        self.failures: list[str] = []

    def elapsed(self) -> float:
        return monotonic() - self.start

    def over(self) -> bool:
        return self.elapsed() > self.seconds + GRACE_S

    def child(self, argv: list[str], timeout: float | None = None) -> Child:
        if timeout is None:
            timeout = max(1.0, min(REQUEST_TIMEOUT_S, self.seconds + GRACE_S - self.elapsed()))
        return self.spawner.run(argv, timeout)

    def verdict(self, argv, child: Child, reference: str | None = None) -> str | None:
        if child.timed_out:
            return "timed out"
        if child.code != 0:
            return f"exit code {child.code}: {child.stderr.strip()[-200:]}"
        reason = gate.check(argv, child.stdout, self.expected)
        if reason is None and reference is not None and gate.mask_timing(child.stdout) != gate.mask_timing(reference):
            reason = "traced stdout differs from untraced stdout"
        return reason

    def tally(self, argv, reason: str | None) -> bool:
        self.attempted += 1
        self.work += argv is not workloads.PROBE
        if reason is None:
            return True
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(f"{' '.join(argv)}: {reason}")
        return False


def tail_percentile(n: int) -> float:
    """Highest of TAIL_PERCENTILES that leaves at least ten samples beyond it (50 below 20 samples)."""
    for q in TAIL_PERCENTILES:
        if n - math.ceil(q / 100.0 * n) >= 10:
            return q
    return 50.0


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def paced_decks(name: str, seed: int, run: Run, min_requests: int = 0):
    """Whole decks, at least one, until the next would end past --seconds.

    Below min_requests work requests, a new deck starts as long as --seconds
    has not passed yet.
    """
    deck_s = 0.0
    for deck in workloads.decks(name, seed):
        short = run.work < min_requests and run.elapsed() < run.seconds
        if run.work and run.elapsed() + deck_s > run.seconds and not short or run.over():
            return
        begin = monotonic()
        yield deck
        deck_s = monotonic() - begin


def measure_e2e(name: str, seed: int, run: Run) -> dict:
    walls: list[float] = []
    probes: list[float] = []
    references: list[float] = []
    busy = 0.0
    rss = 0.0
    run.child(untraced(workloads.PROBE), WARMUP_TIMEOUT_S)  # warm-up: bytecode and page caches
    run.start = monotonic()
    for deck in paced_decks(name, seed, run, MIN_SAMPLES):
        for i, argv in enumerate(deck):
            if run.over():
                break
            begin = perf_counter()
            child = run.child(untraced(argv))
            ok = run.tally(argv, run.verdict(argv, child))
            busy += perf_counter() - begin
            rss = max(rss, child.rss_mb)
            if ok:
                walls.append(child.wall_s)
            if i % PROBE_EVERY == PROBE_EVERY - 1:
                probe = run.child(untraced(workloads.PROBE))
                if run.tally(workloads.PROBE, run.verdict(workloads.PROBE, probe)):
                    probes.append(probe.wall_s)
                rss = max(rss, probe.rss_mb)
                reference = run.child(list(REFERENCE))
                if reference.code == 0 and not reference.timed_out:
                    references.append(reference.wall_s)
    q = tail_percentile(len(walls))
    raw = {
        "wall_s.p50": statistics.median(walls) if walls else 0.0,
        "wall_s.tail": percentile(walls, q) if len(walls) >= 20 else statistics.median(walls or [0.0]),
        "requests_per_s": len(walls) / busy if busy else 0.0,
        "setup_s": statistics.median(probes) if probes else 0.0,
    }
    scale = REFERENCE_S / statistics.median(references) if references else 1.0
    print(f"work requests: {len(walls)} correct, tail is p{q:g} of {len(walls)} samples; setup probes: {len(probes)}")
    print(f"error_ratio: {run.failed / max(run.attempted, 1):.6g} ({run.failed}/{run.attempted})")
    print(f"reference: median {REFERENCE_S / scale!r} s of {len(references)}; timings scaled by {scale!r}")
    print("raw: " + " ".join(f"{key}={value!r}" for key, value in raw.items()))
    return {
        "wall_s.p50": raw["wall_s.p50"] * scale,
        "wall_s.tail": raw["wall_s.tail"] * scale,
        "requests_per_s": raw["requests_per_s"] / scale,
        "peak_rss_mb": rss,
        "setup_s": raw["setup_s"] * scale,
        "success_ratio": 1.0 - run.failed / max(run.attempted, 1),
    }


def _trace_report(child: Child) -> dict:
    for line in reversed(child.stderr.splitlines()):
        if line.startswith(launcher.MARK):
            return json.loads(line[len(launcher.MARK):])
    raise ValueError("no trace line on stderr")


class LayerTotals:
    """Per-layer sums over a run's traced requests."""

    def __init__(self):
        self.sums: dict[str, float] = dict.fromkeys(LAYER_UNITS, 0.0)
        self.peaks: dict[str, float] = {}
        self.absent: set[str] = set()
        self.requests = 0
        self.hits = 0
        self.wall_untraced = 0.0
        self.wall_traced = 0.0
        self.by_command: dict[str, dict[str, float]] = {}

    def add(self, command: str, report: dict, wall_untraced: float, wall_traced: float) -> None:
        self.requests += 1
        self.wall_untraced += wall_untraced
        self.wall_traced += wall_traced
        spans, counters = report["spans"], report["counters"]

        def span(name: str, field: str = "s") -> float:
            return spans.get(name, {}).get(field, 0.0)

        values = {
            "qarith.gaussian_binomial.s": span("qarith.gaussian_binomial"),
            "qarith.gaussian_binomial_poly.s": span("qarith.gaussian_binomial_poly"),
            "chains.recurrence.self_s": span("chains.recurrence", "self_s"),
            "chains.poly.self_s": span("chains.poly", "self_s"),
            "chains.closed_form.self_s": span("chains.closed_form", "self_s"),
            "polynomial.mul.calls": span("polynomial.mul", "calls"),
            "polynomial.mul.s": span("polynomial.mul"),
            "lattice.enumerate.s": span("lattice.enumerate"),
            "lattice.containment.s": span("lattice.build", "self_s"),
            "lattice.count_chains.s": span("lattice.count_chains"),
            "cli.render.s": span("cli.render"),
            "cli.main.s": span("cli.main"),
        }
        for key in (
            "chains.recurrence.mults",
            "chains.closed_form.terms",
            "polynomial.mul.coeff_products",
            "lattice.nodes",
            "lattice.containment.tests",
            "lattice.containment.pairs",
            "cli.render.digits",
        ):
            values[key] = counters.get(key, 0)
        gb = report["caches"].get("qarith.gaussian_binomial")
        if gb is not None:
            values["qarith.gaussian_binomial.calls"] = gb["hits"] + gb["misses"]
            values["qarith.gaussian_binomial.misses"] = gb["misses"]
            self.hits += gb["hits"]
        else:
            values["qarith.gaussian_binomial.calls"] = span("qarith.gaussian_binomial", "calls")
        gbp = report["caches"].get("qarith.gaussian_binomial_poly")
        if gbp is not None:
            values["qarith.gaussian_binomial_poly.misses"] = gbp["misses"]
        for key, value in values.items():
            self.sums[key] += value
        per_command = self.by_command.setdefault(command, dict.fromkeys(SHARE_LAYERS + ("cli.main.s",), 0.0))
        for key in per_command:
            per_command[key] += values[key]

        if report["cache_entries"] is None:
            self.absent.add("qarith.cache_entries")
        else:
            self._peak("qarith.cache_entries", report["cache_entries"])
        for name, mb in report["peaks_mb"].items():
            self._peak(f"{name}.peak_mb", mb)
        self.absent.update(report["absent"])

    def _peak(self, key: str, value: float) -> None:
        self.peaks[key] = max(self.peaks.get(key, 0.0), value)

    def metrics(self) -> dict[str, float]:
        n = max(self.requests, 1)
        out = {key: value / n for key, value in self.sums.items()}
        out.update(dict.fromkeys((k for k in LAYER_UNITS if k.endswith("peak_mb")), 0.0))
        out.update(self.peaks)
        calls = self.sums["qarith.gaussian_binomial.calls"]
        out["qarith.gaussian_binomial.hit_ratio"] = self.hits / calls if calls else 0.0
        tests = self.sums["lattice.containment.tests"]
        out["lattice.containment.hit_ratio"] = self.sums["lattice.containment.pairs"] / tests if tests else 0.0
        out["trace.overhead_ratio"] = self.wall_traced / self.wall_untraced if self.wall_untraced else 0.0
        for key in self.absent_metrics():
            out[key] = 0.0
        return out

    def absent_metrics(self) -> set[str]:
        """Metrics that a missing function or attribute left unmeasured."""
        keys = set()
        for name in self.absent:
            keys.update(k for k in LAYER_UNITS if k == name or k.startswith(name + "."))
            if name == "lattice.build":
                keys.update(k for k in LAYER_UNITS if k.startswith("lattice.containment"))
            if name == "lattice.containment.tests":
                keys.add("lattice.containment.hit_ratio")
        return keys


def measure_layers(name: str, seed: int, run: Run) -> dict:
    totals = LayerTotals()
    for argv in itertools.chain.from_iterable(paced_decks(name, seed, run)):
        if run.over():
            break
        plain = run.child(untraced(argv))
        child = run.child(traced(argv))
        reason = run.verdict(argv, plain) or run.verdict(argv, child, reference=plain.stdout)
        if reason is None:
            try:
                report = _trace_report(child)
            except ValueError as exc:
                reason = str(exc)
        if run.tally(argv, reason):
            totals.add(argv[0], report, plain.wall_s, child.wall_s)
    for command, sums in sorted(totals.by_command.items()):
        main_s = sums["cli.main.s"]
        shares = " ".join(f"{key[:-2]}={value / main_s:.3f}" for key, value in sums.items() if value and main_s)
        print(f"share of cli.main.s [{command}]: {shares}")
    if totals.absent:
        print(f"absent in this checkout: {', '.join(sorted(totals.absent))}")
        print(f"absent per-layer metrics (reported as 0): {', '.join(sorted(totals.absent_metrics()))}")
    print(f"traced requests: {totals.requests}")
    return totals.metrics()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "subchains" / "cli.py").is_file():
        print(f"error: no subchains package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    expected = gate.load_expected()

    print("env " + json.dumps(environment(), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed}: {workloads.WORKLOADS[args.workload][0]}")
    spawner = Spawner()
    try:
        run = Run(expected, args.seconds, spawner)
        if args.trace:
            values, units = measure_layers(args.workload, args.seed, run), LAYER_UNITS
        else:
            values, units = measure_e2e(args.workload, args.seed, run), E2E_UNITS
    finally:
        spawner.close()
    for failure in run.failures:
        print(f"FAILED {failure}")
    for key, unit in units.items():
        print(f"{key} {values[key]!r} {unit}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {key: {"value": values[key], "unit": unit} for key, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
