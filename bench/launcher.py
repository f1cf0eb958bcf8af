"""Run one subchains CLI request with per-layer spans and counters.

    PYTHONPATH=src python3 bench/launcher.py <CLI arguments>

The launcher wraps the package's public functions, then calls
subchains.cli.main, so the request runs the same code as
`python3 -m subchains <CLI arguments>` and prints the same stdout. Each
wrapped call records a span (name, start, end, parent) in memory; when the
request ends, the per-name totals and the counters go to stderr as one line
that starts with MARK.

Where a per-call span would cost more than the work it measures, a counter
stands in: the binomial caches are rebuilt around a timed miss path, so
cache hits stay in C and are read back from cache_info(), and containment
tests are counted without a span.

The recurrence, the polynomial recurrence and the lattice build also record
how far they raise the process's peak resident set (ru_maxrss). tracemalloc
would give exact Python-heap peaks, but it slows the polynomial products
about fifteenfold (poly --n 28: 0.4 s to 6.2 s), more than a traced run can
afford.

A function, method or cache attribute that a refactor removed is listed
under "absent" instead of failing the request.
"""

from __future__ import annotations

import functools
import json
import resource
import sys
from collections import Counter
from time import perf_counter

MARK = "BENCHTRACE "
PEAK_NAMES = ("chains.recurrence", "chains.poly", "lattice.build")


class Tracer:
    """Spans and counters of one request, kept in memory until it ends."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, nested in same name]
        self.stack: list[int] = []
        self.open_names: Counter = Counter()
        self.counters: Counter = Counter()
        self.caches: dict[str, object] = {}
        self.peaks_mb: dict[str, float] = {}
        self.absent: set[str] = set()

    def wrap(self, name: str, fn, before=None, after=None):
        """fn with a span named name; before(args, kwargs) and after(args, result) update counters."""
        tracer = self
        peak = name in PEAK_NAMES

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            base_kib = _max_rss_kib() if peak else 0
            index = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            tracer.spans.append([name, perf_counter(), 0.0, parent, tracer.open_names[name] > 0])
            tracer.stack.append(index)
            tracer.open_names[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.spans[index][2] = perf_counter()
                tracer.stack.pop()
                tracer.open_names[name] -= 1
                if peak:
                    grown = (_max_rss_kib() - base_kib) / 1024.0
                    tracer.peaks_mb[name] = max(tracer.peaks_mb.get(name, 0.0), grown)
            if after is not None:
                after(args, result)
            return result

        return traced

    def count(self, key: str, fn):
        """fn with a call counter and no span, for calls too cheap to time one by one."""
        counters = self.counters

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        return counted

    def report(self, cache_entries: int | None) -> dict:
        """Per-name span totals: calls, outermost inclusive seconds, self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        spans: dict[str, dict] = {}
        for (name, start, end, _, nested), inner in zip(self.spans, child):
            entry = spans.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += end - start - inner
            if not nested:
                entry["s"] += end - start
        caches = {}
        for name, cached in self.caches.items():
            info = cached.cache_info()
            caches[name] = {"hits": info.hits, "misses": info.misses}
        return {
            "spans": spans,
            "counters": dict(self.counters),
            "caches": caches,
            "cache_entries": cache_entries,
            "peaks_mb": self.peaks_mb,
            "absent": sorted(self.absent),
        }


def _max_rss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _modules():
    return [m for name, m in list(sys.modules.items()) if name == "subchains" or name.startswith("subchains.")]


def rebind(old, new) -> None:
    """Point every subchains module binding of old at new."""
    for module in _modules():
        for key in [k for k, v in vars(module).items() if v is old]:
            setattr(module, key, new)


def patch_function(tracer: Tracer, module, attr: str, name: str, before=None, after=None, metrics=()) -> None:
    fn = getattr(module, attr, None)
    if not callable(fn):
        tracer.absent.update(metrics or (name,))
        return
    rebind(fn, tracer.wrap(name, fn, before, after))


def patch_cached(tracer: Tracer, module, attr: str, name: str) -> None:
    """Rebuild an lru_cache around a timed miss path; plain span if there is no cache."""
    fn = getattr(module, attr, None)
    if not callable(fn):
        tracer.absent.update((name, name + ".misses", name + ".hit_ratio"))
        return
    inner = getattr(fn, "__wrapped__", None)
    params = getattr(fn, "cache_parameters", None)
    if inner is None or params is None:
        tracer.absent.update((name + ".misses", name + ".hit_ratio"))
        rebind(fn, tracer.wrap(name, fn))
        return
    cached = functools.lru_cache(**params())(tracer.wrap(name, inner))
    tracer.caches[name] = cached
    rebind(fn, cached)


def patch_method(tracer: Tracer, cls, attr: str, name: str, before=None, after=None, metrics=()) -> None:
    fn = getattr(cls, attr, None) if cls is not None else None
    if not callable(fn):
        tracer.absent.update(metrics or (name,))
        return
    wrapped = tracer.wrap(name, fn, before, after)
    for key in [k for k, v in vars(cls).items() if v is fn]:
        setattr(cls, key, wrapped)


def patch_counter(tracer: Tracer, cls, attr: str, key: str) -> None:
    fn = getattr(cls, attr, None) if cls is not None else None
    if not callable(fn):
        tracer.absent.add(key)
        return
    setattr(cls, attr, tracer.count(key, fn))


def cache_entries(module) -> int | None:
    """Entries held by the module's lru caches; None when it has none."""
    sizes = [v.cache_info().currsize for v in vars(module).values() if hasattr(v, "cache_info")]
    return sum(sizes) if sizes else None


def _arg(args, kwargs, index: int, key: str):
    return kwargs[key] if key in kwargs else args[index]


def install(tracer: Tracer) -> None:
    """Wrap every layer the benchmark reports on; missing names become absent metrics."""
    from subchains import chains, cli, lattice, polynomial, qarith

    counters = tracer.counters

    patch_cached(tracer, qarith, "gaussian_binomial", "qarith.gaussian_binomial")
    patch_cached(tracer, qarith, "gaussian_binomial_poly", "qarith.gaussian_binomial_poly")

    reached: dict = {}

    def recurrence_mults(args, kwargs):
        # Products the O(n^2) recurrence needs for ranks this process has not reached yet.
        n, p = _arg(args, kwargs, 0, "n"), _arg(args, kwargs, 1, "p")
        done = reached.get(p, 0)
        if n > done:
            counters["chains.recurrence.mults"] += (n * (n + 1) - done * (done + 1)) // 2
            reached[p] = n

    def closed_form_terms(args, kwargs):
        n = _arg(args, kwargs, 0, "n")
        counters["chains.closed_form.terms"] += 1 << (n - 1) if n > 0 else 1

    patch_function(tracer, chains, "bounded_chains_recurrence", "chains.recurrence", before=recurrence_mults)
    patch_function(tracer, chains, "bounded_chains_closed_form", "chains.closed_form", before=closed_form_terms)
    patch_function(tracer, chains, "bounded_chains_poly", "chains.poly")

    poly_cls = getattr(polynomial, "IntPolynomial", None)

    def coeff_products(args, kwargs):
        a, b = args[0], args[1]
        try:
            counters["polynomial.mul.coeff_products"] += len(a.coeffs) * (len(b.coeffs) if hasattr(b, "coeffs") else 1)
        except (AttributeError, TypeError):
            tracer.absent.add("polynomial.mul.coeff_products")

    def rendered_coefficients(args, result):
        counters["cli.render.digits"] += sum(map(len, result))

    def rendered_text(args, result):
        counters["cli.render.digits"] += sum(map(str.isdigit, result))

    patch_method(
        tracer, poly_cls, "__mul__", "polynomial.mul", before=coeff_products,
        metrics=("polynomial.mul", "polynomial.mul.coeff_products"),
    )
    patch_method(
        tracer, poly_cls, "coefficient_strings", "cli.render", after=rendered_coefficients,
        metrics=("polynomial.coefficient_strings",),
    )
    patch_method(tracer, poly_cls, "to_text", "cli.render", after=rendered_text, metrics=("polynomial.to_text",))

    def built(args, result):
        try:
            nodes, pairs = len(result.nodes), sum(map(len, result.below))
        except (AttributeError, TypeError):
            tracer.absent.update(("lattice.nodes", "lattice.containment.pairs"))
            return
        counters["lattice.nodes"] += nodes
        counters["lattice.containment.pairs"] += pairs

    patch_function(tracer, lattice, "enumerate_subspaces", "lattice.enumerate")
    patch_function(tracer, lattice, "build_lattice", "lattice.build", after=built)
    patch_function(tracer, lattice, "count_chains", "lattice.count_chains")
    patch_counter(tracer, getattr(lattice, "Subspace", None), "is_subspace_of", "lattice.containment.tests")

    def rendered_record(args, result):
        try:
            counters["cli.render.digits"] += sum(len(str(result[key])) for key in ("F", "D", "C"))
        except (KeyError, TypeError):
            tracer.absent.add("cli._record")

    # Rendering is spread over several helpers; a missing one is reported by
    # its own name, and cli.render keeps the time of the others.
    patch_function(tracer, cli, "_record", "cli.render", after=rendered_record, metrics=("cli._record",))
    patch_function(tracer, cli, "_print_records", "cli.render", metrics=("cli._print_records",))
    patch_function(tracer, cli, "_json_line", "cli.render", metrics=("cli._json_line",))


def main(argv: list[str]) -> int:
    from subchains import cli, qarith

    tracer = Tracer()
    install(tracer)
    code = 2
    try:
        code = tracer.wrap("cli.main", cli.main)(argv)
    finally:
        sys.stdout.flush()
        print(MARK + json.dumps(tracer.report(cache_entries(qarith))), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
