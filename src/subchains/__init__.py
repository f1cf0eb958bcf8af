"""Exact chain counting in the subgroup lattice of Z_p^n.

Rooted chains of subgroups (those containing the whole group) are in
bijection with the distinct fuzzy subgroups of the group, which is what
makes these counts worth computing exactly. The package provides the counts
as unbounded integers for a fixed base and as integer polynomials in the
base, plus a brute-force subgroup-lattice oracle that validates everything
at small scale.

Names resolve on first use: `import subchains` loads no submodule, and the
first read of a public name imports its home module (listed in _HOMES) and
keeps the value here. So a caller pays only for the modules it touches.
"""

__version__ = "0.3.0"

# Every public name and the submodule that defines it.
_HOMES = {
    "ChainCounts": "chains",
    "bounded_chains_closed_form": "chains",
    "bounded_chains_poly": "chains",
    "bounded_chains_recurrence": "chains",
    "chain_counts": "chains",
    "rooted_chains_poly": "chains",
    "OracleCounts": "lattice",
    "SubgroupLattice": "lattice",
    "Subspace": "lattice",
    "build_lattice": "lattice",
    "count_chains": "lattice",
    "enumerate_subspaces": "lattice",
    "is_prime": "lattice",
    "IntPolynomial": "polynomial",
    "galois_number": "qarith",
}

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    # Only public names resolve here. Any other miss raises AttributeError, so
    # `from subchains import lattice` goes on to import the submodule.
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{_HOMES[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
