"""Brute-force ground truth for the chain-count formulas.

The subgroups of Z_p^n are exactly the subspaces of the vector space F_p^n,
so the full subgroup lattice can be materialized by enumerating every
subspace in reduced row-echelon form (RREF is unique per subspace, which
makes the enumeration duplicate-free and subspace equality structural),
recording strict containment, and counting chains by dynamic programming
over the partial order.

Containment is not tested pair by pair. By the image lemma, the proper
subspaces of a d-dimensional node with RREF basis B are the images U·B of
the proper RREF subspaces U of F_p^d, and each image is already in RREF
(B's pivots carry U's), so it names its node by a plain lookup. One walk of
each F_p^d yields the U, less its last entry F_p^d, and at d = n the nodes.
Building therefore costs the number of comparable pairs, not the square of
the node count; is_subspace_of stays as the independent reference.

Everything here is exponential in nature and meant for small (p, n); a node
budget refuses anything larger, and so bounds the work: the worst lattice
the default budget admits, F_223^3, has about 11M comparable pairs. Field
arithmetic is plain integer remainder mod p, which requires p prime.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import combinations, product
from typing import NamedTuple

from .chains import DEFAULT_NODE_BUDGET, ChainCounts, check_budget
from .qarith import brief, check_column, check_rank, galois_number


def is_prime(m: int) -> bool:
    """Trial-division primality test; fine for word-sized moduli."""
    if m < 2:
        return False
    if m % 2 == 0:
        return m == 2
    f = 3
    while f * f <= m:
        if m % f == 0:
            return False
        f += 2
    return True


def _check_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {brief(p)}")


def check_size(p: int, n: int, budget: int = DEFAULT_NODE_BUDGET) -> None:
    """Refuse a negative budget, then a lattice of negative rank, over the budget, or over a non-prime base.

    Two bounds on the node count G_n(p) refuse the plainly oversized before
    any work scales with n or p: G_n(p) >= 2^n, as [n k]_p >= C(n, k), and
    G_n(p) > p once n >= 2. Bases above the budget are refused at every rank,
    which turns away only lattices of 1 or 2 nodes besides. The primality
    test then costs at most sqrt(budget) divisions, and the exact size,
    computed last, a rank of at most budget.bit_length().
    """
    check_budget(budget)
    check_rank(n)
    if n > budget.bit_length():
        shown = brief(n)
        raise ValueError(
            f"a rank-{shown} subspace lattice has at least 2^{shown} nodes, over the budget of {brief(budget)}"
        )
    if p > budget:
        raise ValueError(
            f"p={brief(p)} is over the node budget of {brief(budget)}; F_p^n has more than p subspaces once n >= 2"
        )
    _check_prime(p)
    nodes = galois_number(n, p)
    if nodes > budget:
        raise ValueError(
            f"the subspace lattice of F_{p}^{n} has {brief(nodes)} nodes, over the budget of {brief(budget)}"
        )


class Subspace(NamedTuple):
    """A subspace of F_p^n, held as its reduced row-echelon basis.

    rows is a tuple of basis rows with entries in [0, p); pivot columns
    strictly increase, each pivot is 1 and is the only nonzero entry in its
    column. The zero subspace has an empty rows tuple. Because RREF is
    canonical, structural equality of Subspace values is subspace equality.
    """

    p: int
    n: int
    rows: tuple[tuple[int, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.rows)

    @classmethod
    def from_vectors(cls, p: int, n: int, vectors: Iterable[Iterable[int]]) -> Subspace:
        """Canonical form of the span of arbitrary vectors (any integer entries)."""
        _check_prime(p)
        check_rank(n)
        rows = [[int(e) % p for e in v] for v in vectors]
        for row in rows:
            if len(row) != n:
                raise ValueError(f"vector length {len(row)} does not match ambient dimension {brief(n)}")
        rank = 0
        for col in range(n):
            pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
            if pivot is None:
                continue
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            inv = pow(rows[rank][col], -1, p)
            rows[rank] = [(e * inv) % p for e in rows[rank]]
            for i in range(len(rows)):
                if i != rank and rows[i][col]:
                    coef = rows[i][col]
                    rows[i] = [(a - coef * b) % p for a, b in zip(rows[i], rows[rank])]
            rank += 1
        return cls(p, n, tuple(tuple(row) for row in rows[:rank]))

    def is_subspace_of(self, other: Subspace) -> bool:
        """True iff every basis row of self reduces to zero against other's basis."""
        if (self.p, self.n) != (other.p, other.n):
            raise ValueError(
                f"ambient spaces differ: F_{self.p}^{self.n} vs F_{other.p}^{other.n}"
            )
        p = self.p
        for vec in self.rows:
            v = list(vec)
            for brow in other.rows:
                pivot_col = next(i for i, e in enumerate(brow) if e)
                coef = v[pivot_col]
                if coef:
                    v = [(a - coef * b) % p for a, b in zip(v, brow)]
            if any(v):
                return False
        return True


def enumerate_subspaces(p: int, n: int, k: int, budget: int = DEFAULT_NODE_BUDGET) -> list[Subspace]:
    """Every k-dimensional subspace of F_p^n exactly once, in canonical RREF.

    Walks the echelon shapes directly: choose the k pivot columns, then sweep
    the free entries (right of each pivot, outside pivot columns) through all
    of F_p in odometer order. Uniqueness of RREF makes this duplicate-free by
    construction. The whole (p, n) lattice must fit the node budget.
    """
    check_size(p, n, budget)
    check_column(n, k)
    out: list[Subspace] = []
    for pivots in combinations(range(n), k):
        pivot_set = set(pivots)
        free = [(i, c) for i, pc in enumerate(pivots) for c in range(pc + 1, n) if c not in pivot_set]
        base = [[0] * n for _ in range(k)]
        for i, pc in enumerate(pivots):
            base[i][pc] = 1
        for values in product(range(p), repeat=len(free)):
            rows = [row[:] for row in base]
            for (i, c), value in zip(free, values):
                rows[i][c] = value
            out.append(Subspace(p, n, tuple(tuple(row) for row in rows)))
    return out


class SubgroupLattice(NamedTuple):
    """All subspaces of F_p^n plus the strict-containment relation.

    nodes are sorted by dimension, then lexicographically by basis rows, so
    the first node is the zero space and the last is the full space.
    below[i] holds the indices of the nodes strictly contained in nodes[i].
    Instances are immutable and safe to share for read-only queries.
    """

    p: int
    n: int
    nodes: tuple[Subspace, ...]
    below: tuple[tuple[int, ...], ...]

    def dim_counts(self) -> tuple[int, ...]:
        """Number of nodes of each dimension 0..n."""
        counts = [0] * (self.n + 1)
        for node in self.nodes:
            counts[node.dim] += 1
        return tuple(counts)

    def dump_lines(self) -> Iterator[str]:
        """Plain-text dump in a stable order.

        One header line, then one line per node ('node <id> dim=<d>
        basis=<rows>', rows ';'-joined with ','-joined entries, '-' for the
        zero space), then one line per strict-containment edge
        ('edge <sub-id> <sup-id>'), sorted by (sub-id, sup-id).
        """
        yield f"lattice p={self.p} n={self.n} nodes={len(self.nodes)}"
        for i, node in enumerate(self.nodes):
            basis = ";".join(",".join(str(e) for e in row) for row in node.rows) or "-"
            yield f"node {i} dim={node.dim} basis={basis}"
        edges = sorted((sub, sup) for sup, under in enumerate(self.below) for sub in under)
        for sub, sup in edges:
            yield f"edge {sub} {sup}"


def _images(vectors: Iterable[tuple[int, ...]], basis: tuple[tuple[int, ...], ...], p: int) -> list[tuple[int, ...]]:
    """Each row vector v of F_p^d times the d-row matrix basis, reduced mod p."""
    columns = list(zip(*basis))
    return [tuple([sum(map(int.__mul__, v, col)) % p for col in columns]) for v in vectors]


def _local_subspaces(subspaces: list[Subspace]) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """The distinct rows of some RREF bases, and each basis as the positions of its rows."""
    vectors = sorted({row for s in subspaces for row in s.rows})
    slot = {row: i for i, row in enumerate(vectors)}
    return vectors, [tuple(map(slot.__getitem__, s.rows)) for s in subspaces]


def build_lattice(p: int, n: int, budget: int = DEFAULT_NODE_BUDGET) -> SubgroupLattice:
    """Materialize the full subspace lattice of F_p^n, within the node budget.

    Containment is stored as the full strict relation, not just covers,
    because the chain-counting pass sums over all proper subspaces. It is read
    off each node's basis rather than tested pair by pair: the proper subspaces
    of a node X of dimension d with RREF basis B are exactly the images U·B of
    the proper RREF subspaces U of F_p^d, one each. Each F_p^d is walked once,
    by dimension then rows: F_p^n's list is the node list, and each list less
    its last entry, F_p^d itself, is the U. The image needs no re-reduction,
    because it is already in RREF: row i of U has its leading 1 in some column
    c, so its image has zeros left of B's c-th pivot and a 1 on it, and every
    other row of U is 0 at c, so every other image row is 0 on that pivot. Each
    image is therefore found by one dictionary lookup of its rows, and the cost
    is the number of comparable pairs plus one small matrix product per node,
    not the square of the node count. A broken lemma would surface as a
    KeyError, never as a wrong relation.
    """
    check_size(p, n, budget)
    walks = ([s for k in range(d + 1) for s in enumerate_subspaces(p, d, k, budget=budget)] for d in range(n + 1))
    spaces = [sorted(walk, key=lambda s: (s.dim, s.rows)) for walk in walks]
    nodes = spaces[n]
    index = {node.rows: i for i, node in enumerate(nodes)}
    local = [_local_subspaces(space[:-1]) for space in spaces]
    # Tuples here are built from lists, whose length is known. One built from
    # a bare iterator is resized after it is filled, and CPython's tuple free
    # lists then keep up to 2000 freed tuples of each size: about 0.5 MB of
    # peak memory on even the smallest lattices.
    below = []
    for node in nodes:
        vectors, shapes = local[node.dim]
        image = _images(vectors, node.rows, p).__getitem__
        below.append(tuple(sorted([index[tuple([*map(image, shape)])] for shape in shapes])))
    return SubgroupLattice(p, n, tuple(nodes), tuple(below))


class OracleCounts(NamedTuple):
    """Ground-truth tallies from one lattice: chain counts plus the subspace census."""

    counts: ChainCounts
    subgroups_by_dim: tuple[int, ...]
    total_subgroups: int


def count_chains(lattice: SubgroupLattice) -> OracleCounts:
    """Count chains by dynamic programming over the containment order.

    tops[i] is the number of nonempty chains whose maximum is nodes[i]: one
    for the singleton, plus one extension of every chain topping out at a
    strictly smaller node. Nodes are sorted by dimension, so one increasing
    pass suffices. The rooted, unrooted, and total tallies are read off by
    direct summation; the identities relating them are NOT assumed here, so
    they stay available as an independent check.
    """
    tops: list[int] = []
    for under in lattice.below:
        tops.append(1 + sum(tops[j] for j in under))
    top_index = len(lattice.nodes) - 1
    rooted = tops[top_index]
    unrooted = sum(tops[:top_index])
    total = sum(tops)
    return OracleCounts(
        counts=ChainCounts(rooted=rooted, unrooted=unrooted, total=total),
        subgroups_by_dim=lattice.dim_counts(),
        total_subgroups=len(lattice.nodes),
    )
