import random
from itertools import product
from time import perf_counter

import pytest
from hypothesis import given, settings, strategies as st

from subchains import lattice as lattice_module
from subchains.chains import chain_counts
from subchains.lattice import (
    DEFAULT_NODE_BUDGET,
    OracleCounts,
    SubgroupLattice,
    Subspace,
    _images,
    build_lattice,
    check_size,
    count_chains,
    enumerate_subspaces,
    is_prime,
)
from subchains.qarith import galois_number, gaussian_binomial

# largest lattices here: (2,4) has 67 nodes, (3,3) has 28
ORACLE_GRID = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1), (7, 2)]


def test_is_prime():
    assert [m for m in range(20) if is_prime(m)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert is_prime(97)
    assert not is_prime(91)


def test_enumerate_f2_squared_lines():
    found = set(enumerate_subspaces(2, 2, 1))
    assert found == {
        Subspace(2, 2, ((1, 0),)),
        Subspace(2, 2, ((0, 1),)),
        Subspace(2, 2, ((1, 1),)),
    }


def test_enumerate_full_space_unique():
    spaces = enumerate_subspaces(3, 1, 1)
    assert spaces == [Subspace(3, 1, ((1,),))]


def test_enumerate_counts_match_gaussian_binomial():
    for p, n_hi in {(p, n) for p, n in ORACLE_GRID}:
        for n in range(n_hi + 1):
            for k in range(n + 1):
                spaces = enumerate_subspaces(p, n, k)
                assert len(spaces) == len(set(spaces))
                assert len(spaces) == gaussian_binomial(n, k, p)


def test_enumerate_rejects_composite_base():
    for bad in (1, 4, 9, 15):
        with pytest.raises(ValueError, match="prime"):
            enumerate_subspaces(bad, 2, 1)


def test_enumerate_rejects_bad_dimension():
    with pytest.raises(ValueError, match=r"k must satisfy 0 <= k <= n, got k=4, n=3"):
        enumerate_subspaces(2, 3, 4)
    with pytest.raises(ValueError, match="got k=-1, n=3"):
        enumerate_subspaces(2, 3, -1)
    # the size is checked before the column
    with pytest.raises(ValueError, match=str(galois_number(10, 2))):
        enumerate_subspaces(2, 10, 11, budget=1000)


def test_budget_refusal_names_the_size():
    size = galois_number(10, 2)
    assert size > 1000
    with pytest.raises(ValueError, match=str(size)):
        enumerate_subspaces(2, 10, 5, budget=1000)
    with pytest.raises(ValueError, match=str(size)):
        build_lattice(2, 10, budget=1000)


@pytest.mark.parametrize("p,n", [(2, 5), (3, 3), (13, 2)])
def test_build_fits_its_exact_budget(p, n):
    # every walk of an F_p^d, the top one included, is held to the budget
    size = galois_number(n, p)
    assert build_lattice(p, n, budget=size) == build_lattice(p, n)
    with pytest.raises(ValueError, match=f"{size} nodes, over the budget of {size - 1}"):
        build_lattice(p, n, budget=size - 1)


@given(p=st.sampled_from([2, 3, 5, 7, 11, 101]), n=st.integers(0, 12), budget=st.integers(0, 3000))
@settings(max_examples=300, deadline=None)
def test_budget_bounds_refuse_only_what_the_exact_size_would(p, n, budget):
    # The one rule beyond the exact size: bases above the budget are refused,
    # which only bites at ranks 0 and 1, whose lattices have 1 and 2 nodes.
    fits = galois_number(n, p) <= budget and p <= budget
    try:
        check_size(p, n, budget)
    except ValueError:
        assert not fits
    else:
        assert fits


@pytest.mark.parametrize("p,n", [(2, 1600), (100_000_000_000_031, 1), (2**127 - 1, 3)])
def test_budget_refuses_huge_requests_without_sizing_them(p, n):
    start = perf_counter()
    with pytest.raises(ValueError, match=f"budget of {DEFAULT_NODE_BUDGET}") as refusal:
        check_size(p, n)
    assert perf_counter() - start < 0.5
    assert len(str(refusal.value)) < 200


def test_is_subspace_of_examples():
    a = Subspace(2, 2, ((1, 0),))
    b = Subspace(2, 2, ((0, 1),))
    zero = Subspace(2, 2, ())
    full = Subspace(2, 2, ((1, 0), (0, 1)))
    assert a.is_subspace_of(a)
    assert zero.is_subspace_of(a) and zero.is_subspace_of(full)
    assert not a.is_subspace_of(b)
    assert a.is_subspace_of(full)
    with pytest.raises(ValueError, match="ambient"):
        a.is_subspace_of(Subspace(3, 2, ((1, 0),)))
    with pytest.raises(ValueError, match="ambient"):
        a.is_subspace_of(Subspace(2, 3, ((1, 0, 0),)))


@pytest.mark.parametrize("p,n", [(2, 3), (3, 2)])
def test_containment_is_a_partial_order(p, n):
    nodes = build_lattice(p, n).nodes
    for a in nodes:
        assert a.is_subspace_of(a)
    for a in nodes:
        for b in nodes:
            if a.is_subspace_of(b) and b.is_subspace_of(a):
                assert a == b
            for c in nodes:
                if a.is_subspace_of(b) and b.is_subspace_of(c):
                    assert a.is_subspace_of(c)


@pytest.mark.parametrize("p,n,nodes", [(2, 2, 5), (2, 3, 16), (3, 3, 28)])
def test_lattice_node_counts(p, n, nodes):
    lattice = build_lattice(p, n)
    assert len(lattice.nodes) == nodes
    assert galois_number(n, p) == nodes


def test_lattice_shape():
    lattice = build_lattice(2, 3)
    assert lattice.nodes[0].dim == 0
    assert lattice.nodes[-1].dim == 3
    assert lattice.dim_counts() == (1, 7, 7, 1)
    # the top contains every other node; the bottom contains none
    assert lattice.below[-1] == tuple(range(len(lattice.nodes) - 1))
    assert lattice.below[0] == ()
    # containment edges only point down in dimension
    for sup, under in enumerate(lattice.below):
        for sub in under:
            assert lattice.nodes[sub].dim < lattice.nodes[sup].dim


@pytest.mark.parametrize("p,n,built", [(2, 4, 91), (3, 3, 37), (13, 2, 19)])
def test_build_walks_each_space_once(p, n, built, monkeypatch):
    walks = []
    walk = lattice_module.enumerate_subspaces

    def counted(base, d, k, budget):
        spaces = walk(base, d, k, budget=budget)
        walks.append(((d, k), len(spaces)))
        return spaces

    monkeypatch.setattr(lattice_module, "enumerate_subspaces", counted)
    build_lattice(p, n)
    assert sorted(dk for dk, _ in walks) == [(d, k) for d in range(n + 1) for k in range(d + 1)]
    assert sum(size for _, size in walks) == built == sum(galois_number(d, p) for d in range(n + 1))


@pytest.mark.parametrize(
    "p,n,expected",
    [(2, 1, (2, 1, 3)), (2, 2, (8, 7, 15)), (3, 2, (10, 9, 19))],
)
def test_count_chains_examples(p, n, expected):
    counts = count_chains(build_lattice(p, n)).counts
    assert (counts.rooted, counts.unrooted, counts.total) == expected


def test_lattice_agrees_with_formulas_on_grid():
    for p, n in ORACLE_GRID:
        oracle = count_chains(build_lattice(p, n))
        formula = chain_counts(n, p)
        assert oracle.counts.rooted == formula.rooted
        assert oracle.subgroups_by_dim == tuple(gaussian_binomial(n, k, p) for k in range(n + 1))
        assert oracle.total_subgroups == sum(oracle.subgroups_by_dim)
        # tallied independently, so these are discovered facts, not construction
        assert oracle.counts.rooted == oracle.counts.unrooted + 1
        assert oracle.counts.total == 2 * oracle.counts.rooted - 1


def _all_spans(p, n):
    """Span of every tuple of at most n vectors, canonicalized; slow but total."""
    vectors = list(product(range(p), repeat=n))
    seen = set()
    for size in range(n + 1):
        for choice in product(vectors, repeat=size):
            seen.add(Subspace.from_vectors(p, n, choice))
    return seen


@pytest.mark.parametrize("p,n", [(2, 3), (3, 2)])
def test_enumeration_matches_exhaustive_spans(p, n):
    by_enumeration = {k: set(enumerate_subspaces(p, n, k)) for k in range(n + 1)}
    by_spans = {k: set() for k in range(n + 1)}
    for space in _all_spans(p, n):
        by_spans[space.dim].add(space)
    assert by_enumeration == by_spans


@pytest.mark.parametrize("p,n", [(2, 3), (3, 2)])
def test_recanonicalizing_scrambled_bases_is_stable(p, n):
    rng = random.Random(20260809)
    for k in range(n + 1):
        for space in enumerate_subspaces(p, n, k):
            rows = [list(row) for row in space.rows]
            scrambled = [row[:] for row in rows]
            for _ in range(3):  # add random row combinations: span unchanged
                if rows:
                    coefs = [rng.randrange(p) for _ in rows]
                    combo = [sum(c * row[j] for c, row in zip(coefs, rows)) % p for j in range(n)]
                    scrambled.append(combo)
            rng.shuffle(scrambled)
            assert Subspace.from_vectors(p, n, scrambled) == space


@settings(deadline=None)
@given(
    st.sampled_from([(2, 3), (3, 2)]),
    st.data(),
)
def test_from_vectors_lands_in_the_enumeration(pn, data):
    p, n = pn
    vectors = data.draw(
        st.lists(st.lists(st.integers(0, p - 1), min_size=n, max_size=n), max_size=4)
    )
    space = Subspace.from_vectors(p, n, vectors)
    assert space in set(enumerate_subspaces(p, n, space.dim))


def test_from_vectors_validates_input():
    with pytest.raises(ValueError, match="prime"):
        Subspace.from_vectors(4, 2, [(1, 0)])
    with pytest.raises(ValueError, match="length"):
        Subspace.from_vectors(2, 2, [(1, 0, 1)])
    with pytest.raises(ValueError, match="rank n must be >= 0, got -1"):
        Subspace.from_vectors(2, -1, [])


def test_dump_format():
    lattice = build_lattice(2, 2)
    lines = list(lattice.dump_lines())
    assert lines[0] == "lattice p=2 n=2 nodes=5"
    node_lines = [line for line in lines if line.startswith("node ")]
    edge_lines = [line for line in lines if line.startswith("edge ")]
    assert len(node_lines) == 5
    assert node_lines[0] == "node 0 dim=0 basis=-"
    assert node_lines[1] == "node 1 dim=1 basis=0,1"
    assert node_lines[4] == "node 4 dim=2 basis=1,0;0,1"
    # 3 lines over the origin plus 4 proper subspaces under the plane
    assert len(edge_lines) == 7
    assert edge_lines == sorted(edge_lines, key=lambda s: tuple(map(int, s.split()[1:])))


def test_oracle_counts_is_a_plain_record():
    lattice = build_lattice(2, 1)
    oracle = count_chains(lattice)
    assert oracle == OracleCounts(oracle.counts, (1, 1), 2)
    line = Subspace(2, 2, ((1, 1),))
    same = Subspace.from_vectors(2, 2, [[3, 5], [0, 2]])
    assert line == same and hash(line) == hash(same)
    for record, field in ((oracle, "total_subgroups"), (lattice, "nodes"), (line, "rows")):
        with pytest.raises(AttributeError):
            setattr(record, field, None)


def _pairwise_lattice(p, n):
    """The containment engine build_lattice replaced: every lower-dimension pair, tested by row reduction."""
    nodes = [s for k in range(n + 1) for s in sorted(enumerate_subspaces(p, n, k), key=lambda s: s.rows)]
    below = tuple(
        tuple(j for j, sub in enumerate(nodes) if sub.dim < node.dim and sub.is_subspace_of(node))
        for node in nodes
    )
    return SubgroupLattice(p, n, tuple(nodes), below)


DIFFERENTIAL_GRID = (
    [(2, n) for n in range(6)]
    + [(3, n) for n in range(1, 5)]
    + [(p, n) for p in (5, 7, 11, 13) for n in range(1, 4)]
)


@pytest.mark.parametrize("p,n", DIFFERENTIAL_GRID)
def test_build_lattice_matches_pairwise_containment(p, n):
    lattice = build_lattice(p, n)
    reference = _pairwise_lattice(p, n)
    assert lattice == reference
    assert "\n".join(lattice.dump_lines()) == "\n".join(reference.dump_lines())


@settings(max_examples=200, deadline=None)
@given(p=st.sampled_from([2, 3, 5, 7, 101]), n=st.integers(0, 8), data=st.data())
def test_image_of_an_rref_subspace_is_rref(p, n, data):
    vector = st.lists(st.integers(0, p - 1), min_size=n, max_size=n)
    x = Subspace.from_vectors(p, n, data.draw(st.lists(vector, max_size=n)))
    local = st.lists(st.integers(0, p - 1), min_size=x.dim, max_size=x.dim)
    u = Subspace.from_vectors(p, x.dim, data.draw(st.lists(local, max_size=x.dim)))
    mapped = _images(u.rows, x.rows, p)
    image = Subspace.from_vectors(p, n, mapped)
    # already canonical: no re-reduction changes the mapped rows
    assert tuple(mapped) == image.rows
    assert image.dim == u.dim and image.is_subspace_of(x)


def test_oracle_2_6_within_two_seconds():
    start = perf_counter()
    oracle = count_chains(build_lattice(2, 6))
    assert perf_counter() - start < 2.0
    assert oracle.counts.rooted == chain_counts(6, 2).rooted == 4515776
    assert oracle.subgroups_by_dim == tuple(gaussian_binomial(6, k, 2) for k in range(7))


def test_build_cost_follows_comparable_pairs():
    # 2,664 nodes and 67,035 pairs; testing every lower pair took 9–12 s
    start = perf_counter()
    lattice = build_lattice(3, 5)
    assert perf_counter() - start < 2.0
    assert len(lattice.nodes) == 2664
    assert sum(map(len, lattice.below)) == 67035
