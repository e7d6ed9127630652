import itertools
import random
from fractions import Fraction

import pytest

from critgroup import (
    AbelianGroup,
    GraphError,
    InternalCheckError,
    OrthogonalSet,
    PairingValue,
    StructureError,
    check_subgroup_divisibility,
    clebsch_complement,
    complete,
    complete_multipartite,
    critical_group,
    cycle,
    detect_two_eigenvalue,
    edge_difference,
    element_order,
    enumerate_feasible,
    make_graph,
    make_signed_graph,
    monodromy_pairing,
    orthogonal_subset,
    paley,
    petersen,
    self_pairing_denominator,
    signed_complete_unbalanced,
    star,
    subgroup_bound,
    subgroup_invariant_factors,
    verify_tail_heavy,
)
import critgroup.pairing
from critgroup import families
from critgroup.errors import replace
from critgroup.monodromy import _closed_form_params, _pairing_table
from conftest import (
    connected_atlas,
    edge_pairing_closed_form,
    fraction,
    greedy_orthogonal_retest,
    mul_vec,
    random_connected_graph,
    random_sum_zero_vector,
    structural_hints_retest,
    triangle_chain_hint_sets,
    unsigned_srg_corpus,
)


def test_pairing_table_matches_closed_form_on_srg_fixtures():
    checked = 0
    for _, g in unsigned_srg_corpus():
        try:
            _closed_form_params(g)
        except StructureError:
            continue  # complete and balanced complete bipartite graphs
        edges = g.sorted_edges()
        exponent, table = _pairing_table(g, edges)
        for i, e1 in enumerate(edges):
            for j in range(i, len(edges)):
                assert table[i][j] == table[j][i]
                value = PairingValue.of(table[i][j], exponent)
                assert value == edge_pairing_closed_form(g, e1, edges[j])
        checked += 1
    assert checked >= 8


def test_pairing_value_normalization():
    assert str(PairingValue.of(7, 5)) == "2/5"
    assert PairingValue.of(-1, 3) == PairingValue(2, 3)
    assert PairingValue.of(6, 20) == PairingValue(3, 10)
    assert PairingValue.of(4, 2).is_zero()
    assert str(PairingValue.of(0, 7)) == "0/1"
    # only a reduced residue in [0, 1) is a pairing value
    for numerator, denominator in ((3, 2), (-1, 3), (2, 4), (0, 5)):
        with pytest.raises(GraphError):
            PairingValue(numerator, denominator)
    # a / m needs m > 0, and the error names m
    for a, m in ((1, 0), (2, -3)):
        with pytest.raises(GraphError, match=f"got {m}$"):
            PairingValue.of(a, m)


def test_monodromy_validation():
    g = petersen()
    d = edge_difference(g, 1, 8)
    with pytest.raises(GraphError):
        monodromy_pairing(g, d[:5], d)
    with pytest.raises(GraphError):
        monodromy_pairing(g, [1] + [0] * 9, d)
    with pytest.raises(GraphError):
        monodromy_pairing(g, d, d, m=0)
    with pytest.raises(GraphError):
        monodromy_pairing(g, d, d, m=3)  # 3 does not annihilate d
    with pytest.raises(GraphError, match="integer"):
        monodromy_pairing(g, d, [float(x) for x in d])
    with pytest.raises(GraphError, match="integer"):
        monodromy_pairing(g, d, d, m=20.0)
    with pytest.raises(StructureError):
        gs = signed_complete_unbalanced(3)
        monodromy_pairing(gs, [1, -1, 0], [1, -1, 0])


def test_monodromy_petersen_self_pairing():
    g = petersen()
    d = edge_difference(g, 1, 8)
    v = monodromy_pairing(g, d, d)
    assert v == PairingValue(3, 5)
    # 2(n-1)/(kn) = 18/30 = 3/5
    assert fraction(v) == Fraction(2 * 9, 3 * 10)


def test_monodromy_m_independence():
    g = petersen()
    d = edge_difference(g, 1, 8)
    d2 = edge_difference(g, 2, 6)
    base = monodromy_pairing(g, d, d2)
    for m in (10, 20, 30, 50):
        assert monodromy_pairing(g, d, d2, m=m) == base


def test_monodromy_zero_element():
    g = cycle(5)
    zero = [0] * 5
    assert monodromy_pairing(g, zero, zero).is_zero()
    d = edge_difference(g, 1, 2)
    assert monodromy_pairing(g, zero, d).is_zero()


def test_monodromy_symmetry_bilinearity_representatives():
    rng = random.Random(77)
    checked = 0
    while checked < 25:
        g = random_connected_graph(rng, rng.randint(3, 8))
        group = critical_group(g)
        if group.is_trivial():
            continue
        checked += 1
        n = g.n
        d1 = random_sum_zero_vector(rng, n)
        d2 = random_sum_zero_vector(rng, n)
        d3 = random_sum_zero_vector(rng, n)
        p12 = fraction(monodromy_pairing(g, d1, d2))
        # symmetry
        assert fraction(monodromy_pairing(g, d2, d1)) == p12
        # additivity in the second slot
        p13 = fraction(monodromy_pairing(g, d1, d3))
        total = fraction(monodromy_pairing(g, d1, [a + b for a, b in zip(d2, d3)]))
        assert total == (p12 + p13) % 1
        # representative independence: shift d2 by a Laplacian row image
        from critgroup import laplacian

        lap = laplacian(g)
        shift = mul_vec(lap, [rng.randint(-3, 3) for _ in range(n)])
        moved = [a + b for a, b in zip(d2, shift)]
        assert fraction(monodromy_pairing(g, d1, moved)) == p12
        # the denominator divides the order of either argument
        order = element_order(g, d1)
        assert (p12 * order).denominator == 1


def test_closed_form_requires_srg():
    with pytest.raises(StructureError):
        edge_pairing_closed_form(cycle(6), (1, 2), (3, 4))
    with pytest.raises(StructureError):
        edge_pairing_closed_form(complete(4), (1, 2), (3, 4))
    with pytest.raises(StructureError):
        edge_pairing_closed_form(complete_multipartite([3, 3]), (1, 4), (2, 5))
    with pytest.raises(GraphError):
        edge_pairing_closed_form(petersen(), (1, 2), (1, 8))  # (1,2) not an edge


def test_closed_form_matches_general_petersen():
    g = petersen()
    edges = g.sorted_edges()
    for e1 in edges:
        d1 = edge_difference(g, *e1)
        for e2 in edges:
            closed = edge_pairing_closed_form(g, e1, e2)
            general = monodromy_pairing(g, d1, edge_difference(g, *e2))
            assert closed == general, (e1, e2)


def test_closed_form_edge_orientation():
    g = paley(9)
    e1, e2 = g.sorted_edges()[0], g.sorted_edges()[4]
    v = edge_pairing_closed_form(g, e1, e2)
    assert edge_pairing_closed_form(g, tuple(reversed(e1)), e2) == v


def test_clebsch_orthogonal_pair():
    g = clebsch_complement()
    # 0000~0011 and 1110~1101 under the binary labeling
    v = edge_pairing_closed_form(g, (1, 4), (15, 14))
    assert v.is_zero()
    d1 = edge_difference(g, 1, 4)
    d2 = edge_difference(g, 15, 14)
    assert monodromy_pairing(g, d1, d2).is_zero()


def test_self_pairing_nonzero_on_corpus():
    for name, g in unsigned_srg_corpus():
        params = detect_two_eigenvalue(g)
        if params.mu == 0 or params.exceptional_family:
            continue
        n, k = params.n, params.k1
        for u, v in g.sorted_edges():
            val = edge_pairing_closed_form(g, (u, v), (u, v))
            assert fraction(val) == Fraction(2 * (n - 1), k * n) % 1
            assert not val.is_zero()


def test_self_pairing_denominator_goldens():
    assert self_pairing_denominator(detect_two_eigenvalue(clebsch_complement())) == 16
    assert self_pairing_denominator(detect_two_eigenvalue(paley(5))) == 5
    assert self_pairing_denominator(detect_two_eigenvalue(petersen())) == 5
    assert self_pairing_denominator(detect_two_eigenvalue(paley(9))) == 9


def test_self_pairing_denominator_invariants():
    for row in enumerate_feasible(60):
        params = row.params
        if params.mu < 1:
            continue
        eta = self_pairing_denominator(params)
        assert eta > 1
        assert params.eigenvalue_product % eta == 0


def test_orthogonal_subset_k3():
    from critgroup import complete

    res = orthogonal_subset(complete_multipartite([1, 1, 1]))
    assert res.size == 1
    assert res.edges == ((1, 2),)


def test_orthogonal_subset_modes_agree_on_exact_maximum():
    g = petersen()
    exact = orthogonal_subset(g, mode="exact")
    no_hints = orthogonal_subset(g, mode="exact", structural_hints=False)
    assert exact.edges == no_hints.edges
    assert exact.size == 3
    greedy = orthogonal_subset(g, mode="greedy")
    assert 1 <= greedy.size <= exact.size
    with pytest.raises(GraphError):
        orthogonal_subset(g, mode="fancy")


def test_exact_search_builds_no_hints(monkeypatch):
    def broken(g):
        raise AssertionError("exact mode built a structural hint")

    for name in ("_clique_matching_hints", "_induced_matching_hint", "_triangle_chain_hint"):
        monkeypatch.setattr(critgroup.pairing, name, broken)
    g = paley(29)
    res = orthogonal_subset(g)
    assert res.edges == ((1, 2), (3, 27), (5, 14), (6, 28), (7, 13), (12, 25), (18, 22))
    report = verify_tail_heavy(g)
    assert report.passed and report.size == 7
    assert report.predicted.invariant_factors == (29,) * 6 + (203,)


@pytest.fixture(scope="module")
def seed_corpus():
    """(graph, its hint lists by the re-testing oracles) for every connected
    graph on at most 7 vertices and 100 seeded random connected graphs on
    at most 14."""
    rng = random.Random(9)
    randoms = [
        random_connected_graph(rng, rng.randint(4, 14), rng.choice((0.3, 0.5, 0.7)))
        for _ in range(100)
    ]
    return [(g, structural_hints_retest(g)) for g in connected_atlas(7) + randoms]


def test_hints_match_retest_oracles(seed_corpus):
    assert len(seed_corpus) == 995 + 100
    for g, want in seed_corpus:
        got = [
            *critgroup.pairing._clique_matching_hints(g),
            critgroup.pairing._induced_matching_hint(g),
            critgroup.pairing._triangle_chain_hint(g),
        ]
        assert got == want, (g.n, g.sorted_edges())
    # chains of zero to three triangles all occur
    assert {len(hints[-1]) for _, hints in seed_corpus} == {0, 1, 2, 3}


def test_triangle_chain_hint_matches_the_set_version():
    # the bitmask chain gives the set version's matching on every family
    # and every connected graph on at most 7 vertices
    graphs = [*connected_atlas(7), petersen(), clebsch_complement()]
    graphs += [complete(n) for n in range(2, 9)] + [star(p) for p in range(1, 8)]
    graphs += [complete_multipartite(parts) for parts in ([2, 3], [3, 3], [2, 2, 2], [1, 2, 3, 4])]
    graphs += [cycle(n) for n in range(3, 13)] + [paley(q) for q in (5, 9, 13, 17, 25, 29, 37)]
    graphs.append(signed_complete_unbalanced(6).graph)
    lengths = set()
    for g in graphs:
        chain = triangle_chain_hint_sets(g)
        assert critgroup.pairing._triangle_chain_hint(g) == chain, g
        lengths.add(len(chain))
    assert lengths >= {0, 1, 2, 3}


def _petersen_automorphisms():
    """The transposition (1 2) and the 5-cycle (1 2 3 4 5) acting on the
    2-subsets of {1..5}, labeled as in `petersen`."""
    subsets = list(itertools.combinations(range(1, 6), 2))
    label = {pair: i + 1 for i, pair in enumerate(subsets)}
    return tuple(
        tuple(label[tuple(sorted(sigma[x - 1] for x in pair))] for pair in subsets)
        for sigma in ((2, 1, 3, 4, 5), (2, 3, 4, 5, 1))
    )


def _clebsch_complement_automorphisms():
    """Translations of the binary strings by each unit vector and the cyclic
    shift of their positions: three edge orbits, by the weight of the
    difference and the distance between two differing positions."""
    shifts = [tuple((v - 1 ^ 1 << i) + 1 for v in range(1, 17)) for i in range(4)]
    rotate = tuple(((v - 1) << 1 & 15 | (v - 1) >> 3) + 1 for v in range(1, 17))
    return (*shifts, rotate)


def test_root_orbit_pruning_keeps_the_exact_search(monkeypatch):
    # starting only at the least edge of each orbit finds the same
    # lexicographically least maximum set, on every family the plain
    # search finishes; edge-transitive graphs keep edge 0 as the one root.
    # Paley graphs and cycles take their generators off the graph; the
    # unpruned baseline and the Petersen and clebsch_complement generators
    # come in through families.automorphisms
    real = families.automorphisms
    cases = [(paley(q), real(paley(q))) for q in (5, 9, 13, 17, 25, 29, 37, 41)]
    cases += [(cycle(n), real(cycle(n))) for n in range(3, 13)]
    cases += [(petersen(), _petersen_automorphisms()),
              (clebsch_complement(), _clebsch_complement_automorphisms())]

    def run(generators, search, g, *args, **kwargs):
        monkeypatch.setattr(families, "automorphisms", lambda graph: generators)
        return search(g, *args, **kwargs)

    for g, generators in cases:
        assert generators, g.n
        edges = g.sorted_edges()
        roots = run(generators, critgroup.pairing._orbit_minima, g, edges)
        assert roots & 1 and roots.bit_count() == (3 if g.n == 16 else 1), (g.n, bin(roots))
        assert run(generators, orthogonal_subset, g) == run((), orthogonal_subset, g), g.n
        try:
            _closed_form_params(g)
        except StructureError:  # cycles other than C_5 are no tail-heavy input
            continue
        assert run(generators, verify_tail_heavy, g) == run((), verify_tail_heavy, g), g.n
    # the roots restrict the first branch: index 0 pairs with nothing, 1 with 2
    masks = [0, 0b100, 0b010]
    assert critgroup.pairing._max_orthogonal(masks, 3) == [1, 2]
    assert critgroup.pairing._max_orthogonal(masks, 3, roots=0b001) == [0]
    # without automorphisms every edge is a root; greedy mode reads none
    g = paley(13)
    assert run((), critgroup.pairing._orbit_minima, g, g.sorted_edges()) == (1 << 39) - 1
    bogus = ((2,) * 13,)
    assert run(bogus, orthogonal_subset, g, mode="greedy") == run((), orthogonal_subset, g, mode="greedy")


def test_root_orbit_pruning_rejects_non_automorphisms(monkeypatch):
    # x -> 2x multiplies by a non-square modulo 13 and maps the Paley graph
    # onto its complement; a map that is no permutation, and a reflection
    # that breaks the edge set, are rejected too
    g = paley(13)
    translation, multiplier = families.automorphisms(g)
    non_square = tuple((v - 1) * 2 % 13 + 1 for v in g.vertices())
    assert multiplier == tuple((v - 1) * 4 % 13 + 1 for v in g.vertices())  # 2 is primitive
    for bad in (non_square, (1,) * 13, translation[:-1], (*range(2, 14), 2)):
        monkeypatch.setattr(families, "automorphisms", lambda graph: (translation, bad))
        with pytest.raises(InternalCheckError, match="not an automorphism"):
            orthogonal_subset(g)
        monkeypatch.setattr(families, "automorphisms", lambda graph: (bad,))
        with pytest.raises(InternalCheckError, match="not an automorphism"):
            verify_tail_heavy(g)
    monkeypatch.setattr(families, "automorphisms", lambda graph: ((2, 1, 3, 4, 5, 6),))
    with pytest.raises(InternalCheckError, match="not an automorphism"):
        orthogonal_subset(cycle(6))


def test_automorphisms_need_the_generated_edge_set(monkeypatch):
    # a relabelled Paley graph, a Paley graph less one edge and Petersen
    # get no generators, and the relabelled graph is searched unpruned to
    # the same set as when every edge is a root
    g = paley(13)
    rng = random.Random(13)
    label = [0, *rng.sample(range(1, 14), 13)]
    relabelled = make_graph(13, [(label[u], label[v]) for u, v in g.edges])
    assert relabelled.edges != g.edges
    for other in (relabelled, make_graph(13, sorted(g.edges)[1:]), petersen()):
        assert families.automorphisms(other) == (), other
    found = orthogonal_subset(relabelled)
    assert found.size == orthogonal_subset(g).size
    monkeypatch.setattr(families, "automorphisms", lambda graph: ())
    assert found == orthogonal_subset(relabelled)


def test_greedy_orthogonal_matches_retest_oracle(seed_corpus):
    for g, hints in seed_corpus:
        for structural_hints, seeds in ((True, hints), (False, [])):
            got = orthogonal_subset(g, mode="greedy", structural_hints=structural_hints)
            assert got.edges == greedy_orthogonal_retest(g, seeds), (
                structural_hints, g.n, g.sorted_edges()
            )


def test_orthogonal_subset_certificate_complete():
    g = paley(9)
    res = orthogonal_subset(g)
    assert res.size == 2
    pairs = {(e1, e2) for e1, e2, _ in res.certificate}
    expected = {(e1, e2) for e1, e2 in itertools.combinations(res.edges, 2)}
    assert pairs == expected
    e1, e2, _ = res.certificate[0]
    with pytest.raises(InternalCheckError, match="non-zero value"):
        OrthogonalSet(res.edges, ((e1, e2, PairingValue(1, 2)),))


def test_subgroup_bound_goldens():
    assert subgroup_bound(detect_two_eigenvalue(clebsch_complement()), 2).invariant_factors == (
        16, 96)
    assert subgroup_bound(detect_two_eigenvalue(paley(5)), 1).invariant_factors == (5,)
    assert subgroup_bound(detect_two_eigenvalue(petersen()), 3).invariant_factors == (5, 5, 10)
    with pytest.raises(GraphError):
        subgroup_bound(detect_two_eigenvalue(petersen()), 0)
    with pytest.raises(GraphError, match="non-complete"):
        subgroup_bound(replace(detect_two_eigenvalue(petersen()), mu=0), 1)


def test_check_subgroup_divisibility():
    assert check_subgroup_divisibility(AbelianGroup(()), AbelianGroup((2,)))
    assert check_subgroup_divisibility(AbelianGroup((2, 4)), AbelianGroup((4, 8)))
    assert not check_subgroup_divisibility(AbelianGroup((8,)), AbelianGroup((2, 4)))
    assert not check_subgroup_divisibility(AbelianGroup((2, 2, 2)), AbelianGroup((4, 4)))
    assert check_subgroup_divisibility(AbelianGroup((3,)), AbelianGroup((2, 6)))


def test_divisibility_matches_actual_subgroups():
    # subgroups computed from generators always satisfy the tail condition
    rng = random.Random(53)
    for _ in range(40):
        factors = []
        value = 1
        for _ in range(rng.randint(1, 4)):
            value *= rng.choice([1, 2, 2, 3])
            if value > 1:
                factors.append(value)
        if not factors:
            continue
        group = AbelianGroup(tuple(factors))
        gens = [tuple(rng.randrange(f) for f in factors) for _ in range(rng.randint(1, 3))]
        sub = subgroup_invariant_factors(group, gens)
        assert check_subgroup_divisibility(sub, group)


def test_verify_tail_heavy_petersen():
    report = verify_tail_heavy(petersen())
    assert report.passed
    assert report.size == 3
    assert report.denominator == 5
    assert report.predicted.invariant_factors == (5, 5, 10)
    assert report.group.invariant_factors == (2, 10, 10, 10)
    # the tail (10, 10, 10) consists entirely of full spectral-bound factors
    assert report.strong_pattern


def test_verify_tail_heavy_paley9():
    report = verify_tail_heavy(paley(9))
    assert report.passed
    assert report.size == 2
    assert report.predicted.invariant_factors == (9, 18)
    assert report.group.invariant_factors == (6, 6, 18, 18)


def test_verify_tail_heavy_paley5():
    report = verify_tail_heavy(paley(5))
    assert report.passed
    assert report.size == 1
    assert report.predicted.invariant_factors == (5,)
    assert report.strong_pattern


def test_verify_tail_heavy_rejects():
    with pytest.raises(StructureError):
        verify_tail_heavy(cycle(6))
    with pytest.raises(StructureError):
        verify_tail_heavy(complete_multipartite([3, 3]))
    with pytest.raises(StructureError):
        verify_tail_heavy(signed_complete_unbalanced(4))


def test_pairing_depends_only_on_local_pattern():
    # for disjoint edge pairs the value is a function of the adjacency
    # pattern between the four endpoints
    g = petersen()
    edges = g.sorted_edges()
    seen = {}
    for e1, e2 in itertools.combinations(edges, 2):
        u, v = e1
        x, y = e2
        if len({u, v, x, y}) < 4:
            continue
        pattern = (
            g.has_edge(u, x),
            g.has_edge(u, y),
            g.has_edge(v, x),
            g.has_edge(v, y),
        )
        value = edge_pairing_closed_form(g, e1, e2)
        seen.setdefault(pattern, set()).add(value)
    for pattern, values in seen.items():
        assert len(values) == 1, pattern
