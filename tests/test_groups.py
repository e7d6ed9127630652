import itertools
import random
from fractions import Fraction

import pytest

import critgroup.groups
from critgroup import (
    AbelianGroup,
    DisconnectedGraphError,
    Graph,
    GraphError,
    InternalCheckError,
    StructureError,
    clebsch_complement,
    complete,
    complete_multipartite,
    critical_group,
    cycle,
    detect_two_eigenvalue,
    edge_difference,
    element_order,
    grounded_inverse,
    laplacian,
    make_graph,
    make_signed_graph,
    paley,
    petersen,
    signed_complete_unbalanced,
    smith_diagonal,
    spanning_tree_count,
    star,
    subgroup_invariant_factors,
    verify_exponent_theorem,
    verify_spectral_bound,
)
from critgroup.errors import replace
from conftest import (
    applicable_edges,
    complete_bipartite_group,
    connected_atlas,
    PALEY_ORDERS,
    decomposition,
    exponent_achievers_oracle,
    graph_join,
    grounded_inverse_oracle,
    mul_vec,
    random_connected_graph,
    random_sum_zero_vector,
    signed_complete_all_negative,
    signed_corpus,
    signed_corpus_switchings,
    smith_normal_form,
    smith_order,
    spanning_trees_deletion_contraction,
    switch,
    unsigned_two_eigenvalue_corpus,
    vertex_indicator,
    witnesses,
)


def test_abelian_group_validation():
    g = AbelianGroup((2, 4, 8))
    assert g.order == 64
    assert g.exponent == 8
    assert not g.is_trivial()
    assert AbelianGroup(()).is_trivial()
    assert AbelianGroup(()).order == 1
    with pytest.raises(GraphError):
        AbelianGroup((4, 2))
    with pytest.raises(GraphError):
        AbelianGroup((1, 2))
    with pytest.raises(GraphError):
        AbelianGroup((2, 3))
    with pytest.raises(GraphError, match="integers"):
        AbelianGroup((2.0, 4))  # its order would be 8.0
    assert AbelianGroup.from_diagonal([1, 1, 3, 0, 6]).invariant_factors == (3, 6)


def test_critical_group_goldens():
    cases = [
        (cycle(4), (4,)),
        (cycle(5), (5,)),
        (complete(4), (4, 4)),
        (complete(5), (5, 5, 5)),
        (petersen(), (2, 10, 10, 10)),
        (complete_multipartite([2, 2]), (4,)),
        (complete_multipartite([3, 3]), (3, 3, 9)),
        (complete_multipartite([4, 4]), (4, 4, 4, 4, 16)),
        (star(5), ()),
    ]
    for g, expected in cases:
        assert critical_group(g).invariant_factors == expected


def test_critical_group_signed_goldens():
    cases = [
        ("unbalanced_K3", (4,)),
        ("all_negative_K4", (2, 2, 12)),
        ("all_negative_K5", (3, 3, 3, 24)),
        ("C4_one_negative", (2, 2)),
        ("octahedron_signing", (2, 6, 12, 12)),
        ("two_degree_hexad", (2, 2, 12, 12)),
    ]
    table = dict(signed_corpus())
    for name, expected in cases:
        assert critical_group(table[name]).invariant_factors == expected, name


def test_critical_group_order_is_tree_count():
    for g in (petersen(), complete(5), cycle(6), star(4)):
        assert critical_group(g).order == spanning_tree_count(g)
    assert spanning_tree_count(complete(6)) == 6**4
    assert spanning_tree_count(petersen()) == 2000


def test_spanning_tree_count_of_signed_graph_counts_underlying_trees():
    # signs do not change which edge sets are spanning trees, not even on a
    # balanced signing, whose signed Laplacian is singular
    assert spanning_tree_count(signed_complete_unbalanced(4)) == 16
    balanced = make_signed_graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)], [(1, 2), (2, 3)])
    assert spanning_tree_count(balanced) == 4
    for name, gs in signed_corpus():
        want = spanning_trees_deletion_contraction(gs.n, gs.sorted_edges())
        assert spanning_tree_count(gs) == want, name
    with pytest.raises(DisconnectedGraphError):
        spanning_tree_count(make_signed_graph(4, [(1, 2), (3, 4)], [(1, 2)]))


def test_critical_group_matches_smith_oracle():
    def oracle(g):
        diag = smith_normal_form(laplacian(g)).diagonal
        return AbelianGroup.from_diagonal(diag), diag.count(0)

    rng = random.Random(2003)
    graphs = connected_atlas(7)
    graphs += [random_connected_graph(rng, rng.randint(8, 16), rng.choice([0.2, 0.5])) for _ in range(40)]
    for g in graphs:
        group, zeros = oracle(g)
        assert zeros == 1
        assert critical_group(g) == group, g
        assert spanning_tree_count(g) == group.order
        if g.n <= 5:
            assert spanning_tree_count(g) == spanning_trees_deletion_contraction(g.n, g.sorted_edges())
    signed = [gs for _, gs in signed_corpus()]
    for g in graphs[-40:] + graphs[::25]:
        edges = g.sorted_edges()
        signed.append(make_signed_graph(g.n, edges, [e for e in edges if rng.random() < 0.5]))
    for gs in signed:
        group, zeros = oracle(gs)
        if zeros:
            with pytest.raises(StructureError):
                critical_group(gs)
        else:
            assert critical_group(gs) == group, gs


def _record_bearing(graphs):
    return [g for g in graphs if detect_two_eigenvalue(g) is not None]


def test_record_route_matches_smith_oracle():
    # the group read off the two-eigenvalue record against the integer
    # Smith normal form; balanced signed graphs (p = 0) are rejected
    graphs = _record_bearing([
        *connected_atlas(7), *(g for _, g in unsigned_two_eigenvalue_corpus()),
        *(gs for _, gs in signed_corpus()), *signed_corpus_switchings(),
        *(paley(q) for q in PALEY_ORDERS if q <= 61),
        make_signed_graph(4, complete(4).sorted_edges(), [(1, 2), (1, 3), (1, 4)]),
    ])
    assert len(graphs) == 85
    for g in graphs:
        diag = smith_normal_form(laplacian(g)).diagonal
        if diag.count(0) > isinstance(g, Graph):
            with pytest.raises(StructureError, match="balanced signed graph"):
                critical_group(g)
        else:
            assert critical_group(g) == AbelianGroup.from_diagonal(diag), g
    # beyond q = 61 the transforms of the oracle grow slow; there the
    # Smith diagonal of L0 modulo p^2 stands in for it: p annihilates the
    # group, so every invariant factor divides p^2 and survives
    for q in PALEY_ORDERS:
        if q > 61:
            g = paley(q)
            p = detect_two_eigenvalue(g).eigenvalue_product
            grounded = [row[:-1] for row in laplacian(g)[:-1]]
            assert critical_group(g) == AbelianGroup.from_diagonal(smith_diagonal(grounded, p * p)), q


def test_complete_bipartite_groups_match_closed_form():
    # K_{m,m} takes the record route, where s^2 - 4p = -4m^2: a prime of m
    # divides p = 2m^2 at least twice and is bad, so a Smith diagonal runs;
    # K_{m,n} with m != n has three non-zero eigenvalues, hence no record,
    # and takes the kappa route through `determinant`
    for m in range(2, 13):
        for n in range(m, 13):
            g = complete_multipartite([m, n])
            assert (detect_two_eigenvalue(g) is not None) == (m == n)
            assert critical_group(g).invariant_factors == complete_bipartite_group(m, n), (m, n)


def test_record_route_pins(monkeypatch):
    # on a prime Paley graph every prime of p is good or has v = 1: the
    # group and the spectrum come off the record alone; on Paley 9 only the
    # bad prime 3, v_3(18) = 2, needs Smith, modulo 9 and for its rank
    # modulo 3
    groups, linalg = critgroup.groups, critgroup.linalg
    calls = []
    for module, name in ((groups, "unit_pivot_core"), (groups, "determinant"),
                         (groups, "smith_diagonal"), (linalg, "_char_poly")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, _name=name, _real=real: calls.append(
            (_name, *a[1:])) or _real(*a))
    groups.critical_group.cache_clear()
    g = paley(101)
    assert critical_group(g).invariant_factors == (25,) + (2525,) * 49
    roots, factor = critgroup.laplacian_spectrum(g)
    assert roots == [(0, 1)] and len(factor) == 101 and factor[-1] == 1
    assert calls == []
    assert critical_group(paley(9)).invariant_factors == (6, 6, 18, 18)
    assert calls == [("smith_diagonal", 9), ("smith_diagonal", 3)]
    monkeypatch.undo()
    groups.critical_group.cache_clear()


def test_record_recheck_rejects_records_of_other_graphs(monkeypatch):
    # the multiplicities read n, the edge count and the case, so the
    # re-check holds the record to them as well as to the identity
    groups = critgroup.groups
    for g in (petersen(), signed_corpus()[7][1]):
        params = groups.detect_two_eigenvalue(g)
        case = "srg" if params.case.startswith("signed") else "signed_regular"
        for wrong in (replace(params, n=g.n + 1), replace(params, edge_count=params.edge_count + 1),
                      replace(params, case=case), replace(params, mu=params.mu + 1)):
            monkeypatch.setattr(groups, "detect_two_eigenvalue", lambda _, w=wrong: w)
            groups.critical_group.cache_clear()
            with pytest.raises(InternalCheckError, match="fails L\\^2 - s L \\+ p I = c J"):
                critical_group(g)
            monkeypatch.undo()
    groups.critical_group.cache_clear()
    # the spectrum reads the multiplicities off the record, and one edge too
    # many leaves Petersen's non-integral
    params = groups.detect_two_eigenvalue(petersen())
    wrong = replace(params, edge_count=params.edge_count + 1)
    monkeypatch.setattr(critgroup.linalg, "detect_two_eigenvalue", lambda _: wrong)
    with pytest.raises(InternalCheckError, match="no integral multiplicities"):
        critgroup.laplacian_spectrum(petersen())


def test_structure_detection_runs_once_per_graph(monkeypatch):
    # the record is re-checked against the identity detected on the graph
    # object, so the group, the potential table and the spectrum of one
    # graph share a single pass of `_laplacian_quadratic`
    graphs, groups = critgroup.graphs, critgroup.groups
    real, calls = graphs._laplacian_quadratic, []
    monkeypatch.setattr(graphs, "_laplacian_quadratic", lambda g: calls.append(g) or real(g))
    for g in (paley(61), signed_corpus()[7][1]):
        groups.critical_group.cache_clear()
        groups.grounded_inverse.cache_clear()
        calls.clear()
        critical_group(g)
        grounded_inverse(g)
        critgroup.laplacian_spectrum(g)
        assert len(calls) == 1 and calls[0] is g, g
    monkeypatch.undo()
    groups.critical_group.cache_clear()
    groups.grounded_inverse.cache_clear()


def test_critical_group_certificate_catches_short_modulus(monkeypatch):
    # p annihilates the group; p / q for a prime q | p does not, and the
    # certificate must notice rather than return a smaller group
    groups = critgroup.groups
    for g, q in ((petersen(), 2), (petersen(), 5), (paley(13), 13), (signed_corpus()[1][1], 3)):
        params = groups.detect_two_eigenvalue(g)
        short = replace(params, eigenvalue_product=params.eigenvalue_product // q)
        monkeypatch.setattr(groups, "detect_two_eigenvalue", lambda _, s=short: s)
        groups.critical_group.cache_clear()
        with pytest.raises(InternalCheckError):
            critical_group(g)
        monkeypatch.undo()
    # a chain with the right product but the wrong 3-rank: Paley 9 has
    # p = 18, where 3 divides s^2 - 4p with v_3(p) = 2, so Smith runs modulo
    # 9; (9, 9, 9) in place of its 3-part (3, 3, 9, 9)
    real = groups.smith_diagonal

    def wrong_chain(m, modulus):
        diag = real(m, modulus)
        return diag[:-4] + [1, 9, 9, 9] if modulus == 9 else diag

    monkeypatch.setattr(groups, "smith_diagonal", wrong_chain)
    groups.critical_group.cache_clear()
    with pytest.raises(InternalCheckError, match="rank modulo 3"):
        critical_group(paley(9))
    monkeypatch.undo()
    groups.critical_group.cache_clear()
    assert critical_group(paley(9)).invariant_factors == (6, 6, 18, 18)


def test_critical_group_requires_connected():
    with pytest.raises(DisconnectedGraphError):
        critical_group(make_graph(4, [(1, 2), (3, 4)]))
    with pytest.raises(DisconnectedGraphError):
        spanning_tree_count(make_graph(3, [(1, 2)]))


def test_critical_group_balanced_signed_rejected():
    edges = [(1, 2), (2, 3), (3, 4), (1, 4)]
    balanced = make_signed_graph(4, edges, [(1, 2), (2, 3)])
    with pytest.raises(StructureError):
        critical_group(balanced)
    # switching does not change the rejection
    with pytest.raises(StructureError):
        critical_group(switch(balanced, {1}))


def test_switching_invariance_of_signed_group():
    rng = random.Random(23)
    gs = signed_corpus()[3][1]  # all_negative_K5
    base = critical_group(gs).invariant_factors
    for _ in range(8):
        subset = {v for v in range(1, 6) if rng.random() < 0.5}
        assert critical_group(switch(gs, subset)).invariant_factors == base


def test_element_order_basics():
    g = petersen()
    assert element_order(g, edge_difference(g, 1, 8)) == 10
    assert element_order(g, [0] * 10) == 1
    with pytest.raises(GraphError):
        element_order(g, [1] + [0] * 9)  # not sum-zero
    with pytest.raises(GraphError):
        element_order(g, [1, -1])  # wrong length
    for vector in ([1.0, 0, 0, 0, 0, 0, 0, -1.0, 0, 0], [Fraction(1)] + [0] * 6 + [-1, 0, 0]):
        with pytest.raises(GraphError, match="integers"):
            element_order(g, vector)
    for u, v in ((1, 1), (0, 2), (1, 11)):
        with pytest.raises(GraphError, match="bad vertex pair"):
            edge_difference(g, u, v)
    gs = signed_complete_unbalanced(3)
    assert element_order(gs, vertex_indicator(gs, 1)) == 4
    assert element_order(gs, [1, 1, 0]) == 2
    with pytest.raises(StructureError):
        element_order(make_signed_graph(2, [(1, 2)], []), [1, 0])


def test_element_order_divides_group_order():
    rng = random.Random(31)
    for _ in range(25):
        g = random_connected_graph(rng, rng.randint(3, 7))
        group = critical_group(g)
        vec = random_sum_zero_vector(rng, g.n)
        order = element_order(g, vec)
        assert group.order % order == 0
        assert group.exponent % order == 0


def test_element_order_scaling_property():
    # order of 2*D is order(D) / gcd(order(D), 2)
    rng = random.Random(37)
    for _ in range(15):
        g = random_connected_graph(rng, rng.randint(3, 6))
        vec = random_sum_zero_vector(rng, g.n)
        order = element_order(g, vec)
        doubled = element_order(g, [2 * x for x in vec])
        from math import gcd

        assert doubled == order // gcd(order, 2)


def test_element_order_matches_smith_oracle_unsigned():
    rng = random.Random(41)
    graphs = connected_atlas(6)
    graphs += [random_connected_graph(rng, rng.randint(7, 12), 0.4) for _ in range(12)]
    for g in graphs:
        snf = smith_normal_form(laplacian(g))
        for u, v in itertools.combinations(g.vertices(), 2):
            d = edge_difference(g, u, v)
            assert element_order(g, d) == smith_order(snf, d)
        vec = random_sum_zero_vector(rng, g.n)
        assert element_order(g, vec) == smith_order(snf, vec)


def test_element_order_matches_smith_oracle_signed():
    for _, gs in signed_corpus():
        snf = smith_normal_form(laplacian(gs))
        for u in gs.vertices():
            d = vertex_indicator(gs, u)
            assert element_order(gs, d) == smith_order(snf, d)
        for u, v in gs.sorted_edges():
            d = edge_difference(gs, u, v)
            assert element_order(gs, d) == smith_order(snf, d)


def test_grounded_inverse_matches_adjugate_oracle():
    # the structure route (two-eigenvalue graphs, signed ones included) and
    # the kappa route (everything else) against E adj(L0) / kappa
    rng = random.Random(1010)
    graphs = connected_atlas(7)
    graphs += [random_connected_graph(rng, rng.randint(8, 20), rng.choice([0.2, 0.5])) for _ in range(30)]
    graphs += [g for _, g in unsigned_two_eigenvalue_corpus()]
    graphs += [star(p) for p in range(1, 11)] + [complete_multipartite([m, m]) for m in range(1, 6)]
    graphs += [complete(n) for n in range(1, 8)] + [paley(q) for q in (9, 17, 25, 49)] + [cycle(12)]
    graphs += [g for _, g in signed_corpus()] + signed_corpus_switchings()
    graphs += [signed_complete_all_negative(n) for n in range(3, 16)]
    graphs += [signed_complete_unbalanced(n) for n in range(3, 9)]
    structured = 0
    for g in graphs:
        assert grounded_inverse(g) == grounded_inverse_oracle(g), g
        structured += detect_two_eigenvalue(g) is not None
    assert structured >= 75


def test_grounded_inverse_rejects():
    # a balanced signed graph, one vertex included, has an infinite cokernel
    for balanced in (make_signed_graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)], [(1, 2), (2, 3)]),
                     make_signed_graph(1, [], [])):
        with pytest.raises(StructureError, match="balanced signed graph: the Laplacian cokernel is infinite"):
            grounded_inverse(balanced)
    with pytest.raises(DisconnectedGraphError):
        grounded_inverse(make_graph(4, [(1, 2), (3, 4)]))


def test_grounded_inverse_certificate_catches_wrong_structure_record(monkeypatch, capsys):
    # a wrong eigenvalue sum, or a doubled product that still annihilates
    # the group, fails the record re-check of critical_group; the grounded
    # inverse, which reads E off its own matrix and not off the group, must
    # still trip L0 X == E I with the true group cached
    import critgroup.cli

    groups = critgroup.groups

    def clear():
        groups.critical_group.cache_clear()
        groups.grounded_inverse.cache_clear()

    for g in (petersen(), paley(13), star(4), signed_corpus()[3][1], signed_corpus()[7][1]):
        params = groups.detect_two_eigenvalue(g)
        for wrong in (replace(params, eigenvalue_sum=params.eigenvalue_sum + 1),
                      replace(params, eigenvalue_product=2 * params.eigenvalue_product)):
            monkeypatch.setattr(groups, "detect_two_eigenvalue", lambda _, w=wrong: w)
            clear()
            with pytest.raises(InternalCheckError, match="fails L\\^2 - s L \\+ p I = c J"):
                critical_group(g)
            monkeypatch.undo()
            critical_group(g)
            monkeypatch.setattr(groups, "detect_two_eigenvalue", lambda _, w=wrong: w)
            groups.grounded_inverse.cache_clear()
            with pytest.raises(InternalCheckError, match="L0 X == E I"):
                grounded_inverse(g)
            monkeypatch.undo()
    params = groups.detect_two_eigenvalue(petersen())
    wrong = replace(params, eigenvalue_sum=params.eigenvalue_sum + 1)
    monkeypatch.setattr(groups, "detect_two_eigenvalue", lambda _: wrong)
    clear()
    code = critgroup.cli.main(["pairing", "--family", "petersen", "--edge1", "1,8", "--edge2", "1,9"])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert err.startswith("error: internal check failed: ")
    monkeypatch.undo()
    clear()
    assert grounded_inverse(petersen()) == grounded_inverse_oracle(petersen())


def test_decomposition_srg_case():
    g = petersen()
    dec = decomposition(g, (1, 8))
    assert dec.case == "srg"
    assert dec.order == 10
    # coefficient pattern: k + mu - lam - 1 on u, mirrored on v, +-1 elsewhere
    assert dec.coefficients[0] == 3
    assert dec.coefficients[7] == -3
    assert sorted(dec.coefficients) == [-3, -1, -1, 0, 0, 0, 0, 1, 1, 3]
    lap = laplacian(g)
    target = edge_difference(g, 1, 8)
    assert mul_vec(lap, list(dec.coefficients)) == [10 * t for t in target]


def test_decomposition_two_degree_case():
    w4 = graph_join(complete(1), complete_multipartite([2, 2]))
    # hub is vertex 1 with degree 4; rim vertices have degree 3
    dec = decomposition(w4, (1, 2))
    assert dec.case == "two_degree"
    assert dec.order == 15
    a, b = dec.edge
    assert w4.degree(a) < w4.degree(b)


def test_decomposition_signed_cases():
    table = dict(signed_corpus())
    dec = decomposition(table["unbalanced_K3"], (1, 3))
    assert dec.case == "signed_complete"
    assert dec.order == 4
    dec = decomposition(table["octahedron_signing"], (1, 2))
    assert dec.case == "signed_regular"
    assert dec.order == 12
    dec = decomposition(table["two_degree_hexad"], (1, 2))
    assert dec.case == "signed_two_degree"
    assert dec.order == 12


def test_decomposition_rejects():
    with pytest.raises(GraphError):
        decomposition(petersen(), (1, 2))  # not an edge
    with pytest.raises(StructureError):
        decomposition(cycle(6), (1, 2))  # not two-eigenvalue
    w4 = graph_join(complete(1), complete_multipartite([2, 2]))
    with pytest.raises(StructureError):
        decomposition(w4, (2, 4))  # same-degree edge in a two-degree graph
    with pytest.raises(StructureError):
        decomposition(complete(4), (1, 2))  # complete graphs are excluded


def test_decomposition_identity_via_matrix_arithmetic():
    # the defining identity L c = order * target, re-checked externally
    table = dict(signed_corpus())
    for name in ("all_negative_K4", "K6_pentagon_signing", "two_degree_hexad"):
        gs = table[name]
        for edge in applicable_edges(gs):
            dec = decomposition(gs, edge)
            lap = laplacian(dec.graph)
            got = mul_vec(lap, list(dec.coefficients))
            assert got == [dec.order * t for t in dec.target], (name, edge)


def test_decomposition_normalizing_switches():
    table = dict(signed_corpus())
    # complete case, every edge: the chosen triangle ends up with (u, v) as
    # its unique negative edge, from each of the four odd sign patterns
    patterns = set()
    for name, gs in table.items():
        if detect_two_eigenvalue(gs).case != "signed_complete":
            continue
        for edge in gs.sorted_edges():
            dec = decomposition(gs, edge)
            u, v = dec.edge
            w = dec.triangle_vertex
            assert (dec.graph.sign(u, v), dec.graph.sign(u, w), dec.graph.sign(v, w)) == (
                -1, 1, 1), (name, edge)
            assert switch(gs, dec.switch_set) == dec.graph, (name, edge)
            patterns.add((gs.sign(u, v), gs.sign(u, w), gs.sign(v, w)))
    assert patterns == {(-1, 1, 1), (1, -1, 1), (1, 1, -1), (-1, -1, -1)}
    # regular non-complete case: the working edge is switched positive
    dec = decomposition(table["octahedron_signing"], (2, 3))
    assert dec.case == "signed_regular"
    assert dec.graph.sign(*dec.edge) == 1
    # the recorded switch maps the input onto the working graph
    gs = table["octahedron_signing"]
    assert switch(gs, dec.switch_set).negative_edges == dec.graph.negative_edges


def test_decomposition_goldens():
    # one full decomposition per case, the edge given in reverse
    unsigned = dict(unsigned_two_eigenvalue_corpus())
    signed = dict(signed_corpus())
    cases = [
        (unsigned["paley5"], (2, 1), "srg", (1, 2), (2, -2, -1, 0, 1), 5,
         (1, -1, 0, 0, 0), (), None, None),
        (unsigned["wheel_w4"], (2, 1), "two_degree", (2, 1), (-3, 4, -1, 0, 0), 15,
         (-1, 1, 0, 0, 0), (), None, None),
        (signed["all_negative_K4"], (2, 1), "signed_complete", (1, 2), (4, 4, 2, -2), 12,
         (1, 1, 0, 0), (3,), 3, [(1, 2), (1, 4), (2, 4)]),
        (signed["octahedron_signing"], (3, 2), "signed_regular", (2, 3),
         (2, 3, -3, 0, 1, 1), 12, (0, 1, -1, 0, 0, 0), (3,), None,
         [(1, 3), (3, 5), (4, 6), (5, 6)]),
        (signed["two_degree_hexad"], (6, 3), "signed_two_degree", (3, 6),
         (2, -1, 4, -1, -1, -3), 12, (0, 0, 1, 0, 0, -1), (6,), None,
         [(1, 6), (2, 3), (4, 5)]),
    ]
    for g, edge, case, got_edge, coeff, order, target, switched, third, negatives in cases:
        dec = decomposition(g, edge)
        assert (dec.case, dec.edge, dec.coefficients, dec.order, dec.target) == (
            case, got_edge, coeff, order, target
        )
        assert dec.switch_set == frozenset(switched)
        assert dec.triangle_vertex == third
        if negatives is None:
            assert dec.graph == g
        else:
            assert sorted(dec.graph.negative_edges) == negatives


def test_decomposition_orientation_and_switch_set():
    for name, g in unsigned_two_eigenvalue_corpus() + signed_corpus():
        signed = hasattr(g, "negative_edges")
        for u, v in applicable_edges(g):
            dec = decomposition(g, (u, v))
            assert decomposition(g, (v, u)) == dec, (name, u, v)
            if signed:
                assert switch(g, dec.switch_set) == dec.graph, (name, u, v)
            else:
                assert dec.switch_set == frozenset() and dec.graph == g


def test_witnesses_petersen():
    g = petersen()
    dec = decomposition(g, (1, 8))
    w = witnesses(g, (1, 8), dec)
    assert w.zero_vertex is not None
    assert w.unit_vertex is not None
    assert w.basis_gcd == 1
    assert dec.coefficients[w.zero_vertex - 1] == 0
    assert abs(dec.coefficients[w.unit_vertex - 1]) == 1


def test_witnesses_complete_bipartite_halves_order():
    g = complete_multipartite([2, 2])
    dec = decomposition(g, (1, 3))
    w = witnesses(g, (1, 3), dec)
    assert w.zero_vertex is None
    assert w.unit_vertex is None
    assert w.basis_gcd == 2
    target = edge_difference(g, 1, 3)
    assert element_order(g, target) == dec.order // w.basis_gcd


def test_witnesses_star_collapses_order():
    g = star(4)
    edge = g.sorted_edges()[0]
    dec = decomposition(g, edge)
    w = witnesses(g, edge, dec)
    assert w.basis_gcd == 5
    assert dec.order == 5
    assert element_order(g, list(dec.target)) == 1


def test_witness_gcd_predicts_true_order_everywhere():
    # order(target) == decomposition order / basis gcd, on all corpus edges
    for name, g in unsigned_two_eigenvalue_corpus():
        for edge in applicable_edges(g):
            dec = decomposition(g, edge)
            w = witnesses(g, edge, dec)
            true_order = element_order(g, list(dec.target))
            assert dec.order % w.basis_gcd == 0
            assert true_order == dec.order // w.basis_gcd, (name, edge)
    for name, gs in signed_corpus():
        for edge in applicable_edges(gs):
            dec = decomposition(gs, edge)
            w = witnesses(gs, edge, dec)
            true_order = element_order(dec.graph, list(dec.target))
            assert true_order == dec.order // w.basis_gcd, (name, edge)


def test_exceptional_family_matches_networkx_oracle():
    # the record's rule against isomorphism with a star of at least two
    # leaves or with K_{m,m}, m >= 2, on every connected graph with at most
    # seven vertices (K2 counts as complete, neither family)
    import networkx as nx

    seen = set()
    for g in connected_atlas(7):
        graph = nx.Graph(g.sorted_edges())
        n, m = g.n, g.n // 2
        if n >= 3 and nx.is_isomorphic(graph, nx.star_graph(n - 1)):
            want = "star"
        elif n >= 4 and nx.is_isomorphic(graph, nx.complete_bipartite_graph(m, m)):
            want = "complete_bipartite"
        else:
            want = None
        params = detect_two_eigenvalue(g)
        assert (params and params.exceptional_family) == want, g
        seen.add(want)
    assert seen == {"star", "complete_bipartite", None}


def test_exponent_theorem_matches():
    expected = {
        "petersen": ("match", 10),
        "paley5": ("match", 5),
        "paley9": ("match", 18),
        "paley13": ("match", 39),
        "clebsch_complement": ("match", 96),
        "triangular_t5": ("match", 40),
        "K2x2x2": ("match", 24),
        "wheel_w4": ("match", 15),
    }
    table = dict(unsigned_two_eigenvalue_corpus())
    for name, (classification, exponent) in expected.items():
        report = verify_exponent_theorem(table[name])
        assert report.matched, name
        assert report.classification == classification
        assert report.exponent == exponent
        assert report.expected_exponent == exponent


def test_exponent_theorem_exceptions():
    report = verify_exponent_theorem(complete_multipartite([3, 3]))
    assert report.matched
    assert report.classification == "exceptional_complete_bipartite"
    assert report.exponent == report.spectral_bound // 2 == 9
    report = verify_exponent_theorem(star(5))
    assert report.matched
    assert report.classification == "exceptional_star"
    assert report.exponent == 1
    assert report.group.is_trivial()


def test_exponent_theorem_signed():
    table = dict(signed_corpus())
    for name, expected in [
        ("unbalanced_K3", 4),
        ("all_negative_K5", 24),
        ("K6_pentagon_signing", 20),
        ("octahedron_signing", 12),
        ("two_degree_hexad", 12),
        ("C4_one_negative", 2),
    ]:
        report = verify_exponent_theorem(table[name])
        assert report.matched, name
        assert report.exponent == expected
        assert report.achieving_element is not None


def test_exponent_theorem_signed_complete_achiever_is_vertex_class():
    # edge differences in an unbalanced complete signing cap at order 2;
    # the spectral bound is achieved by a vertex class instead
    table = dict(signed_corpus())
    for name in ("unbalanced_K3", "all_negative_K4"):
        report = verify_exponent_theorem(table[name])
        assert report.matched
        assert report.max_edge_order <= 2
        assert report.achieving_element[0] == "vertex_class"
        if report.spectral_bound % 2 == 0:
            assert report.half_bound_even


def test_exponent_verifier_matches_element_order_oracle():
    # the verifier reads every edge class, and the vertex classes of a
    # signed complete graph, off the potential rows; one element_order
    # call per class is the reference
    graphs = _record_bearing([
        *connected_atlas(7), *(g for _, g in unsigned_two_eigenvalue_corpus()),
        *(gs for _, gs in signed_corpus()), *signed_corpus_switchings(),
        *(paley(q) for q in PALEY_ORDERS if q <= 61),
    ])
    assert len(graphs) == 84
    for g in graphs:
        report = verify_exponent_theorem(g)
        got = (report.max_edge_order, report.max_edge, report.achieving_element)
        assert got == exponent_achievers_oracle(g), g


def test_potential_table_route_pins(monkeypatch):
    # on paley 61 the verifier calls no element_order and builds no edge
    # vector, and the record route of grounded_inverse no solve with
    # right-hand sides; cycle 12, without a record, shows that such a solve
    # would be seen: one, against the 11 columns of the identity
    groups = critgroup.groups
    calls = []
    for name in ("element_order", "edge_difference"):
        real = getattr(groups, name)
        monkeypatch.setattr(groups, name, lambda *a, _name=name, _real=real: calls.append(_name) or _real(*a))
    real_solve = groups.solve
    monkeypatch.setattr(groups, "solve", lambda m, columns=(): calls.append(("solve", len(columns)))
                        or real_solve(m, columns))
    groups.grounded_inverse.cache_clear()
    assert verify_exponent_theorem(paley(61)).max_edge_order == 61 * 15
    assert calls == []
    grounded_inverse(cycle(12))
    assert calls == [("solve", 11)]
    monkeypatch.undo()
    groups.grounded_inverse.cache_clear()


def test_exponent_theorem_rejects_structureless():
    with pytest.raises(StructureError):
        verify_exponent_theorem(cycle(6))


def test_exponent_theorem_cross_checks_the_two_exponents(monkeypatch):
    # the invariant factors and the potential table find E by two methods;
    # a group that disagrees with the table is an internal failure
    monkeypatch.setattr(critgroup.groups, "critical_group", lambda g: AbelianGroup((2, 10, 10, 20)))
    with pytest.raises(InternalCheckError, match="exponent 10 of L0\\^-1 disagrees"):
        verify_exponent_theorem(petersen())


def test_spectral_bound_corpus():
    for name, g in unsigned_two_eigenvalue_corpus():
        assert verify_spectral_bound(g).passed, name
    for name, gs in signed_corpus():
        assert verify_spectral_bound(gs).passed, name


def test_spectral_bound_report():
    report = verify_spectral_bound(cycle(6))
    assert (report.exponent, report.product, report.passed) == (6, 12, True)
    report = verify_spectral_bound(petersen())
    assert (report.exponent, report.product, report.passed) == (10, 10, True)


def test_spectral_bound_rejects_non_monic_factor(monkeypatch, capsys):
    # a factor 2x - 3 would give the non-integral product 3/2; the bound
    # must refuse it rather than multiply its constant term in
    import critgroup.cli

    monkeypatch.setattr(critgroup.groups, "laplacian_spectrum",
                        lambda g: ([(0, 1)], (-3, 2)))
    with pytest.raises(InternalCheckError, match="monic"):
        verify_spectral_bound(petersen())
    code = critgroup.cli.main(["verify", "--family", "petersen", "--check", "spectral-bound"])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert err.startswith("error: internal check failed: ")


def test_spectral_bound_random_graphs():
    rng = random.Random(61)
    for _ in range(30):
        g = random_connected_graph(rng, rng.randint(2, 7))
        assert verify_spectral_bound(g).passed


def test_subgroup_invariant_factors():
    group = AbelianGroup((2, 4, 8))

    def factors(gens):
        return subgroup_invariant_factors(group, gens).invariant_factors

    assert factors([(0, 0, 0)]) == ()
    assert factors([(1, 0, 0)]) == (2,)
    assert factors([(0, 0, 1)]) == (8,)
    assert factors([(0, 1, 0), (0, 0, 1)]) == (4, 8)
    # the whole group, generated redundantly
    assert factors([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]) == (2, 4, 8)
    # coordinates are integers, never truncated to one
    for gens in ([(0.5, 1, 0)], [(0, 0, 2.0)], [(1, 0, 0), (0, "1", 0)]):
        with pytest.raises(GraphError, match="must be integers"):
            factors(gens)
    with pytest.raises(GraphError, match="must be integers"):
        subgroup_invariant_factors(AbelianGroup((2, 10)), [(0.5, 1)])


def test_subgroup_invariant_factors_random_cyclic():
    # a single generator x of order o generates a cyclic subgroup Z/o
    rng = random.Random(41)
    for _ in range(30):
        factors = []
        value = 1
        for _ in range(rng.randint(1, 4)):
            value *= rng.randint(2, 6)
            factors.append(value)
        group = AbelianGroup(tuple(factors))
        gen = tuple(rng.randrange(f) for f in factors)
        from math import gcd, lcm

        order = lcm(*(f // gcd(f, c) for f, c in zip(factors, gen))) if factors else 1
        got = subgroup_invariant_factors(group, [gen]).invariant_factors
        if order == 1:
            assert got == ()
        else:
            assert got == (order,)


def test_subgroup_invariant_factors_brute_force():
    # H by closure; the m-torsion of H has prod gcd(m, f_i) elements for
    # every m dividing the exponent, which pins the invariant factors
    from math import gcd, prod

    rng = random.Random(43)
    for _ in range(40):
        factors, value = [], 1
        for _ in range(rng.randint(1, 3)):
            value *= rng.choice((1, 2, 2, 3, 4)) if factors else rng.randint(2, 6)
            factors.append(value)
        group = AbelianGroup(tuple(factors))
        gens = [tuple(rng.randrange(-5, 9) for _ in factors) for _ in range(rng.randint(1, 3))]
        reduced = [tuple(x % d for x, d in zip(v, factors)) for v in gens]
        h = {tuple(0 for _ in factors)}
        frontier = list(h)
        while frontier:
            x = frontier.pop()
            for v in reduced:
                y = tuple((a + b) % d for a, b, d in zip(x, v, factors))
                if y not in h:
                    h.add(y)
                    frontier.append(y)
        got = subgroup_invariant_factors(group, gens).invariant_factors
        assert prod(got) == len(h)
        for m in range(1, group.exponent + 1):
            if group.exponent % m:
                continue
            torsion = sum(1 for x in h if all(m * a % d == 0 for a, d in zip(x, factors)))
            assert torsion == prod(gcd(m, f) for f in got), (factors, gens, m)


def test_subgroup_invariant_factors_trivial_group():
    assert subgroup_invariant_factors(AbelianGroup(()), [()]).is_trivial()
    with pytest.raises(GraphError):
        subgroup_invariant_factors(AbelianGroup(()), [(1,)])
