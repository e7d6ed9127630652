import random

import pytest

from critgroup import (
    DisconnectedGraphError,
    Graph,
    GraphError,
    GraphFormatError,
    StructureError,
    char_poly,
    clebsch_complement,
    complement,
    complete,
    complete_multipartite,
    cycle,
    detect_signed_two_eigenvalue,
    detect_srg,
    detect_two_eigenvalue,
    disjoint_union,
    find_unbalanced_triangle,
    format_graph,
    generate,
    graph_join,
    is_balanced,
    laplacian,
    make_graph,
    make_signed_graph,
    net_common_neighbors,
    paley,
    parse_graph,
    petersen,
    signed_complete_unbalanced,
    squarefree_part,
    star,
    switch,
)
from conftest import (
    connected_atlas,
    signed_c4_one_negative,
    signed_complete_all_negative,
    signed_corpus,
    signed_k6_pentagon,
    signed_two_degree_hexad,
)


def test_make_graph_rejects_bad_edges():
    with pytest.raises(GraphError):
        make_graph(3, [(1, 1)])
    with pytest.raises(GraphError):
        make_graph(3, [(0, 2)])
    with pytest.raises(GraphError):
        make_graph(3, [(2, 4)])
    with pytest.raises(GraphError):
        make_graph(0, [])
    # the constructor normalizes: repeated edges collapse
    assert make_graph(3, [(1, 2), (2, 1)]).sorted_edges() == [(1, 2)]


def test_make_signed_graph_rejects_stray_negative_edges():
    with pytest.raises(GraphError):
        make_signed_graph(3, [(1, 2), (2, 3)], [(1, 3)])


def test_graph_accessors():
    g = make_graph(4, [(1, 2), (3, 2), (3, 4)])
    assert g.n == 4
    assert g.sorted_edges() == [(1, 2), (2, 3), (3, 4)]
    assert g.degree(2) == 2 and g.degree(4) == 1
    assert g.has_edge(2, 1) and not g.has_edge(1, 3)
    assert sorted(g.neighbors(3)) == [2, 4]
    assert g.is_connected()
    assert not make_graph(3, [(1, 2)]).is_connected()


def test_generators_basic_counts():
    assert len(complete(5).sorted_edges()) == 10
    assert len(cycle(6).sorted_edges()) == 6
    assert len(star(4).sorted_edges()) == 4
    assert star(4).degree(1) == 4
    assert len(petersen().sorted_edges()) == 15
    assert len(clebsch_complement().sorted_edges()) == 80
    k222 = complete_multipartite([2, 2, 2])
    assert k222.n == 6 and len(k222.sorted_edges()) == 12


def test_generator_validation():
    with pytest.raises(GraphError):
        complete(0)
    with pytest.raises(GraphError):
        cycle(2)
    with pytest.raises(GraphError):
        star(0)
    with pytest.raises(GraphError):
        complete_multipartite([3])
    with pytest.raises(GraphError):
        paley(7)  # 7 = 3 mod 4
    with pytest.raises(GraphError):
        paley(15)  # not a prime power
    with pytest.raises(GraphError):
        signed_complete_unbalanced(2)


def test_petersen_is_kneser_labeled():
    # vertex 1 = {1,2} under the lexicographic 2-subset labeling, so its
    # neighbors are the three disjoint pairs {3,4}, {3,5}, {4,5}
    g = petersen()
    assert sorted(g.neighbors(1)) == [8, 9, 10]
    assert g.sorted_edges()[0] == (1, 8)


def test_clebsch_complement_binary_labeling():
    # vertices are 4-bit strings in lexicographic order; adjacency is
    # Hamming distance 1 or 2, so 0000 ~ 0011 and 1110 ~ 1101
    g = clebsch_complement()
    assert g.has_edge(1, 4)
    assert g.has_edge(15, 14)
    assert not g.has_edge(1, 16)  # 0000 vs 1111 differ in four bits


def test_srg_detection_golden_parameters():
    cases = [
        (petersen(), (10, 3, 0, 1)),
        (clebsch_complement(), (16, 10, 6, 6)),
        (paley(5), (5, 2, 0, 1)),
        (paley(9), (9, 4, 1, 2)),
        (paley(13), (13, 6, 2, 3)),
        (complement(petersen()), (10, 6, 3, 4)),
        (complete_multipartite([3, 3]), (6, 3, 0, 3)),
        (complete_multipartite([2, 2, 2]), (6, 4, 2, 4)),
    ]
    for g, expected in cases:
        p = detect_srg(g)
        assert p is not None
        assert (p.n, p.k, p.lam, p.mu) == expected


def test_srg_detection_rejects_non_srg():
    assert detect_srg(cycle(6)) is None
    assert detect_srg(make_graph(4, [(1, 2), (2, 3), (3, 4)])) is None
    assert detect_srg(star(3)) is None


def test_srg_complete_graph_has_mu_zero():
    p = detect_srg(complete(4))
    assert p is not None and p.mu == 0


def test_srg_eigenvalue_product():
    p = detect_srg(petersen())
    assert p.eigenvalue_sum == 2 * 3 - 0 + 1
    assert p.eigenvalue_product == 10 * 1


def test_two_degree_detection():
    w4 = graph_join(complete(1), complete_multipartite([2, 2]))
    p = detect_two_eigenvalue(w4)
    assert p is not None
    assert (p.k1, p.k2) == (3, 4)
    assert p.eigenvalue_product == 15

    p = detect_two_eigenvalue(star(4))
    assert p is not None
    assert (p.k1, p.k2) == (1, 4)
    assert p.eigenvalue_product == 5

    assert detect_two_eigenvalue(cycle(6)) is None
    with pytest.raises(StructureError):
        detect_two_eigenvalue(complete(4))


def _spectral_quadratic(g):
    """The square-free part q of the Laplacian characteristic polynomial,
    zero roots stripped first for an unsigned graph, as coefficients
    (q0, q1, 1) when it has degree 2, else None."""
    poly = char_poly(laplacian(g))
    if isinstance(g, Graph):
        poly, _ = poly.strip_zero_roots()
    q = squarefree_part(poly)
    return q.coeffs if q.degree == 2 else None


def test_detection_matches_spectrum():
    # a detector returns parameters exactly when q has degree 2, and then
    # q = x^2 - s x + p with s, p the eigenvalue sum and product
    atlas = connected_atlas(7)
    for g in atlas:
        if g.is_complete():
            continue
        want = _spectral_quadratic(g)
        p = detect_two_eigenvalue(g)
        assert (p and (p.eigenvalue_product, -p.eigenvalue_sum, 1)) == want, g
        assert (detect_srg(g) is not None) == (want is not None and g.is_regular()), g
    rng = random.Random(1998)
    for g in atlas:
        if g.n > 6:
            continue
        edges = g.sorted_edges()
        if g.n <= 4:
            signings = range(1 << len(edges))
        else:
            signings = [rng.getrandbits(len(edges)) for _ in range(3)]
        for mask in signings:
            negative = [e for i, e in enumerate(edges) if mask >> i & 1]
            gs = make_signed_graph(g.n, edges, negative)
            p = detect_signed_two_eigenvalue(gs)
            want = _spectral_quadratic(gs)
            assert (p and (p.eigenvalue_product, -p.eigenvalue_sum, 1)) == want, gs


def test_switch_is_involution_and_preserves_balance_class():
    rng = random.Random(7)
    for _ in range(20):
        base = complete(5)
        edges = base.sorted_edges()
        neg = [e for e in edges if rng.random() < 0.5]
        gs = make_signed_graph(5, edges, neg)
        subset = {v for v in range(1, 6) if rng.random() < 0.5}
        twice = switch(switch(gs, subset), subset)
        assert twice.negative_edges == gs.negative_edges
        assert is_balanced(switch(gs, subset)).balanced == is_balanced(gs).balanced


def test_balance_detection():
    edges = [(1, 2), (2, 3), (3, 4), (1, 4)]
    assert is_balanced(make_signed_graph(4, edges, [])).balanced
    assert is_balanced(make_signed_graph(4, edges, [(1, 2), (2, 3)])).balanced
    assert not is_balanced(make_signed_graph(4, edges, [(1, 2)])).balanced
    assert not is_balanced(signed_complete_unbalanced(3)).balanced
    # switching the all-positive graph stays balanced, and the certificate
    # switches the signs away again
    gs = switch(make_signed_graph(4, edges, []), {1, 3})
    result = is_balanced(gs)
    assert result.balanced
    assert gs.negative_edges
    assert not switch(gs, result.switching_set).negative_edges


def test_net_common_neighbors_hand_values():
    gs = signed_complete_unbalanced(3)  # negative edge (1,2)
    # vertices 1,2 share neighbor 3 with signs +,+ seen from the pair
    assert net_common_neighbors(gs, 1, 2) == 1
    assert net_common_neighbors(gs, 1, 3) == -1  # via 2: sign(1,2)*sign(3,2) = -1


def test_signed_two_eigenvalue_detection_corpus():
    for name, gs in signed_corpus():
        p = detect_signed_two_eigenvalue(gs)
        assert p is not None, name
        if name == "two_degree_hexad":
            assert p.case == "two_degree"
            assert (p.k1, p.k2) == (3, 4)
            assert p.eigenvalue_product == 12
        else:
            assert p.case == "regular"
    assert detect_signed_two_eigenvalue(signed_k6_pentagon()).lam == 0
    assert detect_signed_two_eigenvalue(signed_c4_one_negative()).eigenvalue_product == 2


def test_signed_two_eigenvalue_detection_rejects():
    edges = complete(4).sorted_edges()
    one_neg = make_signed_graph(4, edges, [(1, 2)])
    assert detect_signed_two_eigenvalue(one_neg) is None
    path = make_signed_graph(3, [(1, 2), (2, 3)], [(1, 2)])
    assert detect_signed_two_eigenvalue(path) is None


def test_find_unbalanced_triangle():
    for gs in (signed_complete_unbalanced(4), signed_complete_unbalanced(6)):
        t = find_unbalanced_triangle(gs)
        # normalized: (u,v) is the unique negative edge of the triangle
        assert t.graph.sign(t.u, t.v) == -1
        assert t.graph.sign(t.u, t.w) == 1
        assert t.graph.sign(t.v, t.w) == 1
        # switch_set records how to get from the input to the normal form
        assert switch(gs, t.switch_set).negative_edges == t.graph.negative_edges
    with pytest.raises(StructureError):
        find_unbalanced_triangle(make_signed_graph(3, [(1, 2), (1, 3), (2, 3)], []))
    with pytest.raises(StructureError):
        find_unbalanced_triangle(signed_c4_one_negative())


def test_find_unbalanced_triangle_all_negative():
    # an all-negative triangle keeps (1, 2) and switches its third vertex
    gs = signed_complete_all_negative(4)
    t = find_unbalanced_triangle(gs)
    assert (t.u, t.v, t.w, t.switch_set) == (1, 2, 3, frozenset({3}))
    assert t.graph == switch(gs, {3})
    assert sorted(t.graph.negative_edges) == [(1, 2), (1, 4), (2, 4)]


def test_generate_dispatcher():
    g = generate("petersen", [])
    assert g.n == 10
    g = generate("complete", [4])
    assert len(g.sorted_edges()) == 6
    gs = generate("signed_complete_unbalanced", [3])
    assert gs.negative_edges == frozenset({(1, 2)})
    with pytest.raises(GraphError):
        generate("nonexistent_family", [])
    with pytest.raises(GraphError):
        generate("petersen", [3])
    with pytest.raises(GraphError):
        generate("complete", [])


def test_format_parse_round_trip_unsigned():
    for g in (petersen(), star(4), cycle(5)):
        text = format_graph(g)
        back = parse_graph(text)
        assert back == g


def test_format_parse_round_trip_signed():
    for name, gs in signed_corpus():
        text = format_graph(gs)
        back = parse_graph(text)
        assert back == gs, name


def test_parse_graph_comments_and_blanks():
    text = "# a triangle\nn 3\n\n1 2\n2 3 +\n1 3 -\n"
    gs = parse_graph(text)
    assert gs.negative_edges == frozenset({(1, 3)})


def test_parse_graph_error_line_numbers():
    cases = [
        ("m 3\n1 2\n", 1),
        ("n 3\n1 2\n2 9\n", 3),
        ("n 3\n1 1\n", 2),
        ("n 3\n1 2\n1 2 -\n", 3),
        ("n 3\n1 2 ?\n", 2),
        ("n x\n", 1),
        ("n 3\n1\n", 2),
    ]
    for text, line in cases:
        with pytest.raises(GraphFormatError) as info:
            parse_graph(text)
        assert info.value.line == line
        assert f"line {line}" in str(info.value)


def test_parse_graph_requires_header():
    with pytest.raises(GraphFormatError):
        parse_graph("")
    with pytest.raises(GraphFormatError):
        parse_graph("# only a comment\n")


def test_union_and_join():
    u = disjoint_union([complete(2), complete(3)])
    assert u.n == 5 and not u.is_connected()
    j = graph_join(complete(2), make_graph(3, []))
    assert j.n == 5
    assert j.degree(1) == 4 and j.degree(3) == 2
    assert complement(complete(4)).sorted_edges() == []


def test_two_degree_hexad_signs():
    gs = signed_two_degree_hexad()
    assert gs.sign(2, 3) == -1
    assert gs.sign(1, 2) == 1
    degs = sorted({gs.graph.degree(v) for v in gs.graph.vertices()})
    assert degs == [3, 4]
