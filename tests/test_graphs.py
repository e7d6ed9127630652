import random

import pytest

from critgroup import (
    DisconnectedGraphError,
    Graph,
    GraphError,
    GraphFormatError,
    SignedGraph,
    StructureError,
    char_poly,
    clebsch_complement,
    complete,
    complete_multipartite,
    cycle,
    detect_two_eigenvalue,
    format_graph,
    generate,
    is_balanced,
    laplacian,
    make_graph,
    make_signed_graph,
    paley,
    parse_graph,
    petersen,
    read_graph_file,
    signed_complete_unbalanced,
    squarefree_part,
    star,
)
from critgroup.cli import _structure_block
from critgroup.errors import replace
from conftest import (
    complement,
    connected_atlas,
    graph_join,
    signed_c4_one_negative,
    signed_corpus,
    signed_k6_pentagon,
    signed_two_degree_hexad,
    strip_zero_roots,
    switch,
    unsigned_two_eigenvalue_corpus,
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
        p = detect_two_eigenvalue(g)
        assert p is not None and p.regular and p.case == "srg"
        assert (p.n, p.k1, p.lam, p.mu) == expected


def test_srg_detection_rejects_non_srg():
    assert detect_two_eigenvalue(cycle(6)) is None
    assert detect_two_eigenvalue(make_graph(4, [(1, 2), (2, 3), (3, 4)])) is None
    p = detect_two_eigenvalue(star(3))
    assert not p.regular and p.lam is None


def test_srg_complete_graph_has_mu_zero():
    # complete graphs, which have one non-zero eigenvalue, have no record;
    # analyze reports K_n as strongly regular (n, n-1, n-2, 0)
    assert all(detect_two_eigenvalue(complete(n)) is None for n in range(1, 9))
    block = _structure_block(complete(4))
    assert block["type"] == "strongly_regular"
    assert (block["n"], block["k"], block["lam"], block["mu"]) == (4, 3, 2, 0)


def test_srg_eigenvalue_product():
    p = detect_two_eigenvalue(petersen())
    assert p.eigenvalue_sum == 2 * 3 - 0 + 1
    assert p.eigenvalue_product == 10 * 1
    # x^2 - 7x + 13 has no real roots, so no multiplicities
    assert replace(p, eigenvalue_product=13).multiplicities is None


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
    assert detect_two_eigenvalue(complete(4)) is None


def _spectral_quadratic(g):
    """The square-free part q of the Laplacian characteristic polynomial,
    zero roots stripped first for an unsigned graph, as coefficients
    (q0, q1, 1) when it has degree 2, else None."""
    poly = char_poly(laplacian(g))
    if isinstance(g, Graph):
        poly, _ = strip_zero_roots(poly)
    q = squarefree_part(poly)
    return q if len(q) == 3 else None


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
        assert (p is not None and p.regular) == (want is not None and g.is_regular()), g
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
            p = detect_two_eigenvalue(gs)
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
    with pytest.raises(GraphError, match="non-vertices"):
        switch(gs, {0, 6})


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
    with pytest.raises(StructureError):
        is_balanced(petersen())  # an unsigned graph has no signs
    with pytest.raises(GraphError, match=r"\(1,3\) is not an edge"):
        make_signed_graph(4, edges, []).sign(1, 3)


def test_signed_two_eigenvalue_detection_corpus():
    for name, gs in signed_corpus():
        p = detect_two_eigenvalue(gs)
        assert p is not None, name
        if name == "two_degree_hexad":
            assert p.case == "signed_two_degree"
            assert (p.k1, p.k2) == (3, 4)
            assert p.eigenvalue_product == 12
        else:
            assert p.case == ("signed_complete" if gs.graph.is_complete() else "signed_regular")
    assert detect_two_eigenvalue(signed_k6_pentagon()).lam == 0
    assert detect_two_eigenvalue(signed_c4_one_negative()).eigenvalue_product == 2


def test_two_eigenvalue_record_fields():
    # (case, k1, k2, mu, lam, s, p) for each graph of the two-eigenvalue
    # corpora, recorded before the unsigned and signed records were merged
    want = {
        "paley5": ("srg", 2, 2, 1, 0, 5, 5),
        "paley9": ("srg", 4, 4, 2, 1, 9, 18),
        "paley13": ("srg", 6, 6, 3, 2, 13, 39),
        "petersen": ("srg", 3, 3, 1, 0, 7, 10),
        "clebsch_complement": ("srg", 10, 10, 6, 6, 20, 96),
        "triangular_t5": ("srg", 6, 6, 4, 3, 13, 40),
        "K2x2": ("srg", 2, 2, 2, 0, 6, 8),
        "K3x3": ("srg", 3, 3, 3, 0, 9, 18),
        "K4x4": ("srg", 4, 4, 4, 0, 12, 32),
        "K2x2x2": ("srg", 4, 4, 4, 2, 10, 24),
        "K3x3x3": ("srg", 6, 6, 6, 3, 15, 54),
        "star2": ("two_degree", 1, 2, 1, None, 4, 3),
        "star3": ("two_degree", 1, 3, 1, None, 5, 4),
        "star4": ("two_degree", 1, 4, 1, None, 6, 5),
        "star5": ("two_degree", 1, 5, 1, None, 7, 6),
        "wheel_w4": ("two_degree", 3, 4, 3, None, 8, 15),
        "split_2_3": ("two_degree", 2, 4, 2, None, 7, 10),
        "join_K2_K2x2": ("two_degree", 4, 5, 4, None, 10, 24),
        "unbalanced_K3": ("signed_complete", 2, 2, 0, -1, 5, 4),
        "all_negative_K4": ("signed_complete", 3, 3, 0, -2, 8, 12),
        "all_negative_K4_switched": ("signed_complete", 3, 3, 0, -2, 8, 12),
        "all_negative_K5": ("signed_complete", 4, 4, 0, -3, 11, 24),
        "all_negative_K6": ("signed_complete", 5, 5, 0, -4, 14, 40),
        "K6_pentagon_signing": ("signed_complete", 5, 5, 0, 0, 10, 20),
        "C4_one_negative": ("signed_regular", 2, 2, 0, 0, 4, 2),
        "octahedron_signing": ("signed_regular", 4, 4, 0, 0, 8, 12),
        "two_degree_hexad": ("signed_two_degree", 3, 4, 0, None, 8, 12),
    }
    corpus = unsigned_two_eigenvalue_corpus() + signed_corpus()
    assert sorted(want) == sorted(name for name, _ in corpus)
    for name, g in corpus:
        p = detect_two_eigenvalue(g)
        got = (p.case, p.k1, p.k2, p.mu, p.lam, p.eigenvalue_sum, p.eigenvalue_product)
        assert got == want[name], name
        assert p.n == g.n and p.regular == (p.k1 == p.k2), name
        assert p.mu_bar == g.n + p.mu - p.eigenvalue_sum, name


def test_signed_two_eigenvalue_detection_rejects():
    edges = complete(4).sorted_edges()
    one_neg = make_signed_graph(4, edges, [(1, 2)])
    assert detect_two_eigenvalue(one_neg) is None
    path = make_signed_graph(3, [(1, 2), (2, 3)], [(1, 2)])
    assert detect_two_eigenvalue(path) is None


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


def test_format_parse_round_trip_all_positive_signed():
    # every edge carries a "+": the file parses back as a signed graph
    gs = SignedGraph(petersen(), frozenset())
    text = format_graph(gs)
    assert all(line.endswith(" +") for line in text.splitlines()[1:])
    back = parse_graph(text)
    assert isinstance(back, SignedGraph) and back == gs
    assert is_balanced(back).balanced


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


def test_read_graph_file_rejects_bytes_that_are_not_utf8(tmp_path):
    path = tmp_path / "g.txt"
    for data, line, byte in (
        (b"\xff\xfen 3\n1 2\n", 1, "0xff"),  # a UTF-16 byte-order mark
        (b"n 3\n1 2\n2 3 \xc3\n", 3, "0xc3"),  # a truncated sequence
    ):
        path.write_bytes(data)
        with pytest.raises(GraphFormatError) as info:
            read_graph_file(str(path))
        assert info.value.line == line
        assert str(info.value) == f"line {line}: not UTF-8 text (byte {byte})"
    # CRLF line ends read as before
    path.write_bytes(b"n 3\r\n1 2\r\n2 3 -\r\n")
    assert read_graph_file(str(path)) == parse_graph("n 3\n1 2\n2 3 -\n")


def test_parse_graph_requires_header():
    with pytest.raises(GraphFormatError):
        parse_graph("")
    with pytest.raises(GraphFormatError):
        parse_graph("# only a comment\n")


def test_union_and_join():
    u = make_graph(5, [(1, 2), (3, 4), (3, 5), (4, 5)])  # K2 beside K3
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
