"""End-to-end acceptance checks, one per contract criterion.

Each test prints a single "criterion N (...): PASS/FAIL" line and then
asserts, so a bare run doubles as a checklist.  Every numeric expectation
is either a frozen golden value or cross-checked against an independent
oracle (determinant divisors, deletion-contraction, direct pairing
solves); nothing is compared against the code path it is testing.
"""

import random
import time
from fractions import Fraction

from critgroup import (
    check_subgroup_divisibility,
    char_poly,
    clebsch_complement,
    complete,
    complete_multipartite,
    critical_group,
    cycle,
    detect_two_eigenvalue,
    determinant,
    is_balanced,
    laplacian,
    make_signed_graph,
    monodromy_pairing,
    paley,
    petersen,
    scan_tight_denominators,
    signed_complete_unbalanced,
    squarefree_part,
    subgroup_bound,
    verify_exponent_theorem,
    verify_spectral_bound,
    verify_tail_heavy,
)
from conftest import (
    applicable_edges,
    connected_atlas,
    decomposition,
    determinant_divisor_diagonal,
    edge_pairing_closed_form,
    fraction,
    matmul,
    mul_vec,
    random_connected_graph,
    random_int_matrix,
    random_sum_zero_vector,
    signed_complete_all_negative,
    signed_corpus,
    smith_normal_form,
    spanning_trees_deletion_contraction,
    switch,
    unsigned_srg_corpus,
    unsigned_two_eigenvalue_corpus,
)

KNOWN_TIGHT = {(5, 2, 0, 1), (35, 18, 9, 9), (45, 12, 3, 3), (85, 20, 3, 5)}


def report(num, name, failures):
    verdict = "FAIL" if failures else "PASS"
    print(f"criterion {num} ({name}): {verdict}")
    assert not failures, failures[:5]


def edge_chip(n, e):
    d = [0] * n
    d[e[0] - 1] += 1
    d[e[1] - 1] -= 1
    return d


def test_criterion_1_golden_groups():
    failures = []
    goldens = [
        ("clebsch_complement", clebsch_complement(),
         (3, 12, 12, 12, 12, 24, 96, 96, 96, 96)),
        ("unbalanced_K3", signed_complete_unbalanced(3), (4,)),
    ]
    for m in range(2, 7):
        goldens.append((f"K{m}x{m}", complete_multipartite([m, m]),
                        (m,) * (2 * m - 4) + (m * m,)))
    for name, g, want in goldens:
        t0 = time.monotonic()
        got = critical_group(g).invariant_factors
        elapsed = time.monotonic() - t0
        if got != want:
            failures.append((name, got, want))
        if elapsed >= 5.0:
            failures.append((name, "too slow", elapsed))
    report(1, "golden group values", failures)


def test_criterion_2_exponent_theorem_corpus():
    failures = []
    corpus = unsigned_two_eigenvalue_corpus()
    assert len(corpus) >= 10
    t0 = time.monotonic()
    for name, g in corpus:
        r = verify_exponent_theorem(g)
        if not r.matched:
            failures.append((name, "not matched"))
            continue
        params = detect_two_eigenvalue(g)
        if params.regular and r.spectral_bound != params.n * params.mu:
            failures.append((name, "bound is not n*mu"))
        bipartite_exc = name in ("K2x2", "K3x3", "K4x4")
        star_exc = name.startswith("star")
        if bipartite_exc:
            ok = (r.classification == "exceptional_complete_bipartite"
                  and 2 * r.exponent == r.spectral_bound)
        elif star_exc:
            ok = r.classification == "exceptional_star" and r.exponent == 1
        else:
            ok = r.classification == "match" and r.exponent == r.spectral_bound
        if not ok:
            failures.append((name, r.classification, r.exponent, r.spectral_bound))
    if time.monotonic() - t0 >= 60.0:
        failures.append(("corpus sweep", "too slow"))
    report(2, "two-eigenvalue exponent theorem", failures)


def quadratic_root_product(gs):
    # exactly-two-eigenvalue filter: squarefree part of the characteristic
    # polynomial is quadratic; the root product is then constant/leading
    sf = squarefree_part(char_poly(laplacian(gs)))
    if len(sf) != 3:
        return None
    return Fraction(sf[0], sf[-1])


def test_criterion_3_signed_exponent_theorem():
    failures = []
    rng = random.Random(20260819)

    # unbalanced signed complete graphs, several sign patterns per size
    instances = []
    for n in range(3, 7):
        base = signed_complete_all_negative(n)
        patterns = {base.negative_edges: base}
        while len(patterns) < 4:
            subset = [v for v in range(1, n + 1) if rng.random() < 0.5]
            gs = switch(base, subset)
            patterns[gs.negative_edges] = gs
        instances.extend((f"K{n}", gs) for gs in patterns.values())
    pentagon = make_signed_graph(
        6,
        [(i, j) for i in range(1, 7) for j in range(i + 1, 7)],
        [(2, 3), (3, 5), (5, 6), (4, 6), (2, 4)],
    )
    instances.append(("K6_pentagon", pentagon))
    instances.append(("K6_pentagon_switched", switch(pentagon, [1, 3, 5])))
    for name, gs in instances:
        if is_balanced(gs).balanced:
            failures.append((name, "unexpectedly balanced"))
            continue
        prod = quadratic_root_product(gs)
        r = verify_exponent_theorem(gs)
        if prod is None or not r.matched or r.exponent != prod:
            failures.append((name, r.exponent, prod))

    # random search over signings of small regular graphs
    bases = [
        ("C4", cycle(4)),
        ("K4", complete(4)),
        ("K5", complete(5)),
        ("K6", complete(6)),
        ("octahedron", complete_multipartite([2, 2, 2])),
    ]
    hits = 0
    for trial in range(400):
        name, base = bases[trial % len(bases)]
        edges = base.sorted_edges()
        neg = [e for e in edges if rng.random() < 0.5]
        if not neg:
            continue
        gs = make_signed_graph(base.n, edges, neg)
        if is_balanced(gs).balanced:
            continue
        prod = quadratic_root_product(gs)
        if prod is None:
            continue
        hits += 1
        if detect_two_eigenvalue(gs) is None:
            failures.append((name, trial, "detection disagrees with filter"))
            continue
        r = verify_exponent_theorem(gs)
        if not r.matched or r.exponent != prod or r.exponent != r.spectral_bound:
            failures.append((name, trial, r.exponent, prod))
    if hits < 10:
        failures.append(("random search", "too few hits", hits))
    report(3, "signed exponent theorem", failures)


def test_criterion_4_decomposition_identities():
    failures = []
    seen_cases = set()
    checked = 0
    for name, g in list(unsigned_two_eigenvalue_corpus()) + list(signed_corpus()):
        for edge in applicable_edges(g):
            dec = decomposition(g, edge)
            seen_cases.add(dec.case)
            got = mul_vec(laplacian(dec.graph), list(dec.coefficients))
            want = [dec.order * t for t in dec.target]
            if got != want:
                failures.append((name, edge, dec.case))
            checked += 1
    if checked < 100:
        failures.append(("edge count", checked))
    want_cases = {"srg", "two_degree", "signed_complete", "signed_regular",
                  "signed_two_degree"}
    if seen_cases != want_cases:
        failures.append(("cases", seen_cases))
    report(4, f"decomposition identities on {checked} edges", failures)


def test_criterion_5_exponent_divides_spectral_product():
    failures = []
    # exhaustive over all 995 connected graphs on 2..7 vertices: a documented
    # superset of the 853 graphs on exactly 7 vertices
    atlas = connected_atlas(7)
    if len(atlas) != 995:
        failures.append(("atlas size", len(atlas)))
    for g in atlas:
        if not verify_spectral_bound(g).passed:
            failures.append(("unsigned", g.n, g.sorted_edges()))
    for name, gs in signed_corpus():
        if not verify_spectral_bound(gs).passed:
            failures.append(("signed", name))
    report(5, "exponent divides distinct-eigenvalue product", failures)


def test_criterion_6_pairing_properties():
    failures = []
    rng = random.Random(62026)
    for case in range(100):
        n = rng.randint(3, 8)
        g = random_connected_graph(rng, n)
        m = critical_group(g).exponent
        d1 = random_sum_zero_vector(rng, n)
        d2 = random_sum_zero_vector(rng, n)
        d3 = random_sum_zero_vector(rng, n)
        p12 = fraction(monodromy_pairing(g, d1, d2, m=m))
        if p12 != fraction(monodromy_pairing(g, d2, d1, m=m)):
            failures.append((case, "symmetry"))
        dsum = [a + b for a, b in zip(d1, d3)]
        total = (p12 + fraction(monodromy_pairing(g, d3, d2, m=m))) % 1
        if fraction(monodromy_pairing(g, dsum, d2, m=m)) != total:
            failures.append((case, "bilinearity"))
        if p12 != fraction(monodromy_pairing(g, d1, d2, m=2 * m)):
            failures.append((case, "m-independence"))
        shift = mul_vec(laplacian(g), [rng.randint(-3, 3) for _ in range(n)])
        moved = [a + b for a, b in zip(d1, shift)]
        if p12 != fraction(monodromy_pairing(g, moved, d2, m=m)):
            failures.append((case, "representative-independence"))

    # self-pairing of every edge element of every strongly regular corpus
    # member, against the closed fraction 2(n-1)/(kn) mod 1
    for name, g in unsigned_srg_corpus():
        p = detect_two_eigenvalue(g)
        want = Fraction(2 * (p.n - 1), p.k1 * p.n) % 1
        for e in g.sorted_edges():
            val = monodromy_pairing(g, edge_chip(g.n, e), edge_chip(g.n, e))
            if fraction(val) != want or val.is_zero():
                failures.append((name, e, str(val)))

    # closed form against the defining solve, exhaustively, on two graphs
    for g in [petersen(), paley(9)]:
        m = critical_group(g).exponent
        edges = g.sorted_edges()
        for i, e1 in enumerate(edges):
            for e2 in edges[i:]:
                direct = monodromy_pairing(
                    g, edge_chip(g.n, e1), edge_chip(g.n, e2), m=m)
                if edge_pairing_closed_form(g, e1, e2) != direct:
                    failures.append((g.n, e1, e2))
    report(6, "pairing properties", failures)


def test_criterion_7_tail_heavy_subgroups():
    failures = []
    g = clebsch_complement()
    e1, e2 = (1, 4), (14, 15)
    if not edge_pairing_closed_form(g, e1, e2).is_zero():
        failures.append("clebsch pair not orthogonal (closed form)")
    direct = monodromy_pairing(g, edge_chip(16, e1), edge_chip(16, e2))
    if not direct.is_zero():
        failures.append("clebsch pair not orthogonal (direct solve)")
    predicted = subgroup_bound(detect_two_eigenvalue(g), 2)
    if predicted.invariant_factors != (16, 96):
        failures.append(("predicted", predicted.invariant_factors))
    if not check_subgroup_divisibility(predicted, critical_group(g)):
        failures.append("divisibility rejected on clebsch complement")

    t0 = time.monotonic()
    for h in [petersen(), paley(9)]:
        r = verify_tail_heavy(h, mode="exact")
        if not (r.passed and r.divisibility_ok and r.size >= 1):
            failures.append((h.n, "tail-heavy verification failed"))
    if time.monotonic() - t0 >= 60.0:
        failures.append("exhaustive orthogonal search too slow")
    report(7, "tail-heavy subgroup forcing", failures)


def test_criterion_8_parameter_scan():
    failures = []
    rows = scan_tight_denominators(100)
    unflagged = {(r.params.n, r.params.k1, r.params.lam, r.params.mu)
                 for r in rows if not r.needs_review}
    if unflagged != KNOWN_TIGHT:
        failures.append(("unflagged", unflagged))
    for r in rows:
        key = (r.params.n, r.params.k1, r.params.lam, r.params.mu)
        if key not in KNOWN_TIGHT and not r.needs_review:
            failures.append(("silently included", key))
        if not r.denominator_equals_bound:
            failures.append(("not tight", key))
    report(8, "tight-denominator parameter scan", failures)


def test_criterion_9_snf_oracle_equivalence():
    failures = []
    rng = random.Random(90062)
    for case in range(500):
        m = random_int_matrix(rng, rng.randint(1, 8), rng.randint(1, 8), bound=9)
        snf = smith_normal_form(m)
        if list(snf.diagonal) != determinant_divisor_diagonal(m):
            failures.append((case, "diagonal"))
        if abs(determinant(snf.U)) != 1 or abs(determinant(snf.V)) != 1:
            failures.append((case, "transform not unimodular"))
        if matmul(matmul(snf.U, m), snf.V) != snf.S:
            failures.append((case, "U*M*V != S"))
    report(9, "smith normal form vs determinant divisors", failures)


def test_criterion_10_matrix_tree_cross_check():
    failures = []
    atlas = connected_atlas(6)
    if len(atlas) != 142:
        failures.append(("atlas size", len(atlas)))
    for g in atlas:
        trees = spanning_trees_deletion_contraction(g.n, g.sorted_edges())
        if critical_group(g).order != trees:
            failures.append((g.n, g.sorted_edges()))
    report(10, "group order equals spanning tree count", failures)
