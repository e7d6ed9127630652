import pytest

from critgroup import (
    KNOWN_TIGHT_TUPLES,
    GraphError,
    clebsch_complement,
    detect_two_eigenvalue,
    enumerate_feasible,
    paley,
    petersen,
    scan_tight_denominators,
    self_pairing_denominator,
    verify_exponent_theorem,
    verify_tail_heavy,
)
from critgroup.graphs import MAX_VERTICES
from conftest import (
    complement,
    enumerate_feasible_filter,
    enumerate_feasible_loop,
    generalized_quadrangle_2_4,
    hermitian_h34,
    pg32_lines,
    symplectic_w2,
    symplectic_w4,
)


def tuples(rows):
    return [(r.params.n, r.params.k1, r.params.lam, r.params.mu) for r in rows]


def test_known_tight_tuples_frozen():
    assert KNOWN_TIGHT_TUPLES == frozenset(
        {(5, 2, 0, 1), (35, 18, 9, 9), (45, 12, 3, 3), (85, 20, 3, 5)}
    )


def test_enumerate_feasible_small():
    rows = enumerate_feasible(10)
    ts = tuples(rows)
    for expected in [(5, 2, 0, 1), (9, 4, 1, 2), (10, 3, 0, 1), (10, 6, 3, 4)]:
        assert expected in ts
    # fails the multiplicity integrality condition
    assert (6, 3, 0, 2) not in ts
    # parameter identity k(k - lam - 1) = (n - k - 1) mu rules this out
    assert (10, 4, 0, 1) not in ts


def test_enumerate_feasible_matches_generate_and_filter():
    # only the admissible lam are visited; trying every lam and filtering
    # must give the same rows in the same order
    want = enumerate_feasible_filter(150)
    assert len(want) == 801
    assert enumerate_feasible(150) == want


def test_enumerate_feasible_matches_the_unfiltered_loop():
    # the even n k stride and the skip of irrational discriminants away from
    # 2k = n - 1 drop only tuples `_multiplicities` rejects; rows come in
    # order of n, so every n_max up to the limit gives a prefix of these
    want = enumerate_feasible_loop(MAX_VERTICES)
    assert len(want) == 8591
    assert enumerate_feasible(MAX_VERTICES) == want
    assert sum(row.conference for row in want) == 234


def test_enumerate_feasible_rejects_tiny():
    with pytest.raises(GraphError):
        enumerate_feasible(4)


def test_enumerate_feasible_rejects_above_vertex_limit():
    # the enumeration is cubic in n_max; past the graph limit it is refused
    # before any work, however large the request
    for n_max in (MAX_VERTICES + 1, 10**9):
        for scan in (enumerate_feasible, scan_tight_denominators):
            with pytest.raises(GraphError, match=f"limit of {MAX_VERTICES}"):
                scan(n_max)


def test_complement_parameters_pass_identity():
    # the filter is arithmetic only, so complements need not reappear in the
    # list, but their parameters always satisfy the counting identity
    for n, k, lam, mu in tuples(enumerate_feasible(30)):
        kc = n - k - 1
        lamc = n - 2 - 2 * k + mu
        muc = n - 2 * k + lam
        assert kc * (kc - lamc - 1) == (n - kc - 1) * muc, (n, k, lam, mu)


def test_corpus_parameters_are_feasible():
    rows = enumerate_feasible(16)
    ts = tuples(rows)
    for g in (petersen(), paley(5), paley(9), paley(13), clebsch_complement(), complement(petersen())):
        p = detect_two_eigenvalue(g)
        assert (p.n, p.k1, p.lam, p.mu) in ts


def test_multiplicities():
    by_tuple = {t: r for t, r in zip(tuples(enumerate_feasible(16)), enumerate_feasible(16))}
    pet = by_tuple[(10, 3, 0, 1)]
    assert pet.multiplicities == (5, 4)
    assert not pet.conference
    p5 = by_tuple[(5, 2, 0, 1)]
    assert p5.multiplicities == (2, 2)
    assert p5.conference
    # multiplicities account for all non-principal eigenvalues
    for t, row in by_tuple.items():
        assert sum(row.multiplicities) == t[0] - 1


def test_denominator_fields():
    rows = enumerate_feasible(40)
    for row in rows:
        eta = self_pairing_denominator(row.params)
        assert row.denominator == eta
        assert row.denominator_equals_bound == (eta == row.params.eigenvalue_product)


def test_scan_tight_34():
    rows = scan_tight_denominators(34)
    ts = tuples(rows)
    assert (5, 2, 0, 1) in ts
    # arithmetically tight but outside the known-consistency list: flagged
    assert (15, 6, 1, 3) in ts
    assert (27, 10, 1, 5) in ts
    flags = {t: r.needs_review for t, r in zip(ts, rows)}
    assert not flags[(5, 2, 0, 1)]
    assert flags[(15, 6, 1, 3)]
    assert flags[(27, 10, 1, 5)]


def test_tight_tuples_are_realized():
    # classical graphs realize every KNOWN_TIGHT_TUPLES entry and the two
    # tuples scan flags for review, (15,6,1,3) and (27,10,1,5): on each the
    # self-pairing denominator equals the bound p, the exponent is p, and
    # greedy orthogonal edges force a tail of full factors p
    realized = set()
    for g, params, p, r in ((paley(5), (5, 2, 0, 1), 5, 1),
                            (pg32_lines(), (35, 18, 9, 9), 315, 9),
                            (hermitian_h34(), (45, 12, 3, 3), 135, 6),
                            (symplectic_w4(), (85, 20, 3, 5), 425, 7),
                            (symplectic_w2(), (15, 6, 1, 3), 45, 3),
                            (generalized_quadrangle_2_4(), (27, 10, 1, 5), 135, 5)):
        record = detect_two_eigenvalue(g)
        assert (record.n, record.k1, record.lam, record.mu) == params
        assert self_pairing_denominator(record) == record.eigenvalue_product == p
        report = verify_exponent_theorem(g)
        assert report.matched and report.exponent == p
        tail = verify_tail_heavy(g, mode="greedy")
        assert tail.passed and tail.strong_pattern and tail.size == r
        realized.add(params)
    assert realized - {(15, 6, 1, 3), (27, 10, 1, 5)} == KNOWN_TIGHT_TUPLES


def test_scan_tight_100_unflagged_exactly_known():
    rows = scan_tight_denominators(100)
    unflagged = {t for t, r in zip(tuples(rows), rows) if not r.needs_review}
    assert unflagged == set(KNOWN_TIGHT_TUPLES)
    # every returned tuple really is tight
    for row in rows:
        assert row.denominator == row.params.eigenvalue_product
        assert row.denominator_equals_bound


def test_scan_rows_are_sorted_and_feasible():
    rows = scan_tight_denominators(60)
    ts = tuples(rows)
    assert ts == sorted(ts)
    feasible = set(tuples(enumerate_feasible(60)))
    assert set(ts) <= feasible
