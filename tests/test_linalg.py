import itertools
import random
from fractions import Fraction
from math import gcd, isqrt

import pytest

from critgroup import (
    GraphError,
    InternalCheckError,
    char_poly,
    complete,
    cycle,
    determinant,
    gershgorin_bound,
    laplacian,
    laplacian_spectrum,
    linalg,
    make_graph,
    make_signed_graph,
    paley,
    petersen,
    signed_complete_unbalanced,
    smith_diagonal,
    solve,
    spectrum,
    squarefree_part,
    star,
    unit_pivot_core,
    verify_spectral_bound,
)
from conftest import (
    PALEY_ORDERS,
    adjugate,
    connected_atlas,
    determinant_divisor_diagonal,
    distinct_nonzero_root_product,
    faddeev_leverrier,
    identity,
    is_zero_matrix,
    matmul,
    mul_vec,
    poly_eval,
    poly_mul,
    random_connected_graph,
    random_int_matrix,
    rational_squarefree_part,
    signed_corpus,
    signed_corpus_switchings,
    smith_normal_form,
    transpose,
    unsigned_two_eigenvalue_corpus,
)


def test_matrix_construction_and_ops():
    # the oracles' row-list arithmetic
    m = [[1, 2], [3, 4]]
    assert transpose(m) == [[1, 3], [2, 4]]
    assert matmul(m, identity(2)) == m
    assert matmul(m, identity(2, 3)) == [[3, 6], [9, 12]]
    assert is_zero_matrix(matmul(m, identity(2, 0)))
    assert mul_vec(m, [1, 0]) == [1, 3]
    assert determinant(m) == -2


SQUARE_ONLY = {"determinant": determinant, "adjugate": adjugate, "solve": solve,
               "unit_pivot_core": unit_pivot_core, "char_poly": char_poly,
               "gershgorin_bound": gershgorin_bound}
MATRIX_ROUTINES = {**SQUARE_ONLY, "smith_diagonal": lambda m: smith_diagonal(m, 12)}


@pytest.mark.parametrize("name", MATRIX_ROUTINES)
def test_matrix_routines_take_row_lists_and_leave_them_unchanged(name):
    # a matrix is a plain list of rows: no routine writes to its input
    routine = MATRIX_ROUTINES[name]
    grounded = [row[:-1] for row in laplacian(petersen())[:-1]]
    for m in ([[2, -1, 0], [-1, 2, -1], [0, -1, 1]], [[4, 1], [1, 3]], grounded):
        before = [list(row) for row in m]
        routine(m)
        assert m == before
    # no rows and ragged rows are rejected, and non-square matrices by the
    # routines that need a square one
    bad = [[], [[1, 2], [3]], [[1], [2, 3]]]
    if name in SQUARE_ONLY:
        bad += [[[]], [[1, 2, 3]], [[1, 2], [3, 4], [5, 6]]]
    for m in bad:
        with pytest.raises(GraphError):
            routine(m)


def test_laplacian_values():
    lap = laplacian(signed_complete_unbalanced(3))
    # negative edge (1,2) contributes +1 off-diagonal
    assert lap == [[2, 1, -1], [1, 2, -1], [-1, -1, 2]]
    lap = laplacian(star(3))
    assert lap[0] == [3, -1, -1, -1]
    assert sum(mul_vec(lap, [1, 1, 1, 1])) == 0


def test_determinant_goldens():
    assert determinant(identity(4)) == 1
    assert determinant([[2, 0], [0, 3]]) == 6
    assert determinant([[1, 2], [2, 4]]) == 0
    assert determinant([[0, 1], [1, 0]]) == -1
    assert determinant([[2, -3, 1], [2, 0, -1], [1, 4, 5]]) == 49
    with pytest.raises(GraphError):
        determinant([[1, 2, 3]])


def cofactor_det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * cofactor_det(minor)
    return total


def cofactor_adjugate(rows):
    """adj(m)_ij = (-1)^(i+j) times the minor of m without row j and
    column i."""
    n = len(rows)
    if n == 1:
        return [[1]]
    return [[(-1) ** (i + j) * cofactor_det([r[:i] + r[i + 1:] for k, r in enumerate(rows) if k != j])
             for j in range(n)] for i in range(n)]


def test_determinant_matches_cofactor_expansion():
    rng = random.Random(42)
    for _ in range(50):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        assert determinant(rows) == cofactor_det(rows)


def test_snf_structure_random():
    rng = random.Random(99)
    for _ in range(60):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = random_int_matrix(rng, rows, cols)
        res = smith_normal_form(m)
        # transforms multiply out to the diagonal form
        assert matmul(matmul(res.U, m), res.V) == res.S
        assert abs(determinant(res.U)) == 1
        assert abs(determinant(res.V)) == 1
        diag = list(res.diagonal)
        assert all(res.S[i][j] == 0 for i in range(rows) for j in range(cols) if i != j)
        assert all(d >= 0 for d in diag)
        for a, b in zip(diag, diag[1:]):
            if b != 0:
                assert a != 0 and b % a == 0
        assert diag == determinant_divisor_diagonal(m)


def test_snf_deterministic():
    rng = random.Random(5)
    m = random_int_matrix(rng, 5, 5)
    first = smith_normal_form(m)
    second = smith_normal_form(m)
    assert first.U == second.U
    assert first.V == second.V


def test_snf_goldens():
    res = smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    assert list(res.diagonal) == [2, 2, 156]
    zero = [[0, 0], [0, 0]]
    assert list(smith_normal_form(zero).diagonal) == [0, 0]


def test_smith_diagonal_matches_determinant_divisors():
    rng = random.Random(2001)
    for case in range(500):
        m = random_int_matrix(rng, rng.randint(1, 6), rng.randint(1, 6), bound=rng.choice([1, 4, 9, 40]))
        if case % 5 == 0:  # a repeated row: rank below the row count
            m = m + m[:1]
        modulus = rng.choice([1, 2, 12, 97, 720, rng.randint(2, 10**6), 3**20 * 2**5])
        want = [gcd(d, modulus) for d in determinant_divisor_diagonal(m)]
        assert smith_diagonal(m, modulus) == want, (m, modulus)
    assert smith_diagonal([[2, 4, 4], [-6, 6, 12], [10, 4, 16]], 312) == [2, 2, 156]
    assert smith_diagonal([[0, 0], [0, 0]], 6) == [6, 6]
    with pytest.raises(GraphError):
        smith_diagonal(identity(2), 0)


def test_unit_pivot_core_keeps_cokernel_and_determinant():
    def nontrivial(diag):
        return [d for d in diag if d != 1]

    rng = random.Random(2002)
    matrices = [random_int_matrix(rng, n, n, bound=2) for n in range(1, 7) for _ in range(30)]
    matrices += [laplacian(g) for g in (cycle(9), petersen(), signed_complete_unbalanced(6))]
    for m in matrices:
        core = unit_pivot_core(m)
        assert all(x not in (1, -1) for row in core for x in row)
        if not core:
            assert abs(determinant(m)) == 1
            continue
        assert abs(determinant(core)) == abs(determinant(m))
        assert nontrivial(smith_normal_form(core).diagonal) == nontrivial(smith_normal_form(m).diagonal)
    # Z + Z/5: the full Laplacian of C5 keeps a singular 2 x 2 core
    assert unit_pivot_core(laplacian(cycle(5))) == [[5, -5], [-5, 5]]
    with pytest.raises(GraphError):
        unit_pivot_core([[1, 2, 3]])


def random_positive_definite(rng: random.Random, n: int) -> list[list[int]]:
    b = random_int_matrix(rng, n, n, bound=5)
    return [[sum(b[k][i] * b[k][j] for k in range(n)) + (i == j) for j in range(n)]
            for i in range(n)]


def test_solve_matches_cofactor_expansion_and_adjugate_oracle():
    # d = det m and m x = d b for each column b, with x = adj(m) b, on
    # seeded square matrices whose small entries often leave a zero pivot
    # (a row swap) or make m singular (xs is None)
    rng = random.Random(2026)
    swaps = singular = 0
    for _ in range(300):
        n, bound = rng.randint(1, 6), rng.choice([1, 2, 9])
        m = random_int_matrix(rng, n, n, bound=bound)
        columns = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(rng.randint(0, 3))]
        d, xs = solve(m, columns)
        assert d == cofactor_det(m) == determinant(m)
        swaps += n > 1 and m[0][0] == 0
        if not d:
            singular += 1
            assert xs is None
            continue
        adj = cofactor_adjugate(m)
        assert xs == [mul_vec(adj, b) for b in columns]
        assert all(mul_vec(m, x) == [d * y for y in b] for x, b in zip(xs, columns))
    assert swaps >= 30 and singular >= 30
    # positive definite matrices against the Gauss-Jordan oracle
    for _ in range(40):
        n = rng.randint(1, 7)
        m = random_positive_definite(rng, n)
        det, adj = adjugate(m)
        assert solve(m, identity(n)) == (det, transpose(adj))
    # grounded Laplacians whose eliminated upper triangle is bidiagonal
    # (path), bidiagonal with a full last column (cycle), dense (star with
    # centre 1) or sparse (star centred mid-way), so back substitution
    # reads rows of every density
    for n in (3, 4, 7, 12):
        hub = n // 2 + 1
        for g in (cycle(n), make_graph(n, [(i, i + 1) for i in range(1, n)]), star(n - 1),
                  make_graph(n, [(hub, v) for v in range(1, n + 1) if v != hub])):
            grounded = [row[:-1] for row in laplacian(g)[:-1]]
            det, adj = adjugate(grounded)
            assert solve(grounded, identity(n - 1)) == (det, transpose(adj)), (n, g)
    assert solve([[0, 1], [1, 0]], [[1, 0], [2, 3]]) == (-1, [[0, -1], [-3, -2]])
    assert solve([[3]], [[2], [-5]]) == (3, [[2], [-5]])
    assert solve([[1, 2], [2, 4]], [[1, 0]]) == (0, None)
    assert solve(laplacian(complete(3)), identity(3)) == (0, None)
    assert solve([[2, 1], [1, 2]]) == (3, [])


def test_solve_rejects(monkeypatch):
    for m, columns in (([[1, 2, 3]], ()), ([], ()), ([[1, 0], [0, 1]], [[1, 2, 3]]), ([[1]], [[1], []])):
        with pytest.raises(GraphError):
            solve(m, columns)
    # every back-substitution division is checked: one with an injected
    # remainder raises, and the determinant alone divides nothing there
    monkeypatch.setattr(linalg, "divmod", lambda a, b: (a // b, 1), raising=False)
    with pytest.raises(InternalCheckError):
        solve([[2, 1], [1, 2]], [[1, 0]])
    assert determinant([[2, 1], [1, 2]]) == 3


def test_adjugate_matches_determinant_and_identity():
    rng = random.Random(23)
    for _ in range(60):
        n = rng.randint(1, 7)
        m = random_positive_definite(rng, n)
        det, adj = adjugate(m)
        assert det == determinant(m) > 0
        assert matmul(m, adj) == identity(n, det)
        assert adj == transpose(adj)
    lap = laplacian(cycle(4))
    reduced = [row[:-1] for row in lap[:-1]]
    assert adjugate(reduced) == (4, [[3, 2, 1], [2, 4, 2], [1, 2, 3]])


def test_adjugate_rejects():
    with pytest.raises(GraphError):
        adjugate([[1, 2, 3]])
    with pytest.raises(GraphError):  # zero leading principal minor
        adjugate([[0, 1], [1, 0]])
    with pytest.raises(GraphError):  # singular
        adjugate(laplacian(complete(3)))


def test_polynomial_arithmetic():
    # a polynomial is a tuple of coefficients, low to high; () is zero
    assert poly_mul((1, 1), (1, 1)) == (1, 2, 1)  # (x+1)^2
    assert poly_mul((), (1, 1)) == poly_mul((1, 1), ()) == ()
    assert poly_mul((5,), (0, 1)) == (0, 5)
    assert spectrum._divide_monic((1, 2, 1), (1, 1)) == [1, 1]
    assert spectrum._divide_monic((1, 2, 2), (1, 1)) is None


def test_polynomial_gcd_and_squarefree():
    lin = (1, 1)
    other = (-4, 1)
    p = poly_mul(poly_mul(lin, lin), other)
    sf = squarefree_part(p)
    assert sf == poly_mul(lin, other)
    rng = random.Random(3)
    for _ in range(20):
        p = tuple([rng.randint(-4, 4) for _ in range(rng.randint(1, 4))] + [1])
        assert squarefree_part(poly_mul(p, p)) == squarefree_part(p)


def test_polynomials_are_int_tuples():
    # char_poly, the spectrum's factor and squarefree_part return tuples of
    # int, and squarefree_part reads a list as it reads the tuple
    for g in (cycle(7), petersen(), paley(13), signed_complete_unbalanced(4)):
        p = char_poly(laplacian(g))
        factor = laplacian_spectrum(g)[1]
        for t in (p, factor, squarefree_part(factor), squarefree_part(list(factor))):
            assert type(t) is tuple and all(type(c) is int for c in t), (g, t)
        assert squarefree_part(list(factor)) == squarefree_part(factor)
        assert squarefree_part(list(p)) == squarefree_part(p)
    assert laplacian_spectrum(petersen())[1] == (1,)


def test_squarefree_part_matches_rational_oracle(monkeypatch):
    rng = random.Random(2024)
    graphs = [*connected_atlas(7), *(g for _, g in signed_corpus())]
    graphs += [random_connected_graph(rng, rng.randint(4, 16), rng.choice([0.2, 0.4, 0.6]))
               for _ in range(30)]
    graphs += [cycle(n) for n in range(3, 41)]
    graphs += [paley(q) for q in (5, 9, 13, 17, 25, 29)]
    factors = [laplacian_spectrum(g)[1] for g in graphs]
    factors = [f for f in factors if len(f) > 1]
    assert len(factors) > 100
    divisions = []
    real_divide = spectrum._divide_monic
    monkeypatch.setattr(spectrum, "_divide_monic", lambda a, b: divisions.append(b) or real_divide(a, b))
    lifted = 0
    for f in factors:
        before = len(divisions)
        assert squarefree_part(f) == rational_squarefree_part(f), f
        lifted += len(divisions) > before
    # both exits: a gcd constant modulo 2^61 - 1, and a lifted gcd
    assert 0 < lifted < len(factors)
    # a repeated root, and two roots that coincide modulo 2^61 - 1, x (x - P):
    # both leave a non-constant gcd there and take the lift
    prime = 2**61 - 1
    repeated = poly_mul(poly_mul((-1, 1), (-1, 1)), (2, 1))
    coincide = (0, -prime, 1)
    for p, want in ((repeated, (-2, 1, 1)), (coincide, coincide)):
        assert len(spectrum._gcd_modulo(p, [i * c for i, c in enumerate(p) if i], prime)) > 1
        before = len(divisions)
        assert squarefree_part(p) == want == rational_squarefree_part(p)
        assert len(divisions) > before
    assert spectrum._gcd_modulo([5], [], prime) == [1]


def test_squarefree_part_rejects_and_certifies(monkeypatch, capsys):
    import critgroup.cli

    # only a monic integer polynomial has a square-free part here
    for p in ((-2, 0, 2), [Fraction(-1), 0, Fraction(1)], (), [1, 0]):
        with pytest.raises(GraphError, match="not monic over the integers"):
            squarefree_part(p)
    # C_40's factor has repeated roots and needs a prime above 2^61 - 1
    factor = laplacian_spectrum(cycle(40))[1]
    assert rational_squarefree_part(factor) != factor
    with monkeypatch.context() as m:
        m.setattr(spectrum, "MERSENNE_EXPONENTS", (61,))
        with pytest.raises(InternalCheckError, match="no table prime"):
            squarefree_part(factor)
    # an unlucky prime, whose gcd is too large, moves the lift on: times
    # (x - 1) it still divides (x - 1)^2 (x + 2) but not its derivative,
    # times (x - 3) it divides neither
    real_gcd, calls = spectrum._gcd_modulo, []

    def unlucky(a, b, prime):
        calls.append(prime)
        g = real_gcd(a, b, prime)
        if len(calls) < 3:  # the first two lifts; the first is also the coprimality test
            r = 1 if len(calls) == 1 else 3
            g = [(x - r * y) % prime for x, y in zip([0, *g], [*g, 0])]
        return g

    repeated = poly_mul(poly_mul((-1, 1), (-1, 1)), (2, 1))
    with monkeypatch.context() as m:
        m.setattr(spectrum, "_gcd_modulo", unlucky)
        assert squarefree_part(repeated) == (-2, 1, 1)
    assert calls == [2**e - 1 for e in (61, 89, 107)]
    # a lift that never divides is never returned
    monkeypatch.setattr(spectrum, "_divide_monic", lambda a, b: None)
    with pytest.raises(InternalCheckError, match="no table prime"):
        squarefree_part(factor)
    code = critgroup.cli.main(["verify", "--family", "cycle", "--params", "40", "--check", "spectral-bound"])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert err.startswith("error: internal check failed:")


def test_char_poly_goldens():
    # L(K3) has eigenvalues 0, 3, 3: x^3 - 6x^2 + 9x
    p = char_poly(laplacian(complete(3)))
    assert p == (0, 9, -6, 1)
    # trace and determinant read off the ends
    lap = laplacian(petersen())
    p = char_poly(lap)
    assert len(p) == 11 and p[-1] == 1
    assert p[-2] == -sum(lap[i][i] for i in range(10))
    assert p[0] == 0  # singular
    assert poly_eval(p, 0) == 0
    assert poly_eval(p, 2) == 0 and poly_eval(p, 5) == 0


def test_char_poly_matches_determinant():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 8)
        m = random_int_matrix(rng, n, n, bound=5)
        p = char_poly(m)
        # p(0) = det(0*I - M) = (-1)^n det(M)
        assert poly_eval(p, 0) == (-1) ** n * determinant(m)
        assert len(p) == n + 1 and p[-1] == 1
        x = rng.randint(-9, 9)
        assert poly_eval(p, x) == determinant([[x * (i == j) - a for j, a in enumerate(row)]
                                               for i, row in enumerate(m)])


def test_char_poly_matches_faddeev_leverrier():
    matrices = [laplacian(g) for g in connected_atlas(7)]
    rng = random.Random(1984)
    for _ in range(80):
        n = rng.randint(1, 8)
        edges = [e for e in itertools.combinations(range(1, n + 1), 2) if rng.random() < 0.5]
        negative = [e for e in edges if rng.random() < 0.5]
        matrices.append(laplacian(make_signed_graph(n, edges, negative)))
    for i in range(240):
        n = i % 8 + 1
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        if i % 3 == 1:  # strictly upper triangular: nilpotent
            rows = [[x if j > r else 0 for j, x in enumerate(row)] for r, row in enumerate(rows)]
        elif i % 3 == 2:  # last row a combination of the others: singular
            rows[-1] = [sum(col[:-1]) for col in zip(*rows)]
        matrices.append(rows)
    for m in matrices:
        assert char_poly(m) == faddeev_leverrier(m), m


def _power(p, e):
    result = (1,)
    for _ in range(e):
        result = poly_mul(result, p)
    return result


@pytest.mark.parametrize("q", [49, 61, 101])
def test_char_poly_paley_closed_form(q):
    # a conference graph has Laplacian eigenvalues 0 and (q +- sqrt(q))/2,
    # each of multiplicity (q - 1)/2
    quadratic = (q * (q - 1) // 4, -q, 1)
    want = poly_mul((0, 1), _power(quadratic, (q - 1) // 2))
    assert char_poly(laplacian(paley(q))) == want


def test_laplacian_spectrum_paley_closed_form():
    # the spectrum read off the record: integer roots (q -+ sqrt(q))/2 when
    # q is a square, else the factor (x^2 - q x + q (q - 1)/4)^((q - 1)/2)
    for q in PALEY_ORDERS:
        m, root = (q - 1) // 2, isqrt(q)
        if root * root == q:
            want = [(0, 1), ((q - root) // 2, m), ((q + root) // 2, m)], (1,)
        else:
            want = [(0, 1)], _power((q * (q - 1) // 4, -q, 1), m)
        assert laplacian_spectrum(paley(q)) == want, q


def test_mersenne_exponents_table():
    # OEIS A000043 from 61 to 19937
    assert spectrum.MERSENNE_EXPONENTS == (61, 89, 107, 127, 521, 607, 1279, 2203, 2281, 3217,
                                           4253, 4423, 9689, 9941, 11213, 19937)
    for p in spectrum.MERSENNE_EXPONENTS:
        if p <= 1279:  # Lucas-Lehmer: 2^p - 1 is prime iff s_(p-2) = 0
            prime = 2 ** p - 1
            s = 4
            for _ in range(p - 2):
                s = (s * s - 2) % prime
            assert s == 0, p


def test_char_poly_certificate_and_modulus_table(monkeypatch):
    lap = laplacian(paley(29))
    with pytest.raises(GraphError):  # beyond the largest modulus
        char_poly([[2 ** 20000]])
    # a modulus below the coefficient bound wraps the coefficients; the
    # one-point certificate must notice
    monkeypatch.setattr(spectrum, "_mersenne_prime", lambda limit: 2 ** 61 - 1)
    with pytest.raises(InternalCheckError):
        char_poly(lap)


def test_integer_roots():
    roots, factor = laplacian_spectrum(complete(3))  # x^3 - 6x^2 + 9x
    assert roots == [(0, 1), (3, 2)]
    assert factor == (1,)
    roots, factor = laplacian_spectrum(petersen())
    assert roots == [(0, 1), (2, 5), (5, 4)]
    assert factor == (1,)
    # C5: only the zero root is rational, the rest stays in the factor
    roots, factor = laplacian_spectrum(cycle(5))
    assert roots == [(0, 1)]
    assert factor == (25, -50, 35, -10, 1)
    # a disconnected graph has no record and takes the char_poly route
    assert laplacian_spectrum(make_graph(4, [(1, 2), (3, 4)])) == ([(0, 2), (2, 2)], (1,))


def test_laplacian_spectrum_matches_char_poly():
    # the integer roots times the factor rebuild the characteristic
    # polynomial, the factor keeps no root the Laplacian could have, and
    # the spectral bound agrees with the square-free part of the
    # zero-stripped polynomial
    rng = random.Random(4242)
    graphs = [complete(1), *connected_atlas(7)]
    graphs += [g for _, g in signed_corpus() + unsigned_two_eigenvalue_corpus()]
    graphs += [*signed_corpus_switchings(), *(paley(q) for q in PALEY_ORDERS if q <= 61)]
    graphs += [random_connected_graph(rng, rng.randint(3, 14), rng.choice([0.3, 0.5, 0.7]))
               for _ in range(30)]
    for g in graphs:
        lap = laplacian(g)
        poly = char_poly(lap)
        roots, factor = laplacian_spectrum(g)
        rebuilt = factor
        for r, m in roots:
            for _ in range(m):
                rebuilt = poly_mul(rebuilt, (-r, 1))
        assert rebuilt == poly, g
        assert [r for r, _ in roots] == sorted({r for r, _ in roots})
        assert factor[-1] == 1
        assert all(poly_eval(factor, r) for r in range(gershgorin_bound(lap) + 1)), g
        assert verify_spectral_bound(g).product == distinct_nonzero_root_product(poly), g


def test_gershgorin_bound():
    lap = laplacian(petersen())
    assert gershgorin_bound(lap) >= 6  # max eigenvalue is 5
    lap = laplacian(signed_complete_unbalanced(3))
    assert gershgorin_bound(lap) >= 4


def test_distinct_nonzero_eigenvalue_product():
    assert verify_spectral_bound(petersen()).product == 10
    assert verify_spectral_bound(cycle(5)).product == 5
    assert verify_spectral_bound(complete(4)).product == 4
    assert verify_spectral_bound(signed_complete_unbalanced(3)).product == 4
    # irrational pairs contribute through the squarefree constant term:
    # C5 has eigenvalues (5 +- sqrt(5))/2, odd C4 has 2 +- sqrt(2)
    unb_c4 = make_signed_graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)], [(1, 2)])
    assert verify_spectral_bound(unb_c4).product == 2
    # one vertex: no non-zero eigenvalue, the empty product
    assert verify_spectral_bound(complete(1)).product == 1
