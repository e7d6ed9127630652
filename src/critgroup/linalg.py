"""Exact integer linear algebra.

Everything here is exact: arbitrary-precision integers and residues modulo
an integer. A matrix is a list of integer rows, which no routine mutates;
a polynomial is a tuple of its int coefficients, low to high.
Determinants and the integer solutions of m x = det(m) b come from one
fraction-free elimination (`solve`). Smith diagonals come from exact
elimination on +-1 pivots followed by elimination modulo a multiple of the
exponent of the cokernel. Characteristic polynomials come from a Hessenberg
reduction modulo a Mersenne prime larger than twice the coefficient bound,
checked against a determinant at one point. The Laplacian spectrum that
`analyze` prints and `verify spectral-bound` multiplies is read off a
two-eigenvalue record, else is that polynomial with its integer roots
divided out (`laplacian_spectrum`); square-free parts come from a gcd
modulo a prime, certified by exact division over the integers
(`squarefree_part`).
No fractions and no floating point anywhere.
"""

from __future__ import annotations

from collections import Counter
from math import gcd, isqrt
from operator import mul

from .errors import DisconnectedGraphError, GraphError, InternalCheckError
from .graphs import Graph, SignedGraph, detect_two_eigenvalue


def laplacian(g: Graph | SignedGraph) -> list[list[int]]:
    """Laplacian D - A as a list of rows; the adjacency of a signed graph
    carries the edge signs, so a negative edge gives +1 off-diagonal."""
    signed = isinstance(g, SignedGraph)
    base = g.graph if signed else g
    n = base.n
    m = [[0] * n for _ in range(n)]
    for v in base.vertices():
        m[v - 1][v - 1] = base.degree(v)
    for u, v in base.edges:
        s = -1 if signed and (u, v) in g.negative_edges else 1
        m[u - 1][v - 1] = -s
        m[v - 1][u - 1] = -s
    return m


def solve(m, columns=()) -> tuple[int, list[list[int]] | None]:
    """(d, xs): d = det m and, for each right-hand side b in `columns`,
    x = adj(m) b, so m x = d b; xs is None when d = 0.

    Bareiss elimination of [m | columns]: a zero pivot swaps in a lower row
    and negates the row it displaces, which keeps det m. After step k every
    entry is a minor of order k + 1, so each division is exact, and the
    last pivot is d. A row with a zero in the pivot column would only be
    rescaled, so it is skipped and keeps in base[i] the pivot it is
    relative to, which its next update divides by. Back substitution,
    x_i = (d b_i - sum_{j>i} a_ij x_j) / a_ii over the non-zero a_ij only,
    must divide exactly, else InternalCheckError.
    """
    n = len(m)
    if not m or any(len(row) != n for row in m):
        raise GraphError("determinant of a non-square matrix")
    if any(len(b) != n for b in columns):
        raise GraphError(f"right-hand side of a solve without {n} entries")
    a = [[*row, *(b[i] for b in columns)] for i, row in enumerate(m)]
    base, d = [1] * n, 1  # d: the last pivot
    for k in range(n):
        if not a[k][k]:
            i = next((i for i in range(k + 1, n) if a[i][k]), None)
            if i is None:
                return 0, None
            a[k], a[i], base[k], base[i] = a[i], [-x for x in a[k]], base[i], base[k]
        pivot_row = a[k]
        if base[k] != d:
            pivot_row[k:] = [x * d // base[k] for x in pivot_row[k:]]
        pivot, tail = pivot_row[k], pivot_row[k + 1:]
        for i, row in enumerate(a[k + 1:], k + 1):
            f = row[k]
            if f:
                q, base[i] = base[i], pivot
                row[k + 1:] = [(x * pivot - f * y) // q for x, y in zip(row[k + 1:], tail)]
        d = pivot
    xs = [[0] * n for _ in columns]
    for i in range(n - 1, -1, -1):
        row = a[i]
        cols = [j for j in range(i + 1, n) if row[j]]
        vals = [row[j] for j in cols]
        dense = len(cols) == n - i - 1  # a slice is the faster gather then
        for x, b in zip(xs, row[n:]):
            known = x[i + 1:] if dense else map(x.__getitem__, cols)
            x[i], r = divmod(d * b - sum(map(mul, vals, known)), row[i])
            if r:
                raise InternalCheckError(f"back substitution is not exact in row {i + 1}")
    return d, xs


def determinant(m) -> int:
    """det m: `solve` with no right-hand side."""
    return solve(m)[0]


# ---------------------------------------------------------------------------
# Smith diagonal


def unit_pivot_core(m) -> list[list[int]]:
    """The square matrix left after eliminating m on +-1 pivots.

    Eliminating row i and column j on a pivot m_ij = +-1 (taking the Schur
    complement) is a unimodular change of basis on both sides, so the core
    has the cokernel of m and the same |det|. Rows are sparse dicts; each
    step takes the unit entry of least Markowitz cost (r - 1)(c - 1), r and
    c the non-zero counts of its row and column, ties to the least (i, j).
    The core is empty when every row is eliminated.
    """
    if not m or any(len(row) != len(m) for row in m):
        raise GraphError("unit-pivot elimination of a non-square matrix")
    rows = {i: {j: x for j, x in enumerate(row) if x} for i, row in enumerate(m)}
    columns = set(range(len(m)))
    while True:
        counts = Counter(j for row in rows.values() for j in row)
        units = (((len(row) - 1) * (counts[j] - 1), i, j)
                 for i, row in rows.items() for j, x in row.items() if x in (1, -1))
        best = min(units, default=None)
        if best is None:
            break
        _, i, j = best
        pivot_row = rows.pop(i)
        p = pivot_row.pop(j)
        columns.discard(j)
        for row in rows.values():
            f = row.pop(j, 0) * p  # a_rj / p, as p = +-1
            if not f:
                continue
            for c, x in pivot_row.items():
                v = row.get(c, 0) - f * x
                if v:
                    row[c] = v
                else:
                    del row[c]
    order = sorted(columns)
    return [[row.get(j, 0) for j in order] for row in rows.values()]


def smith_diagonal(m, modulus: int) -> list[int]:
    """Smith diagonal of m over Z/modulus, as a divisibility chain of
    divisors of the modulus: entry i is gcd(d_i, modulus) for the integer
    Smith diagonal d_1 | d_2 | ... of m, so a zero d_i gives the modulus.

    Elimination over Z/M with the first unit as pivot, else the first
    non-zero entry; gcds are taken only as far as the scan for a unit goes.
    Column 0 is cleared by row operations (`_clear_column`); when the pivot
    x does not generate every entry of row 0 (g = gcd(x, M) fails to divide
    one), the matrix is transposed and cleared again, which lowers g. The
    pivots give the cokernel as a sum of Z/g_i, sorted into a chain by
    (a, b) -> (gcd, lcm). Works on rectangular matrices.
    """
    if modulus < 1:
        raise GraphError(f"modulus must be positive, got {modulus}")
    if not m or any(len(row) != len(m[0]) for row in m):
        raise GraphError("Smith diagonal of an empty matrix or of ragged rows")
    a = [[x % modulus for x in row] for row in m]
    size = min(len(m), len(m[0]))
    diag = []
    while a and a[0]:
        units = ((i, j) for i, row in enumerate(a) for j, x in enumerate(row)
                 if x and gcd(x, modulus) == 1)
        nonzero = ((i, j) for i, row in enumerate(a) for j, x in enumerate(row) if x)
        pivot = next(units, None) or next(nonzero, None)
        if pivot is None:
            break
        i, j = pivot
        a[0], a[i] = a[i], a[0]
        for row in a:
            row[0], row[j] = row[j], row[0]
        while True:
            _clear_column(a, modulus)
            g = gcd(a[0][0], modulus)
            if all(x % g == 0 for x in a[0]):
                break
            a = [list(col) for col in zip(*a)]
        diag.append(g)
        a = [row[1:] for row in a[1:]]
    diag += [modulus] * (size - len(diag))
    for i in range(size):
        for j in range(i + 1, size):
            g = gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] // g * diag[j]
    return diag


def _clear_column(a: list[list[int]], modulus: int) -> None:
    """Row operations over Z/modulus that zero column 0 below a[0][0] != 0.

    An entry y that g = gcd(a[0][0], M) divides is cleared with y / g times
    the inverse of a[0][0] / g modulo M / g. One that g does not divide is
    first reduced against the pivot by Euclidean steps on the integer
    representatives, each swapping the remainder into the pivot row."""
    inverse = None
    for r in range(1, len(a)):
        if not a[r][0]:
            continue
        while a[r][0] % gcd(a[0][0], modulus):
            q = a[r][0] // a[0][0]
            a[0], a[r] = [(y - q * x) % modulus for x, y in zip(a[0], a[r])], a[0]
            inverse = None
        g = gcd(a[0][0], modulus)
        if inverse is None:
            inverse = pow(a[0][0] // g, -1, modulus // g)
        f = a[r][0] // g * inverse
        a[r] = [(y - f * x) % modulus for x, y in zip(a[0], a[r])]


# ---------------------------------------------------------------------------
# Characteristic polynomials and square-free parts, on coefficient tuples


# Exponents p of the Mersenne primes 2^p - 1 that char_poly and
# squarefree_part compute modulo. They are proven primes, so no primality
# test is needed; 2^11213 - 1 covers every Laplacian with at most
# graphs.MAX_VERTICES vertices.
MERSENNE_EXPONENTS = (61, 89, 107, 127, 521, 607, 1279, 2203, 2281, 3217, 4253,
                      4423, 9689, 9941, 11213, 19937)


def _mersenne_prime(limit: int) -> int:
    """The smallest Mersenne prime of the table above `limit`."""
    for p in MERSENNE_EXPONENTS:
        if 2**p - 1 > limit:
            return 2**p - 1
    raise GraphError("characteristic polynomial coefficients exceed the largest modulus")


def _gcd_modulo(a, b, prime: int) -> list[int]:
    """The monic gcd over Z/prime of the integer polynomials with
    coefficient lists a and b (low to high), by Euclid's algorithm there."""
    def trim(c):
        while c and not c[-1]:
            c.pop()
        return c

    a, b = trim([x % prime for x in a]), trim([x % prime for x in b])
    while b:
        inverse = pow(b[-1], -1, prime)
        while len(a) >= len(b):  # a = a mod b
            f = a[-1] * inverse % prime
            shift = len(a) - len(b)
            a[shift:] = [(x - f * y) % prime for x, y in zip(a[shift:], b)]
            trim(a)
        a, b = b, a
    inverse = pow(a[-1], -1, prime)
    return [x * inverse % prime for x in a]


def _divide_monic(a, b) -> list[int] | None:
    """The quotient of the integer coefficient lists a / b (low to high), b
    monic, or None when the division leaves a remainder."""
    rem, m = list(a), len(b) - 1
    quotient = [0] * (len(rem) - m)
    for shift in range(len(quotient) - 1, -1, -1):
        f = quotient[shift] = rem[shift + m]
        if f:
            for i in range(m):
                rem[shift + i] -= f * b[i]
    return None if any(rem[:m]) else quotient


def squarefree_part(p) -> tuple[int, ...]:
    """p / gcd(p, p'): the monic integer polynomial p, a sequence of int
    coefficients low to high, with every repeated root collapsed to
    multiplicity one, as a tuple. Anything but a monic integer polynomial
    is a GraphError.

    gcd(p, p') is monic over Z by Gauss's lemma, so it divides the gcd of
    the residues modulo every prime. If that gcd is constant modulo
    2^61 - 1, p is returned as it is. Otherwise the gcd is taken modulo the
    first table prime above 2B, B = 2^deg p ceil(||p||_2) the Mignotte bound
    on the coefficients of a divisor of p (reused if that is 2^61 - 1), and
    lifted to symmetric residues.
    The lift is kept only if it divides both p and p' over Z: a common
    divisor at least as large as the true gcd is the true gcd. A failed lift
    moves on to the next prime. 2^19937 - 1 exceeds 2B for every factor of a
    Laplacian characteristic polynomial up to graphs.MAX_VERTICES, so the
    table running out is an InternalCheckError.
    """
    coeffs = tuple(p)
    if not coeffs or any(type(c) is not int for c in coeffs) or coeffs[-1] != 1:
        raise GraphError("square-free part of a polynomial that is not monic over the integers")
    derivative = [i * c for i, c in enumerate(coeffs) if i]
    first = 2**MERSENNE_EXPONENTS[0] - 1
    first_gcd = _gcd_modulo(coeffs, derivative, first)
    if len(first_gcd) == 1:
        return coeffs
    bound = 2**(len(coeffs) - 1) * (isqrt(sum(c * c for c in coeffs) - 1) + 1)
    for e in MERSENNE_EXPONENTS:
        prime = 2**e - 1
        if prime <= 2 * bound:
            continue
        residues = first_gcd if prime == first else _gcd_modulo(coeffs, derivative, prime)
        gcd_p = [c - prime if c > prime // 2 else c for c in residues]
        quotient = _divide_monic(coeffs, gcd_p)
        if quotient is not None and _divide_monic(derivative, gcd_p) is not None:
            return tuple(quotient)
    raise InternalCheckError(f"no table prime lifts gcd(p, p') to a common divisor, deg p = {len(coeffs) - 1}")


def _hessenberg_char_poly(rows, prime: int) -> list[int]:
    """Coefficients (low to high) of det(xI - m) modulo the Mersenne prime
    `prime` = 2^e - 1.

    Reduces m to upper Hessenberg form H by similarity transforms over
    Z/prime (Cohen, A Course in Computational Algebraic Number Theory,
    Alg. 2.2.9), then reads the characteristic polynomials p_r of the
    leading r x r blocks of H off the recurrence
    p_r = (x - h_rr) p_{r-1} - sum_i (h_{r,r-1} ... h_{i+1,i}) h_ir p_{i-1}.

    The row eliminations, O(n^3) of the work, reduce without division: a
    row entry a - u b is a + u (prime - b), in [0, prime^2), and since
    2^e = 1 modulo prime, t = (t & prime) + (t >> e) brings it below
    2 prime, one subtraction below prime.
    """
    n = len(rows)
    e = prime.bit_length()
    h = [[x % prime for x in row] for row in rows]
    for j in range(n - 2):
        k = j + 1
        pivot = next((i for i in range(k, n) if h[i][j]), None)
        if pivot is None:
            continue  # column j is already reduced
        if pivot != k:
            h[pivot], h[k] = h[k], h[pivot]
            for row in h:
                row[pivot], row[k] = row[k], row[pivot]
        inverse = pow(h[k][j], -1, prime)
        negated_tail = [prime - b for b in h[k][j:]]
        factors = []
        for i in range(k + 1, n):
            u = h[i][j] * inverse % prime
            if u:
                row = h[i]
                h[i] = row[:j] + [
                    r - prime if (r := ((t := a + u * c) & prime) + (t >> e)) >= prime else r
                    for a, c in zip(row[j:], negated_tail)
                ]
                factors.append((i, u))
        # undo the row operations on the right: column k += u * column i
        for row in h:
            row[k] = (row[k] + sum(u * row[i] for i, u in factors)) % prime
    polys = [[1]]
    for r in range(n):
        prev = polys[r]
        coeffs = [0] + prev
        coeffs[:r + 1] = [a - h[r][r] * c for a, c in zip(coeffs, prev)]
        t = 1
        for i in range(r - 1, -1, -1):
            t = t * h[i + 1][i] % prime
            if not t:
                break
            f = t * h[i][r] % prime
            coeffs[:i + 1] = [a - f * c for a, c in zip(coeffs, polys[i])]
        polys.append([c % prime for c in coeffs])
    return polys[n]


def char_poly(m) -> tuple[int, ...]:
    """det(xI - m) as its n + 1 int coefficients, low to high, the last 1.
    `laplacian_spectrum` calls `_char_poly` directly: bench/traced_cli.py
    wraps this name and reads a `.coeffs` attribute off the result."""
    return _char_poly(m)


def _char_poly(m) -> tuple[int, ...]:
    """`char_poly`, by Hessenberg reduction modulo one prime.

    With g = gershgorin_bound(m), every eigenvalue has |lambda| <= g, so the
    coefficients are at most (1 + g)^n in absolute value and one Mersenne
    prime P > 2 (1 + g)^n determines them as symmetric residues. The result
    is checked: monic, the x^(n-1) coefficient is -trace(m), and p(g + 1)
    equals det((g + 1) I - m) computed exactly.
    """
    n = len(m)
    if not m or any(len(row) != n for row in m):
        raise GraphError("characteristic polynomial of a non-square matrix")
    g = gershgorin_bound(m)
    prime = _mersenne_prime(2 * (1 + g) ** n)
    half = prime // 2
    coeffs = tuple(c - prime if c > half else c for c in _hessenberg_char_poly(m, prime))
    if coeffs[n] != 1 or coeffs[n - 1] != -sum(row[i] for i, row in enumerate(m)):
        raise InternalCheckError("characteristic polynomial is not monic with the trace coefficient")
    x0, value = g + 1, 0
    for c in reversed(coeffs):  # Horner: value = p(x0)
        value = value * x0 + c
    shifted = [[(x0 if i == j else 0) - x for j, x in enumerate(row)] for i, row in enumerate(m)]
    if value != determinant(shifted):
        raise InternalCheckError(f"characteristic polynomial disagrees with det(xI - m) at x = {x0}")
    return coeffs


def gershgorin_bound(m) -> int:
    """Every eigenvalue of a square integer matrix lies within this bound
    in absolute value: the largest absolute row sum."""
    n = len(m)
    if not m or any(len(row) != n for row in m):
        raise GraphError("Gershgorin bound of a non-square matrix")
    return max(sum(abs(x) for x in row) for row in m)


def laplacian_spectrum(g: Graph | SignedGraph) -> tuple[list[tuple[int, int]], tuple[int, ...]]:
    """(roots, factor): the integer eigenvalues of the (signed) Laplacian of
    g with their multiplicities, ascending, and the monic integer factor of
    its characteristic polynomial that carries the other eigenvalues, as
    coefficients low to high; (1,) when there is none.

    With a two-eigenvalue record (`detect_two_eigenvalue`) they are read
    off it: 0 once when unsigned, then theta1 < theta2 with the record's
    multiplicities when they are integers, else the factor
    (x^2 - s x + p)^m. Otherwise a (signed) Laplacian is positive
    semidefinite, so every eigenvalue lies in [0, gershgorin_bound]. Each
    integer r there, 0 included, is divided out of the monic `char_poly`
    (`_divide_monic` by x - r) for as long as the remainder is zero.
    The factor left has no integer root, hence no rational one.
    """
    try:
        params = detect_two_eigenvalue(g)
    except DisconnectedGraphError:
        params = None
    if params is not None:
        if params.multiplicities is None:
            raise InternalCheckError(f"the structure record {params} has no integral multiplicities")
        (m1, m2), conference = params.multiplicities
        roots = [] if params.case.startswith("signed") else [(0, 1)]
        if not conference:
            return roots + list(zip(params.roots, (m1, m2))), (1,)
        s, p, coeffs = params.eigenvalue_sum, params.eigenvalue_product, [1]
        for _ in range(m1):  # times x^2 - s x + p
            coeffs = [p * a - s * b + c for a, b, c in zip(coeffs + [0, 0], [0, *coeffs, 0], [0, 0, *coeffs])]
        return roots, tuple(coeffs)
    lap = laplacian(g)
    coeffs, roots = _char_poly(lap), []
    for r in range(gershgorin_bound(lap) + 1):
        multiplicity = 0
        while (quotient := _divide_monic(coeffs, (-r, 1))) is not None:
            coeffs, multiplicity = quotient, multiplicity + 1
        if multiplicity:
            roots.append((r, multiplicity))
    return roots, tuple(coeffs)
