"""Exact integer linear algebra.

Everything here is exact: arbitrary-precision integers and residues modulo
an integer. A matrix is a list of integer rows, which no routine mutates.
Smith diagonals come from exact elimination on +-1 pivots followed by
elimination modulo a multiple of the exponent of the cokernel.
Characteristic polynomials come from a Hessenberg reduction modulo a
Mersenne prime larger than twice the coefficient bound, checked against an
exact determinant at one point. The Laplacian spectrum, the one that
`analyze` prints and `verify spectral-bound` multiplies, is that polynomial
with its integer roots divided out (`laplacian_spectrum`); square-free
parts come from a gcd modulo a prime, certified by exact division over the
integers (`squarefree_part`). No fractions and no floating point anywhere.
"""

from __future__ import annotations

from collections import Counter
from math import gcd, isqrt

from .errors import GraphError, InternalCheckError, _record
from .graphs import Graph, SignedGraph


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


def determinant(m) -> int:
    """Fraction-free Bareiss elimination; exact for integer matrices."""
    n = len(m)
    if not m or any(len(row) != n for row in m):
        raise GraphError("determinant of a non-square matrix")
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * pivot - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def adjugate(m) -> tuple[int, list[list[int]]]:
    """Determinant and adjugate of a square matrix: m @ adj == det * I.

    The Bareiss loop of `determinant` run over every row of [m | I]
    (fraction-free Gauss-Jordan): the right block ends as adj(m). Step k
    touches only columns k+1 .. n+k; the others hold a reduced column or an
    untouched identity column, whose entry in row k is then the previous
    pivot. Without row swaps every leading principal minor must be
    non-zero, as for a positive definite matrix.
    """
    n = len(m)
    if not m or any(len(row) != n for row in m):
        raise GraphError("adjugate of a non-square matrix")
    a = [list(row) + [0] * n for row in m]
    prev = 1
    for k in range(n):
        pivot_row = a[k]
        pivot = pivot_row[k]
        if pivot == 0:
            raise GraphError(f"leading principal minor of order {k + 1} is zero")
        pivot_row[n + k] = prev
        for i, row in enumerate(a):
            if i != k:
                f = row[k]
                for j in range(k + 1, n + k + 1):
                    row[j] = (row[j] * pivot - f * pivot_row[j]) // prev
        prev = pivot
    return prev, [row[n:] for row in a]


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
# Polynomials (coefficients low to high)


@_record
class Polynomial:
    """Dense univariate polynomial with integer coefficients."""

    coeffs: tuple

    @classmethod
    def make(cls, coeffs) -> Polynomial:
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        return cls(tuple(coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # zero polynomial: -1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self):
        if self.is_zero():
            raise GraphError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def evaluate(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> Polynomial:
        return Polynomial.make(i * c for i, c in enumerate(self.coeffs) if i)


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


def squarefree_part(p: Polynomial) -> Polynomial:
    """p / gcd(p, p'): the monic integer polynomial p with every repeated
    root collapsed to multiplicity one. Anything but a monic integer
    polynomial is a GraphError.

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
    coeffs = p.coeffs
    if not coeffs or any(type(c) is not int for c in coeffs) or coeffs[-1] != 1:
        raise GraphError("square-free part of a polynomial that is not monic over the integers")
    derivative = p.derivative().coeffs
    first = 2**MERSENNE_EXPONENTS[0] - 1
    first_gcd = _gcd_modulo(coeffs, derivative, first)
    if len(first_gcd) == 1:
        return p
    bound = 2**p.degree * (isqrt(sum(c * c for c in coeffs) - 1) + 1)
    for e in MERSENNE_EXPONENTS:
        prime = 2**e - 1
        if prime <= 2 * bound:
            continue
        residues = first_gcd if prime == first else _gcd_modulo(coeffs, derivative, prime)
        gcd_p = [c - prime if c > prime // 2 else c for c in residues]
        quotient = _divide_monic(coeffs, gcd_p)
        if quotient is not None and _divide_monic(derivative, gcd_p) is not None:
            return Polynomial(tuple(quotient))
    raise InternalCheckError(f"no table prime lifts gcd(p, p') to a common divisor, deg p = {p.degree}")


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


def char_poly(m) -> Polynomial:
    """Characteristic polynomial det(xI - m), monic with integer
    coefficients, by Hessenberg reduction modulo one prime.

    With g = gershgorin_bound(m), every eigenvalue has |lambda| <= g, so the
    coefficients are at most (1 + g)^n in absolute value and one Mersenne
    prime P > 2 (1 + g)^n determines them as symmetric residues. The result
    is checked: monic of degree n, the x^(n-1) coefficient is -trace(m), and
    p(g + 1) equals det((g + 1) I - m) computed exactly.
    """
    n = len(m)
    if not m or any(len(row) != n for row in m):
        raise GraphError("characteristic polynomial of a non-square matrix")
    g = gershgorin_bound(m)
    prime = _mersenne_prime(2 * (1 + g) ** n)
    half = prime // 2
    coeffs = [c - prime if c > half else c for c in _hessenberg_char_poly(m, prime)]
    poly = Polynomial.make(coeffs)
    if poly.degree != n or poly.leading() != 1 or coeffs[n - 1] != -sum(row[i] for i, row in enumerate(m)):
        raise InternalCheckError("characteristic polynomial is not monic with the trace coefficient")
    x0 = g + 1
    shifted = [[(x0 if i == j else 0) - x for j, x in enumerate(row)] for i, row in enumerate(m)]
    if poly.evaluate(x0) != determinant(shifted):
        raise InternalCheckError(f"characteristic polynomial disagrees with det(xI - m) at x = {x0}")
    return poly


def gershgorin_bound(m) -> int:
    """Every eigenvalue of a square integer matrix lies within this bound
    in absolute value: the largest absolute row sum."""
    n = len(m)
    if not m or any(len(row) != n for row in m):
        raise GraphError("Gershgorin bound of a non-square matrix")
    return max(sum(abs(x) for x in row) for row in m)


def laplacian_spectrum(g: Graph | SignedGraph) -> tuple[list[tuple[int, int]], Polynomial]:
    """The integer eigenvalues of the (signed) Laplacian of g with their
    multiplicities, ascending, and the monic integer factor of its
    characteristic polynomial that carries the other eigenvalues.

    A (signed) Laplacian is positive semidefinite, so every eigenvalue lies
    in [0, gershgorin_bound]. Each integer r there, 0 included, is divided
    out of the monic `char_poly` by synthetic division by x - r for as long
    as the remainder is zero. The factor left has no integer root, hence no
    rational one.
    """
    lap = laplacian(g)
    coeffs = list(char_poly(lap).coeffs)
    roots = []
    for r in range(gershgorin_bound(lap) + 1):
        multiplicity = 0
        while len(coeffs) > 1:
            acc, quotient = 0, []
            for c in reversed(coeffs):  # Horner: quotient high to low, then p(r)
                acc = acc * r + c
                quotient.append(acc)
            if quotient.pop():
                break
            coeffs = quotient[::-1]
            multiplicity += 1
        if multiplicity:
            roots.append((r, multiplicity))
    return roots, Polynomial(tuple(coeffs))
