"""Exact integer and rational linear algebra.

Everything here is exact: arbitrary-precision integers, fractions.Fraction,
and residues modulo an integer. Smith diagonals come from exact elimination
on +-1 pivots followed by elimination modulo a multiple of the exponent of
the cokernel. Characteristic polynomials come from a Hessenberg reduction
modulo a Mersenne prime larger than twice the coefficient bound, checked
against an exact determinant at one point. The Laplacian spectrum, the one
that `analyze` prints and `verify spectral-bound` multiplies, is that
polynomial with its integer roots divided out (`laplacian_spectrum`). No
floating point anywhere.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import GraphError, InternalCheckError
from .graphs import Graph, SignedGraph


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix; entries stored row-major as nested tuples."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.entries or not self.entries[0]:
            raise GraphError("matrix needs at least one row and one column")
        width = len(self.entries[0])
        if any(len(row) != width for row in self.entries):
            raise GraphError("ragged rows")

    @classmethod
    def from_rows(cls, rows) -> IntMatrix:
        return cls(tuple(tuple(int(x) for x in row) for row in rows))

    @classmethod
    def identity(cls, n: int) -> IntMatrix:
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    def __getitem__(self, pos: tuple[int, int]) -> int:
        i, j = pos
        return self.entries[i][j]

    def scale(self, c: int) -> IntMatrix:
        return IntMatrix(tuple(tuple(c * x for x in row) for row in self.entries))

    def add(self, other: IntMatrix) -> IntMatrix:
        if self.shape() != other.shape():
            raise GraphError("shape mismatch")
        return IntMatrix(
            tuple(tuple(a + b for a, b in zip(r1, r2)) for r1, r2 in zip(self.entries, other.entries))
        )

    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def trace(self) -> int:
        if self.rows != self.cols:
            raise GraphError("trace of a non-square matrix")
        return sum(self.entries[i][i] for i in range(self.rows))


def laplacian(g: Graph | SignedGraph) -> IntMatrix:
    """Laplacian D - A; for signed graphs the adjacency entries carry the
    edge signs, so a negative edge contributes +1 off-diagonal."""
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
    return IntMatrix.from_rows(m)


def determinant(m: IntMatrix) -> int:
    """Fraction-free Bareiss elimination; exact for integer matrices."""
    if m.rows != m.cols:
        raise GraphError("determinant of a non-square matrix")
    n = m.rows
    a = [list(row) for row in m.entries]
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


def adjugate(m: IntMatrix) -> tuple[int, IntMatrix]:
    """Determinant and adjugate of a square matrix: m @ adj == det * I.

    The Bareiss loop of `determinant` run over every row of [m | I]
    (fraction-free Gauss-Jordan): the right block ends as adj(m). Step k
    touches only columns k+1 .. n+k; the others hold a reduced column or an
    untouched identity column, whose entry in row k is then the previous
    pivot. Without row swaps every leading principal minor must be
    non-zero, as for a positive definite matrix.
    """
    if m.rows != m.cols:
        raise GraphError("adjugate of a non-square matrix")
    n = m.rows
    a = [list(row) + [0] * n for row in m.entries]
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
    return prev, IntMatrix.from_rows(row[n:] for row in a)


# ---------------------------------------------------------------------------
# Smith diagonal


def unit_pivot_core(m: IntMatrix) -> list[list[int]]:
    """The square matrix left after eliminating m on +-1 pivots.

    Eliminating row i and column j on a pivot m_ij = +-1 (taking the Schur
    complement) is a unimodular change of basis on both sides, so the core
    has the cokernel of m and the same |det|. Rows are sparse dicts; each
    step takes the unit entry of least Markowitz cost (r - 1)(c - 1), r and
    c the non-zero counts of its row and column, ties to the least (i, j).
    The core is empty when every row is eliminated.
    """
    if m.rows != m.cols:
        raise GraphError("unit-pivot elimination of a non-square matrix")
    rows = {i: {j: x for j, x in enumerate(row) if x} for i, row in enumerate(m.entries)}
    columns = set(range(m.cols))
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


def smith_diagonal(m: IntMatrix, modulus: int) -> list[int]:
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
    a = [[x % modulus for x in row] for row in m.entries]
    size = min(m.rows, m.cols)
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


@dataclass(frozen=True)
class Polynomial:
    """Dense univariate polynomial over exact numbers (int / Fraction)."""

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

    def divmod(self, other: Polynomial) -> tuple[Polynomial, Polynomial]:
        """Division over the rationals."""
        if other.is_zero():
            raise GraphError("polynomial division by zero")
        rem = [Fraction(c) for c in self.coeffs]
        lead = Fraction(other.leading())
        quot = [Fraction(0)] * max(len(rem) - len(other.coeffs) + 1, 0)
        while len(rem) >= len(other.coeffs) and any(rem):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) < len(other.coeffs):
                break
            shift = len(rem) - len(other.coeffs)
            factor = rem[-1] / lead
            quot[shift] = factor
            for i, c in enumerate(other.coeffs):
                rem[shift + i] -= factor * Fraction(c)
        return Polynomial.make(quot), Polynomial.make(rem)

    def primitive_integer(self) -> Polynomial:
        """Clear denominators, divide out the content, make the leading
        coefficient positive."""
        if self.is_zero():
            return self
        coeffs = [Fraction(c) for c in self.coeffs]
        denom = 1
        for c in coeffs:
            denom = denom * c.denominator // gcd(denom, c.denominator)
        ints = [int(c * denom) for c in coeffs]
        content = 0
        for c in ints:
            content = gcd(content, c)
        ints = [c // content for c in ints]
        if ints[-1] < 0:
            ints = [-c for c in ints]
        return Polynomial.make(ints)


def polynomial_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Gcd over the rationals, returned as a primitive integer polynomial
    with positive leading coefficient."""
    while not b.is_zero():
        _, r = a.divmod(b)
        a, b = b, r.primitive_integer()
    return a.primitive_integer()


def squarefree_part(p: Polynomial) -> Polynomial:
    """p with all repeated roots collapsed to multiplicity one."""
    if p.is_zero():
        raise GraphError("zero polynomial")
    if p.degree == 0:
        return Polynomial.make([1])
    g = polynomial_gcd(p, p.derivative())
    q, r = p.divmod(g)
    if not r.is_zero():
        raise InternalCheckError("gcd does not divide the polynomial")
    return q.primitive_integer()


# Exponents p of the Mersenne primes 2^p - 1 that char_poly computes modulo.
# They are proven primes, so no primality test is needed; 2^11213 - 1 covers
# every Laplacian with at most graphs.MAX_VERTICES vertices.
MERSENNE_EXPONENTS = (61, 89, 107, 127, 521, 607, 1279, 2203, 2281, 3217, 4253,
                      4423, 9689, 9941, 11213, 19937)


def _mersenne_prime(limit: int) -> int:
    """The smallest Mersenne prime of the table above `limit`."""
    for p in MERSENNE_EXPONENTS:
        if 2**p - 1 > limit:
            return 2**p - 1
    raise GraphError("characteristic polynomial coefficients exceed the largest modulus")


def _hessenberg_char_poly(rows, prime: int) -> list[int]:
    """Coefficients (low to high) of det(xI - m) modulo `prime`.

    Reduces m to upper Hessenberg form H by similarity transforms over
    Z/prime (Cohen, A Course in Computational Algebraic Number Theory,
    Alg. 2.2.9), then reads the characteristic polynomials p_r of the
    leading r x r blocks of H off the recurrence
    p_r = (x - h_rr) p_{r-1} - sum_i (h_{r,r-1} ... h_{i+1,i}) h_ir p_{i-1}.
    """
    n = len(rows)
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
        pivot_tail = h[k][j:]
        factors = []
        for i in range(k + 1, n):
            u = h[i][j] * inverse % prime
            if u:
                row = h[i]
                h[i] = row[:j] + [(a - u * b) % prime for a, b in zip(row[j:], pivot_tail)]
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


def char_poly(m: IntMatrix) -> Polynomial:
    """Characteristic polynomial det(xI - m), monic with integer
    coefficients, by Hessenberg reduction modulo one prime.

    With g = gershgorin_bound(m), every eigenvalue has |lambda| <= g, so the
    coefficients are at most (1 + g)^n in absolute value and one Mersenne
    prime P > 2 (1 + g)^n determines them as symmetric residues. The result
    is checked: monic of degree n, the x^(n-1) coefficient is -trace(m), and
    p(g + 1) equals det((g + 1) I - m) computed exactly.
    """
    if m.rows != m.cols:
        raise GraphError("characteristic polynomial of a non-square matrix")
    n = m.rows
    g = gershgorin_bound(m)
    prime = _mersenne_prime(2 * (1 + g) ** n)
    half = prime // 2
    coeffs = [c - prime if c > half else c for c in _hessenberg_char_poly(m.entries, prime)]
    poly = Polynomial.make(coeffs)
    if poly.degree != n or poly.leading() != 1 or coeffs[n - 1] != -m.trace():
        raise InternalCheckError("characteristic polynomial is not monic with the trace coefficient")
    x0 = g + 1
    if poly.evaluate(x0) != determinant(IntMatrix.identity(n).scale(x0).add(m.scale(-1))):
        raise InternalCheckError(f"characteristic polynomial disagrees with det(xI - m) at x = {x0}")
    return poly


def gershgorin_bound(m: IntMatrix) -> int:
    """Every eigenvalue of a square integer matrix lies within this bound
    in absolute value: the largest absolute row sum."""
    return max(sum(abs(x) for x in row) for row in m.entries)


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
