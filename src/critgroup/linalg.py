"""Exact integer linear algebra.

Everything here is exact: arbitrary-precision integers and residues modulo
an integer. A matrix is a list of integer rows, which no routine mutates.
Determinants and the integer solutions of m x = det(m) b come from one
fraction-free elimination (`solve`). Smith diagonals come from exact
elimination on +-1 pivots followed by elimination modulo a multiple of the
exponent of the cokernel. Characteristic polynomials and the Laplacian
spectrum are in `spectrum`.
No fractions and no floating point anywhere.
"""

from __future__ import annotations

from collections import Counter
from math import gcd
from operator import mul

from .errors import GraphError, InternalCheckError
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


def _grounded_laplacian(g: Graph | SignedGraph) -> list[list[int]]:
    """L0: the Laplacian without the last vertex's row and column for an
    unsigned graph (empty for one vertex, whose group is trivial), the whole
    signed Laplacian for a signed graph."""
    lap = laplacian(g)
    if isinstance(g, SignedGraph):
        return lap
    return [row[:-1] for row in lap[:-1]]


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
