"""Potentials, element orders and pairing values of critical group classes.

Orders of cokernel classes come from X = E L0^-1, certified by L0 X = E I.
With the Laplacian identity L^2 - s L + p I = c J of a record, M = p L0^-1
is one closed-form matrix whose column j is the paper's order-achieving
decomposition of e_j - e_n; other graphs take M = adj(L0) = det(L0) L0^-1
from `linalg.solve`. Either way M = d L0^-1, and the exponent is
E = |d| / gcd(d, entries of M), found without the group.
`grounded_inverse` returns X bordered by a zero row and column for the
grounded vertex of an unsigned graph, the potential table P indexed by
vertices 1..n: the exponent verifier, element orders and the pairing read
the class of e_u - e_v off it as P[u] - P[v]. The pairing of two classes
[D], [D2] is D2.f mod 1 where L f = D, f = P D / E; `_pairing_table` reads
it off P for edge classes, and a value is kept as a reduced residue a/m
mod 1 (`PairingValue.of`). The paper's closed form on the edge classes of
a strongly regular graph is a test oracle (tests/conftest.py);
`_closed_form_params` says where it holds.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from . import _lazy_module
from .errors import GraphError, InternalCheckError, StructureError, _record
from .graphs import (
    CACHED_GRAPHS,
    Graph,
    SignedGraph,
    TwoEigenvalueParams,
    detect_two_eigenvalue,
    require_connected,
)

linalg = _lazy_module("linalg")


@lru_cache(maxsize=CACHED_GRAPHS)
def grounded_inverse(g: Graph | SignedGraph) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(E, P) with E the exponent of the critical group, which annihilates
    the cokernel of L0, and P the potential table: the integer symmetric
    X = E L0^-1, bordered by a zero row and column for the grounded vertex
    n of an unsigned graph, so that the class of d has potential P d / E.

    L0 is the Laplacian with the last vertex grounded for an unsigned graph
    (one vertex gives P = ((0,),)) and the whole signed Laplacian, rejected
    when balanced, for a signed graph, where P = X. Both routes build an
    integer M = d L0^-1 for a divisor d != 0. With the identity
    L^2 - s L + p I = c J of a structure record, where p != 0 (p = 0 forces
    L = s (I - J / n), the Laplacian of K_n, which has no record), d = p and
    M is one closed-form matrix: for i, j < n,
    (p L0^-1)_ij = s [i = j] - L_ij + L_in + L_jn + s - d_n.
    Its column j is f - f_n 1 for f = (s I - L)(e_j - e_n), the paper's
    order-achieving decomposition of e_j - e_n. A signed graph has c = 0
    and p L^-1 = s I - L. Otherwise d = det L0 and M = adj(L0) from `linalg.solve`.
    The smallest t with t L0^-1 integral is E = |d| / gcd(d, entries of M),
    and X = M / (d / E), an exact division. The certificate L0 X = E I is
    checked over the adjacency, else InternalCheckError. Cached per graph.
    """
    require_connected(g, "grounded_inverse")
    signed = isinstance(g, SignedGraph)
    if g.n == 1 and not signed:
        return 1, ((0,),)
    size, border = (g.n, ()) if signed else (g.n - 1, (0,))
    params = detect_two_eigenvalue(g)
    if params is None:
        identity = [[int(i == j) for i in range(size)] for j in range(size)]
        divisor, columns = linalg.solve(linalg._grounded_laplacian(g), identity)
    else:
        s, divisor, lap, columns = params.eigenvalue_sum, params.eigenvalue_product, linalg.laplacian(g), []
        ground = [0] * g.n if signed else lap[-1][:-1]  # L_in for the grounded vertex n
        shift = 0 if signed else s - lap[-1][-1]  # s - d_n
        for i, row in enumerate(lap[:size]):  # zip stops at the size of ground
            column = [ground[i] + shift + a - x for a, x in zip(ground, row)]
            column[i] += s
            columns.append(column)
    if not divisor:  # L0 of a connected graph is singular only for a balanced signed graph
        raise StructureError("balanced signed graph: the Laplacian cokernel is infinite")
    exponent = abs(divisor) // gcd(divisor, *(x for column in columns for x in column))
    scale = divisor // exponent
    table, grounded_rows = [], linalg._laplacian_rows(g)[:size]
    for j, column in enumerate(columns):
        column = (*(x // scale for x in column), *border)
        image = linalg._laplacian_mul(grounded_rows, column)
        image[j] -= exponent
        if any(image):
            raise InternalCheckError(f"grounded inverse identity L0 X == E I failed at column {j + 1}")
        table.append(column)
    return exponent, tuple(table) if signed else (*table, (0,) * g.n)


def _grounded_image(table, vector) -> list[int]:
    """P d for the table P of `grounded_inverse`: P is symmetric, so P d is
    the sum of d_j times row j of P. The grounded coordinate of d meets a
    zero row, and P d ends in a zero, on an unsigned graph."""
    image = [0] * len(table)
    for x, row in zip(vector, table):
        if x:
            for i, a in enumerate(row):
                image[i] += x * a
    return image


def edge_difference(g: Graph | SignedGraph, u: int, v: int) -> tuple[int, ...]:
    """The vector e_u - e_v."""
    n = g.n
    if not (1 <= u <= n and 1 <= v <= n) or u == v:
        raise GraphError(f"bad vertex pair ({u},{v})")
    vec = [0] * n
    vec[u - 1] = 1
    vec[v - 1] = -1
    return tuple(vec)


def _class_vector(g: Graph | SignedGraph, vector, name: str = "vector") -> list[int]:
    """`vector` as a list, once it has n integer coordinates, summing to
    zero on an unsigned graph, where only those vectors have classes."""
    vector = list(vector)
    if len(vector) != g.n:
        raise GraphError(f"{name} length {len(vector)} != n = {g.n}")
    if any(type(x) is not int for x in vector):
        raise GraphError(f"{name} coordinates must be integers")
    if isinstance(g, Graph) and sum(vector) != 0:
        raise GraphError(f"{name} must have zero coordinate sum")
    return vector


def element_order(g: Graph | SignedGraph, vector) -> int:
    """Order of the class of `vector` in the critical group.

    The smallest t with t * d0 in the lattice of L0 makes t * P d / E
    integral (`grounded_inverse`), so the order is E / gcd(E, P d). For an
    unsigned graph the grounded equation is the only one left once d sums
    to zero.
    """
    vector = _class_vector(g, vector)
    require_connected(g, "element_order")
    exponent, table = grounded_inverse(g)
    return exponent // gcd(exponent, *_grounded_image(table, vector))


@_record
class PairingValue:
    """A pairing value in [0, 1) in lowest terms: numerator / denominator
    with 0 <= numerator < denominator and the two coprime."""

    numerator: int
    denominator: int

    def __post_init__(self):
        if not 0 <= self.numerator < self.denominator or gcd(self.numerator, self.denominator) > 1:
            raise GraphError(f"pairing value {self} not reduced mod 1")

    @classmethod
    def of(cls, a: int, m: int) -> PairingValue:
        """a / m mod 1, for integers a and m > 0."""
        if m <= 0:
            raise GraphError(f"pairing denominator must be positive, got {m}")
        h = gcd(a, m)
        return cls(a % m // h, m // h)

    def is_zero(self) -> bool:
        return not self.numerator

    def __str__(self) -> str:
        return f"{self.numerator}/{self.denominator}"


def _require_unsigned(g, what: str) -> None:
    if isinstance(g, SignedGraph):
        raise StructureError(f"{what} is defined for unsigned graphs only")


def _closed_form_params(g: Graph) -> TwoEigenvalueParams:
    """The strongly regular record of g; StructureError for a signed graph,
    a graph that is not strongly regular, and the complete graphs and
    K_{m,m} that the closed form excludes."""
    _require_unsigned(g, "closed-form pairing")
    params = detect_two_eigenvalue(g)
    if g.n > 1 and g.is_complete() or params and params.exceptional_family == "complete_bipartite":
        raise StructureError(
            "closed-form pairing excludes complete and balanced complete bipartite graphs"
        )
    if params is None or not params.regular:
        raise StructureError("closed-form pairing needs a strongly regular graph")
    return params


def self_pairing_denominator(params: TwoEigenvalueParams) -> int:
    """Denominator of the self-pairing 2(n-1)/(kn) of any edge class of a
    strongly regular graph of degree k = params.k1. It always exceeds 1 and
    divides the product of the two distinct non-zero Laplacian eigenvalues."""
    n, k = params.n, params.k1
    eta = k * n // gcd(2 * (n - 1), k * n)
    if eta <= 1:
        raise InternalCheckError(f"self-pairing denominator {eta} should exceed 1")
    if params.eigenvalue_product % eta:
        raise InternalCheckError(
            f"denominator {eta} should divide {params.eigenvalue_product}"
        )
    return eta


def _pairing_table(g: Graph, edges: list[tuple[int, int]]) -> tuple[int, list[list[int]]]:
    """(E, table): the group exponent E and, for each pair of the edges
    given, each (u, v) with u < v standing for e_u - e_v, the numerator a
    in [0, E) of their pairing a / E. Edge (u, v) has the potential
    w = P[u] - P[v] over the potential table P of `grounded_inverse`,
    and pairs with edge (x, y) to (w_x - w_y) / E mod 1."""
    exponent, rows = grounded_inverse(g)
    ends = [(x - 1, y - 1) for x, y in edges]
    table = []
    for u, v in ends:
        w = [a - b for a, b in zip(rows[u], rows[v])]
        table.append([(w[x] - w[y]) % exponent for x, y in ends])
    return exponent, table
