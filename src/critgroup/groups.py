"""Critical groups, element orders, and exponent verifiers.

The critical group of a connected graph is the torsion part of the integer
cokernel of its Laplacian; for an unbalanced signed graph the cokernel is
already finite and is taken whole. On a graph with a two-eigenvalue
record, re-checked on the graph, the invariant factors are read off the
record; only its bad primes need a Smith diagonal. Other graphs take a
Smith diagonal modulo the spanning-tree count of the core left by
unit-pivot elimination. Orders of cokernel classes come from X = E L0^-1,
certified by L0 X = E I. With the Laplacian identity L^2 - s L + p I = c J
of a record, p L0^-1 is one closed-form matrix whose column j is the
paper's order-achieving decomposition of e_j - e_n; other graphs take
adj(L0) from `solve`. `grounded_inverse` returns X bordered by a zero row and
column for the grounded vertex of an unsigned graph, the potential table P
indexed by vertices 1..n: the exponent verifier, element orders and the
pairing read the class of e_u - e_v off it as P[u] - P[v].
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import count
from math import gcd, isqrt, prod
from operator import sub

from .errors import GraphError, InternalCheckError, StructureError, _record
from .graphs import (
    Graph,
    SignedGraph,
    TwoEigenvalueParams,
    detect_two_eigenvalue,
    require_connected,
)
from .linalg import (
    determinant,
    laplacian,
    laplacian_spectrum,
    smith_diagonal,
    solve,
    squarefree_part,
    unit_pivot_core,
)

# Graphs whose group and grounded inverse stay cached; one CLI run reads one.
CACHED_GRAPHS = 8


@_record
class AbelianGroup:
    """Finite abelian group as an ascending chain of invariant factors,
    each at least 2 and each dividing the next. The trivial group is ()."""

    invariant_factors: tuple[int, ...]

    def __post_init__(self):
        factors = self.invariant_factors
        if any(type(f) is not int for f in factors):
            raise GraphError(f"invariant factors must be integers, got {factors}")
        if any(f < 2 for f in factors):
            raise GraphError(f"invariant factors must be >= 2, got {factors}")
        for a, b in zip(factors, factors[1:]):
            if b % a:
                raise GraphError(f"invariant factors {factors} violate divisibility")

    @classmethod
    def from_diagonal(cls, diagonal) -> AbelianGroup:
        return cls(tuple(d for d in diagonal if d > 1))

    @property
    def order(self) -> int:
        return reduce(lambda a, b: a * b, self.invariant_factors, 1)

    @property
    def exponent(self) -> int:
        return self.invariant_factors[-1] if self.invariant_factors else 1

    def is_trivial(self) -> bool:
        return not self.invariant_factors


def _grounded_laplacian(g: Graph | SignedGraph) -> list[list[int]]:
    """L0: the Laplacian without the last vertex's row and column for an
    unsigned graph (empty for one vertex, whose group is trivial), the whole
    signed Laplacian for a signed graph."""
    lap = laplacian(g)
    if isinstance(g, SignedGraph):
        return lap
    return [row[:-1] for row in lap[:-1]]


def _laplacian_rows(g: Graph | SignedGraph) -> list[tuple[int, frozenset[int], frozenset[int]]]:
    """Row v of the (signed) Laplacian at index v - 1, read off the
    adjacency: (degree, positive neighbours, negative neighbours), for the
    entries d_v, -1 and +1."""
    if isinstance(g, Graph):
        return [(len(nbrs), nbrs, frozenset()) for nbrs in g.adjacency.values()]
    negative = Graph(g.n, g.negative_edges).adjacency
    return [(len(nbrs), nbrs - negative[v], negative[v]) for v, nbrs in g.graph.adjacency.items()]


def _laplacian_mul(rows, x) -> list[int]:
    """L x, over the rows of `_laplacian_rows` (or a leading part of them)."""
    at = [0, *x].__getitem__  # vertex v is entry v - 1
    return [
        d * x[i] - sum(map(at, pos)) + sum(map(at, neg))
        for i, (d, pos, neg) in enumerate(rows)
    ]


def _two_eigenvalue_params(g: Graph | SignedGraph) -> TwoEigenvalueParams | None:
    """The two-eigenvalue record of g, or None; None also for an unsigned
    complete graph, whose one non-zero eigenvalue gives no record."""
    if isinstance(g, Graph) and g.is_complete():
        return None
    return detect_two_eigenvalue(g)


@lru_cache(maxsize=CACHED_GRAPHS)
def grounded_inverse(g: Graph | SignedGraph) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(E, P) with E the exponent of the critical group, which annihilates
    the cokernel of L0, and P the potential table: the integer symmetric
    X = E L0^-1, bordered by a zero row and column for the grounded vertex
    n of an unsigned graph, so that the class of d has potential P d / E.

    L0 is the Laplacian with the last vertex grounded for an unsigned graph
    (one vertex gives P = ((0,),)) and the whole signed Laplacian, rejected
    when balanced, for a signed graph, where P = X. With the identity
    L^2 - s L + p I = c J of a structure record, where p != 0 (p = 0 forces
    L = s (I - J / n), the Laplacian of K_n, which has no record), p L0^-1
    is one closed-form matrix: for i, j < n,
    (p L0^-1)_ij = s [i = j] - L_ij + L_in + L_jn + s - d_n.
    Its column j is f - f_n 1 for f = (s I - L)(e_j - e_n), the paper's
    order-achieving decomposition of e_j - e_n. A signed graph has c = 0
    and p L^-1 = s I - L. Otherwise X = E adj(L0) / kappa from `solve`.
    Either way each division must be exact, and the certificate L0 X = E I
    is checked over the adjacency, else InternalCheckError. Cached per graph.
    """
    require_connected(g, "grounded_inverse")
    exponent = critical_group(g).exponent  # StructureError when balanced
    if g.n == 1:
        return 1, ((0,),)
    signed = isinstance(g, SignedGraph)
    size, border = (g.n, ()) if signed else (g.n - 1, (0,))
    params = _two_eigenvalue_params(g)
    if params is None:
        identity = [[int(i == j) for i in range(size)] for j in range(size)]
        divisor, columns = solve(_grounded_laplacian(g), identity)
    else:
        s, divisor, lap, columns = params.eigenvalue_sum, params.eigenvalue_product, laplacian(g), []
        ground = [0] * g.n if signed else lap[-1][:-1]  # L_in for the grounded vertex n
        shift = 0 if signed else s - lap[-1][-1]  # s - d_n
        for i, row in enumerate(lap[:size]):  # zip stops at the size of ground
            column = [ground[i] + shift + a - x for a, x in zip(ground, row)]
            column[i] += s
            columns.append(column)
    table, grounded_rows = [], _laplacian_rows(g)[:size]
    for j, column in enumerate(columns):
        scaled = [exponent * x for x in column]
        if any(x % divisor for x in scaled):
            raise InternalCheckError(f"E L0^-1 is not integral: {divisor} does not divide column {j + 1}")
        column = (*(x // divisor for x in scaled), *border)
        image = _laplacian_mul(grounded_rows, column)
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


@lru_cache(maxsize=CACHED_GRAPHS)
def critical_group(g: Graph | SignedGraph) -> AbelianGroup:
    """Invariant factors of the critical group: the cokernel of L0, the
    Laplacian grounded at the last vertex, or the whole signed Laplacian of
    an unbalanced signed graph (a balanced one, singular, is rejected).

    With a record L^2 - s L + p I = c J, p annihilates the group (p x =
    L (s - L) x when J x = 0) and the factors are read off the record
    (`_record_diagonal`). Otherwise L0 is eliminated on +-1 pivots
    (`unit_pivot_core`), kappa = |det| of the core is the group order, and
    the core's Smith diagonal is taken modulo kappa. Certificate, else
    InternalCheckError: the factors form a divisibility chain with product
    kappa. Cached per graph.
    """
    require_connected(g, "critical_group")
    params = _two_eigenvalue_params(g)
    if params is not None:
        kappa, diag = _record_diagonal(g, params)
    else:
        lap = _grounded_laplacian(g)
        core = unit_pivot_core(lap) if lap else []
        if not core:  # one vertex, or every row eliminated on a unit pivot
            return AbelianGroup(())
        kappa = abs(determinant(core))
        if not kappa:
            if isinstance(g, SignedGraph):
                raise StructureError("balanced signed graph: the Laplacian cokernel is infinite")
            raise InternalCheckError("grounded Laplacian of a connected graph is singular")
        diag = smith_diagonal(core, kappa)
    if prod(diag) != kappa or any(b % a for a, b in zip(diag, diag[1:])):
        raise InternalCheckError(f"Smith diagonal {diag} is not a chain with product {kappa}")
    return AbelianGroup.from_diagonal(diag)


def spanning_tree_count(g: Graph | SignedGraph) -> int:
    """Number of spanning trees of g, or of the underlying graph of a
    signed graph: kappa = det L0, read off the cached `critical_group`
    computation, whose certificate checks that the invariant factors
    multiply to kappa."""
    base = g.graph if isinstance(g, SignedGraph) else g
    require_connected(base, "spanning_tree_count")
    return critical_group(base).order


def _record_diagonal(g: Graph | SignedGraph, params: TwoEigenvalueParams) -> tuple[int, list[int]]:
    """kappa and the invariant factors read off a record that passes its
    re-check: kappa from the spectrum and, for each prime q | p with
    v = v_q(p), the q-part (Z/q^v)^(v_q(kappa) / v) when v = 1 (p
    annihilates the group) or q is good: q divides neither s^2 - 4p nor,
    unsigned, n. Then the roots are distinct modulo q, one of them
    divisible by q^v exactly, and the sum-zero lattice splits q-adically
    into the two eigenspaces of L. The other, bad primes take
    `smith_diagonal` of L0 modulo the product B of their q^v, with the
    rank modulo each q checked."""
    signed = isinstance(g, SignedGraph)
    s, p = params.eigenvalue_sum, params.eigenvalue_product
    if signed and not p:  # L^2 = s L: 0 is an eigenvalue
        raise StructureError("balanced signed graph: the Laplacian cokernel is infinite")
    c, edges = params.mu, (g.graph if signed else g).edges  # re-check on g's detected identity
    if ((params.n, params.edge_count, params.case.startswith("signed")) != (g.n, len(edges), signed)
            or signed and c or g._quadratic != (s, p, c)):
        raise InternalCheckError(f"the structure record {params} fails L^2 - s L + p I = c J on the graph")
    if params.multiplicities is None:
        raise InternalCheckError(f"the structure record {params} has no integral multiplicities")
    m1, m2 = params.multiplicities[0]
    t1, t2 = params.roots or (1, p)  # irrational roots: m1 = m2, and t1 t2 = p
    kappa, rest = divmod(t1 ** m1 * t2 ** m2, 1 if signed else g.n)
    if rest:
        raise InternalCheckError(f"n = {g.n} does not divide the eigenvalue product of {params}")
    modulus, bad, parts = 1, [], []
    for q in _prime_factors(p):
        v, e = (next(i for i in count() if m % q ** (i + 1)) for m in (p, kappa))  # v_q(p), v_q(kappa)
        if v == 1 or (s * s - 4 * p) % q and (signed or g.n % q):
            if e % v:
                raise InternalCheckError(f"v_{q}(kappa) = {e} is not a multiple of v_{q}(p) = {v}")
            parts.append((q ** v, e // v))
        else:
            modulus, bad = modulus * q ** v, [*bad, q]
    diag = []
    if bad:
        lap = _grounded_laplacian(g)
        diag = smith_diagonal(lap, modulus)
        for q in bad:  # q divides as many factors as the rank of L0 drops modulo q
            if sum(1 for d in diag if d % q == 0) != smith_diagonal(lap, q).count(q):
                raise InternalCheckError(f"Smith diagonal {diag} disagrees with the rank modulo {q}")
    for power, copies in parts:  # the top `copies` factors of the chain gain the q-part
        diag = [1] * (copies - len(diag)) + diag
        diag[len(diag) - copies:] = [d * power for d in diag[len(diag) - copies:]]
    return kappa, diag


def _prime_factors(m: int) -> list[int]:
    """Distinct prime factors of a positive integer, by trial division."""
    primes = []
    for q in range(2, isqrt(m) + 1):
        if m % q == 0:
            primes.append(q)
            while m % q == 0:
                m //= q
    return primes + [m] if m > 1 else primes


# ---------------------------------------------------------------------------
# Element orders


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


# ---------------------------------------------------------------------------
# Theorem verifiers


@_record
class ExponentReport:
    """Outcome of checking the group exponent against the product of the
    two distinct non-zero Laplacian eigenvalues."""

    kind: str  # srg | two_degree | signed_regular | signed_complete | signed_two_degree
    classification: str  # match | exceptional_complete_bipartite | exceptional_star
    spectral_bound: int
    expected_exponent: int
    exponent: int
    matched: bool
    group: AbelianGroup
    max_edge_order: int
    max_edge: tuple[int, int] | None
    achieving_element: tuple[str, tuple[int, ...]] | None
    half_bound_even: bool | None = None


def verify_exponent_theorem(g: Graph | SignedGraph) -> ExponentReport:
    """Check that the critical group exponent equals the product of the two
    distinct non-zero Laplacian eigenvalues, with the two unsigned
    exceptional families of `TwoEigenvalueParams.exceptional_family`
    expecting their adjusted values instead."""
    params = detect_two_eigenvalue(g)
    if params is None:
        what = "signed graph" if isinstance(g, SignedGraph) else "graph"
        raise StructureError(f"{what} lacks the two-eigenvalue structure")
    group = critical_group(g)  # rejects balanced signed graphs
    bound = params.eigenvalue_product
    classification, expected = "match", bound
    if params.exceptional_family == "star":
        classification, expected = "exceptional_star", 1
    elif params.exceptional_family == "complete_bipartite":
        if bound % 2:
            raise InternalCheckError("complete bipartite bound should be even")
        classification, expected = "exceptional_complete_bipartite", bound // 2
    exponent, rows = grounded_inverse(g)
    max_order, max_edge = 0, None
    for u, v in g.sorted_edges():  # orders divide E, so the first edge of order E ends the scan
        order = exponent // gcd(exponent, *map(sub, rows[u - 1], rows[v - 1]))
        if order > max_order:
            max_order, max_edge = order, (u, v)
            if order == exponent:
                break
    achieved = ("edge_difference", max_edge) if max_order == exponent else None
    half_even = None
    if params.case == "signed_complete":
        # edge classes have order at most 2 here; the order bound for e_u
        # comes from averaging three edge identities, which needs bound/2
        # to be integral
        half_even = bound % 2 == 0
        achieved = next(
            (("vertex_class", (u,)) for u in g.vertices() if gcd(exponent, *rows[u - 1]) == 1), None
        )
    return ExponentReport(
        kind=params.case,
        classification=classification,
        spectral_bound=bound,
        expected_exponent=expected,
        exponent=group.exponent,
        matched=group.exponent == expected,
        group=group,
        max_edge_order=max_order,
        max_edge=max_edge,
        achieving_element=achieved,
        half_bound_even=half_even,
    )


@_record
class SpectralBoundReport:
    """Outcome of checking that the group exponent divides the product of
    the distinct non-zero Laplacian eigenvalues."""

    exponent: int
    product: int
    passed: bool


def verify_spectral_bound(g: Graph | SignedGraph) -> SpectralBoundReport:
    """The group exponent must divide the product of the distinct non-zero
    Laplacian eigenvalues, an integer for any graph Laplacian. From
    `laplacian_spectrum` it is the product of the distinct positive integer
    eigenvalues times (-1)^deg q q(0), the product of the roots of q, the
    square-free part of the monic factor carrying the rest. A single
    vertex has none: the empty product is 1."""
    group = critical_group(g)
    roots, factor = laplacian_spectrum(g)
    if factor[-1] != 1:
        raise InternalCheckError(f"the factor {factor} of the characteristic polynomial is not monic")
    q = squarefree_part(factor)
    product = prod(r for r, _ in roots if r) * (-1) ** (len(q) - 1) * q[0]
    if product <= 0:
        raise InternalCheckError(
            f"distinct eigenvalue product {product} should be positive, "
            f"from the square-free factor {q}"
        )
    return SpectralBoundReport(group.exponent, product, product % group.exponent == 0)


# ---------------------------------------------------------------------------
# Subgroups


def subgroup_invariant_factors(group: AbelianGroup, generators) -> AbelianGroup:
    """Invariant factors of the subgroup generated by the given coordinate
    vectors inside the direct sum of Z/d for d in group.invariant_factors.

    Scaling coordinate i by E/d_i, with E the exponent, embeds the group in
    (Z/E)^k, where the subgroup is the row span of the scaled generator
    matrix. Its Smith diagonal s gives that span as the sum of s_i Z/E, so
    the factors are E / gcd(s_i, E).
    """
    factors = group.invariant_factors
    gens = [list(v) for v in generators]
    if any(len(v) != len(factors) for v in gens):
        raise GraphError("generator length does not match the number of factors")
    if any(type(x) is not int for v in gens for x in v):
        raise GraphError("generator coordinates must be integers")
    if not gens or not factors:
        return AbelianGroup(())
    e = group.exponent
    scaled = [[x * (e // d) for x, d in zip(v, factors)] for v in gens]
    return AbelianGroup.from_diagonal(sorted(e // s for s in smith_diagonal(scaled, e)))
