"""Critical groups, element orders, and exponent verifiers.

The critical group of a connected graph is the torsion part of the integer
cokernel of its Laplacian; for an unbalanced signed graph the cokernel is
already finite and is taken whole. Invariant factors come from a Smith
diagonal modulo the spectral bound (or the spanning-tree count) of the core
left by unit-pivot elimination, certified against the determinant of that
core. Orders of cokernel classes come from X = E L0^-1, E the exponent:
read off the Laplacian identity L^2 - s L + p I = c J when the graph has
one, else from the grounded adjugate, and certified by L0 X = E I. With
the identity, column j of p L0^-1 is the paper's order-achieving
decomposition of e_j - e_n.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from math import gcd, isqrt, prod

from .errors import GraphError, InternalCheckError, StructureError, _record
from .graphs import (
    Graph,
    SignedGraph,
    TwoEigenvalueParams,
    detect_two_eigenvalue,
    require_connected,
)
from .linalg import (
    adjugate,
    determinant,
    laplacian,
    laplacian_spectrum,
    smith_diagonal,
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


def _scaled_potential(rows, s: int, target) -> list[int]:
    """f = s t - L t, with L t the combination of the Laplacian columns at
    the non-zero entries of t. When L^2 - s L + p I = c J and c J t = 0,
    L f = (s L - L^2) t = p t: f is p times a potential of t. With s and p
    the sum and product of the two distinct non-zero eigenvalues, f is the
    paper's order-achieving decomposition of t. The test suite builds it
    for every edge class, with the switching, the triangle normal form and
    the closed-form pairing, in tests/conftest.py."""
    out = [s * t for t in target]
    for v, t in enumerate(target):
        if t:
            d, pos, neg = rows[v]
            out[v] -= d * t
            for w in pos:
                out[w - 1] += t
            for w in neg:
                out[w - 1] -= t
    return out


def _two_eigenvalue_params(g: Graph | SignedGraph) -> TwoEigenvalueParams:
    """The two-eigenvalue parameters of g; StructureError when it has none."""
    params = detect_two_eigenvalue(g)
    if params is None:
        what = "signed graph" if isinstance(g, SignedGraph) else "graph"
        raise StructureError(f"{what} lacks the two-eigenvalue structure")
    return params


@lru_cache(maxsize=CACHED_GRAPHS)
def grounded_inverse(g: Graph | SignedGraph) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(E, X) with E the exponent of the critical group and X = E L0^-1, an
    integer symmetric matrix: E annihilates the cokernel of L0.

    L0 is the Laplacian with the last vertex grounded for an unsigned graph
    (X is empty for one vertex) and the whole signed Laplacian, rejected
    when balanced, for a signed graph. With the identity
    L^2 - s L + p I = c J of a structure record, where p != 0 (p = 0 forces
    L = s (I - J / n), the Laplacian of K_n, which has no record), column j
    of p L0^-1 is f = s t - L t for t = e_j - e_n, shifted by f_n so that
    the ground entry is zero and then dropped (t = e_j and no shift for a
    signed graph, where c = 0: p L^-1 = s I - L). That f is the paper's
    order-achieving decomposition of e_j - e_n. Otherwise
    X = E adj(L0) / kappa. Either way each division must be exact, and the
    certificate L0 X = E I is checked over the adjacency, else
    InternalCheckError. Cached per graph.
    """
    require_connected(g, "grounded_inverse")
    exponent = _certified_group(g).exponent  # StructureError when balanced
    if g.n == 1:
        return 1, ()
    signed = isinstance(g, SignedGraph)
    rows = _laplacian_rows(g)
    size = g.n if signed else g.n - 1
    try:
        params = _two_eigenvalue_params(g)
    except StructureError:
        params = None
    if params is None:
        divisor, columns = adjugate(_grounded_laplacian(g))
    else:
        divisor, columns = params.eigenvalue_product, []
        for j in range(size):
            target = [0] * g.n
            target[j] = 1
            if not signed:
                target[-1] = -1
            f = _scaled_potential(rows, params.eigenvalue_sum, target)
            if not signed:
                ground = f.pop()
                f = [x - ground for x in f]
            columns.append(f)
    inverse = []
    for j, column in enumerate(columns):
        scaled = [exponent * x for x in column]
        if any(x % divisor for x in scaled):
            raise InternalCheckError(f"E L0^-1 is not integral: {divisor} does not divide column {j + 1}")
        inverse.append(tuple(x // divisor for x in scaled))
    grounded_rows = rows[:size]
    for j, column in enumerate(inverse):
        image = _laplacian_mul(grounded_rows, column if signed else (*column, 0))
        image[j] -= exponent
        if any(image):
            raise InternalCheckError(f"grounded inverse identity L0 X == E I failed at column {j + 1}")
    return exponent, tuple(inverse)


def _grounded_image(inverse, vector) -> list[int]:
    """X d0 for X from `grounded_inverse`, where d0 is `vector` without the
    grounded coordinate: X is symmetric, so X d0 is the sum of d_j times
    row j of X."""
    image = [0] * len(inverse)
    for x, row in zip(vector, inverse):
        if x:
            for i, a in enumerate(row):
                image[i] += x * a
    return image


def critical_group(g: Graph | SignedGraph) -> AbelianGroup:
    """Invariant factors of the critical group: the cokernel of L0, the
    Laplacian grounded at the last vertex, or the whole signed Laplacian of
    an unbalanced signed graph (a balanced one, singular, is rejected).

    L0 is eliminated on +-1 pivots (`unit_pivot_core`); kappa = |det| of the
    core is the group order. The core's Smith diagonal is taken modulo the
    eigenvalue product p when detection finds L^2 - s L + p I = c J, as
    p x = L (s - L) x whenever J x = 0, else modulo kappa (`smith_diagonal`).
    Certificate, else InternalCheckError: the factors form a divisibility
    chain with product kappa and, modulo p, for each prime q | p exactly
    |core| - rank_q(core) of them are divisible by q. Cached per graph.
    """
    require_connected(g, "critical_group")
    return _certified_group(g)


def spanning_tree_count(g: Graph | SignedGraph) -> int:
    """Number of spanning trees of g, or of the underlying graph of a
    signed graph: kappa = det L0, read off the cached `critical_group`
    computation, whose certificate checks that the invariant factors
    multiply to kappa."""
    base = g.graph if isinstance(g, SignedGraph) else g
    require_connected(base, "spanning_tree_count")
    return _certified_group(base).order


@lru_cache(maxsize=CACHED_GRAPHS)
def _certified_group(g: Graph | SignedGraph) -> AbelianGroup:
    lap = _grounded_laplacian(g)
    core = unit_pivot_core(lap) if lap else []
    if not core:  # one vertex, or every row eliminated on a unit pivot
        return AbelianGroup(())
    kappa = abs(determinant(core))
    if not kappa:
        if isinstance(g, SignedGraph):
            raise StructureError("balanced signed graph: the Laplacian cokernel is infinite")
        raise InternalCheckError("grounded Laplacian of a connected graph is singular")
    try:
        modulus = _two_eigenvalue_params(g).eigenvalue_product
        primes = _prime_factors(modulus)
    except StructureError:
        modulus, primes = kappa, []
    diag = smith_diagonal(core, modulus)
    if prod(diag) != kappa or any(b % a for a, b in zip(diag, diag[1:])):
        raise InternalCheckError(f"Smith diagonal {diag} is not a chain with product {kappa}")
    for q in primes:  # q divides as many factors as the rank of the core drops modulo q
        if sum(1 for d in diag if d % q == 0) != smith_diagonal(core, q).count(q):
            raise InternalCheckError(f"Smith diagonal {diag} disagrees with the rank modulo {q}")
    return AbelianGroup.from_diagonal(diag)


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


def vertex_indicator(g: Graph | SignedGraph, u: int) -> tuple[int, ...]:
    """The vector e_u (meaningful for signed graphs, where the cokernel is
    not restricted to sum-zero vectors)."""
    if not 1 <= u <= g.n:
        raise GraphError(f"vertex {u} out of range")
    vec = [0] * g.n
    vec[u - 1] = 1
    return tuple(vec)


def element_order(g: Graph | SignedGraph, vector) -> int:
    """Order of the class of `vector` in the critical group.

    The smallest t with t * d0 in the lattice of L0 makes t * X d0 / E
    integral, so the order is E / gcd(E, X d0). For an unsigned
    graph the grounded equation is the only one left once d sums to zero.
    """
    vector = list(vector)
    if len(vector) != g.n:
        raise GraphError(f"vector length {len(vector)} != n = {g.n}")
    if any(type(x) is not int for x in vector):
        raise GraphError("vector coordinates must be integers")
    if isinstance(g, Graph) and sum(vector) != 0:
        raise GraphError("unsigned critical group classes need sum-zero vectors")
    require_connected(g, "element_order")
    exponent, inverse = grounded_inverse(g)
    return exponent // gcd(exponent, *_grounded_image(inverse, vector))


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
    params = _two_eigenvalue_params(g)
    group = critical_group(g)  # rejects balanced signed graphs
    bound = params.eigenvalue_product
    classification, expected = "match", bound
    if params.exceptional_family == "star":
        classification, expected = "exceptional_star", 1
    elif params.exceptional_family == "complete_bipartite":
        if bound % 2:
            raise InternalCheckError("complete bipartite bound should be even")
        classification, expected = "exceptional_complete_bipartite", bound // 2
    max_order, max_edge = 0, None
    for u, v in g.sorted_edges():
        order = element_order(g, edge_difference(g, u, v))
        if order > max_order:
            max_order, max_edge = order, (u, v)
    # every order divides the exponent, so the first edge of largest order
    # is the first edge achieving the exponent, if any does
    achieved = ("edge_difference", max_edge) if max_order == group.exponent else None
    half_even = None
    if params.case == "signed_complete":
        # edge classes have order at most 2 here; the order bound for e_u
        # comes from averaging three edge identities, which needs bound/2
        # to be integral
        half_even = bound % 2 == 0
        achieved = next(
            (("vertex_class", (u,)) for u in g.vertices()
             if element_order(g, vertex_indicator(g, u)) == group.exponent),
            None,
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
    if factor.leading() != 1:
        raise InternalCheckError(f"the factor {factor.coeffs} of the characteristic polynomial is not monic")
    q = squarefree_part(factor)
    product = prod(r for r, _ in roots if r) * (-1) ** q.degree * q.coeffs[0]
    if product <= 0:
        raise InternalCheckError(
            f"distinct eigenvalue product {product} should be positive, "
            f"from the square-free factor {q.coeffs}"
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
