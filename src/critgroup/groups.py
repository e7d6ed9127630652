"""Critical groups, order-achieving decompositions, and exponent verifiers.

The critical group of a connected graph is the torsion part of the integer
cokernel of its Laplacian; for an unbalanced signed graph the cokernel is
already finite and is taken whole. Invariant factors come from a Smith
diagonal modulo the spectral bound (or the spanning-tree count) of the core
left by unit-pivot elimination, certified against the determinant of that
core; orders of cokernel classes come from the grounded adjugate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from math import gcd, isqrt, prod

from .errors import GraphError, InternalCheckError, StructureError
from .graphs import (
    Graph,
    SignedGraph,
    SignedTwoEigenvalueParams,
    TwoEigenvalueParams,
    detect_signed_two_eigenvalue,
    detect_two_eigenvalue,
    edge_key,
    odd_triangle_switch,
    require_connected,
    switch,
)
from .linalg import (
    IntMatrix,
    adjugate,
    determinant,
    distinct_nonzero_eigenvalue_product,
    laplacian,
    smith_diagonal,
    unit_pivot_core,
)

# Graphs whose group and grounded adjugate stay cached; one CLI run reads one.
CACHED_GRAPHS = 8


@dataclass(frozen=True)
class AbelianGroup:
    """Finite abelian group as an ascending chain of invariant factors,
    each at least 2 and each dividing the next. The trivial group is ()."""

    invariant_factors: tuple[int, ...]

    def __post_init__(self):
        factors = self.invariant_factors
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


@lru_cache(maxsize=CACHED_GRAPHS)
def grounded_adjugate(g: Graph | SignedGraph) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(kappa, A) with A = adj(L0) symmetric and kappa = det L0 > 0.

    L0 is the Laplacian with the last vertex grounded for an unsigned graph
    (kappa is the spanning-tree count; A is empty for one vertex) and the
    whole signed Laplacian, rejected when balanced, for a signed graph.
    """
    require_connected(g, "grounded_adjugate")
    lap = laplacian(g)
    if isinstance(g, Graph):
        if g.n == 1:
            return 1, ()
        lap = IntMatrix.from_rows(row[:-1] for row in lap.entries[:-1])
    try:
        kappa, adj = adjugate(lap)
    except GraphError:  # a zero pivot: the signed Laplacian is singular
        raise StructureError("balanced signed graph: cokernel classes have infinite order")
    if lap @ adj != IntMatrix.identity(lap.rows).scale(kappa):
        raise InternalCheckError("grounded adjugate identity L0 @ A == kappa * I failed")
    return kappa, adj.entries


def grounded_potential(g: Graph | SignedGraph, vector) -> tuple[int, list[int]]:
    """(kappa, A d0), where d0 is `vector` without the grounded coordinate:
    kappa times the potential f0 solving L0 f0 = d0. A is symmetric, so
    A d0 is the sum of d_j times row j of A."""
    kappa, adj = grounded_adjugate(g)
    image = [0] * len(adj)
    for x, row in zip(vector, adj):
        if x:
            for i, a in enumerate(row):
                image[i] += x * a
    return kappa, image


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


def spanning_tree_count(g: Graph) -> int:
    """Number of spanning trees: kappa = det L0, read off the cached
    `critical_group` computation, whose certificate checks that the
    invariant factors multiply to kappa."""
    require_connected(g, "spanning_tree_count")
    return _certified_group(g).order


@lru_cache(maxsize=CACHED_GRAPHS)
def _certified_group(g: Graph | SignedGraph) -> AbelianGroup:
    lap = laplacian(g)
    if isinstance(g, Graph):
        if g.n == 1:
            return AbelianGroup(())
        lap = IntMatrix.from_rows(row[:-1] for row in lap.entries[:-1])
    rows = unit_pivot_core(lap)
    if not rows:
        return AbelianGroup(())
    core = IntMatrix.from_rows(rows)
    kappa = abs(determinant(core))
    if not kappa:
        if isinstance(g, SignedGraph):
            raise StructureError("balanced signed graph: the Laplacian cokernel is infinite")
        raise InternalCheckError("grounded Laplacian of a connected graph is singular")
    try:
        modulus = _two_eigenvalue_case(g)[1].eigenvalue_product
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

    The smallest t with t * d0 in the lattice of L0 makes t * A d0 / kappa
    integral, so the order is kappa / gcd(kappa, A d0). For an unsigned
    graph the grounded equation is the only one left once d sums to zero.
    """
    vector = list(vector)
    if len(vector) != g.n:
        raise GraphError(f"vector length {len(vector)} != n = {g.n}")
    if isinstance(g, Graph) and sum(vector) != 0:
        raise GraphError("unsigned critical group classes need sum-zero vectors")
    require_connected(g, "element_order")
    kappa, image = grounded_potential(g, vector)
    return kappa // gcd(kappa, *image)


# ---------------------------------------------------------------------------
# Order-achieving decompositions


@dataclass(frozen=True)
class Decomposition:
    """An exact identity  sum_x coefficients[x] * L_x == order * target,
    where L_x are Laplacian rows of `graph` (the input after any
    normalizing switching) and target is e_u - e_v, or e_u + e_v in the
    signed complete case.

    Scaling down by the gcd of the coefficients in a row basis gives the
    exact order of the target class, which the identity bounds by `order`.
    """

    case: str
    graph: Graph | SignedGraph
    edge: tuple[int, int]
    coefficients: tuple[int, ...]
    order: int
    target: tuple[int, ...]
    switch_set: frozenset[int]
    triangle_vertex: int | None = None


def _two_eigenvalue_case(
    g: Graph | SignedGraph,
) -> tuple[str, TwoEigenvalueParams | SignedTwoEigenvalueParams]:
    """The case name shared by decompositions and exponent reports, with
    the two-eigenvalue parameters of g."""
    if isinstance(g, SignedGraph):
        params = detect_signed_two_eigenvalue(g)
        if params is None:
            raise StructureError("signed graph lacks the two-eigenvalue structure")
        if not params.regular:
            return "signed_two_degree", params
        return ("signed_complete" if g.graph.is_complete() else "signed_regular"), params
    params = detect_two_eigenvalue(g)
    if params is None:
        raise StructureError("graph lacks the two-eigenvalue structure")
    return ("srg" if params.regular else "two_degree"), params


def decomposition(g: Graph | SignedGraph, edge: tuple[int, int]) -> Decomposition:
    """Explicit row combination showing order * target lies in the
    Laplacian row lattice.

    The two distinct non-zero eigenvalues theta1, theta2 of the Laplacian L
    satisfy (L - theta1)(L - theta2) target = 0, so the coefficients
    c = (theta1 + theta2) target - L target give L c = theta1 theta2 target.
    The edge (a, b) is taken ascending, or lower degree first in the
    two-degree cases. A signed graph is first switched so that (a, b) is
    positive, or, in the complete case, the unique negative edge of the
    first unbalanced triangle (a, b, w); there the target is e_a + e_b.
    The identity is re-verified exactly before the result is returned.
    """
    u, v = edge
    a, b = edge_key(u, v)
    base = g.graph if isinstance(g, SignedGraph) else g
    if (a, b) not in base.edges:
        raise GraphError(f"({u},{v}) is not an edge")
    case, params = _two_eigenvalue_case(g)
    if not params.regular:
        if base.degree(a) == base.degree(b):
            raise StructureError("decomposition needs an edge joining the two degree classes")
        if base.degree(a) > base.degree(b):
            a, b = b, a
    target = list(edge_difference(g, a, b))
    switch_set = frozenset()
    third = None
    if case == "signed_complete":
        third = next(
            (w for w in g.vertices()
             if w not in (a, b) and g.sign(a, b) * g.sign(a, w) * g.sign(b, w) == -1),
            None,
        )
        if third is None:
            raise StructureError(
                f"every triangle through edge ({a},{b}) is balanced; "
                "the signed complete decomposition needs an unbalanced one"
            )
        switch_set = odd_triangle_switch(g, a, b, third)
        target[b - 1] = 1
    elif isinstance(g, SignedGraph) and g.sign(a, b) == -1:
        switch_set = frozenset({b})
    work = switch(g, switch_set) if switch_set else g
    lap = laplacian(work)
    coefficients = [params.eigenvalue_sum * t - x for t, x in zip(target, lap.mul_vec(target))]
    # lap is symmetric, so combining its rows is multiplying by it
    if lap.mul_vec(coefficients) != [params.eigenvalue_product * t for t in target]:
        raise InternalCheckError(
            f"decomposition identity failed for case {case} at edge {(a, b)}"
        )
    return Decomposition(
        case=case,
        graph=work,
        edge=(a, b),
        coefficients=tuple(coefficients),
        order=params.eigenvalue_product,
        target=tuple(target),
        switch_set=switch_set,
        triangle_vertex=third,
    )


# ---------------------------------------------------------------------------
# Witnesses


@dataclass(frozen=True)
class Witnesses:
    """Coefficient witnesses of a decomposition.

    zero_vertex: a vertex besides the edge endpoints whose coefficient is
    zero, so the remaining rows form a basis directly (unsigned only).
    unit_vertex: a vertex besides the endpoints whose coefficient is +-1
    in that basis, certifying that the basis gcd is 1.
    eliminated_vertex: when no zero_vertex exists, the vertex eliminated
    through sum(L_x) = 0 to reach a basis.
    basis_gcd: gcd of the coefficients in the chosen row basis; the exact
    order of the decomposition target is order / basis_gcd.

    Missing witnesses are legitimate and mark the exceptional families.
    """

    zero_vertex: int | None
    unit_vertex: int | None
    eliminated_vertex: int | None
    basis_gcd: int
    basis_coefficients: tuple[int, ...]


def witnesses(g: Graph | SignedGraph, edge: tuple[int, int], dec: Decomposition | None = None) -> Witnesses:
    if dec is None:
        dec = decomposition(g, edge)
    a, b = dec.edge
    coeff = dec.coefficients
    n = len(coeff)

    if isinstance(dec.graph, SignedGraph):
        # full-rank rows: already a basis
        unit = next(
            (x for x in range(1, n + 1) if x not in (a, b) and abs(coeff[x - 1]) == 1),
            None,
        )
        basis = coeff
        g0 = reduce(gcd, (abs(c) for c in basis), 0)
        return Witnesses(None, unit, None, g0, basis)

    zero = next(
        (x for x in range(1, n + 1) if x not in (a, b) and coeff[x - 1] == 0),
        None,
    )
    if zero is not None:
        basis = coeff
        eliminated = None
    else:
        # rows satisfy sum(L_x) = 0; eliminate the least third vertex
        eliminated = next(x for x in range(1, n + 1) if x not in (a, b))
        shift = coeff[eliminated - 1]
        basis = tuple(
            c - shift if x != eliminated else 0 for x, c in enumerate(coeff, start=1)
        )
    unit = next(
        (x for x in range(1, n + 1) if x not in (a, b) and abs(basis[x - 1]) == 1),
        None,
    )
    g0 = reduce(gcd, (abs(c) for c in basis), 0)
    return Witnesses(zero, unit, eliminated, g0, basis)


# ---------------------------------------------------------------------------
# Structural classifiers for the exceptional families


def complete_multipartite_parts(g: Graph) -> list[int] | None:
    """Part sizes if g is complete multipartite (at least two parts),
    else None. Parts are the non-adjacency classes."""
    adj = g.adjacency
    assigned: dict[int, int] = {}
    parts: list[set[int]] = []
    for v in g.vertices():
        if v in assigned:
            continue
        part = {v} | (set(g.vertices()) - adj[v] - {v})
        for w in part:
            if w in assigned:
                return None
            assigned[w] = len(parts)
        parts.append(part)
    for u in g.vertices():
        for v in adj[u]:
            if assigned[u] == assigned[v]:
                return None
    # non-adjacency must be exact: inside a part nothing is adjacent (by
    # construction), across parts everything must be
    expected = sum(
        len(p) * len(q) for i, p in enumerate(parts) for q in parts[i + 1 :]
    )
    if len(g.edges) != expected or len(parts) < 2:
        return None
    return sorted(len(p) for p in parts)


def is_balanced_complete_bipartite(g: Graph) -> bool:
    parts = complete_multipartite_parts(g)
    return parts is not None and len(parts) == 2 and parts[0] == parts[1] and parts[0] >= 2


def is_star(g: Graph) -> bool:
    parts = complete_multipartite_parts(g)
    return parts is not None and len(parts) == 2 and parts[0] == 1 and parts[1] >= 2


# ---------------------------------------------------------------------------
# Theorem verifiers


@dataclass(frozen=True)
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
    exceptional families expecting their adjusted values instead."""
    kind, params = _two_eigenvalue_case(g)
    group = critical_group(g)  # rejects balanced signed graphs
    bound = params.eigenvalue_product
    classification, expected = "match", bound
    if isinstance(g, Graph):
        if is_star(g):
            classification, expected = "exceptional_star", 1
        elif is_balanced_complete_bipartite(g):
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
    if kind == "signed_complete":
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
        kind=kind,
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


@dataclass(frozen=True)
class SpectralBoundReport:
    """Outcome of checking that the group exponent divides the product of
    the distinct non-zero Laplacian eigenvalues."""

    exponent: int
    product: int
    passed: bool


def verify_spectral_bound(g: Graph | SignedGraph) -> SpectralBoundReport:
    """The group exponent must divide the product of the distinct non-zero
    Laplacian eigenvalues (an integer for any graph Laplacian). The
    Laplacian of a single vertex is zero: its group is trivial and the
    empty product is 1."""
    group = critical_group(g)
    lap = laplacian(g)
    if lap.is_zero():
        return SpectralBoundReport(group.exponent, 1, True)
    product = distinct_nonzero_eigenvalue_product(lap)
    if product.denominator != 1 or product <= 0:
        raise InternalCheckError(
            f"distinct eigenvalue product {product} should be a positive integer"
        )
    product = int(product)
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
    if not gens or not factors:
        return AbelianGroup(())
    e = group.exponent
    scaled = IntMatrix.from_rows([x * (e // d) for x, d in zip(v, factors)] for v in gens)
    return AbelianGroup.from_diagonal(sorted(e // s for s in smith_diagonal(scaled, e)))
