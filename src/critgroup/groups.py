"""Critical groups, order-achieving decompositions, and exponent verifiers.

The critical group of a connected graph is the torsion part of the integer
cokernel of its Laplacian; for an unbalanced signed graph the cokernel is
already finite and is taken whole. Invariant factors come from the Smith
normal form, orders of cokernel classes from the grounded adjugate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from math import gcd

from .errors import GraphError, InternalCheckError, StructureError
from .graphs import (
    Graph,
    SignedGraph,
    SignedTwoEigenvalueParams,
    TwoEigenvalueParams,
    detect_signed_two_eigenvalue,
    detect_two_eigenvalue,
    edge_key,
    require_connected,
    switch,
)
from .linalg import IntMatrix, SnfResult, adjugate, determinant, laplacian, smith_normal_form


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


@lru_cache(maxsize=None)
def laplacian_snf(g: Graph | SignedGraph) -> SnfResult:
    return smith_normal_form(laplacian(g))


@lru_cache(maxsize=None)
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
    """Invariant factors of the critical group.

    Unsigned: the Laplacian of a connected graph has corank exactly one;
    the zero is dropped along with the unit factors. Signed: the group is
    finite iff the graph is unbalanced, so a singular signed Laplacian is
    rejected.
    """
    require_connected(g, "critical_group")
    diag = laplacian_snf(g).diagonal
    zeros = sum(1 for d in diag if d == 0)
    if isinstance(g, SignedGraph):
        if zeros:
            raise StructureError(
                "balanced signed graph: the Laplacian cokernel is infinite"
            )
    elif zeros != 1:
        raise InternalCheckError(
            f"connected Laplacian should have corank 1, diagonal {diag}"
        )
    return AbelianGroup.from_diagonal(diag)


def spanning_tree_count(g: Graph) -> int:
    """Number of spanning trees, as the principal Laplacian cofactor."""
    require_connected(g, "spanning_tree_count")
    if g.n == 1:
        return 1
    m = laplacian(g)
    minor = [row[1:] for row in m.entries[1:]]
    count = determinant(IntMatrix.from_rows(minor))
    if count <= 0:
        raise InternalCheckError(f"non-positive spanning tree count {count}")
    return count


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


def _verify_decomposition(dec: Decomposition) -> None:
    lap = laplacian(dec.graph)
    combo = lap.mul_vec(list(dec.coefficients))  # symmetric, so rows == columns
    want = [dec.order * t for t in dec.target]
    if combo != want:
        raise InternalCheckError(
            f"decomposition identity failed for case {dec.case} at edge {dec.edge}"
        )


def _unsigned_decomposition(g: Graph, u: int, v: int, params: TwoEigenvalueParams) -> Decomposition:
    adj = g.adjacency
    coeff = [0] * g.n
    if params.regular:
        case = "srg"
        srg = params.srg
        weight = srg.k + srg.mu - srg.lam - 1
        a, b = (u, v) if u < v else (v, u)
        coeff[a - 1] += weight
        coeff[b - 1] -= weight
    else:
        case = "two_degree"
        if g.degree(u) == g.degree(v):
            raise StructureError(
                "decomposition needs an edge joining the two degree classes"
            )
        a, b = (u, v) if g.degree(u) < g.degree(v) else (v, u)
        coeff[a - 1] += params.k2
        coeff[b - 1] -= params.k1
    for w in adj[a] - {b}:
        coeff[w - 1] += 1
    for w in adj[b] - {a}:
        coeff[w - 1] -= 1
    return Decomposition(
        case=case,
        graph=g,
        edge=(a, b),
        coefficients=tuple(coeff),
        order=params.eigenvalue_product,
        target=edge_difference(g, a, b),
        switch_set=frozenset(),
    )


def _signed_regular_decomposition(
    gs: SignedGraph, u: int, v: int, params: SignedTwoEigenvalueParams
) -> Decomposition:
    a, b = (u, v) if u < v else (v, u)
    switch_set = frozenset() if gs.sign(a, b) == 1 else frozenset({b})
    work = switch(gs, switch_set) if switch_set else gs
    weight = params.k1 - params.lam - 1
    coeff = [0] * gs.n
    coeff[a - 1] += weight
    coeff[b - 1] -= weight
    adj = gs.graph.adjacency
    for w in adj[a] - {b}:
        coeff[w - 1] += work.sign(a, w)
    for w in adj[b] - {a}:
        coeff[w - 1] -= work.sign(b, w)
    return Decomposition(
        case="signed_regular",
        graph=work,
        edge=(a, b),
        coefficients=tuple(coeff),
        order=params.eigenvalue_product,
        target=edge_difference(gs, a, b),
        switch_set=switch_set,
    )


def _signed_complete_decomposition(
    gs: SignedGraph, u: int, v: int, params: SignedTwoEigenvalueParams
) -> Decomposition:
    a, b = (u, v) if u < v else (v, u)
    third = None
    for w in gs.vertices():
        if w in (a, b):
            continue
        if gs.sign(a, b) * gs.sign(a, w) * gs.sign(b, w) == -1:
            third = w
            break
    if third is None:
        raise StructureError(
            f"every triangle through edge ({a},{b}) is balanced; "
            "the signed complete decomposition needs an unbalanced one"
        )
    # switch inside {a, b, third} so (a,b) is the triangle's unique negative edge
    pattern = (gs.sign(a, b), gs.sign(a, third), gs.sign(b, third))
    switch_set = {
        (-1, 1, 1): frozenset(),
        (1, -1, 1): frozenset({a}),
        (1, 1, -1): frozenset({b}),
        (-1, -1, -1): frozenset({third}),
    }[pattern]
    work = switch(gs, switch_set) if switch_set else gs
    weight = params.k1 - params.lam - 1
    coeff = [0] * gs.n
    coeff[a - 1] += weight
    coeff[b - 1] += weight
    adj = gs.graph.adjacency
    for w in adj[a] - {b}:
        coeff[w - 1] += work.sign(a, w)
    for w in adj[b] - {a}:
        coeff[w - 1] += work.sign(b, w)
    target = [0] * gs.n
    target[a - 1] = 1
    target[b - 1] = 1
    return Decomposition(
        case="signed_complete",
        graph=work,
        edge=(a, b),
        coefficients=tuple(coeff),
        order=params.eigenvalue_product,
        target=tuple(target),
        switch_set=switch_set,
        triangle_vertex=third,
    )


def _signed_two_degree_decomposition(
    gs: SignedGraph, u: int, v: int, params: SignedTwoEigenvalueParams
) -> Decomposition:
    g = gs.graph
    if g.degree(u) == g.degree(v):
        raise StructureError("decomposition needs an edge joining the two degree classes")
    a, b = (u, v) if g.degree(u) < g.degree(v) else (v, u)
    switch_set = frozenset() if gs.sign(a, b) == 1 else frozenset({b})
    work = switch(gs, switch_set) if switch_set else gs
    coeff = [0] * gs.n
    coeff[a - 1] += params.k2
    coeff[b - 1] -= params.k1
    adj = g.adjacency
    for w in adj[a] - {b}:
        coeff[w - 1] += work.sign(a, w)
    for w in adj[b] - {a}:
        coeff[w - 1] -= work.sign(b, w)
    return Decomposition(
        case="signed_two_degree",
        graph=work,
        edge=(a, b),
        coefficients=tuple(coeff),
        order=params.eigenvalue_product,
        target=edge_difference(gs, a, b),
        switch_set=switch_set,
    )


def decomposition(g: Graph | SignedGraph, edge: tuple[int, int]) -> Decomposition:
    """Explicit row combination showing order * target lies in the
    Laplacian row lattice. The identity is re-verified exactly before the
    result is returned."""
    u, v = edge
    e = edge_key(u, v)
    if isinstance(g, SignedGraph):
        if e not in g.graph.edges:
            raise GraphError(f"({u},{v}) is not an edge")
        params = detect_signed_two_eigenvalue(g)
        if params is None:
            raise StructureError("signed graph lacks the two-eigenvalue structure")
        if params.case == "regular":
            if g.graph.is_complete():
                dec = _signed_complete_decomposition(g, u, v, params)
            else:
                dec = _signed_regular_decomposition(g, u, v, params)
        else:
            dec = _signed_two_degree_decomposition(g, u, v, params)
    else:
        if e not in g.edges:
            raise GraphError(f"({u},{v}) is not an edge")
        params = detect_two_eigenvalue(g)
        if params is None:
            raise StructureError("graph lacks the two-eigenvalue structure")
        dec = _unsigned_decomposition(g, u, v, params)
    _verify_decomposition(dec)
    return dec


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


def _edge_order_scan(g: Graph | SignedGraph) -> tuple[int, tuple[int, int] | None]:
    best = 0
    best_edge = None
    edges = g.sorted_edges()
    for u, v in edges:
        order = element_order(g, edge_difference(g, u, v))
        if order > best:
            best, best_edge = order, (u, v)
    return best, best_edge


def verify_exponent_theorem(g: Graph | SignedGraph) -> ExponentReport:
    """Check that the critical group exponent equals the product of the two
    distinct non-zero Laplacian eigenvalues, with the two unsigned
    exceptional families expecting their adjusted values instead."""
    if isinstance(g, SignedGraph):
        params = detect_signed_two_eigenvalue(g)
        if params is None:
            raise StructureError("signed graph lacks the two-eigenvalue structure")
        group = critical_group(g)  # rejects balanced graphs
        bound = params.eigenvalue_product
        max_order, max_edge = _edge_order_scan(g)
        half_even = None
        if params.case == "regular" and g.graph.is_complete():
            kind = "signed_complete"
            half_even = bound % 2 == 0
            # order bound for e_u comes from averaging three edge identities,
            # which needs bound/2 to be integral
            achieved = None
            for u in g.vertices():
                if element_order(g, vertex_indicator(g, u)) == bound:
                    achieved = ("vertex_class", (u,))
                    break
        else:
            kind = "signed_regular" if params.case == "regular" else "signed_two_degree"
            achieved = None
            for u, v in g.sorted_edges():
                if element_order(g, edge_difference(g, u, v)) == bound:
                    achieved = ("edge_difference", (u, v))
                    break
        expected = bound
        return ExponentReport(
            kind=kind,
            classification="match",
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

    params = detect_two_eigenvalue(g)
    if params is None:
        raise StructureError("graph lacks the two-eigenvalue structure")
    group = critical_group(g)
    bound = params.eigenvalue_product
    if is_star(g):
        classification = "exceptional_star"
        expected = 1
    elif is_balanced_complete_bipartite(g):
        classification = "exceptional_complete_bipartite"
        if bound % 2:
            raise InternalCheckError("complete bipartite bound should be even")
        expected = bound // 2
    else:
        classification = "match"
        expected = bound
    max_order, max_edge = _edge_order_scan(g)
    achieved = None
    for u, v in g.sorted_edges():
        if element_order(g, edge_difference(g, u, v)) == group.exponent:
            achieved = ("edge_difference", (u, v))
            break
    return ExponentReport(
        kind="srg" if params.regular else "two_degree",
        classification=classification,
        spectral_bound=bound,
        expected_exponent=expected,
        exponent=group.exponent,
        matched=group.exponent == expected,
        group=group,
        max_edge_order=max_order,
        max_edge=max_edge,
        achieving_element=achieved,
    )


def verify_spectral_bound(g: Graph | SignedGraph) -> bool:
    """The group exponent must divide the product of the distinct non-zero
    Laplacian eigenvalues (an integer for any graph Laplacian)."""
    from .linalg import distinct_nonzero_eigenvalue_product

    group = critical_group(g)
    product = distinct_nonzero_eigenvalue_product(laplacian(g))
    if product.denominator != 1 or product <= 0:
        raise InternalCheckError(
            f"distinct eigenvalue product {product} should be a positive integer"
        )
    return int(product) % group.exponent == 0


# ---------------------------------------------------------------------------
# Subgroups


def subgroup_invariant_factors(group: AbelianGroup, generators) -> AbelianGroup:
    """Invariant factors of the subgroup generated by the given coordinate
    vectors inside the direct sum of Z/d for d in group.invariant_factors.

    The subgroup is Z^g modulo the lattice of coefficient vectors that die
    in the ambient group; that lattice is read off a Smith computation.
    """
    d = len(group.invariant_factors)
    gens = [list(v) for v in generators]
    if not gens:
        return AbelianGroup(())
    if any(len(v) != d for v in gens):
        raise GraphError("generator length does not match the number of factors")
    g = len(gens)
    rows = gens + [
        [group.invariant_factors[i] if j == i else 0 for j in range(d)] for i in range(d)
    ]
    stacked = smith_normal_form(IntMatrix.from_rows(rows))
    if stacked.rank != d:
        raise InternalCheckError("relation stack lost rank")
    relation_rows = [stacked.U.row(i)[:g] for i in range(d, g + d)]
    relations = smith_normal_form(IntMatrix.from_rows(relation_rows))
    diag = relations.diagonal
    if len(diag) != g or any(x == 0 for x in diag):
        raise InternalCheckError("subgroup of a finite group must be finite")
    return AbelianGroup.from_diagonal(diag)
