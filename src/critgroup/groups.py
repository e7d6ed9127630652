"""Critical groups and exponent verifiers.

The critical group of a connected graph is the torsion part of the integer
cokernel of its Laplacian; for an unbalanced signed graph the cokernel is
already finite and is taken whole. On a graph with a two-eigenvalue
record, re-checked on the graph, the invariant factors are read off the
record; only its bad primes need a Smith diagonal. Other graphs take a
Smith diagonal modulo the spanning-tree count of the core left by
unit-pivot elimination. The exponent verifier reads element orders off the
potential table of `monodromy.grounded_inverse`, whose exponent comes from
a second method and must agree with the group's.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import count
from math import gcd, isqrt, prod
from operator import sub

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

linalg, monodromy, spectrum = map(_lazy_module, ("linalg", "monodromy", "spectrum"))


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
        return prod(self.invariant_factors)

    @property
    def exponent(self) -> int:
        return self.invariant_factors[-1] if self.invariant_factors else 1

    def is_trivial(self) -> bool:
        return not self.invariant_factors


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
    params = detect_two_eigenvalue(g)
    if params is not None:
        kappa, diag = _record_diagonal(g, params)
    else:
        lap = linalg._grounded_laplacian(g)
        core = linalg.unit_pivot_core(lap) if lap else []
        if not core:  # one vertex, or every row eliminated on a unit pivot
            return AbelianGroup(())
        kappa = abs(linalg.determinant(core))
        if not kappa:
            if isinstance(g, SignedGraph):
                raise StructureError("balanced signed graph: the Laplacian cokernel is infinite")
            raise InternalCheckError("grounded Laplacian of a connected graph is singular")
        diag = linalg.smith_diagonal(core, kappa)
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
        lap = linalg._grounded_laplacian(g)
        diag = linalg.smith_diagonal(lap, modulus)
        for q in bad:  # q divides as many factors as the rank of L0 drops modulo q
            if sum(1 for d in diag if d % q == 0) != linalg.smith_diagonal(lap, q).count(q):
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
    expecting their adjusted values instead. The exponent of the invariant
    factors and the one of `monodromy.grounded_inverse` come from two
    methods and must agree, else InternalCheckError."""
    if isinstance(g, Graph) and g.is_complete():
        raise StructureError("complete graphs have a single non-zero eigenvalue")
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
        classification, expected = "exceptional_complete_bipartite", bound // 2
    exponent, rows = monodromy.grounded_inverse(g)
    if exponent != group.exponent:
        raise InternalCheckError(f"exponent {exponent} of L0^-1 disagrees with the group {group}")
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
        exponent=exponent,
        matched=exponent == expected,
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
    """The group exponent must divide D, the product of the distinct
    non-zero Laplacian eigenvalues, an integer for any graph Laplacian. On
    a graph with a record D is its eigenvalue product p, the product of
    its two distinct eigenvalues; `critical_group` has rejected p = 0 and
    non-integral multiplicities. Otherwise `spectrum._distinct_product`
    gives D. A single vertex has none: the empty product is 1."""
    group = critical_group(g)
    params = detect_two_eigenvalue(g)
    product = params.eigenvalue_product if params is not None else spectrum._distinct_product(g, group.order)
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
    return AbelianGroup.from_diagonal(sorted(e // s for s in linalg.smith_diagonal(scaled, e)))
