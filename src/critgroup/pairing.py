"""Monodromy pairing on critical groups, orthogonal edge sets, and the
tail-heavy subgroup verifier.

The pairing of two classes [D], [D2] is D2.f mod 1 where L f = D; with the
last vertex grounded, f0 = A D0 / kappa for the grounded adjugate A. It is
well-defined, bilinear, and symmetric, and for strongly regular graphs it
has a closed form read off the order-achieving decomposition coefficients.
A set of edges whose classes e_u - e_v pairwise pair to zero forces a
tail-heavy subgroup: one factor of the full spectral bound plus copies of
the self-pairing denominator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import floor, gcd

from .errors import GraphError, InternalCheckError, StructureError
from .graphs import Graph, SignedGraph, SrgParameters, detect_srg, edge_key, require_connected
from .groups import (
    AbelianGroup,
    critical_group,
    decomposition,
    element_order,
    grounded_adjugate,
    grounded_potential,
    is_balanced_complete_bipartite,
)


@dataclass(frozen=True)
class PairingValue:
    """Canonical representative of a pairing value: an exact fraction
    reduced to lowest terms in [0, 1)."""

    value: Fraction

    def __post_init__(self):
        if not 0 <= self.value < 1:
            raise GraphError(f"pairing value {self.value} not reduced mod 1")

    @classmethod
    def reduce(cls, value: Fraction, exponent: int | None = None) -> PairingValue:
        canonical = value - floor(value)
        if exponent is not None and exponent % canonical.denominator:
            raise InternalCheckError(
                f"pairing denominator {canonical.denominator} does not divide "
                f"the group exponent {exponent}"
            )
        return cls(canonical)

    def is_zero(self) -> bool:
        return self.value == 0

    def __str__(self) -> str:
        return f"{self.value.numerator}/{self.value.denominator}"


def _require_unsigned(g, what: str) -> None:
    if isinstance(g, SignedGraph):
        raise StructureError(f"{what} is defined for unsigned graphs only")


def monodromy_pairing(g: Graph, d, d2, m: int | None = None) -> PairingValue:
    """Pairing of the classes of the sum-zero vectors d and d2: d2 . A d0
    / kappa mod 1 for the grounded adjugate A.

    m must be a positive multiple of the order of [d] and defaults to the
    group exponent; it enters only the check that m * A d0 / kappa is an
    integer potential, so every valid m gives the same value.
    """
    _require_unsigned(g, "the monodromy pairing")
    require_connected(g, "monodromy_pairing")
    d = list(d)
    d2 = list(d2)
    for name, vec in (("first", d), ("second", d2)):
        if len(vec) != g.n:
            raise GraphError(f"{name} vector length {len(vec)} != n = {g.n}")
        if sum(vec) != 0:
            raise GraphError(f"{name} vector must have zero coordinate sum")
    group = critical_group(g)
    if m is None:
        m = group.exponent
    else:
        if m <= 0:
            raise GraphError(f"m must be positive, got {m}")
        if m % element_order(g, d):
            raise GraphError(f"m = {m} does not annihilate the first class")
    kappa, image = grounded_potential(g, d)
    if any(m * x % kappa for x in image):
        raise InternalCheckError("annihilated classes admit integer potentials")
    numerator = sum(x * y for x, y in zip(d2, image))
    return PairingValue.reduce(Fraction(numerator, kappa), exponent=group.exponent)


def _closed_form_params(g: Graph) -> SrgParameters:
    _require_unsigned(g, "closed-form pairing")
    params = detect_srg(g)
    if params is None:
        raise StructureError("closed-form pairing needs a strongly regular graph")
    if g.is_complete() or is_balanced_complete_bipartite(g):
        raise StructureError(
            "closed-form pairing excludes complete and balanced complete "
            "bipartite graphs"
        )
    return params


def edge_pairing_closed_form(g: Graph, e1: tuple[int, int], e2: tuple[int, int]) -> PairingValue:
    """Pairing of the edge classes e_u - e_v and e_x - e_y (endpoints taken
    in ascending order), read off the decomposition coefficients of e1: the
    coefficient at x minus the coefficient at y, divided by the order bound.
    Only the adjacency pattern among the four endpoints enters."""
    params = _closed_form_params(g)
    u, v = edge_key(*e1)
    x, y = edge_key(*e2)
    for a, b in ((u, v), (x, y)):
        if (a, b) not in g.edges:
            raise GraphError(f"({a},{b}) is not an edge")
    coeff = decomposition(g, (u, v)).coefficients
    value = Fraction(coeff[x - 1] - coeff[y - 1], params.eigenvalue_product)
    return PairingValue.reduce(value)


def self_pairing_denominator(params: SrgParameters) -> int:
    """Denominator of the self-pairing 2(n-1)/(kn) of any edge class. It
    always exceeds 1 and divides the product of the two distinct non-zero
    Laplacian eigenvalues."""
    n, k = params.n, params.k
    eta = k * n // gcd(2 * (n - 1), k * n)
    if eta <= 1:
        raise InternalCheckError(f"self-pairing denominator {eta} should exceed 1")
    if params.eigenvalue_product % eta:
        raise InternalCheckError(
            f"denominator {eta} should divide {params.eigenvalue_product}"
        )
    return eta


# ---------------------------------------------------------------------------
# Orthogonal edge sets


@dataclass(frozen=True)
class OrthogonalSet:
    """Edges whose classes e_u - e_v pairwise pair to zero, with the
    pairwise values as certificate."""

    edges: tuple[tuple[int, int], ...]
    certificate: tuple[tuple[tuple[int, int], tuple[int, int], PairingValue], ...]

    def __post_init__(self):
        if any(not entry[2].is_zero() for entry in self.certificate):
            raise InternalCheckError("orthogonality certificate has a non-zero value")

    @property
    def size(self) -> int:
        return len(self.edges)


def _pairing_table(g: Graph) -> tuple[list[tuple[int, int]], list[list[Fraction]]]:
    """All pairwise pairing values between edge classes, by edge index in
    lexicographic order. With A the grounded adjugate, edge (u, v) has
    w = A (e_u - e_v)0 = A[u] - A[v], and pairs with edge (x, y) to
    (w_x - w_y) / kappa mod 1; the grounded vertex has a zero row and entry."""
    edges = g.sorted_edges()
    exponent = critical_group(g).exponent
    kappa, adj = grounded_adjugate(g)
    rows = [*adj, (0,) * (g.n - 1)]
    table = []
    for u, v in edges:
        w = [a - b for a, b in zip(rows[u - 1], rows[v - 1])] + [0]
        table.append([Fraction((w[x - 1] - w[y - 1]) % kappa, kappa) for x, y in edges])
    if any(exponent % value.denominator for row in table for value in row):
        raise InternalCheckError("a pairing denominator does not divide the group exponent")
    return edges, table


def _clique_matching_hints(g: Graph) -> list[list[int]]:
    """Matchings inside greedily grown cliques, as edge index lists."""
    edges = g.sorted_edges()
    index = {e: i for i, e in enumerate(edges)}
    adj = g.adjacency
    hints = []
    for start in g.vertices():
        clique = [start]
        for w in g.vertices():
            if w != start and all(w in adj[c] for c in clique):
                clique.append(w)
        matching = [
            index[edge_key(clique[i], clique[i + 1])]
            for i in range(0, len(clique) - 1, 2)
        ]
        if len(matching) >= 2:
            hints.append(matching)
    return hints


def _induced_matching_hint(g: Graph) -> list[int]:
    """Greedy induced matching: chosen edges share no vertices and no
    cross edges, so they induce a 1-regular subgraph."""
    edges = g.sorted_edges()
    adj = g.adjacency
    chosen: list[int] = []
    used: set[int] = set()
    for i, (u, v) in enumerate(edges):
        if u in used or v in used:
            continue
        if any(w in adj[u] or w in adj[v] for w in used):
            continue
        chosen.append(i)
        used.update((u, v))
    return chosen


def _triangle_chain_hint(g: Graph) -> list[int]:
    """Matching along a greedily grown induced chain of triangles: triangles
    T_i = {u_i, v_i, w_i} sharing only the consecutive vertices w_i = u_{i+1},
    with no other edges among the chain vertices. The edges (u_i, v_i) of
    such a chain pair to zero."""
    edges = g.sorted_edges()
    index = {e: i for i, e in enumerate(edges)}
    adj = g.adjacency

    def induced_ok(vertices: list[int], allowed: set[tuple[int, int]]) -> bool:
        for i, a in enumerate(vertices):
            for b in vertices[i + 1 :]:
                if edge_key(a, b) in g.edges and edge_key(a, b) not in allowed:
                    return False
        return True

    best: list[int] = []
    for u0, v0 in edges:
        for w0 in sorted(adj[u0] & adj[v0]):
            chain = [u0, v0, w0]
            allowed = {edge_key(u0, v0), edge_key(u0, w0), edge_key(v0, w0)}
            matching = [index[edge_key(u0, v0)]]
            tail = w0
            grown = True
            while grown:
                grown = False
                for v in sorted(adj[tail]):
                    if v in chain:
                        continue
                    for w in sorted(adj[tail] & adj[v]):
                        if w in chain:
                            continue
                        trial_allowed = allowed | {
                            edge_key(tail, v), edge_key(tail, w), edge_key(v, w)
                        }
                        if induced_ok(chain + [v, w], trial_allowed):
                            matching.append(index[edge_key(tail, v)])
                            chain.extend((v, w))
                            allowed = trial_allowed
                            tail = w
                            grown = True
                            break
                    if grown:
                        break
            if len(matching) > len(best):
                best = matching
    return best


def _filter_orthogonal(candidate: list[int], masks: list[int]) -> list[int]:
    kept: list[int] = []
    for i in sorted(candidate):
        if all(masks[j] >> i & 1 for j in kept):
            kept.append(i)
    return kept


def _greedy_orthogonal(masks: list[int], count: int, seed: list[int]) -> list[int]:
    chosen = list(seed)
    for i in range(count):
        if i in chosen:
            continue
        if all(masks[j] >> i & 1 for j in chosen):
            chosen.append(i)
    return sorted(chosen)


def _color_bound(candidates: int, masks: list[int]) -> int:
    """Greedy coloring of the orthogonality graph restricted to the
    candidate set: the chromatic number bounds the largest clique."""
    colors: list[int] = []  # one mask of members per color class
    rest = candidates
    while rest:
        i = (rest & -rest).bit_length() - 1
        rest &= rest - 1
        for idx, members in enumerate(colors):
            if not members & masks[i]:
                colors[idx] = members | (1 << i)
                break
        else:
            colors.append(1 << i)
    return len(colors)


def _max_orthogonal(masks: list[int], count: int) -> list[int]:
    """Lexicographically least maximum clique of the orthogonality graph.

    Include-first depth-first search in index order with strict size
    improvement visits candidate sets in lexicographic order, so the first
    clique of each new record size is the lexicographically least of that
    size; popcount and coloring bounds only prune subtrees that cannot
    strictly improve."""
    best: list[int] = []
    best_size = 0

    def dfs(current: list[int], candidates: int) -> None:
        nonlocal best, best_size
        if not candidates:
            if len(current) > best_size:
                best = list(current)
                best_size = len(current)
            return
        if len(current) + candidates.bit_count() <= best_size:
            return
        if len(current) + _color_bound(candidates, masks) <= best_size:
            return
        rest = candidates
        while rest:
            i = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            if len(current) + 1 + rest.bit_count() <= best_size:
                break
            current.append(i)
            dfs(current, rest & masks[i])
            current.pop()
    dfs([], (1 << count) - 1)
    if count and not best:  # without edges the empty set is the maximum
        raise InternalCheckError("orthogonal search returned no edge of a non-empty graph")
    return best


def orthogonal_subset(g: Graph, mode: str = "exact", structural_hints: bool = True) -> OrthogonalSet:
    """Orthogonal edge set: maximum (exact mode, branch and bound over the
    orthogonality graph, lexicographically least among maximums) or maximal
    (greedy mode, lexicographic scan). Structural hints seed the greedy scan
    with clique matchings, induced matchings, and triangle-chain matchings;
    exact mode builds none, as its result does not depend on a seed."""
    _require_unsigned(g, "orthogonal edge search")
    require_connected(g, "orthogonal_subset")
    if mode not in ("exact", "greedy"):
        raise GraphError(f"mode must be exact or greedy, got {mode!r}")
    edges, table = _pairing_table(g)
    count = len(edges)
    masks = [0] * count
    for i in range(count):
        for j in range(count):
            if i != j and table[i][j] == 0:
                masks[i] |= 1 << j

    if mode == "greedy":
        hint_sets: list[list[int]] = []
        if structural_hints:
            hint_sets.extend(_clique_matching_hints(g))
            hint_sets.append(_induced_matching_hint(g))
            hint_sets.append(_triangle_chain_hint(g))
        filtered = [_filter_orthogonal(h, masks) for h in hint_sets]
        chosen = _greedy_orthogonal(masks, count, max(filtered, key=len, default=[]))
    else:
        chosen = _max_orthogonal(masks, count)

    chosen_edges = tuple(edges[i] for i in chosen)
    certificate = tuple(
        (edges[i], edges[j], PairingValue(table[i][j]))
        for pos, i in enumerate(chosen)
        for j in chosen[pos + 1 :]
    )
    return OrthogonalSet(edges=chosen_edges, certificate=certificate)


# ---------------------------------------------------------------------------
# Tail-heavy subgroup verification


def subgroup_bound(params: SrgParameters, r: int) -> AbelianGroup:
    """Invariant factors of the subgroup forced by an orthogonal set of r
    edges: r - 1 copies of the self-pairing denominator below one full
    spectral bound."""
    if r < 1:
        raise GraphError(f"need r >= 1, got {r}")
    if params.mu < 1:
        raise GraphError("subgroup bound needs a non-complete strongly regular graph")
    eta = self_pairing_denominator(params)
    return AbelianGroup((eta,) * (r - 1) + (params.eigenvalue_product,))


def check_subgroup_divisibility(h: AbelianGroup, g: AbelianGroup) -> bool:
    """Necessary condition for h to embed in g: h has at most as many
    invariant factors, and aligned at the tail each factor of h divides the
    corresponding factor of g."""
    hf = h.invariant_factors
    gf = g.invariant_factors
    if len(hf) > len(gf):
        return False
    offset = len(gf) - len(hf)
    return all(gf[offset + i] % hf[i] == 0 for i in range(len(hf)))


@dataclass(frozen=True)
class TailHeavyReport:
    """Outcome of the tail-heavy subgroup check on a strongly regular graph.

    The verifier tests the necessary divisibility condition of the predicted
    subgroup against the computed group rather than exhibiting an embedding,
    which suffices to falsify. strong_pattern records whether the tail even
    consists of full spectral-bound factors."""

    params: SrgParameters
    denominator: int
    orthogonal_set: OrthogonalSet
    predicted: AbelianGroup
    group: AbelianGroup
    divisibility_ok: bool
    strong_pattern: bool

    @property
    def size(self) -> int:
        return self.orthogonal_set.size

    @property
    def passed(self) -> bool:
        return self.divisibility_ok


def verify_tail_heavy(g: Graph, mode: str = "exact") -> TailHeavyReport:
    params = _closed_form_params(g)
    orth = orthogonal_subset(g, mode=mode, structural_hints=True)
    r = orth.size
    predicted = subgroup_bound(params, r)
    group = critical_group(g)
    bound = params.eigenvalue_product
    factors = group.invariant_factors
    strong = len(factors) >= r and all(f == bound for f in factors[-r:])
    return TailHeavyReport(
        params=params,
        denominator=self_pairing_denominator(params),
        orthogonal_set=orth,
        predicted=predicted,
        group=group,
        divisibility_ok=check_subgroup_divisibility(predicted, group),
        strong_pattern=strong,
    )
