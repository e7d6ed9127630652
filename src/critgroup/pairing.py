"""Monodromy pairing on critical groups, orthogonal edge sets, and the
tail-heavy subgroup verifier.

The pairing of two classes [D], [D2] is D2.f mod 1 where L f = D; with the
last vertex grounded, f0 = X D0 / E for X = E L0^-1 and E the group
exponent (`groups.grounded_inverse`). It is well-defined, bilinear, and
symmetric; a value is kept as a reduced residue a/m mod 1
(`PairingValue.of`). The paper's closed form on the edge classes of a
strongly regular graph, read off the order-achieving decomposition, is a
test oracle (tests/conftest.py); `_closed_form_params` says where it holds.
A set of edges whose classes e_u - e_v pairwise pair to zero forces a
tail-heavy subgroup: one factor of the full spectral bound plus copies of
the self-pairing denominator.
"""

from __future__ import annotations

from collections.abc import Iterable
from math import gcd

from .errors import GraphError, InternalCheckError, StructureError, _record
from .graphs import (
    Graph,
    SignedGraph,
    TwoEigenvalueParams,
    detect_two_eigenvalue,
    edge_key,
    require_connected,
)
from .groups import (
    AbelianGroup,
    _grounded_image,
    critical_group,
    element_order,
    grounded_inverse,
)


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


def monodromy_pairing(g: Graph, d, d2, m: int | None = None) -> PairingValue:
    """Pairing of the classes of the sum-zero vectors d and d2: d2 . X d0
    / E mod 1 for X = E L0^-1, E the group exponent.

    m must be a positive multiple of the order of [d] and defaults to the
    group exponent; it enters only the check that m * X d0 / E is an
    integer potential, so every valid m gives the same value.
    """
    _require_unsigned(g, "the monodromy pairing")
    require_connected(g, "monodromy_pairing")
    d = list(d)
    d2 = list(d2)
    for name, vec in (("first", d), ("second", d2)):
        if len(vec) != g.n:
            raise GraphError(f"{name} vector length {len(vec)} != n = {g.n}")
        if any(type(x) is not int for x in vec):
            raise GraphError(f"{name} vector coordinates must be integers")
        if sum(vec) != 0:
            raise GraphError(f"{name} vector must have zero coordinate sum")
    exponent, inverse = grounded_inverse(g)
    if m is None:
        m = exponent
    else:
        if type(m) is not int or m <= 0:
            raise GraphError(f"m must be a positive integer, got {m}")
        if m % element_order(g, d):
            raise GraphError(f"m = {m} does not annihilate the first class")
    image = _grounded_image(inverse, d)
    if any(m * x % exponent for x in image):
        raise InternalCheckError("annihilated classes admit integer potentials")
    numerator = sum(x * y for x, y in zip(d2, image))
    return PairingValue.of(numerator, exponent)


def _closed_form_params(g: Graph) -> TwoEigenvalueParams:
    """The strongly regular record of g; StructureError for a signed graph,
    a graph that is not strongly regular, and the complete graphs and
    K_{m,m} that the closed form excludes."""
    _require_unsigned(g, "closed-form pairing")
    params = None if g.is_complete() else detect_two_eigenvalue(g)
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


# ---------------------------------------------------------------------------
# Orthogonal edge sets


@_record
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


def _pairing_table(g: Graph) -> tuple[list[tuple[int, int]], int, list[list[int]]]:
    """(edges, E, table): the edges in lexicographic order, the group
    exponent E, and for each pair of edge indices the numerator a in
    [0, E) of their pairing a / E. With X = E L0^-1, edge (u, v) has
    w = X (e_u - e_v)0 = X[u] - X[v], and pairs with edge (x, y) to
    (w_x - w_y) / E mod 1; the grounded vertex has a zero row and entry."""
    edges = g.sorted_edges()
    exponent, inverse = grounded_inverse(g)
    rows = [*inverse, (0,) * (g.n - 1)]
    ends = [(x - 1, y - 1) for x, y in edges]
    table = []
    for u, v in edges:
        w = [a - b for a, b in zip(rows[u - 1], rows[v - 1])] + [0]
        table.append([(w[x] - w[y]) % exponent for x, y in ends])
    return edges, exponent, table


def _clique_matching_hints(g: Graph) -> list[list[int]]:
    """Matchings inside greedily grown cliques, as edge index lists. Each
    clique takes the least vertex adjacent to all its members, kept as
    their common neighbourhood."""
    edges = g.sorted_edges()
    index = {e: i for i, e in enumerate(edges)}
    adj = g.adjacency
    hints = []
    for start in g.vertices():
        clique = [start]
        common = set(adj[start])
        while common:
            w = min(common)
            clique.append(w)
            common &= adj[w]
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
    adj = g.adjacency
    chosen: list[int] = []
    used: set[int] = set()
    for i, (u, v) in enumerate(g.sorted_edges()):
        if not used & (adj[u] | adj[v] | {u, v}):
            chosen.append(i)
            used.update((u, v))
    return chosen


def _triangle_chain_hint(g: Graph) -> list[int]:
    """Matching along a greedily grown induced chain of triangles: triangles
    T_i = {u_i, v_i, w_i} sharing only the consecutive vertices w_i = u_{i+1},
    with no other edges among the chain vertices. The edges (u_i, v_i) of
    such a chain pair to zero.

    Each step adds the least triangle (tail, v, w) off the chain whose v
    and w have tail as their only chain neighbour. That is the same as
    re-testing every vertex pair of the extended chain: the chain is
    induced before the step, and v and w are adjacent to each other and to
    tail, so only an edge from v or w to another chain vertex can break it."""
    edges = g.sorted_edges()
    index = {e: i for i, e in enumerate(edges)}
    adj = g.adjacency
    best: list[int] = []
    for u0, v0 in edges:
        for w0 in sorted(adj[u0] & adj[v0]):
            chain = {u0, v0, w0}
            matching = [index[(u0, v0)]]
            tail = w0
            while True:
                free = {x for x in adj[tail] - chain if adj[x] & chain == {tail}}
                step = min(((v, w) for v in free for w in free & adj[v]), default=None)
                if step is None:
                    break
                matching.append(index[edge_key(tail, step[0])])
                chain.update(step)
                tail = step[1]
            if len(matching) > len(best):
                best = matching
    return best


def _greedy_orthogonal(
    masks: list[int], order: Iterable[int], chosen: Iterable[int] = ()
) -> list[int]:
    """Greedy scan: extend the pairwise orthogonal chosen by each index of
    order, in turn, that pairs to zero with every index taken so far."""
    chosen = list(chosen)
    allowed = -1  # indices orthogonal to all of chosen; no mask has its own bit
    for j in chosen:
        allowed &= masks[j]
    for i in order:
        if allowed >> i & 1:
            chosen.append(i)
            allowed &= masks[i]
    return chosen


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
    edges, exponent, table = _pairing_table(g)
    count = len(edges)
    masks = []
    for i, row in enumerate(table):
        mask = 0
        for j, value in enumerate(row):
            if not value:
                mask |= 1 << j
        masks.append(mask & ~(1 << i))

    if mode == "greedy":
        hints = []
        if structural_hints:
            hints = [*_clique_matching_hints(g), _induced_matching_hint(g), _triangle_chain_hint(g)]
        seed = max((_greedy_orthogonal(masks, sorted(h)) for h in hints), key=len, default=[])
        chosen = sorted(_greedy_orthogonal(masks, range(count), seed))
    else:
        chosen = _max_orthogonal(masks, count)

    chosen_edges = tuple(edges[i] for i in chosen)
    certificate = tuple(
        (edges[i], edges[j], PairingValue.of(table[i][j], exponent))
        for pos, i in enumerate(chosen)
        for j in chosen[pos + 1 :]
    )
    return OrthogonalSet(edges=chosen_edges, certificate=certificate)


# ---------------------------------------------------------------------------
# Tail-heavy subgroup verification


def subgroup_bound(params: TwoEigenvalueParams, r: int) -> AbelianGroup:
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


@_record
class TailHeavyReport:
    """Outcome of the tail-heavy subgroup check on a strongly regular graph.

    The verifier tests the necessary divisibility condition of the predicted
    subgroup against the computed group rather than exhibiting an embedding,
    which suffices to falsify. strong_pattern records whether the tail even
    consists of full spectral-bound factors."""

    params: TwoEigenvalueParams
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
