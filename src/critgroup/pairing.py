"""Monodromy pairing on critical groups, orthogonal edge sets, and the
tail-heavy subgroup verifier.

The pairing of two classes [D], [D2] is D2.f mod 1 where L f = D; f =
P D / E for the potential table P and the group exponent E of
`monodromy.grounded_inverse`, where the pairing values and the table of
edge pairings live. It is well-defined, bilinear, and symmetric. A set of
edges whose classes e_u - e_v pairwise pair to zero forces a tail-heavy
subgroup: one factor of the full spectral bound plus copies of the
self-pairing denominator.
"""

from __future__ import annotations

from collections.abc import Iterable
from math import gcd

from . import _lazy_module
from .errors import GraphError, InternalCheckError, _record
from .graphs import Graph, TwoEigenvalueParams, edge_key, require_connected

families, groups, monodromy = map(_lazy_module, ("families", "groups", "monodromy"))

_ZERO_IS_ONE = bytes.maketrans(b"\0\1", b"10")  # b"\0" (a zero pairing) becomes the digit 1


def monodromy_pairing(g: Graph, d, d2, m: int | None = None) -> PairingValue:
    """Pairing of the classes of the sum-zero vectors d and d2: d2 . P d
    / E mod 1 for the potential table P of `monodromy.grounded_inverse`, E
    the group exponent.

    m must be a positive multiple of the order of [d] and defaults to the
    group exponent; it enters only the check that m * P d / E is an
    integer potential, so every valid m gives the same value.
    """
    monodromy._require_unsigned(g, "the monodromy pairing")
    require_connected(g, "monodromy_pairing")
    vector = monodromy._class_vector
    d, d2 = vector(g, d, "first vector"), vector(g, d2, "second vector")
    exponent, table = monodromy.grounded_inverse(g)
    image = monodromy._grounded_image(table, d)
    if m is None:
        m = exponent
    elif type(m) is not int or m <= 0:
        raise GraphError(f"m must be a positive integer, got {m}")
    elif m * gcd(exponent, *image) % exponent:  # [d] has order E / gcd(E, P d)
        raise GraphError(f"m = {m} does not annihilate the first class")
    numerator = sum(x * y for x, y in zip(d2, image))
    return monodromy.PairingValue.of(numerator, exponent)


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


def _members(mask: int):
    """The indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _triangle_chain_hint(g: Graph) -> list[int]:
    """Matching along a greedily grown induced chain of triangles: triangles
    T_i = {u_i, v_i, w_i} sharing only the consecutive vertices w_i = u_{i+1},
    with no other edges among the chain vertices. The edges (u_i, v_i) of
    such a chain pair to zero.

    Each step adds the least triangle (tail, v, w) off the chain whose v
    and w have tail as their only chain neighbour. That is the same as
    re-testing every vertex pair of the extended chain: the chain is
    induced before the step, and v and w are adjacent to each other and to
    tail, so only an edge from v or w to another chain vertex can break it.
    The chain and the neighbourhoods are bitmasks over the vertices."""
    edges = g.sorted_edges()
    index = {e: i for i, e in enumerate(edges)}
    adj = g.adjacency
    bits = [0, *(sum(1 << w for w in nbrs) for nbrs in adj.values())]
    best: list[int] = []
    for u0, v0 in edges:
        for w0 in _members(bits[u0] & bits[v0]):
            chain, tail = 1 << u0 | 1 << v0 | 1 << w0, w0
            matching = [index[(u0, v0)]]
            while True:
                only = 1 << tail
                free = sum(1 << x for x in adj[tail] if bits[x] & chain == only and not chain >> x & 1)
                step = next(((v, ends) for v in _members(free) if (ends := free & bits[v])), None)
                if step is None:
                    break
                v, ends = step
                matching.append(index[edge_key(tail, v)])
                tail = (ends & -ends).bit_length() - 1
                chain |= 1 << v | 1 << tail
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


def _max_orthogonal(masks: list[int], count: int, roots: int = -1) -> list[int]:
    """Lexicographically least maximum clique of the orthogonality graph.

    Include-first depth-first search in index order with strict size
    improvement visits candidate sets in lexicographic order, so the first
    clique of each new record size is the lexicographically least of that
    size; the popcount bound only prunes subtrees that cannot strictly
    improve. Only the indices in the bitmask `roots` start a clique. With
    the orbit minima of `_orbit_minima` the result is the same: an
    automorphism mapping the least index j of the result to some i < j
    would map the result to a lexicographically smaller maximum, and
    skipped branches only keep the record size smaller."""
    best: list[int] = []
    best_size = 0

    def dfs(current: list[int], candidates: int, branches: int) -> None:
        nonlocal best, best_size
        if not candidates:
            if len(current) > best_size:
                best = list(current)
                best_size = len(current)
            return
        rest = candidates
        while rest:
            i = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            if len(current) + 1 + rest.bit_count() <= best_size:
                break
            if branches >> i & 1:
                current.append(i)
                dfs(current, rest & masks[i], -1)
                current.pop()
    dfs([], (1 << count) - 1, roots)
    if count and not best:  # without edges the empty set is the maximum
        raise InternalCheckError("orthogonal search returned no edge of a non-empty graph")
    return best


def _orbit_minima(g: Graph, edges: list[tuple[int, int]]) -> int:
    """The bitmask of the edge indices least in their orbit, by union-find,
    under `families.automorphisms(g)`, each the images of 1..n; one that
    does not map the edges onto themselves is an InternalCheckError."""
    index = {e: i for i, e in enumerate(edges)}
    parent = list(range(len(edges)))

    def find(i):
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]  # path halving
        return i

    for perm in families.automorphisms(g):
        image = None
        if sorted(perm) == [*g.vertices()]:
            image = [edge_key(perm[u - 1], perm[v - 1]) for u, v in edges]
        if image is None or set(image) != g.edges:
            raise InternalCheckError(f"vertex permutation {perm} is not an automorphism of the graph")
        for i, e in enumerate(image):
            a, b = sorted((find(i), find(index[e])))
            parent[b] = a
    return sum(1 << i for i in range(len(edges)) if parent[i] == i)


def orthogonal_subset(g: Graph, mode: str = "exact", structural_hints: bool = True) -> OrthogonalSet:
    """Orthogonal edge set: maximum (exact mode, branch and bound over the
    orthogonality graph, lexicographically least among maximums) or maximal
    (greedy mode, lexicographic scan). Structural hints seed the greedy scan
    with clique matchings, induced matchings, and triangle-chain matchings;
    exact mode builds none, as its result does not depend on a seed. Exact
    mode starts only at the edges least in their orbit under the
    automorphisms `families.automorphisms` finds (`_orbit_minima`), which
    leaves the result the same."""
    monodromy._require_unsigned(g, "orthogonal edge search")
    require_connected(g, "orthogonal_subset")
    if mode not in ("exact", "greedy"):
        raise GraphError(f"mode must be exact or greedy, got {mode!r}")
    edges = g.sorted_edges()
    exponent, table = monodromy._pairing_table(g, edges)
    count = len(edges)
    masks = [int(bytes(map(bool, reversed(row))).translate(_ZERO_IS_ONE), 2) & ~(1 << i)
             for i, row in enumerate(table)]

    if mode == "greedy":
        hints = []
        if structural_hints:
            hints = [*_clique_matching_hints(g), _induced_matching_hint(g), _triangle_chain_hint(g)]
        seed = max((_greedy_orthogonal(masks, sorted(h)) for h in hints), key=len, default=[])
        chosen = sorted(_greedy_orthogonal(masks, range(count), seed))
    else:
        chosen = _max_orthogonal(masks, count, _orbit_minima(g, edges))

    chosen_edges = tuple(edges[i] for i in chosen)
    certificate = tuple(
        (edges[i], edges[j], monodromy.PairingValue.of(table[i][j], exponent))
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
    eta = monodromy.self_pairing_denominator(params)
    return groups.AbelianGroup((eta,) * (r - 1) + (params.eigenvalue_product,))


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
    """Search g for an orthogonal edge set (`orthogonal_subset` in the given
    mode, with structural hints) and check the subgroup its r edges
    predict, `subgroup_bound`: r - 1 copies of the self-pairing
    denominator below the full bound p. The verdict is the
    necessary divisibility condition of `check_subgroup_divisibility`
    against the critical group, not an embedding. StructureError for a
    signed graph, a graph that is not strongly regular, and K_n or K_{m,m}
    (`monodromy._closed_form_params`)."""
    params = monodromy._closed_form_params(g)
    orth = orthogonal_subset(g, mode=mode)
    r = orth.size
    predicted = subgroup_bound(params, r)
    group = groups.critical_group(g)
    bound = params.eigenvalue_product
    factors = group.invariant_factors
    strong = len(factors) >= r and all(f == bound for f in factors[-r:])
    return TailHeavyReport(
        params=params,
        denominator=monodromy.self_pairing_denominator(params),
        orthogonal_set=orth,
        predicted=predicted,
        group=group,
        divisibility_ok=check_subgroup_divisibility(predicted, group),
        strong_pattern=strong,
    )
