"""Shared corpus builders and independent oracles for the test suite."""

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from critgroup import (
    Graph,
    IntMatrix,
    InternalCheckError,
    Polynomial,
    clebsch_complement,
    complement,
    complete,
    complete_multipartite,
    cycle,
    determinant,
    graph_join,
    make_graph,
    make_signed_graph,
    paley,
    petersen,
    star,
)


# ---------------------------------------------------------------------------
# Matrix and polynomial arithmetic the package itself does not need


def transpose(m: IntMatrix) -> IntMatrix:
    return IntMatrix(tuple(zip(*m.entries)))


def matmul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    assert a.cols == b.rows, f"cannot multiply {a.shape()} by {b.shape()}"
    cols = transpose(b).entries
    return IntMatrix(tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols)
                           for row in a.entries))


def mul_vec(m: IntMatrix, vec):
    """Matrix times column vector; works for int or Fraction entries."""
    assert len(vec) == m.cols, f"vector length {len(vec)} != {m.cols} columns"
    return [sum(a * x for a, x in zip(row, vec)) for row in m.entries]


def is_zero_matrix(m: IntMatrix) -> bool:
    return all(x == 0 for row in m.entries for x in row)


def poly_mul(p: Polynomial, q: Polynomial) -> Polynomial:
    if p.is_zero() or q.is_zero():
        return Polynomial(())
    out = [0] * (len(p.coeffs) + len(q.coeffs) - 1)
    for i, a in enumerate(p.coeffs):
        for j, b in enumerate(q.coeffs):
            out[i + j] += a * b
    return Polynomial.make(out)


def strip_zero_roots(p: Polynomial) -> tuple[Polynomial, int]:
    """p with its largest power of x factored out, and that power."""
    assert not p.is_zero()
    v = 0
    while p.coeffs[v] == 0:
        v += 1
    return Polynomial.make(p.coeffs[v:]), v


def distinct_nonzero_root_product(p: Polynomial) -> Fraction:
    """Product of the distinct non-zero roots of a characteristic
    polynomial, read off the whole of it: strip its zero roots, take the
    square-free part q, and return (-1)^deg(q) q(0) / lead(q); 1 for x^n,
    the polynomial of a zero matrix."""
    from critgroup import squarefree_part

    q = squarefree_part(strip_zero_roots(p)[0])
    return Fraction((-1) ** q.degree * q.coeffs[0], q.leading())


def empty_graph(n):
    return make_graph(n, [])


def triangular_t5():
    return complement(petersen())


def wheel_w4():
    return graph_join(complete(1), complete_multipartite([2, 2]))


def complete_split(clique, independent):
    return graph_join(complete(clique), empty_graph(independent))


def unsigned_two_eigenvalue_corpus():
    """Named two-eigenvalue graphs: strongly regular members plus the
    two-degree join families."""
    members = [
        ("paley5", paley(5)),
        ("paley9", paley(9)),
        ("paley13", paley(13)),
        ("petersen", petersen()),
        ("clebsch_complement", clebsch_complement()),
        ("triangular_t5", triangular_t5()),
        ("K2x2", complete_multipartite([2, 2])),
        ("K3x3", complete_multipartite([3, 3])),
        ("K4x4", complete_multipartite([4, 4])),
        ("K2x2x2", complete_multipartite([2, 2, 2])),
        ("K3x3x3", complete_multipartite([3, 3, 3])),
        ("star2", star(2)),
        ("star3", star(3)),
        ("star4", star(4)),
        ("star5", star(5)),
        ("wheel_w4", wheel_w4()),
        ("split_2_3", complete_split(2, 3)),
        ("join_K2_K2x2", graph_join(complete(2), complete_multipartite([2, 2]))),
    ]
    return members


def unsigned_srg_corpus():
    from critgroup import detect_two_eigenvalue

    return [
        (name, g) for name, g in unsigned_two_eigenvalue_corpus()
        if detect_two_eigenvalue(g).regular
    ]


def strongly_regular_or_complete(g):
    from critgroup import detect_two_eigenvalue

    if g.is_complete():
        return True
    params = detect_two_eigenvalue(g)
    return params is not None and params.regular


def applicable_edges(g):
    signed = hasattr(g, "negative_edges")
    base = g.graph if signed else g
    for u, v in g.sorted_edges():
        if base.degree(u) == base.degree(v) and not strongly_regular_or_complete(base):
            continue  # two-degree cases only decompose cross-degree edges
        yield (u, v)


def all_edges(n):
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def signed_complete_all_negative(n):
    edges = all_edges(n)
    return make_signed_graph(n, edges, edges)


def signed_k6_pentagon():
    """K6 with the five negative edges forming a cycle on vertices 2..6;
    signed two-eigenvalue with lam = 0."""
    neg = [(2, 3), (3, 5), (5, 6), (4, 6), (2, 4)]
    return make_signed_graph(6, all_edges(6), neg)


def signed_c4_one_negative():
    return make_signed_graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)], [(1, 2)])


def signed_octahedron():
    """A signed two-eigenvalue signing of the 4-regular octahedron
    (lam = 0, eigenvalue product 12), found by exhausting switching
    classes."""
    edges = [(1, 2), (1, 3), (1, 5), (1, 6), (2, 3), (2, 4), (2, 6),
             (3, 4), (3, 5), (4, 5), (4, 6), (5, 6)]
    return make_signed_graph(6, edges, [(2, 3), (3, 4), (4, 6), (5, 6)])


def signed_two_degree_hexad():
    """A signed two-eigenvalue graph with degrees 3 and 4 (eigenvalue
    product 12), found by exhausting switching classes of all two-degree
    graphs on six vertices."""
    edges = [(1, 2), (1, 3), (1, 6), (2, 3), (2, 4), (2, 5),
             (3, 6), (4, 5), (4, 6), (5, 6)]
    return make_signed_graph(6, edges, [(2, 3), (3, 6), (4, 5), (4, 6), (5, 6)])


def signed_corpus():
    """Unbalanced signed two-eigenvalue graphs covering all three signed
    decomposition cases."""
    from critgroup import signed_complete_unbalanced, switch

    return [
        ("unbalanced_K3", signed_complete_unbalanced(3)),
        ("all_negative_K4", signed_complete_all_negative(4)),
        ("all_negative_K4_switched", switch(signed_complete_all_negative(4), {2})),
        ("all_negative_K5", signed_complete_all_negative(5)),
        ("all_negative_K6", signed_complete_all_negative(6)),
        ("K6_pentagon_signing", signed_k6_pentagon()),
        ("C4_one_negative", signed_c4_one_negative()),
        ("octahedron_signing", signed_octahedron()),
        ("two_degree_hexad", signed_two_degree_hexad()),
    ]


# ---------------------------------------------------------------------------
# Exhaustive small-graph corpora (connected, up to isomorphism)


def connected_atlas(n_max):
    """All connected graphs with 2..n_max vertices up to isomorphism,
    relabeled to 1..n."""
    import networkx as nx
    from networkx.generators.atlas import graph_atlas_g

    out = []
    for G in graph_atlas_g()[1:]:
        n = G.number_of_nodes()
        if n < 2 or n > n_max or not nx.is_connected(G):
            continue
        mapping = {v: i + 1 for i, v in enumerate(sorted(G.nodes()))}
        edges = sorted(tuple(sorted((mapping[a], mapping[b]))) for a, b in G.edges())
        out.append(make_graph(n, edges))
    return out


# ---------------------------------------------------------------------------
# Independent oracles


def spanning_trees_deletion_contraction(n, edges):
    """Spanning tree count by deletion-contraction on a multigraph given as
    an edge list (loops discarded on contraction)."""
    if n == 1:
        return 1
    if len(edges) < n - 1:
        return 0
    reach = {1}
    frontier = [1]
    adjacency = {}
    for u, v in edges:
        adjacency.setdefault(u, set()).add(v)
        adjacency.setdefault(v, set()).add(u)
    while frontier:
        x = frontier.pop()
        for y in adjacency.get(x, ()):
            if y not in reach:
                reach.add(y)
                frontier.append(y)
    if len(reach) != n:
        return 0
    u, v = edges[0]
    deleted = edges[1:]
    contracted = []
    for a, b in deleted:
        a2 = u if a == v else a
        b2 = u if b == v else b
        if a2 != b2:
            contracted.append((a2, b2))
    relabel = {x: i + 1 for i, x in enumerate(sorted(set(range(1, n + 1)) - {v}))}
    contracted = [(relabel[a], relabel[b]) for a, b in contracted]
    return spanning_trees_deletion_contraction(n, deleted) + spanning_trees_deletion_contraction(
        n - 1, contracted
    )


def determinant_divisor_diagonal(m: IntMatrix):
    """Smith diagonal via determinant divisors: d_i = g_i / g_{i-1} where
    g_i is the gcd of all i x i minors. Scanning each size stops early once
    the running gcd reaches its floor g_{i-1}."""
    from math import gcd

    rows, cols = m.shape()
    bound = min(rows, cols)
    diagonal = []
    previous = 1
    for size in range(1, bound + 1):
        running = 0
        for row_idx in itertools.combinations(range(rows), size):
            for col_idx in itertools.combinations(range(cols), size):
                minor = IntMatrix.from_rows(
                    [[m[(i, j)] for j in col_idx] for i in row_idx]
                )
                running = gcd(running, determinant(minor))
                if running == previous:
                    break
            if running == previous:
                break
        if running == 0:
            break
        diagonal.append(running // previous)
        previous = running
    diagonal.extend([0] * (bound - len(diagonal)))
    return diagonal


@dataclass(frozen=True)
class SnfResult:
    """U @ matrix @ V == S with U, V unimodular and S diagonal, the diagonal
    non-negative with each entry dividing the next."""

    matrix: IntMatrix
    U: IntMatrix
    S: IntMatrix
    V: IntMatrix

    @property
    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.S[i, i] for i in range(min(self.S.rows, self.S.cols)))

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal if d != 0)


def smith_normal_form(m: IntMatrix) -> SnfResult:
    """Integer Smith normal form with unimodular transforms, checked by
    U @ m @ V == S and the divisibility chain.

    Pivot rule: the smallest non-zero absolute value in the working
    submatrix, ties broken row-major. Deterministic for a given input.
    """
    rows, cols = m.rows, m.cols
    s = [list(row) for row in m.entries]
    u = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    v = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    def swap_rows(i, j):
        if i != j:
            s[i], s[j] = s[j], s[i]
            u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        if i != j:
            for row in s:
                row[i], row[j] = row[j], row[i]
            for row in v:
                row[i], row[j] = row[j], row[i]

    def add_row(dst, src, factor):
        # row dst += factor * row src
        srow, urow = s[src], u[src]
        sdst, udst = s[dst], u[dst]
        for j in range(cols):
            sdst[j] += factor * srow[j]
        for j in range(rows):
            udst[j] += factor * urow[j]

    def add_col(dst, src, factor):
        for row in s:
            row[dst] += factor * row[src]
        for row in v:
            row[dst] += factor * row[src]

    def pivot_to(t):
        """Move the smallest non-zero |entry| of s[t:][t:] to (t, t)."""
        best = 0
        pi = pj = -1
        for i in range(t, rows):
            for j in range(t, cols):
                a = abs(s[i][j])
                if a and (best == 0 or a < best):
                    best, pi, pj = a, i, j
        if best == 0:
            return False
        swap_rows(t, pi)
        swap_cols(t, pj)
        return True

    limit = min(rows, cols)
    for t in range(limit):
        if not pivot_to(t):
            break
        while True:
            # Euclidean elimination of row and column t
            while True:
                for i in range(t + 1, rows):
                    if s[i][t]:
                        add_row(i, t, -(s[i][t] // s[t][t]))
                leftover = [i for i in range(t + 1, rows) if s[i][t]]
                if leftover:
                    # remainder strictly smaller than the pivot: promote it
                    i = min(leftover, key=lambda x: abs(s[x][t]))
                    swap_rows(t, i)
                    continue
                for j in range(t + 1, cols):
                    if s[t][j]:
                        add_col(j, t, -(s[t][j] // s[t][t]))
                leftover = [j for j in range(t + 1, cols) if s[t][j]]
                if leftover:
                    j = min(leftover, key=lambda x: abs(s[t][x]))
                    swap_cols(t, j)
                    continue
                break
            # pivot must divide everything that remains
            d = s[t][t]
            offender = None
            for i in range(t + 1, rows):
                if any(x % d for x in s[i][t + 1 :]):
                    offender = i
                    break
            if offender is None:
                break
            add_row(t, offender, 1)
        if s[t][t] < 0:
            for j in range(cols):
                s[t][j] = -s[t][j]
            for j in range(rows):
                u[t][j] = -u[t][j]

    result = SnfResult(
        matrix=m,
        U=IntMatrix.from_rows(u),
        S=IntMatrix.from_rows(s),
        V=IntMatrix.from_rows(v),
    )
    _check_snf(result)
    return result


def _check_snf(r: SnfResult) -> None:
    s = r.S
    diag = r.diagonal
    for i in range(s.rows):
        for j in range(s.cols):
            if i != j and s[i, j] != 0:
                raise InternalCheckError("SNF result not diagonal")
    for a, b in zip(diag, diag[1:]):
        if a < 0 or b < 0 or (a == 0 and b != 0) or (a != 0 and b % a != 0):
            raise InternalCheckError(f"SNF diagonal {diag} violates the divisibility chain")
    if matmul(matmul(r.U, r.matrix), r.V) != s:
        raise InternalCheckError("SNF transform identity U @ M @ V == S failed")


def smith_order(snf, vector):
    """Order of the class of `vector` in the cokernel, read off the Smith
    transforms of the Laplacian: with c = U @ vector, the lcm of
    d_i / gcd(d_i, c_i) over the non-zero diagonal entries d_i."""
    from math import gcd, lcm

    c = mul_vec(snf.U, list(vector))
    order = 1
    for d, ci in zip(snf.diagonal, c):
        assert d or ci == 0, "class outside the torsion part"
        if d:
            order = lcm(order, d // gcd(d, ci))
    return order


def grounded_inverse_oracle(g):
    """(E, E adj(L0) / kappa), with E the largest entry of the Smith normal
    form oracle of L0: the Laplacian grounded at the last vertex, or the
    whole Laplacian of a signed graph."""
    from critgroup import adjugate, laplacian

    lap = laplacian(g)
    if not hasattr(g, "negative_edges"):
        if g.n == 1:
            return 1, ()
        lap = IntMatrix.from_rows(row[:-1] for row in lap.entries[:-1])
    exponent = max(smith_normal_form(lap).diagonal)
    kappa, adj = adjugate(lap)
    assert all(exponent * a % kappa == 0 for row in adj.entries for a in row)
    return exponent, tuple(tuple(exponent * a // kappa for a in row) for row in adj.entries)


def faddeev_leverrier(m: IntMatrix) -> Polynomial:
    """Characteristic polynomial det(xI - m) by the O(n^4) Faddeev-LeVerrier
    recurrence: with M_1 = m, c_k = -tr(M_k) / k and M_{k+1} = m (M_k + c_k I).
    For an integer matrix every division is exact."""
    n = m.rows
    ident = IntMatrix.identity(n)
    coeffs = [1]  # coefficient of x^n
    work = m
    for k in range(1, n + 1):
        t = work.trace()
        assert t % k == 0, "Faddeev-LeVerrier division was not exact"
        c = -(t // k)
        coeffs.append(c)
        if k < n:
            work = matmul(m, work.add(ident.scale(c)))
    return Polynomial.make(reversed(coeffs))


def enumerate_feasible_filter(n_max):
    """Feasible tuples by generate and filter: every (n, k, lam) is tried
    and kept when the parameter identity gives an integer mu in 1..k and
    the multiplicities are integral. Same rows and order as
    `enumerate_feasible`."""
    from critgroup import FeasibleTuple, TwoEigenvalueParams, self_pairing_denominator
    from critgroup.scan import _multiplicities

    out = []
    for n in range(5, n_max + 1):
        for k in range(2, n - 1):
            if (n * k) % 2:
                continue
            for lam in range(k):
                numerator = k * (k - lam - 1)
                if numerator % (n - k - 1):
                    continue
                mu = numerator // (n - k - 1)
                if not 1 <= mu <= k:
                    continue
                mult = _multiplicities(n, k, lam, mu)
                if mult is None:
                    continue
                pair, conference = mult
                params = TwoEigenvalueParams(n, "srg", k, k, mu, 2 * k - lam + mu, n * mu)
                denominator = self_pairing_denominator(params)
                out.append(FeasibleTuple(
                    params=params,
                    multiplicities=pair,
                    conference=conference,
                    denominator=denominator,
                    denominator_equals_bound=denominator == params.eigenvalue_product,
                ))
    return out


# Greedy orthogonal seeds by re-testing: each hint below builds its edge
# index list the direct way, pair by pair, and the seed is filtered and
# extended by two separate scans. Same results as the hints of
# `critgroup.pairing`, which read neighbourhood sets instead.


def clique_matching_hints_retest(g):
    from critgroup import edge_key

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


def induced_matching_hint_retest(g):
    edges = g.sorted_edges()
    adj = g.adjacency
    chosen = []
    used = set()
    for i, (u, v) in enumerate(edges):
        if u in used or v in used:
            continue
        if any(w in adj[u] or w in adj[v] for w in used):
            continue
        chosen.append(i)
        used.update((u, v))
    return chosen


def triangle_chain_hint_retest(g):
    """Each trial triangle re-tests every vertex pair of the extended chain
    against the edges the chain's triangles allow."""
    from critgroup import edge_key

    edges = g.sorted_edges()
    index = {e: i for i, e in enumerate(edges)}
    adj = g.adjacency

    def induced_ok(vertices, allowed):
        for i, a in enumerate(vertices):
            for b in vertices[i + 1:]:
                if edge_key(a, b) in g.edges and edge_key(a, b) not in allowed:
                    return False
        return True

    best = []
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


def structural_hints_retest(g):
    """The hint lists in the order the greedy search reads them: clique
    matchings, the induced matching, the triangle chain."""
    return [
        *clique_matching_hints_retest(g),
        induced_matching_hint_retest(g),
        triangle_chain_hint_retest(g),
    ]


def greedy_orthogonal_retest(g, hints):
    """Edges of the greedy orthogonal set: each hint filtered to a pairwise
    orthogonal subset, the longest (first among equals) extended by a scan
    over all edge indices."""
    from critgroup.pairing import _pairing_table

    edges, _, table = _pairing_table(g)

    def orthogonal(i, j):
        return i != j and table[i][j] == 0

    filtered = []
    for hint in hints:
        kept = []
        for i in sorted(hint):
            if all(orthogonal(j, i) for j in kept):
                kept.append(i)
        filtered.append(kept)
    chosen = list(max(filtered, key=len, default=[]))
    for i in range(len(edges)):
        if i not in chosen and all(orthogonal(j, i) for j in chosen):
            chosen.append(i)
    return tuple(edges[i] for i in sorted(chosen))


# ---------------------------------------------------------------------------
# Seeded randomness helpers


def random_connected_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    while True:
        edges = [e for e in itertools.combinations(range(1, n + 1), 2) if rng.random() < p]
        g = make_graph(n, edges)
        if g.is_connected():
            return g


def random_sum_zero_vector(rng: random.Random, n: int, bound: int = 9):
    vec = [rng.randint(-bound, bound) for _ in range(n - 1)]
    vec.append(-sum(vec))
    return vec


def random_int_matrix(rng: random.Random, rows: int, cols: int, bound: int = 9) -> IntMatrix:
    return IntMatrix.from_rows(
        [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]
    )


def frac(a, b=1):
    return Fraction(a, b)
