"""Shared corpus builders and independent oracles for the test suite."""

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from critgroup import (
    Graph,
    GraphError,
    InternalCheckError,
    PairingValue,
    SignedGraph,
    StructureError,
    clebsch_complement,
    complete,
    complete_multipartite,
    critical_group,
    cycle,
    detect_two_eigenvalue,
    determinant,
    edge_difference,
    edge_key,
    element_order,
    make_graph,
    make_signed_graph,
    paley,
    petersen,
    star,
)


# ---------------------------------------------------------------------------
# Matrix (a list of integer rows) and polynomial arithmetic the package
# itself does not need


def transpose(m):
    return [list(col) for col in zip(*m)]


def matmul(a, b):
    assert len(a[0]) == len(b), f"cannot multiply {len(a)} x {len(a[0])} by {len(b)} x {len(b[0])}"
    cols = transpose(b)
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def mul_vec(m, vec):
    """Matrix times column vector; works for int or Fraction entries."""
    assert len(vec) == len(m[0]), f"vector length {len(vec)} != {len(m[0])} columns"
    return [sum(a * x for a, x in zip(row, vec)) for row in m]


def identity(n: int, scale: int = 1):
    return [[scale if i == j else 0 for j in range(n)] for i in range(n)]


def adjugate(m) -> tuple[int, list[list[int]]]:
    """Determinant and adjugate of a square matrix: m @ adj == det * I.

    A Bareiss loop run over every row of [m | I] (fraction-free
    Gauss-Jordan), apart from the package's `solve`: the right block ends
    as adj(m). Step k
    touches only columns k+1 .. n+k; the others hold a reduced column or an
    untouched identity column, whose entry in row k is then the previous
    pivot. Without row swaps every leading principal minor must be
    non-zero, as for a positive definite matrix.
    """
    n = len(m)
    if not m or any(len(row) != n for row in m):
        raise GraphError("adjugate of a non-square matrix")
    a = [list(row) + [0] * n for row in m]
    prev = 1
    for k in range(n):
        pivot_row = a[k]
        pivot = pivot_row[k]
        if pivot == 0:
            raise GraphError(f"leading principal minor of order {k + 1} is zero")
        pivot_row[n + k] = prev
        for i, row in enumerate(a):
            if i != k:
                f = row[k]
                for j in range(k + 1, n + k + 1):
                    row[j] = (row[j] * pivot - f * pivot_row[j]) // prev
        prev = pivot
    return prev, [row[n:] for row in a]


def is_zero_matrix(m) -> bool:
    return all(x == 0 for row in m for x in row)


def fraction(value) -> Fraction:
    """A PairingValue as the Fraction numerator / denominator."""
    return Fraction(value.numerator, value.denominator)


def poly_mul(p, q) -> tuple:
    """The product of two coefficient tuples (low to high, no trailing
    zero); () is the zero polynomial."""
    if not p or not q:
        return ()
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return tuple(out)


def poly_eval(p, x):
    """p(x) by Horner's rule."""
    value = 0
    for c in reversed(p):
        value = value * x + c
    return value


def strip_zero_roots(p) -> tuple[tuple, int]:
    """p with its largest power of x factored out, and that power."""
    assert any(p)
    v = 0
    while p[v] == 0:
        v += 1
    return tuple(p[v:]), v


def _rational_divmod(a, b) -> tuple[list, list]:
    """Quotient and remainder of coefficient lists (low to high) over Q."""
    rem = [Fraction(c) for c in a]
    quotient = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    for shift in range(len(quotient) - 1, -1, -1):
        f = quotient[shift] = rem[shift + len(b) - 1] / b[-1]
        for i, c in enumerate(b):
            rem[shift + i] -= f * c
    rem = rem[:len(b) - 1]
    while rem and not rem[-1]:
        rem.pop()
    return quotient, rem


def _primitive(coeffs) -> list[int]:
    """Rational coefficients scaled to coprime integers, leading one positive."""
    denominator = math.lcm(*(Fraction(c).denominator for c in coeffs))
    ints = [int(c * denominator) for c in coeffs]
    content = math.gcd(*ints) if ints[-1] > 0 else -math.gcd(*ints)
    return [c // content for c in ints]


def rational_squarefree_part(p) -> tuple:
    """The slow oracle for squarefree_part: p / gcd(p, p') by Euclid's
    algorithm over Q, each remainder made primitive, and the quotient made
    primitive with a positive leading coefficient, as a tuple."""
    a, b = list(p), [i * c for i, c in enumerate(p) if i]
    while b:
        _, r = _rational_divmod(a, b)
        a, b = b, _primitive(r) if r else []
    quotient, r = _rational_divmod(p, a)
    assert not r, f"gcd {a} does not divide {p}"
    return tuple(_primitive(quotient))


def distinct_nonzero_root_product(p) -> Fraction:
    """Product of the distinct non-zero roots of a characteristic
    polynomial, read off the whole of it: strip its zero roots, take the
    square-free part q by the rational oracle, and return
    (-1)^deg(q) q(0) / lead(q); 1 for x^n, the polynomial of a zero
    matrix."""
    q = rational_squarefree_part(strip_zero_roots(p)[0])
    return Fraction((-1) ** (len(q) - 1) * q[0], q[-1])


# ---------------------------------------------------------------------------
# Graph constructions and switching the package itself does not need


def empty_graph(n):
    return make_graph(n, [])


def complement(g):
    return make_graph(g.n, [e for e in itertools.combinations(g.vertices(), 2) if e not in g.edges])


def graph_join(g1, g2):
    """Both graphs, g2's labels shifted past g1's, plus every edge between
    the two vertex sets."""
    shift = g1.n
    edges = [*g1.edges, *((u + shift, v + shift) for u, v in g2.edges)]
    edges += [(u, v + shift) for u in g1.vertices() for v in g2.vertices()]
    return make_graph(shift + g2.n, edges)


def switch(gs, vertex_set):
    """Switching at a vertex set flips the sign of every edge with exactly
    one endpoint in it: an involution that preserves balance and the
    critical group up to isomorphism."""
    s = frozenset(vertex_set)
    if s - set(gs.vertices()):
        raise GraphError(f"switching set contains non-vertices {sorted(s - set(gs.vertices()))}")
    cut = {(u, v) for u, v in gs.graph.edges if (u in s) != (v in s)}
    return SignedGraph(gs.graph, gs.negative_edges ^ cut)


def triangular_t5():
    return complement(petersen())


def wheel_w4():
    return graph_join(complete(1), complete_multipartite([2, 2]))


def complete_split(clique, independent):
    return graph_join(complete(clique), empty_graph(independent))


def _point_graph(points, adjacent):
    """The graph on the given points, vertex i + 1 for points[i], with an
    edge wherever adjacent(x, y) holds."""
    pairs = itertools.combinations(range(len(points)), 2)
    return make_graph(len(points), [(i + 1, j + 1) for i, j in pairs if adjacent(points[i], points[j])])


def _symplectic_graph(points):
    """Distinct points of PG(d, 2), each one non-zero vector over GF(2),
    adjacent when the symplectic form sum_i x_2i y_2i+1 + x_2i+1 y_2i
    vanishes."""
    return _point_graph(points, lambda x, y: sum(a * y[k ^ 1] for k, a in enumerate(x)) % 2 == 0)


def symplectic_w2():
    """W(2): the 15 points of PG(3, 2), x ~ y when
    x0y1 - x1y0 + x2y3 - x3y2 = 0; strongly regular (15, 6, 1, 3)."""
    return _symplectic_graph([v for v in itertools.product((0, 1), repeat=4) if any(v)])


def generalized_quadrangle_2_4():
    """GQ(2, 4): the 27 zeros of x0x1 + x2x3 + x4^2 + x4x5 + x5^2 in
    PG(5, 2), adjacent when the polar form, the symplectic form, vanishes;
    strongly regular (27, 10, 1, 5)."""
    zeros = [v for v in itertools.product((0, 1), repeat=6)
             if any(v) and (v[0] * v[1] + v[2] * v[3] + v[4] + v[4] * v[5] + v[5]) % 2 == 0]
    return _symplectic_graph(zeros)


def pg32_lines():
    """The 35 lines of PG(3, 2), each the set {a, b, a ^ b} of non-zero
    vectors of a two-dimensional subspace of GF(2)^4 (vectors as 4-bit
    integers), adjacent when two lines meet; strongly regular (35, 18, 9, 9)."""
    lines = sorted({frozenset((a, b, a ^ b)) for a, b in itertools.combinations(range(1, 16), 2)}, key=sorted)
    return _point_graph(lines, lambda x, y: bool(x & y))


_GF4_EXP, _GF4_LOG = (1, 2, 3), {1: 0, 2: 1, 3: 2}  # GF(4) = {0, 1, w, w^2} as 0..3 with w = 2


def _gf4_mul(a, b):
    return a and b and _GF4_EXP[(_GF4_LOG[a] + _GF4_LOG[b]) % 3]


def _gf4_form(x, y, pairs):
    """sum over (i, j) in pairs of x_i y_j in GF(4), where + is xor."""
    total = 0
    for i, j in pairs:
        total ^= _gf4_mul(x[i], y[j])
    return total


def _pg3_4_points():
    """The 85 points of PG(3, 4): non-zero vectors over GF(4) whose first
    non-zero coordinate is 1."""
    return [v for v in itertools.product(range(4), repeat=4) if any(v) and next(a for a in v if a) == 1]


def hermitian_h34():
    """H(3, 4): the 45 points x of PG(3, 4) with h(x, x) = 0 for the
    Hermitian form h(x, y) = sum_i x_i y_i^2, adjacent when h(x, y) = 0;
    strongly regular (45, 12, 3, 3)."""
    conjugate = [_gf4_mul(a, a) for a in range(4)]

    def h(x, y):
        return _gf4_form(x, [conjugate[a] for a in y], [(i, i) for i in range(4)])

    return _point_graph([x for x in _pg3_4_points() if not h(x, x)], lambda x, y: not h(x, y))


def symplectic_w4():
    """W(4): the 85 points of PG(3, 4), adjacent when
    x0y1 + x1y0 + x2y3 + x3y2 = 0; strongly regular (85, 20, 3, 5)."""
    pairs = [(0, 1), (1, 0), (2, 3), (3, 2)]
    return _point_graph(_pg3_4_points(), lambda x, y: not _gf4_form(x, y, pairs))


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
    return [
        (name, g) for name, g in unsigned_two_eigenvalue_corpus()
        if detect_two_eigenvalue(g).regular
    ]


def strongly_regular_or_complete(g):
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
    from critgroup import signed_complete_unbalanced

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


def signed_corpus_switchings(count=20, seed=2718):
    """Seeded switchings of the signed corpus: same group, other records'
    sign patterns."""
    rng = random.Random(seed)
    graphs = [gs for _, gs in signed_corpus()]
    return [switch(gs, {v for v in gs.vertices() if rng.random() < 0.5})
            for gs in rng.choices(graphs, k=count)]


# Paley orders q = 1 mod 4 up to 125: primes and the prime powers 9, 25,
# 49, 81, 121 and 125, where Smith still runs modulo the bad primes.
PALEY_ORDERS = (5, 9, 13, 17, 25, 29, 37, 41, 49, 53, 61, 73, 81, 89, 97, 101, 109, 113, 121, 125)


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


def laplacian_quadratic_oracle(g):
    """(s, p, c) with L^2 - s L + p I = c J, read entry by entry off the
    matrix L^2, else None: c from the non-adjacent pairs (0 when signed),
    s from the edges, where L_uv = +-1, and p from the diagonal. An
    unsigned complete graph leaves c open and gives None."""
    from critgroup import laplacian

    lap = laplacian(g)
    square = matmul(lap, lap)
    off = [(u, v) for u in range(g.n) for v in range(g.n) if u != v]
    cs = {square[u][v] for u, v in off if not lap[u][v]} | ({0} if isinstance(g, SignedGraph) else set())
    if len(cs) != 1:
        return None
    (c,) = cs
    ss = {(square[u][v] - c) * lap[u][v] for u, v in off if lap[u][v]}
    if len(ss) != 1:
        return None
    (s,) = ss
    ps = {c - square[u][u] + s * lap[u][u] for u in range(g.n)}
    return (s, ps.pop(), c) if len(ps) == 1 else None


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


def determinant_divisor_diagonal(m):
    """Smith diagonal via determinant divisors: d_i = g_i / g_{i-1} where
    g_i is the gcd of all i x i minors. Scanning each size stops early once
    the running gcd reaches its floor g_{i-1}."""
    from math import gcd

    rows, cols = len(m), len(m[0])
    bound = min(rows, cols)
    diagonal = []
    previous = 1
    for size in range(1, bound + 1):
        running = 0
        for row_idx in itertools.combinations(range(rows), size):
            for col_idx in itertools.combinations(range(cols), size):
                minor = [[m[i][j] for j in col_idx] for i in row_idx]
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

    matrix: list
    U: list
    S: list
    V: list

    @property
    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.S[i][i] for i in range(min(len(self.S), len(self.S[0]))))

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal if d != 0)


def smith_normal_form(m) -> SnfResult:
    """Integer Smith normal form with unimodular transforms, checked by
    U @ m @ V == S and the divisibility chain.

    Pivot rule: the smallest non-zero absolute value in the working
    submatrix, ties broken row-major. Deterministic for a given input.
    """
    rows, cols = len(m), len(m[0])
    s = [list(row) for row in m]
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

    result = SnfResult(matrix=m, U=u, S=s, V=v)
    _check_snf(result)
    return result


def _check_snf(r: SnfResult) -> None:
    s = r.S
    diag = r.diagonal
    for i, row in enumerate(s):
        for j, x in enumerate(row):
            if i != j and x != 0:
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


def invariant_factors_of(orders):
    """Invariant factors of the sum of Z/a over `orders`, ascending: the
    i-th largest is the product over primes q of the i-th largest q-power
    among the a."""
    powers = {}
    for a in orders:
        q = 2
        while a > 1:
            if a % q == 0:
                power = 1
                while a % q == 0:
                    a, power = a // q, power * q
                powers.setdefault(q, []).append(power)
            q += 1
    factors = [1] * max(map(len, powers.values()), default=0)
    for found in powers.values():
        for i, power in enumerate(sorted(found, reverse=True)):
            factors[i] *= power
    return tuple(reversed(factors))


def complete_bipartite_group(m, n):
    """Critical group of K_{m,n} in closed form (Jacobson, Niedermaier and
    Reiner, J. Graph Theory 44, 2003): (Z/m)^(n-2) + (Z/n)^(m-2) + Z/mn."""
    return invariant_factors_of([m] * (n - 2) + [n] * (m - 2) + [m * n])


def grounded_inverse_oracle(g):
    """(E, E adj(L0) / kappa), with E the largest entry of the Smith normal
    form oracle of L0: the Laplacian grounded at the last vertex, bordered
    by a zero row and column for that vertex, or the whole Laplacian of a
    signed graph."""
    from critgroup import laplacian

    lap, signed = laplacian(g), isinstance(g, SignedGraph)
    if not signed:
        if g.n == 1:
            return 1, ((0,),)
        lap = [row[:-1] for row in lap[:-1]]
    exponent = max(smith_normal_form(lap).diagonal)
    kappa, adj = adjugate(lap)
    if not signed:
        adj = [*(row + [0] for row in adj), [0] * g.n]
    assert all(exponent * a % kappa == 0 for row in adj for a in row)
    return exponent, tuple(tuple(exponent * a // kappa for a in row) for row in adj)


def vertex_indicator(g, u):
    """The vector e_u (meaningful for signed graphs, where the cokernel is
    not restricted to sum-zero vectors)."""
    if not 1 <= u <= g.n:
        raise GraphError(f"vertex {u} out of range")
    vec = [0] * g.n
    vec[u - 1] = 1
    return tuple(vec)


def exponent_achievers_oracle(g):
    """(max_edge_order, max_edge, achieving_element) as
    `verify_exponent_theorem` reports them, from one `element_order` call
    per class: every edge difference, and on a signed complete graph every
    vertex class, the achiever being the first vertex of full order."""
    exponent = critical_group(g).exponent
    max_order, max_edge = 0, None
    for u, v in g.sorted_edges():
        order = element_order(g, edge_difference(g, u, v))
        if order > max_order:
            max_order, max_edge = order, (u, v)
    achieved = ("edge_difference", max_edge) if max_order == exponent else None
    if detect_two_eigenvalue(g).case == "signed_complete":
        achieved = next((("vertex_class", (u,)) for u in g.vertices()
                         if element_order(g, vertex_indicator(g, u)) == exponent), None)
    return max_order, max_edge, achieved


@dataclass(frozen=True)
class Decomposition:
    """The identity sum_x coefficients[x] L_x = order * target over the
    Laplacian rows L_x of `graph`, the input switched at `switch_set`;
    target is e_u - e_v for the edge (u, v), or e_u + e_v in the signed
    complete case, where triangle_vertex names the unbalanced triangle."""

    case: str
    graph: object
    edge: tuple
    coefficients: tuple
    order: int
    target: tuple
    switch_set: frozenset
    triangle_vertex: int | None = None


def _scaled_potential(rows, s: int, target) -> list[int]:
    """f = s t - L t, with L t the combination of the Laplacian columns at
    the non-zero entries of t. When L^2 - s L + p I = c J and c J t = 0,
    L f = (s L - L^2) t = p t: f is p times a potential of t. With s and p
    the sum and product of the two distinct non-zero eigenvalues, f is the
    paper's order-achieving decomposition of t, which `decomposition` builds
    for every edge class; `monodromy.grounded_inverse` reads the same vectors,
    for t = e_j - e_n, off its closed form of p L0^-1."""
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


def decomposition(g, edge) -> Decomposition:
    """The paper's order-achieving decomposition of an edge class:
    c = (theta1 + theta2) t - L t gives L c = theta1 theta2 t, because
    (L - theta1)(L - theta2) kills t. The edge (a, b) is taken ascending, or
    lower degree first in the two-degree cases. A signed graph is first
    switched so that (a, b) is positive or, in the complete case, the unique
    negative edge of the first unbalanced triangle (a, b, w); there
    t = e_a + e_b. The identity is checked before the result is returned."""
    from critgroup.monodromy import _laplacian_mul, _laplacian_rows

    base = g.graph if isinstance(g, SignedGraph) else g
    a, b = edge_key(*edge)
    if (a, b) not in base.edges:
        raise GraphError(f"({edge[0]},{edge[1]}) is not an edge")
    params = detect_two_eigenvalue(g)
    if params is None:
        raise StructureError("decomposition needs a two-eigenvalue record")
    if not params.regular:
        if base.degree(a) == base.degree(b):
            raise StructureError("decomposition needs an edge joining the two degree classes")
        if base.degree(a) > base.degree(b):
            a, b = b, a
    switch_set, third = frozenset(), None
    if params.case == "signed_complete":
        third = next((w for w in g.vertices() if w not in (a, b)
                      and g.sign(a, b) * g.sign(a, w) * g.sign(b, w) == -1), None)
        if third is None:
            raise StructureError(f"every triangle through edge ({a},{b}) is balanced; "
                                 "the signed complete decomposition needs an unbalanced one")
        # by the signs of ab and aw: the set that leaves ab alone negative
        flip = {(-1, 1): (), (1, -1): (a,), (1, 1): (b,), (-1, -1): (third,)}
        switch_set = frozenset(flip[g.sign(a, b), g.sign(a, third)])
    elif isinstance(g, SignedGraph) and g.sign(a, b) == -1:
        switch_set = frozenset({b})
    work = switch(g, switch_set) if switch_set else g
    target = [0] * g.n
    target[a - 1], target[b - 1] = 1, 1 if third else -1
    rows = _laplacian_rows(work)
    coefficients = _scaled_potential(rows, params.eigenvalue_sum, target)
    if _laplacian_mul(rows, coefficients) != [params.eigenvalue_product * t for t in target]:
        raise InternalCheckError(f"decomposition identity failed for case {params.case} at edge {(a, b)}")
    return Decomposition(params.case, work, (a, b), tuple(coefficients),
                         params.eigenvalue_product, tuple(target), switch_set, third)


def edge_pairing_closed_form(g, e1, e2) -> PairingValue:
    """The paper's closed form for the pairing of two edge classes of a
    strongly regular graph: the decomposition coefficient of e1 at x minus
    the one at y, for e2 = (x, y) ascending, over the order bound."""
    from critgroup.monodromy import _closed_form_params

    params = _closed_form_params(g)
    x, y = edge_key(*e2)
    if (x, y) not in g.edges:
        raise GraphError(f"({x},{y}) is not an edge")
    coeff = decomposition(g, e1).coefficients
    return PairingValue.of(coeff[x - 1] - coeff[y - 1], params.eigenvalue_product)


@dataclass(frozen=True)
class Witnesses:
    """Coefficient witnesses of a decomposition, the paper's argument that
    its edge class reaches the spectral bound.

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


def witnesses(g, edge, dec=None) -> Witnesses:
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
        return Witnesses(None, unit, None, math.gcd(*coeff), coeff)

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
    return Witnesses(zero, unit, eliminated, math.gcd(*basis), basis)


def faddeev_leverrier(m) -> tuple:
    """Coefficients (low to high) of det(xI - m) by the O(n^4) Faddeev-LeVerrier
    recurrence: with M_1 = m, c_k = -tr(M_k) / k and M_{k+1} = m (M_k + c_k I).
    For an integer matrix every division is exact."""
    n = len(m)
    coeffs = [1]  # coefficient of x^n
    work = m
    for k in range(1, n + 1):
        t = sum(row[i] for i, row in enumerate(work))
        assert t % k == 0, "Faddeev-LeVerrier division was not exact"
        c = -(t // k)
        coeffs.append(c)
        if k < n:
            work = matmul(m, [[x + c * (i == j) for j, x in enumerate(row)] for i, row in enumerate(work)])
    return tuple(reversed(coeffs))


def adjacency_multiplicities(n, k, lam, mu):
    """Adjacency eigenvalue multiplicities of a strongly regular tuple
    (larger eigenvalue first) and the conference flag, or None when not
    integral: the oracle for `TwoEigenvalueParams.multiplicities`, which
    reads them off the Laplacian roots and the trace instead.

    The non-trivial adjacency eigenvalues are (lam - mu +- sqrt(disc))/2
    with disc = (lam-mu)^2 + 4(k-mu); their multiplicities
    (n-1 -+ q)/2 with q = (2k + (n-1)(lam-mu))/sqrt(disc) must be
    non-negative integers. Irrational eigenvalues force equal
    multiplicities: q = 0 and n odd (the conference case)."""
    disc = (lam - mu) ** 2 + 4 * (k - mu)
    t = 2 * k + (n - 1) * (lam - mu)
    s = math.isqrt(disc)
    if s * s == disc:
        if s == 0 or t % s:
            return None
        q = t // s
        if (n - 1 - q) % 2:
            return None
        m_plus = (n - 1 - q) // 2
        m_minus = (n - 1 + q) // 2
        if m_plus < 0 or m_minus < 0:
            return None
        return (m_plus, m_minus), False
    if t != 0 or (n - 1) % 2:
        return None
    half = (n - 1) // 2
    return (half, half), True


def enumerate_feasible_filter(n_max):
    """Feasible tuples by generate and filter: every (n, k, lam) is tried
    and kept when the parameter identity gives an integer mu in 1..k and
    the multiplicities are integral (`adjacency_multiplicities`). Same rows
    and order as `enumerate_feasible`."""
    from critgroup import FeasibleTuple, TwoEigenvalueParams, self_pairing_denominator

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
                mult = adjacency_multiplicities(n, k, lam, mu)
                if mult is None:
                    continue
                pair, conference = mult
                params = TwoEigenvalueParams(n, "srg", k, k, mu, 2 * k - lam + mu, n * mu, n * k // 2)
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
    from critgroup.monodromy import _pairing_table

    edges = g.sorted_edges()
    _, table = _pairing_table(g, edges)

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


def random_int_matrix(rng: random.Random, rows: int, cols: int, bound: int = 9) -> list[list[int]]:
    return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]


def frac(a, b=1):
    return Fraction(a, b)
