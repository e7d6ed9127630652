"""Graphs, signed graphs, generators, and combinatorial structure detection.

Vertices are integers 1..n. Edges are stored as sorted pairs (u, v) with
u < v. A signed graph is a graph together with the set of its negative
edges; every other edge is positive.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations
from math import isqrt

from .errors import (
    DisconnectedGraphError,
    GraphError,
    GraphFormatError,
    StructureError,
    _record,
)


def edge_key(u: int, v: int) -> tuple[int, int]:
    """Canonical form of an undirected edge."""
    if u == v:
        raise GraphError(f"loop at vertex {u} is not allowed")
    return (u, v) if u < v else (v, u)


@_record
class Graph:
    """Simple undirected graph on vertices 1..n."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.n < 1:
            raise GraphError(f"need at least one vertex, got n={self.n}")
        for u, v in self.edges:
            if not (1 <= u < v <= self.n):
                raise GraphError(f"edge ({u},{v}) out of range for n={self.n}")

    @cached_property
    def adjacency(self) -> dict[int, frozenset[int]]:
        nbrs: dict[int, set[int]] = {v: set() for v in self.vertices()}
        for u, v in self.edges:
            nbrs[u].add(v)
            nbrs[v].add(u)
        return {v: frozenset(s) for v, s in nbrs.items()}

    def vertices(self) -> range:
        return range(1, self.n + 1)

    def neighbors(self, v: int) -> frozenset[int]:
        return self.adjacency[v]

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def has_edge(self, u: int, v: int) -> bool:
        return edge_key(u, v) in self.edges

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    @cached_property
    def degree_values(self) -> tuple[int, ...]:
        return tuple(sorted({self.degree(v) for v in self.vertices()}))

    def is_regular(self) -> bool:
        return len(self.degree_values) == 1

    def is_complete(self) -> bool:
        return len(self.edges) == self.n * (self.n - 1) // 2

    @cached_property
    def _connected(self) -> bool:
        seen = {1}
        stack = [1]
        while stack:
            for w in self.adjacency[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.n

    def is_connected(self) -> bool:
        return self._connected

    @cached_property
    def _quadratic(self) -> tuple[int, int, int] | None:
        return _laplacian_quadratic(self)


@_record
class SignedGraph:
    """Signed graph: underlying simple graph plus the set of negative edges."""

    graph: Graph
    negative_edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        bad = self.negative_edges - self.graph.edges
        if bad:
            raise GraphError(f"negative edges not in graph: {sorted(bad)}")

    @property
    def n(self) -> int:
        return self.graph.n

    def vertices(self) -> range:
        return self.graph.vertices()

    def sign(self, u: int, v: int) -> int:
        e = edge_key(u, v)
        if e not in self.graph.edges:
            raise GraphError(f"({u},{v}) is not an edge")
        return -1 if e in self.negative_edges else 1

    def sorted_edges(self) -> list[tuple[int, int]]:
        return self.graph.sorted_edges()

    @cached_property
    def _quadratic(self) -> tuple[int, int, int] | None:
        return _laplacian_quadratic(self)


def make_graph(n: int, edges) -> Graph:
    return Graph(n, frozenset(edge_key(u, v) for u, v in edges))


def make_signed_graph(n: int, edges, negative_edges) -> SignedGraph:
    return SignedGraph(
        make_graph(n, edges),
        frozenset(edge_key(u, v) for u, v in negative_edges),
    )


def require_connected(g: Graph | SignedGraph, what: str) -> None:
    underlying = g.graph if isinstance(g, SignedGraph) else g
    if not underlying.is_connected():
        raise DisconnectedGraphError(f"{what} requires a connected graph")


# ---------------------------------------------------------------------------
# Generators


def complete(n: int) -> Graph:
    if n < 1:
        raise GraphError("complete graph needs n >= 1")
    return make_graph(n, combinations(range(1, n + 1), 2))


def cycle(n: int) -> Graph:
    if n < 3:
        raise GraphError("cycle needs n >= 3")
    edges = [(i, i + 1) for i in range(1, n)] + [(1, n)]
    return make_graph(n, edges)


def star(p: int) -> Graph:
    """Star with center vertex 1 and leaves 2..p+1."""
    if p < 1:
        raise GraphError("star needs at least one leaf")
    return make_graph(p + 1, [(1, i) for i in range(2, p + 2)])


def complete_multipartite(parts: list[int]) -> Graph:
    """Complete multipartite graph; part i occupies a consecutive label block."""
    if len(parts) < 2 or any(m < 1 for m in parts):
        raise GraphError("need at least two parts, each of size >= 1")
    n = sum(parts)
    blocks = []
    start = 1
    for m in parts:
        blocks.append(range(start, start + m))
        start += m
    edges = []
    for i in range(len(blocks)):
        for j in range(i + 1, len(blocks)):
            edges.extend((u, v) for u in blocks[i] for v in blocks[j])
    return make_graph(n, edges)


def petersen() -> Graph:
    """Kneser graph on the 2-subsets of {1..5}, labeled in lexicographic order."""
    subsets = list(combinations(range(1, 6), 2))
    index = {s: i + 1 for i, s in enumerate(subsets)}
    edges = [
        (index[a], index[b])
        for a, b in combinations(subsets, 2)
        if not set(a) & set(b)
    ]
    return make_graph(10, edges)


def clebsch_complement() -> Graph:
    """Binary strings of length 4 (lexicographic), adjacent iff they differ
    in exactly 2 or 3 positions. This is the (16,10,6,6) strongly regular
    complement of the Clebsch graph."""
    edges = []
    for a, b in combinations(range(16), 2):
        if bin(a ^ b).count("1") in (2, 3):
            edges.append((a + 1, b + 1))
    return make_graph(16, edges)


def _factor_prime_power(q: int) -> tuple[int, int]:
    for p in range(2, q + 1):
        if q % p == 0:
            e = 0
            while q % p == 0:
                q //= p
                e += 1
            if q != 1:
                raise GraphError("q must be a prime power")
            return p, e
    raise GraphError("q must be a prime power >= 2")


def _find_irreducible(p: int, e: int) -> tuple[int, ...]:
    """Monic irreducible of degree e over F_p, coefficients low to high,
    found by deterministic search with trial division."""

    def poly_mod(num, den):
        num = list(num)
        while len(num) >= len(den):
            if num[-1] % p:
                shift = len(num) - len(den)
                lead = num[-1] * pow(den[-1], -1, p) % p
                for i, c in enumerate(den):
                    num[shift + i] = (num[shift + i] - lead * c) % p
            num.pop()
        return num

    for code in range(p**e):
        coeffs = [(code // p**i) % p for i in range(e)] + [1]
        ok = True
        for d in range(1, e // 2 + 1):
            for dcode in range(p**d):
                den = [(dcode // p**i) % p for i in range(d)] + [1]
                if not any(poly_mod(coeffs, den)):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return tuple(coeffs)
    raise GraphError(f"no irreducible of degree {e} over F_{p}")


def paley(q: int) -> Graph:
    """Paley graph on the field with q elements, q a prime power, q = 1 mod 4.

    Field elements are enumerated by integer value sum(c_i * p^i) of their
    coefficient vectors; vertex labels are that value plus one. Two vertices
    are adjacent iff their difference is a non-zero square.
    """
    if q % 4 != 1:
        raise GraphError("paley needs q = 1 mod 4")
    p, e = _factor_prime_power(q)
    if e == 1:
        squares = {x * x % p for x in range(1, p)}
        edges = [
            (a + 1, b + 1) for a, b in combinations(range(p), 2) if (a - b) % p in squares
        ]
        return make_graph(p, edges)

    modulus = _find_irreducible(p, e)

    def decode(code):
        return tuple((code // p**i) % p for i in range(e))

    def encode(coeffs):
        return sum(c * p**i for i, c in enumerate(coeffs))

    def mul(a, b):
        prod = [0] * (2 * e - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] += x * y
        # reduce mod the irreducible, x^e = -(lower terms)
        for i in range(2 * e - 2, e - 1, -1):
            c = prod[i] % p
            prod[i] = 0
            for j in range(e):
                prod[i - e + j] = (prod[i - e + j] - c * modulus[j]) % p
        return tuple(c % p for c in prod[:e])

    elements = [decode(c) for c in range(q)]
    squares = {encode(mul(x, x)) for x in elements} - {0}
    edges = []
    for ca, cb in combinations(range(q), 2):
        diff = tuple((x - y) % p for x, y in zip(decode(ca), decode(cb)))
        if encode(diff) in squares:
            edges.append((ca + 1, cb + 1))
    return make_graph(q, edges)


def signed_complete_unbalanced(n: int) -> SignedGraph:
    """Complete graph on n >= 3 vertices with the single negative edge (1,2)."""
    if n < 3:
        raise GraphError("unbalanced signed complete graph needs n >= 3")
    return SignedGraph(complete(n), frozenset({(1, 2)}))


# Largest vertex count accepted from outside input, a file header or the
# parameters of a family, checked before anything of that size is built.
MAX_VERTICES = 1000

# Each family's builder and parameter count; None takes the whole list.
_FAMILIES = {
    "complete": (complete, 1),
    "complete_multipartite": (complete_multipartite, None),
    "star": (star, 1),
    "cycle": (cycle, 1),
    "paley": (paley, 1),
    "petersen": (petersen, 0),
    "clebsch_complement": (clebsch_complement, 0),
    "signed_complete_unbalanced": (signed_complete_unbalanced, 1),
}
GENERATOR_FAMILIES = tuple(_FAMILIES)


def generate(family: str, params=None) -> Graph | SignedGraph:
    """Build a named family member from a list of integer parameters.

    Every family's vertex count is the sum of its parameters, plus one for
    the centre of a star, so it is checked against MAX_VERTICES first.
    """
    params = list(params) if params is not None else []
    vertices = sum(params) + (family == "star")
    if vertices > MAX_VERTICES:
        raise GraphError(
            f"family {family} would have {vertices} vertices; the limit is {MAX_VERTICES}"
        )
    if family not in _FAMILIES:
        raise GraphError(f"unknown family {family!r}; known: {', '.join(GENERATOR_FAMILIES)}")
    builder, arity = _FAMILIES[family]
    if arity is None:
        if not params:
            raise GraphError(f"{family} needs part sizes")
        return builder(params)
    if len(params) != arity:
        raise GraphError(f"family {family} takes {arity} parameter(s), got {len(params)}")
    return builder(*params)


# ---------------------------------------------------------------------------
# File format: first line "n <count>", then one edge per line as "u v",
# optionally followed by + or -. '#' starts a comment. 1-indexed.


def parse_graph(text: str) -> Graph | SignedGraph:
    n = None
    edges: list[tuple[int, int]] = []
    negatives: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    signed = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if n is None:
            if len(tokens) != 2 or tokens[0] != "n":
                raise GraphFormatError("expected header 'n <count>'", lineno)
            try:
                n = int(tokens[1])
            except ValueError:
                raise GraphFormatError(f"bad vertex count {tokens[1]!r}", lineno) from None
            if n < 1:
                raise GraphFormatError(f"bad vertex count {n}", lineno)
            if n > MAX_VERTICES:
                raise GraphFormatError(
                    f"vertex count {n} exceeds the limit of {MAX_VERTICES}", lineno
                )
            continue
        if len(tokens) not in (2, 3):
            raise GraphFormatError(f"expected 'u v' or 'u v +/-', got {line!r}", lineno)
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise GraphFormatError(f"bad endpoints in {line!r}", lineno) from None
        if u == v:
            raise GraphFormatError(f"loop at vertex {u}", lineno)
        if not (1 <= u <= n and 1 <= v <= n):
            raise GraphFormatError(f"endpoint out of range 1..{n} in {line!r}", lineno)
        e = edge_key(u, v)
        if e in seen:
            raise GraphFormatError(f"duplicate edge ({e[0]},{e[1]})", lineno)
        seen.add(e)
        edges.append(e)
        if len(tokens) == 3:
            if tokens[2] not in ("+", "-"):
                raise GraphFormatError(f"bad sign {tokens[2]!r}", lineno)
            signed = True
            if tokens[2] == "-":
                negatives.append(e)

    if n is None:
        raise GraphFormatError("empty input, expected header 'n <count>'")
    if signed:
        return make_signed_graph(n, edges, negatives)
    return make_graph(n, edges)


def read_graph_file(path: str) -> Graph | SignedGraph:
    """Parse a graph file, which must be UTF-8 text; GraphFormatError names
    the line of the first byte that is not."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise GraphFormatError(f"not UTF-8 text (byte 0x{data[exc.start]:02x})", line) from None
    return parse_graph(text)


def format_graph(g: Graph | SignedGraph) -> str:
    """Render a graph in the file format (deterministic edge order)."""
    lines = [f"n {g.n}"]
    if isinstance(g, SignedGraph):
        for u, v in g.sorted_edges():
            lines.append(f"{u} {v} {'-' if (u, v) in g.negative_edges else '+'}")
    else:
        for u, v in g.sorted_edges():
            lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Structure detection


def _laplacian_quadratic(g: Graph | SignedGraph) -> tuple[int, int, int] | None:
    """(s, p, c) with L^2 - s L + p I = c J entrywise, L the (signed)
    Laplacian of the connected graph g, or None when no such identity holds
    or g has no edge.

    Off the diagonal, L^2 has ncn(u, v) - sign(u, v) (d_u + d_v), where ncn
    is the signed common-neighbour count; on it, d^2 + d. So the identity
    holds exactly when ncn = c on every non-adjacent pair, when
    d_u + d_v - sign(u, v) ncn is one value t on every edge (then
    s = t + c), and when every degree d gives the same p = c - d^2 - d + s d.
    The last follows from the first two on a connected graph: they make
    L^2 - s L - c J diagonal, and L commutes with it, so its diagonal is
    constant along every edge. A signed graph needs c = 0, fixed here. An
    unsigned complete graph fits every c and gives None. One pass over the
    vertex pairs, on adjacency bitmasks.
    """
    signed = isinstance(g, SignedGraph)
    base = g.graph if signed else g
    n, t, c = g.n, None, 0 if signed else None
    adj, neg = [0] * (n + 1), [0] * (n + 1)
    for u, v in base.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    for u, v in g.negative_edges if signed else ():
        neg[u] |= 1 << v
        neg[v] |= 1 << u
    degree = [a.bit_count() for a in adj]
    for u in range(1, n):
        au, nu, du = adj[u], neg[u], degree[u]
        for v in range(u + 1, n + 1):
            common = au & adj[v]
            ncn = common.bit_count()
            if nu | neg[v]:  # w counts -1 when exactly one of uw, wv is negative
                ncn -= 2 * (common & (nu ^ neg[v])).bit_count()
            if au >> v & 1:
                value = du + degree[v] - (-ncn if nu >> v & 1 else ncn)
                if t is None:
                    t = value
                elif t != value:
                    return None
            elif c is None:
                c = ncn
            elif c != ncn:
                return None
    if t is None or c is None:
        return None
    s = t + c
    d = base.degree_values[0]
    return s, c - d * d - d + s * d, c


def _multiplicities(count: int, s: int, p: int, trace: int) -> tuple[tuple[int, int], bool] | None:
    """((m1, m2), conference): the multiplicities of the real roots
    theta1 < theta2 of x^2 - s x + p from m1 + m2 = count and
    theta1 m1 + theta2 m2 = trace, else None, and whether the roots are
    irrational, which forces m1 = m2. Rational roots are integers."""
    disc = s * s - 4 * p
    if disc <= 0:
        return None
    root = isqrt(disc)
    if root * root != disc:
        return None if count % 2 or s * count != 2 * trace else ((count // 2, count // 2), True)
    m2, rest = divmod(trace - (s - root) // 2 * count, root)
    return None if rest or not 0 <= m2 <= count else ((count - m2, m2), False)


@_record
class TwoEigenvalueParams:
    """Parameters of a connected graph whose Laplacian has exactly two
    distinct non-zero eigenvalues theta1, theta2 (exactly two distinct
    eigenvalues for a signed graph), that is, whose Laplacian satisfies

        (L - theta1)(L - theta2) = L^2 - s L + p I = mu J

    (van Dam and Haemers), mu = 0 for a signed graph: s = eigenvalue_sum,
    p = eigenvalue_product. Non-adjacent pairs have mu common neighbours
    (net signed count when signed); adjacent pairs of an unsigned graph have
    mu_bar = n + mu - s common non-neighbours. Degrees are k1 <= k2, with
    s = k1 + k2 + 1 when they differ and lam = 2k - s + mu, the (signed)
    common-neighbour count on every edge, when they agree. case is srg,
    two_degree, signed_regular, signed_complete or signed_two_degree.
    edge_count = |E| = tr L / 2 fixes the multiplicities.
    """

    n: int
    case: str
    k1: int
    k2: int
    mu: int
    eigenvalue_sum: int
    eigenvalue_product: int
    edge_count: int

    @property
    def roots(self) -> tuple[int, int] | None:
        """theta1 <= theta2 when they are integers (`_multiplicities`), else None."""
        s, disc = self.eigenvalue_sum, self.eigenvalue_sum ** 2 - 4 * self.eigenvalue_product
        root = isqrt(max(disc, 0))
        return ((s - root) // 2, (s + root) // 2) if root * root == disc else None

    @property
    def multiplicities(self) -> tuple[tuple[int, int], bool] | None:
        """`_multiplicities` of the record: n - 1 eigenvalues (n when
        signed) besides the zero one, with trace tr L = 2 |E|."""
        count = self.n - (not self.case.startswith("signed"))
        return _multiplicities(count, self.eigenvalue_sum, self.eigenvalue_product, 2 * self.edge_count)

    @property
    def regular(self) -> bool:
        return self.k1 == self.k2

    @property
    def lam(self) -> int | None:
        return 2 * self.k1 - self.eigenvalue_sum + self.mu if self.regular else None

    @property
    def mu_bar(self) -> int:
        return self.n + self.mu - self.eigenvalue_sum

    @property
    def exceptional_family(self) -> str | None:
        """"star" for a star with at least two leaves, "complete_bipartite"
        for K_{m,m} with m >= 2, else None: the two families where the
        exponent is not the eigenvalue product.

        A star is the two-degree case with k1 = 1. A leaf u with neighbour w
        has at most one common neighbour with any other vertex, and mu >= 1
        on a connected non-complete graph, so mu = 1 and every vertex
        besides u is adjacent to w. The degrees are then 1 and n - 1, and
        only w is adjacent to u, so every vertex but w is a leaf. K_{m,m}
        is the strongly regular case with lam = 0 and mu = k. There
        non-adjacent vertices share all k neighbours, so non-adjacency is an
        equivalence relation and the graph is complete multipartite with
        equal parts; lam = 0 forbids triangles, which leaves two parts.
        """
        if self.case == "two_degree" and self.k1 == 1:
            return "star"
        if self.case == "srg" and self.lam == 0 and self.mu == self.k1:
            return "complete_bipartite"
        return None


def detect_two_eigenvalue(g: Graph | SignedGraph) -> TwoEigenvalueParams | None:
    """Parameters if the Laplacian of g has exactly two distinct non-zero
    eigenvalues (exactly two distinct eigenvalues for a signed graph), else
    None: the identity L^2 - s L + p I = mu J of `_laplacian_quadratic`,
    which for a regular graph says strongly regular, computed once per
    graph object. An unsigned complete graph, with a single non-zero
    eigenvalue, gives None.
    """
    require_connected(g, "detect_two_eigenvalue")
    signed = isinstance(g, SignedGraph)
    base = g.graph if signed else g
    quadratic = g._quadratic
    if quadratic is None:
        return None
    s, p, mu = quadratic
    k1, k2 = base.degree_values[0], base.degree_values[-1]
    if not signed:
        case = "srg" if k1 == k2 else "two_degree"
    elif k1 != k2:
        case = "signed_two_degree"
    else:
        case = "signed_complete" if base.is_complete() else "signed_regular"
    return TwoEigenvalueParams(g.n, case, k1, k2, mu, s, p, len(base.edges))


# ---------------------------------------------------------------------------
# Balance


@_record
class BalanceResult:
    """Outcome of a balance check. For a balanced graph, switching at
    switching_set (flipping the sign of every edge with exactly one endpoint
    in it) makes every edge positive."""

    balanced: bool
    switching_set: frozenset[int] | None


def is_balanced(gs: SignedGraph) -> BalanceResult:
    """Spanning-tree sign propagation from vertex 1."""
    if not isinstance(gs, SignedGraph):
        raise StructureError("is_balanced is defined for signed graphs only")
    require_connected(gs, "is_balanced")
    potential = {1: 1}
    stack = [1]
    adj = gs.graph.adjacency
    while stack:
        u = stack.pop()
        for w in sorted(adj[u]):
            if w not in potential:
                potential[w] = potential[u] * gs.sign(u, w)
                stack.append(w)
    for u, v in gs.graph.edges:
        if gs.sign(u, v) != potential[u] * potential[v]:
            return BalanceResult(False, None)
    return BalanceResult(True, frozenset(v for v, s in potential.items() if s == -1))
