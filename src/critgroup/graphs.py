"""Graphs, signed graphs, generators, and combinatorial structure detection.

Vertices are integers 1..n. Edges are stored as sorted pairs (u, v) with
u < v. A signed graph is a graph together with the set of its negative
edges; every other edge is positive.
"""

from __future__ import annotations

from functools import cached_property
from itertools import compress
from math import isqrt
from operator import sub

from . import _lazy_module
from .errors import (
    DisconnectedGraphError,
    GraphError,
    GraphFormatError,
    StructureError,
    _record,
)

families = _lazy_module("families")


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


# Graphs whose group and grounded inverse stay cached; one CLI run reads one.
CACHED_GRAPHS = 8

# Largest vertex count accepted from outside input, a file header or the
# parameters of a family, checked before anything of that size is built.
MAX_VERTICES = 1000

# The families `generate` builds; `families.BUILDERS` holds each one's
# builder and parameter count.
GENERATOR_FAMILIES = ("complete", "complete_multipartite", "star", "cycle", "paley", "petersen",
                      "clebsch_complement", "signed_complete_unbalanced")


def generate(family: str, params=None) -> Graph | SignedGraph:
    """Build a named family member from a list of integer parameters.

    The family and its parameter count are checked first. Every family's
    vertex count is then the sum of its parameters, plus one for the centre
    of a star, so it is checked against MAX_VERTICES before anything is built.
    """
    params = list(params) if params is not None else []
    if family not in GENERATOR_FAMILIES:
        raise GraphError(f"unknown family {family!r}; known: {', '.join(GENERATOR_FAMILIES)}")
    builder, arity = families.BUILDERS[family]
    if arity is None and not params:
        raise GraphError(f"{family} needs part sizes")
    if arity is not None and len(params) != arity:
        raise GraphError(f"family {family} takes {arity} parameter(s), got {len(params)}")
    vertices = sum(params) + (family == "star")
    if vertices > MAX_VERTICES:
        raise GraphError(
            f"family {family} would have {vertices} vertices; the limit is {MAX_VERTICES}"
        )
    return builder(params) if arity is None else builder(*params)


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


# A b"0"/b"1" row as the selectors of its 1s and of its 0s.
_EDGE_FLAGS, _NON_EDGE_FLAGS = bytes.maketrans(b"01", b"\0\1"), bytes.maketrans(b"01", b"\1\0")


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
    rows of adjacency bitmasks, built from b"0"/b"1" rows: row u takes its
    common-neighbour counts with every later vertex in C, by map, and the
    pass stops at the first row that gives a second value of t or c.
    """
    signed = isinstance(g, SignedGraph)
    base = g.graph if signed else g
    n, zeros = g.n, b"0" * (g.n + 1)
    rows, adj, neg = [zeros] * (n + 1), [0] * (n + 1), [0] * (n + 1)
    for v, nbrs in base.adjacency.items():
        row = bytearray(zeros)  # b"1" at each neighbour w, so adj[v] has bit w
        for w in nbrs:
            row[w] = 49
        rows[v], adj[v] = row, int(row[::-1], 2)
    for u, v in g.negative_edges if signed else ():
        neg[u] |= 1 << v
        neg[v] |= 1 << u
    degree = [a.bit_count() for a in adj]
    ts, cs = set(), {0} if signed else set()
    for u in range(1, n):
        au, nu = adj[u], neg[u]
        ncn = list(map(int.bit_count, map(au.__and__, adj[u + 1:])))
        if signed:  # w counts -1 when exactly one of uw, wv is negative; a negative uv negates ncn
            ncn = [(x - 2 * (au & adj[v] & (nu ^ neg[v])).bit_count()) * (-1 if nu >> v & 1 else 1)
                   for v, x in enumerate(ncn, u + 1)]
        later = rows[u][u + 1:]
        edge = later.translate(_EDGE_FLAGS)
        ts.update(map(degree[u].__add__, map(sub, compress(degree[u + 1:], edge), compress(ncn, edge))))
        cs.update(compress(ncn, later.translate(_NON_EDGE_FLAGS)))
        if len(ts) > 1 or len(cs) > 1:
            return None
    if not ts or not cs:
        return None
    (t,), (c,) = ts, cs
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
