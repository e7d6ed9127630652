"""Generators of the named graph families, which `graphs.generate`
dispatches to by name after checking the family's parameters. All
labelings are fixed, so each family member is one graph, and
`automorphisms` recognises a Paley graph by its edge set.
"""

from __future__ import annotations

from itertools import combinations
from math import isqrt

from .errors import GraphError
from .graphs import Graph, SignedGraph, make_graph


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


def _pair_graph(n: int, adjacent) -> Graph:
    """The graph on 1..n whose edges are the pairs u < v with adjacent(u, v)."""
    return Graph(n, frozenset(e for e in combinations(range(1, n + 1), 2) if adjacent(*e)))


def complete_multipartite(parts: list[int]) -> Graph:
    """Complete multipartite graph; part i occupies a consecutive label block."""
    if len(parts) < 2 or any(m < 1 for m in parts):
        raise GraphError("need at least two parts, each of size >= 1")
    part = [None, *(i for i, m in enumerate(parts) for _ in range(m))]
    return _pair_graph(len(part) - 1, lambda u, v: part[u] != part[v])


def petersen() -> Graph:
    """Kneser graph on the 2-subsets of {1..5}, labeled in lexicographic order."""
    subsets = [None, *map(set, combinations(range(1, 6), 2))]
    return _pair_graph(10, lambda u, v: not subsets[u] & subsets[v])


def clebsch_complement() -> Graph:
    """Binary strings of length 4 (lexicographic), adjacent iff they differ
    in exactly 2 or 3 positions. This is the (16,10,6,6) strongly regular
    complement of the Clebsch graph."""
    return _pair_graph(16, lambda u, v: bin((u - 1) ^ (v - 1)).count("1") in (2, 3))


def _poly_mul(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...]:
    """Product over F_p of two polynomials, coefficients low to high."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    return tuple(c % p for c in prod)


def _field(q: int):
    """(p, elements, mul) of the field with q = p^e elements, else
    GraphError: F_p[x]/(f), f the first monic irreducible of degree e when
    its lower coefficients, low to high, are read as base-p digits. Element
    i is the coefficient tuple, low to high, of the base-p digits of i, and
    mul is the product."""
    if q < 2:
        raise GraphError("q must be a prime power >= 2")
    p = next((d for d in range(2, isqrt(q) + 1) if q % d == 0), q)
    e = 1
    while p**e < q:
        e += 1
    if p**e != q:
        raise GraphError("q must be a prime power")
    elements = [tuple(code // p**i % p for i in range(e)) for code in range(q)]

    def monic(d):  # every monic polynomial of degree d
        return [x[:d] + (1,) for x in elements[: p**d]]

    # f is the first monic polynomial of degree e that is no product of two
    # monic polynomials of lower degree
    reducible = {_poly_mul(a, b, p) for d in range(1, e // 2 + 1) for a in monic(d) for b in monic(e - d)}
    f = next(x for x in monic(e) if x not in reducible)

    def mul(x, y):
        product = list(_poly_mul(x, y, p))
        for i in range(2 * e - 2, e - 1, -1):  # subtract c x^(i-e) f, top term first
            c = product[i]
            for j in range(e):
                product[i - e + j] = (product[i - e + j] - c * f[j]) % p
        return tuple(product[:e])

    return p, elements, mul


def paley(q: int) -> Graph:
    """Paley graph on the field with q elements, q a prime power, q = 1 mod 4.

    The field is `_field(q)`, with modulus x^2 + 1 for q = 9 and x^2 + 2 for
    q = 25. Vertex i is the element whose base-p digits are those of i - 1.
    Two vertices are adjacent iff their difference is a non-zero square.
    """
    if q % 4 != 1:
        raise GraphError("paley needs q = 1 mod 4")
    p, elements, mul = _field(q)
    if p == q:
        squares = {x * x % p for x in range(1, p)}
        return _pair_graph(q, lambda u, v: (u - v) % p in squares)
    squares = {mul(x, x) for x in elements[1:]}
    vector = [None, *elements]
    return _pair_graph(q, lambda u, v: tuple((a - b) % p for a, b in zip(vector[u], vector[v])) in squares)


def automorphisms(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Generators of automorphisms of g, each the images of 1..n, which
    `pairing` verifies, when g's edge set is that of the `paley(n)` that
    `graphs.generate` builds (the edge count is compared first), else ():
    x -> x + b for each basis vector b and x -> w^2 x for the first
    primitive element w, which move any edge {x, x + s} to {0, 1}."""
    n, size = g.n, len(g.edges)
    try:  # paley(n) rejects n that is not 1 mod 4 or no prime power before it builds
        if 4 * size != n * (n - 1) or g.edges != paley(n).edges:
            return ()
    except GraphError:
        return ()
    p, elements, mul = _field(n)
    vertex = {x: i + 1 for i, x in enumerate(elements)}
    for w in elements[2:]:
        power, order = w, 1
        while power != elements[1]:
            power, order = mul(power, w), order + 1
        if order == len(elements) - 1:
            break
    square = mul(w, w)
    shifts = [tuple(vertex[(*x[:i], (x[i] + 1) % p, *x[i + 1:])] for x in elements) for i in range(len(w))]
    return (*shifts, tuple(vertex[mul(square, x)] for x in elements))


def signed_complete_unbalanced(n: int) -> SignedGraph:
    """Complete graph on n >= 3 vertices with the single negative edge (1,2)."""
    if n < 3:
        raise GraphError("unbalanced signed complete graph needs n >= 3")
    return SignedGraph(complete(n), frozenset({(1, 2)}))


# Each family's builder and parameter count, None taking the whole list,
# under the name `graphs.generate` takes.
BUILDERS = {
    "complete": (complete, 1),
    "complete_multipartite": (complete_multipartite, None),
    "star": (star, 1),
    "cycle": (cycle, 1),
    "paley": (paley, 1),
    "petersen": (petersen, 0),
    "clebsch_complement": (clebsch_complement, 0),
    "signed_complete_unbalanced": (signed_complete_unbalanced, 1),
}
