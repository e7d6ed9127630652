"""Arithmetic feasibility scan over strongly regular parameter tuples.

The filter keeps tuples passing the parameter identity, the handshake
parity, and adjacency-eigenvalue multiplicity integrality. Deeper
nonexistence knowledge (Krein conditions, absolute bounds, computer
classifications) is out of scope, so the tight-denominator scan marks any
tuple outside its embedded known-existence list for manual review instead
of suppressing it.
"""

from __future__ import annotations

from math import gcd

from . import _lazy_module
from .errors import GraphError, _record, replace
from .graphs import MAX_VERTICES, TwoEigenvalueParams, _multiplicities

monodromy = _lazy_module("monodromy")

# Parameter tuples with denominator equal to the full bound whose graphs are
# known to exist; the reference catalogues confirm realizations for each.
KNOWN_TIGHT_TUPLES = frozenset(
    {(5, 2, 0, 1), (35, 18, 9, 9), (45, 12, 3, 3), (85, 20, 3, 5)}
)

SCAN_NOTE = (
    "feasibility filter is arithmetic only (parameter identity, parity, "
    "multiplicity integrality); tuples outside the embedded known-existence "
    "list are flagged needs_review rather than suppressed"
)


@_record
class FeasibleTuple:
    """A parameter tuple passing the arithmetic feasibility conditions.

    multiplicities and conference are `params.multiplicities`: the counts
    of the Laplacian eigenvalues theta1 < theta2, that is of the adjacency
    eigenvalues k - theta, larger first, and the irrational-eigenvalue
    case, where the two counts agree. denominator is the self-pairing
    denominator; needs_review marks tight tuples absent from the embedded
    known-existence list."""

    params: TwoEigenvalueParams
    multiplicities: tuple[int, int]
    conference: bool
    denominator: int
    denominator_equals_bound: bool
    needs_review: bool = False


def enumerate_feasible(n_max: int) -> list[FeasibleTuple]:
    """All arithmetically feasible primitive tuples with n <= n_max, sorted
    by (n, k, lam). Primitive means connected and co-connected:
    2 <= k <= n-2 and 1 <= mu <= k. n_max is capped at MAX_VERTICES, the
    limit on any graph.

    With m = n-k-1 and d = k-1-lam the parameter identity reads
    mu * m = k * d, so mu is an integer exactly when m / gcd(k, m) divides
    d; an integer mu then lies in 1..k exactly when 1 <= d <= m. Only those
    d are visited, in descending order so that lam ascends."""
    if n_max < 5:
        raise GraphError(f"need n_max >= 5, got {n_max}")
    if n_max > MAX_VERTICES:
        raise GraphError(f"n_max {n_max} exceeds the limit of {MAX_VERTICES}")
    out = []
    for n in range(5, n_max + 1):
        for k in range(2, n - 1):
            if (n * k) % 2:
                continue
            m = n - k - 1
            step = m // gcd(k, m)
            for d in range(min(k - 1, m) // step * step, 0, -step):
                lam = k - 1 - d
                mu = k * d // m
                s = 2 * k - lam + mu
                mult = _multiplicities(n - 1, s, n * mu, n * k)  # TwoEigenvalueParams.multiplicities
                if mult is None:
                    continue
                pair, conference = mult
                params = TwoEigenvalueParams(n, "srg", k, k, mu, s, n * mu, n * k // 2)
                denominator = monodromy.self_pairing_denominator(params)
                tight = denominator == params.eigenvalue_product
                out.append(FeasibleTuple(params, pair, conference, denominator, tight, False))
    return out


def scan_tight_denominators(n_max: int) -> list[FeasibleTuple]:
    """Feasible tuples whose self-pairing denominator equals the full
    spectral bound, with tuples outside the known-existence list flagged."""
    out = []
    for ft in enumerate_feasible(n_max):
        if not ft.denominator_equals_bound:
            continue
        p = ft.params
        known = (p.n, p.k1, p.lam, p.mu) in KNOWN_TIGHT_TUPLES
        out.append(replace(ft, needs_review=not known))
    return out
