"""Characteristic polynomials, square-free parts and the Laplacian
spectrum, on coefficient tuples.

A polynomial is a tuple of its int coefficients, low to high.
Characteristic polynomials come from a Hessenberg reduction modulo a
Mersenne prime larger than twice the coefficient bound, checked against a
determinant at one point. The Laplacian spectrum that `analyze` prints is
read off a two-eigenvalue record, else is that polynomial with its integer
roots divided out (`laplacian_spectrum`); `verify spectral-bound` on a
graph without a record multiplies the roots of its square-free part
(`_distinct_product`). Square-free parts come from a gcd modulo a prime,
certified by exact division over the integers (`squarefree_part`).
No fractions and no floating point anywhere.
"""

from __future__ import annotations

from math import isqrt
from operator import mul

from . import _lazy_module
from .errors import DisconnectedGraphError, GraphError, InternalCheckError
from .graphs import Graph, SignedGraph, detect_two_eigenvalue

linalg = _lazy_module("linalg")


# Exponents p of the Mersenne primes 2^p - 1 that char_poly and
# squarefree_part compute modulo. They are proven primes, so no primality
# test is needed; 2^11213 - 1 covers every Laplacian with at most
# graphs.MAX_VERTICES vertices.
MERSENNE_EXPONENTS = (61, 89, 107, 127, 521, 607, 1279, 2203, 2281, 3217, 4253,
                      4423, 9689, 9941, 11213, 19937)


def _mersenne_prime(limit: int) -> int:
    """The smallest Mersenne prime of the table above `limit`."""
    for p in MERSENNE_EXPONENTS:
        if 2**p - 1 > limit:
            return 2**p - 1
    raise GraphError("characteristic polynomial coefficients exceed the largest modulus")


def _gcd_modulo(a, b, prime: int) -> list[int]:
    """The monic gcd over Z/prime of the integer polynomials with
    coefficient lists a and b (low to high), by Euclid's algorithm there."""
    def trim(c):
        while c and not c[-1]:
            c.pop()
        return c

    a, b = trim([x % prime for x in a]), trim([x % prime for x in b])
    while b:
        inverse = pow(b[-1], -1, prime)
        while len(a) >= len(b):  # a = a mod b
            f = a[-1] * inverse % prime
            shift = len(a) - len(b)
            a[shift:] = [(x - f * y) % prime for x, y in zip(a[shift:], b)]
            trim(a)
        a, b = b, a
    inverse = pow(a[-1], -1, prime)
    return [x * inverse % prime for x in a]


def _divide_monic(a, b) -> list[int] | None:
    """The quotient of the integer coefficient lists a / b (low to high), b
    monic, or None when the division leaves a remainder."""
    rem, m = list(a), len(b) - 1
    quotient = [0] * (len(rem) - m)
    for shift in range(len(quotient) - 1, -1, -1):
        f = quotient[shift] = rem[shift + m]
        if f:
            for i in range(m):
                rem[shift + i] -= f * b[i]
    return None if any(rem[:m]) else quotient


def squarefree_part(p) -> tuple[int, ...]:
    """p / gcd(p, p'): the monic integer polynomial p, a sequence of int
    coefficients low to high, with every repeated root collapsed to
    multiplicity one, as a tuple. Anything but a monic integer polynomial
    is a GraphError.

    gcd(p, p') is monic over Z by Gauss's lemma, so it divides the gcd of
    the residues modulo every prime. If that gcd is constant modulo
    2^61 - 1, p is returned as it is. Otherwise the gcd is taken modulo the
    first table prime above 2B, B = 2^deg p ceil(||p||_2) the Mignotte bound
    on the coefficients of a divisor of p (reused if that is 2^61 - 1), and
    lifted to symmetric residues.
    The lift is kept only if it divides both p and p' over Z: a common
    divisor at least as large as the true gcd is the true gcd. A failed lift
    moves on to the next prime. 2^19937 - 1 exceeds 2B for every factor of a
    Laplacian characteristic polynomial up to graphs.MAX_VERTICES, so the
    table running out is an InternalCheckError.
    """
    coeffs = tuple(p)
    if not coeffs or any(type(c) is not int for c in coeffs) or coeffs[-1] != 1:
        raise GraphError("square-free part of a polynomial that is not monic over the integers")
    derivative = [i * c for i, c in enumerate(coeffs) if i]
    first = 2**MERSENNE_EXPONENTS[0] - 1
    first_gcd = _gcd_modulo(coeffs, derivative, first)
    if len(first_gcd) == 1:
        return coeffs
    bound = 2**(len(coeffs) - 1) * (isqrt(sum(c * c for c in coeffs) - 1) + 1)
    for e in MERSENNE_EXPONENTS:
        prime = 2**e - 1
        if prime <= 2 * bound:
            continue
        residues = first_gcd if prime == first else _gcd_modulo(coeffs, derivative, prime)
        gcd_p = [c - prime if c > prime // 2 else c for c in residues]
        quotient = _divide_monic(coeffs, gcd_p)
        if quotient is not None and _divide_monic(derivative, gcd_p) is not None:
            return tuple(quotient)
    raise InternalCheckError(f"no table prime lifts gcd(p, p') to a common divisor, deg p = {len(coeffs) - 1}")


def _hessenberg_char_poly(rows, prime: int) -> list[int]:
    """Coefficients (low to high) of det(xI - m) modulo the Mersenne prime
    `prime` = 2^e - 1.

    Reduces m to upper Hessenberg form H by similarity transforms over
    Z/prime (Cohen, A Course in Computational Algebraic Number Theory,
    Alg. 2.2.9), then reads the characteristic polynomials p_r of the
    leading r x r blocks of H off the recurrence
    p_r = (x - h_rr) p_{r-1} - sum_i (h_{r,r-1} ... h_{i+1,i}) h_ir p_{i-1}.

    The row eliminations, O(n^3) of the work, reduce without division: a
    row entry a - u b is a + u (prime - b), in [0, prime^2), and since
    2^e = 1 modulo prime, t = (t & prime) + (t >> e) brings it below
    2 prime, one subtraction below prime.
    """
    n = len(rows)
    e = prime.bit_length()
    h = [[x % prime for x in row] for row in rows]
    for j in range(n - 2):
        k = j + 1
        pivot = next((i for i in range(k, n) if h[i][j]), None)
        if pivot is None:
            continue  # column j is already reduced
        if pivot != k:
            h[pivot], h[k] = h[k], h[pivot]
            for row in h:
                row[pivot], row[k] = row[k], row[pivot]
        inverse = pow(h[k][j], -1, prime)
        negated_tail = [prime - b for b in h[k][j:]]
        factors = []
        for i in range(k + 1, n):
            u = h[i][j] * inverse % prime
            if u:
                row = h[i]
                h[i] = row[:j] + [
                    r - prime if (r := ((t := a + u * c) & prime) + (t >> e)) >= prime else r
                    for a, c in zip(row[j:], negated_tail)
                ]
                factors.append((i, u))
        # undo the row operations on the right: column k += u * column i
        for row in h:
            row[k] = (row[k] + sum(u * row[i] for i, u in factors)) % prime
    polys = [[1]]
    for r in range(n):
        prev = polys[r]
        coeffs = [0] + prev
        coeffs[:r + 1] = [a - h[r][r] * c for a, c in zip(coeffs, prev)]
        t = 1
        for i in range(r - 1, -1, -1):
            t = t * h[i + 1][i] % prime
            if not t:
                break
            f = t * h[i][r] % prime
            coeffs[:i + 1] = [a - f * c for a, c in zip(coeffs, polys[i])]
        polys.append([c % prime for c in coeffs])
    return polys[n]


def _krylov_char_poly(g: Graph | SignedGraph, prime: int) -> list[int] | None:
    """det(xI - L) modulo the prime, low to high, for the (signed)
    Laplacian L of g, by Wiedemann's method, or None. Berlekamp-Massey
    gives the minimal polynomial m of a_i = u L^i v, i < 2n, for u and v
    fixed by a linear congruential generator. m divides det(xI - L), so it
    is that polynomial when its degree is n; else the result is None."""
    rows, state = linalg._laplacian_rows(g), 1
    n = len(rows)
    draws = [(state := (6364136223846793005 * state + 1442695040888963407) % 2**64) % prime
             for _ in range(2 * n)]  # Knuth's MMIX generator
    u, v = draws[:n], draws[n:]
    seq = [sum(map(mul, u, v)) % prime]
    for _ in range(2 * n - 1):
        v = [x % prime for x in linalg._laplacian_mul(rows, v)]
        seq.append(sum(map(mul, u, v)) % prime)
    # c is the connection polynomial of the shortest recurrence so far, b
    # the one before its last length change, whose discrepancy was `scale`
    c, b, length, gap, scale = [1], [1], 0, 1, 1
    for k in range(2 * n):
        d = sum(map(mul, c, seq[k::-1])) % prime
        if d:
            f, previous = d * pow(scale, -1, prime) % prime, c
            c = c + [0] * (len(b) + gap - len(c))
            c[gap:gap + len(b)] = [(x - f * y) % prime for x, y in zip(c[gap:], b)]
            if 2 * length <= k:
                length, b, scale, gap = k + 1 - length, previous, d, 0
        gap += 1
    return (c + [0] * n)[n::-1] if length == n else None


def _distinct_product(g: Graph | SignedGraph, order: int) -> int:
    """D, the product of the distinct non-zero Laplacian eigenvalues of g.
    They are the roots of h = det(xI - L), over x when unsigned, and with
    multiplicity they multiply to N = n |G| (|G| when signed), |G| the
    group `order`. h comes modulo P = 2^61 - 1 from `_krylov_char_poly`,
    else from one exact `char_poly`; either way h(0) = (-1)^deg h N modulo
    P, else InternalCheckError. A coprime h' modulo P makes the monic h
    square-free over Z (Gauss's lemma), so D = N. Otherwise D = (-1)^deg q
    q(0) for q the `squarefree_part` of the exact h, which makes the same
    test first; D must be a positive divisor of N."""
    prime = 2 ** MERSENNE_EXPONENTS[0] - 1
    exact, f = None, _krylov_char_poly(g, prime)
    if f is None:
        exact = char_poly(linalg.laplacian(g))
        f = [c % prime for c in exact]
    signed = isinstance(g, SignedGraph)
    h, nonzero = (f, order) if signed else (f[1:], g.n * order)
    if not signed and f[0] or (h[0] - (-1) ** (len(h) - 1) * nonzero) % prime:
        raise InternalCheckError(f"det(xI - L) modulo {prime} disagrees with the group order {order}")
    if exact is None:
        if len(_gcd_modulo(h, [i * c for i, c in enumerate(h) if i], prime)) == 1:
            return nonzero
        exact = char_poly(linalg.laplacian(g))
    q = squarefree_part(exact if signed else exact[1:])  # h itself when gcd(h, h') is 1 modulo P
    product = (-1) ** (len(q) - 1) * q[0]
    if product <= 0 or nonzero % product:
        raise InternalCheckError(f"distinct eigenvalue product {product} is no positive divisor of {nonzero}")
    return product


def char_poly(m) -> tuple[int, ...]:
    """det(xI - m) as its n + 1 int coefficients, low to high, the last 1,
    by Hessenberg reduction modulo one prime.

    With g = gershgorin_bound(m), every eigenvalue has |lambda| <= g, so the
    coefficients are at most (1 + g)^n in absolute value and one Mersenne
    prime P > 2 (1 + g)^n determines them as symmetric residues. The result
    is checked: monic, the x^(n-1) coefficient is -trace(m), and p(g + 1)
    equals det((g + 1) I - m) computed exactly.
    """
    n = len(m)
    if not m or any(len(row) != n for row in m):
        raise GraphError("characteristic polynomial of a non-square matrix")
    g = gershgorin_bound(m)
    prime = _mersenne_prime(2 * (1 + g) ** n)
    half = prime // 2
    coeffs = tuple(c - prime if c > half else c for c in _hessenberg_char_poly(m, prime))
    if coeffs[n] != 1 or coeffs[n - 1] != -sum(row[i] for i, row in enumerate(m)):
        raise InternalCheckError("characteristic polynomial is not monic with the trace coefficient")
    x0, value = g + 1, 0
    for c in reversed(coeffs):  # Horner: value = p(x0)
        value = value * x0 + c
    shifted = [[(x0 if i == j else 0) - x for j, x in enumerate(row)] for i, row in enumerate(m)]
    if value != linalg.determinant(shifted):
        raise InternalCheckError(f"characteristic polynomial disagrees with det(xI - m) at x = {x0}")
    return coeffs


def gershgorin_bound(m) -> int:
    """Every eigenvalue of a square integer matrix lies within this bound
    in absolute value: the largest absolute row sum."""
    n = len(m)
    if not m or any(len(row) != n for row in m):
        raise GraphError("Gershgorin bound of a non-square matrix")
    return max(sum(abs(x) for x in row) for row in m)


def laplacian_spectrum(g: Graph | SignedGraph) -> tuple[list[tuple[int, int]], tuple[int, ...]]:
    """(roots, factor): the integer eigenvalues of the (signed) Laplacian of
    g with their multiplicities, ascending, and the monic integer factor of
    its characteristic polynomial that carries the other eigenvalues, as
    coefficients low to high; (1,) when there is none.

    With a two-eigenvalue record (`detect_two_eigenvalue`) they are read
    off it: 0 once when unsigned, then theta1 < theta2 with the record's
    multiplicities when they are integers, else the factor
    (x^2 - s x + p)^m. Otherwise a (signed) Laplacian is positive
    semidefinite, so every eigenvalue lies in [0, gershgorin_bound]. Each
    integer r there, 0 included, is divided out of the monic `char_poly`
    (`_divide_monic` by x - r) for as long as the remainder is zero.
    The factor left has no integer root, hence no rational one.
    """
    try:
        params = detect_two_eigenvalue(g)
    except DisconnectedGraphError:
        params = None
    if params is not None:
        if params.multiplicities is None:
            raise InternalCheckError(f"the structure record {params} has no integral multiplicities")
        (m1, m2), conference = params.multiplicities
        roots = [] if params.case.startswith("signed") else [(0, 1)]
        if not conference:
            return roots + list(zip(params.roots, (m1, m2))), (1,)
        s, p, coeffs = params.eigenvalue_sum, params.eigenvalue_product, [1]
        for _ in range(m1):  # times x^2 - s x + p
            coeffs = [p * a - s * b + c for a, b, c in zip(coeffs + [0, 0], [0, *coeffs, 0], [0, 0, *coeffs])]
        return roots, tuple(coeffs)
    lap = linalg.laplacian(g)
    coeffs, roots = char_poly(lap), []
    for r in range(gershgorin_bound(lap) + 1):
        multiplicity = 0
        while (quotient := _divide_monic(coeffs, (-r, 1))) is not None:
            coeffs, multiplicity = quotient, multiplicity + 1
        if multiplicity:
            roots.append((r, multiplicity))
    return roots, tuple(coeffs)
