"""The rank-2 free factor complex as the Farey graph.

Vertices are primitive integer pairs up to sign; two vertices are adjacent
iff the corresponding pairs form a basis of Z^2 (determinant +-1), and equal
iff the determinant is 0.  Other distances are computed by continued-fraction
descent: after moving one endpoint to (1, 0) by an isometry, a vertex p/q with
q >= 2 has exactly two neighbours of smaller denominator (its Stern-Brocot
parents), and some geodesic to (1, 0) descends through one of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from typing import Iterable, Tuple

from freefactor.errors import MalformedVertex, NonPrimitiveImage


@dataclass(frozen=True, slots=True)
class FareyVertex:
    p: int
    q: int

    def __post_init__(self):
        if gcd(abs(self.p), abs(self.q)) != 1:
            raise NonPrimitiveImage(f"({self.p}, {self.q}) is not a primitive pair")
        # sign normalization: first nonzero coordinate positive
        if (self.p if self.p != 0 else self.q) < 0:
            raise MalformedVertex(f"{self} is not sign-normalized; farey_vertex normalizes")

    def __str__(self) -> str:
        return f"{self.p}/{self.q}"


def farey_vertex(p: int, q: int) -> FareyVertex:
    g = gcd(abs(p), abs(q))
    if g == 0:
        raise NonPrimitiveImage("zero vector is not a vertex")
    if g != 1:
        raise NonPrimitiveImage(f"({p}, {q}) is not primitive")
    lead = p if p != 0 else q
    if lead < 0:
        p, q = -p, -q
    return FareyVertex(p, q)


def vertex_from_str(s: str) -> FareyVertex:
    p, _, q = s.partition("/")
    try:
        return farey_vertex(int(p), int(q))
    except ValueError:
        raise MalformedVertex(f"{s!r} is not a vertex p/q") from None


@lru_cache(maxsize=1_000_000)
def _dist_to_infinity(p: int, q: int) -> int:
    """Distance from p/q (q >= 0, primitive) to (1, 0).

    A vertex with q >= 2 is the mediant of its two Stern-Brocot parents, its
    only neighbours of smaller denominator, and some geodesic to (1, 0)
    descends through a parent.  Writing p/q = [a0; a1, ..., ak], the nodes
    [a0; ..., a_{j-1}, t] have parents [a0; ..., a_{j-1}, t-1] and the
    convergent C_{j-1}, which collapses the descent to a linear recurrence in
    the partial quotients.
    """
    if q == 0:
        return 0
    if q == 1:
        return 1
    cf = []
    a, b = p, q
    while b:
        k = a // b
        cf.append(k)
        a, b = b, a - k * b
    k = len(cf) - 1  # floor CF of a non-integer: k >= 1 and cf[k] >= 2
    dC = [1]  # dC[j] = d(infinity, [a0; ...; a_j])
    f1 = 1    # f(j, 1) = d of [a0; ...; a_{j-1}, 1]; for j = 1 an integer
    for j in range(1, k + 1):
        if j > 1:
            f1 = min(f1 + cf[j - 1], dC[j - 2] + 1)
        t = cf[j]
        dC.append(f1 if t == 1 else min(f1 + t - 1, dC[j - 1] + 1))
    return dC[k]


def _norm(p: int, q: int) -> Tuple[int, int]:
    if q < 0 or (q == 0 and p < 0):
        p, q = -p, -q
    return p, q


def farey_distance(u: FareyVertex, v: FareyVertex) -> int:
    """Exact geodesic distance: |p q' - q p'| when that determinant is 0
    (equal) or 1 (adjacent), otherwise by continued-fraction descent."""
    p, q = u.p, u.q
    b = p * v.q - q * v.p
    if -1 <= b <= 1:
        return abs(b)
    # isometry sending u to (1, 0): rows (s, -r), (-q, p) with p s - q r = 1;
    # it sends v to (a, b), whose second coordinate is the determinant
    r, s = _bezout(p, q)
    a, b = _norm(s * v.p - r * v.q, b)
    return _dist_to_infinity(a, b)


def _bezout(p: int, q: int) -> Tuple[int, int]:
    """(r, s) with p*s - q*r = 1."""
    # extended gcd: find x, y with p*x + q*y = 1
    x0, x1, y0, y1, a, b = 1, 0, 0, 1, p, q
    while b:
        k = a // b
        a, b = b, a - k * b
        x0, x1 = x1, x0 - k * x1
        y0, y1 = y1, y0 - k * y1
    if a == -1:
        x0, y0 = -x0, -y0
        a = 1
    assert a == 1
    return -y0, x0


def diameter(vertices: Iterable[FareyVertex]) -> int:
    vs = list(vertices)
    best = 0
    for i, u in enumerate(vs):
        for v in vs[i + 1 :]:
            best = max(best, farey_distance(u, v))
    return best
