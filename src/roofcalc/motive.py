"""Hodge-Deligne E-polynomial arithmetic and Grothendieck-ring checks, the
E-polynomial layer under `hodge`.

Classes of smooth projective varieties are represented by their
E-polynomials E(u,v) = sum (-1)^{p+q} h^{p,q} u^p v^q, the shadow that the
numeric identities actually consume; the affine line maps to the monomial uv.
E(G(k,n)) and the Lefschetz route's ambient diagonal read one Gaussian binomial.
"""

from __future__ import annotations

from functools import cache

from .errors import ExcludedCaseError, RankError
from .weights import Value


class EPoly(Value):
    """Finitely supported integer coefficients in two variables u, v."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[tuple[tuple[int, int], int], ...]):
        self.coeffs = coeffs

    @staticmethod
    def from_dict(d: dict[tuple[int, int], int]) -> "EPoly":
        return EPoly(tuple(sorted((pq, c) for pq, c in d.items() if c)))

    def as_dict(self) -> dict[tuple[int, int], int]:
        return dict(self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "EPoly") -> "EPoly":
        out = self.as_dict()
        for pq, c in other.coeffs:
            out[pq] = out.get(pq, 0) + c
        return EPoly.from_dict(out)

    def __sub__(self, other: "EPoly") -> "EPoly":
        return self + other.scale(-1)

    def scale(self, c: int) -> "EPoly":
        return EPoly.from_dict({pq: c * v for pq, v in self.coeffs})

    def __mul__(self, other: "EPoly") -> "EPoly":
        out: dict[tuple[int, int], int] = {}
        for (p1, q1), c1 in self.coeffs:
            for (p2, q2), c2 in other.coeffs:
                key = (p1 + p2, q1 + q2)
                out[key] = out.get(key, 0) + c1 * c2
        return EPoly.from_dict(out)

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for (p, q), c in self.coeffs:
            mono = f"u^{p}v^{q}" if (p, q) != (0, 0) else "1"
            parts.append(f"{c}*{mono}")
        return " + ".join(parts)


def lefschetz_power(k: int) -> EPoly:
    """[L]^k, i.e. (uv)^k."""
    return EPoly.from_dict({(k, k): 1})


@cache
def _gaussian_binomial(k: int, n: int) -> tuple[int, ...]:
    """Coefficients of [n choose k]_q = prod_{i=1..k} (1 - q^(n-k+i)) / (1 - q^i);
    the coefficient of q^p counts the partitions of p in the k x (n-k) box."""
    m = n - k
    c = [1] + [0] * (k * m)
    for i in range(1, k + 1):
        # times (1 - q^(m+i)), then divided by (1 - q^i), both mod q^(km+1)
        for j in range(k * m, m + i - 1, -1):
            c[j] -= c[j - m - i]
        for j in range(i, k * m + 1):
            c[j] += c[j - i]
    return tuple(c)


def epoly_grassmannian(k: int, n: int) -> EPoly:
    """E(G(k,n)): diagonal, (uv)^p with the coefficient of q^p in the
    Gaussian binomial [n choose k]_q."""
    if not (1 <= k < n):
        raise RankError(f"need 1 <= k < n, got ({k},{n})")
    return EPoly.from_dict({(p, p): c for p, c in enumerate(_gaussian_binomial(k, n))})


def epoly_projective(m: int) -> EPoly:
    """E(P^m) = 1 + uv + ... + (uv)^m; E(P^{-1}) = 0 for the empty space."""
    if m < -1:
        raise RankError(f"projective space needs m >= -1, got {m}")
    return EPoly.from_dict({(i, i): 1 for i in range(m + 1)})


def epoly_flag(k: int, n: int) -> EPoly:
    """E(F(k,k+1,n)) via the projective bundle structure over G(k+1,n)."""
    if not (1 <= k and k + 1 < n):
        raise RankError(f"flag F(k,k+1,n) needs 1 <= k < k+1 < n, got ({k},{n})")
    return epoly_grassmannian(k + 1, n) * epoly_projective(k)


def verify_lemma_leq(k: int, n: int, y1, y2) -> tuple[bool, EPoly]:
    """Check the stratified-projective-bundle identity

        (uv)^k E(Y2) - (uv)^{n-k-1} E(Y1)
            + E(G(k+1,n)) E(P^{k-1}) - E(G(k,n)) E(P^{n-k-2}) = 0

    for the exact `hodge.HodgeDiamond`s y1, y2.  Returns (holds, residual)."""
    residual = (
        lefschetz_power(k) * y2.epoly()
        - lefschetz_power(n - k - 1) * y1.epoly()
        + epoly_grassmannian(k + 1, n) * epoly_projective(k - 1)
        - epoly_grassmannian(k, n) * epoly_projective(n - k - 2)
    )
    return residual.is_zero(), residual


def betti_even(poly: EPoly, i: int) -> int:
    """b_{2i} read off a diagonal E-polynomial."""
    return poly.as_dict().get((i, i), 0)


def derive_b2(k: int, n: int) -> int:
    """Second Betti number of Y2 from the degree-(k+1) part of the
    projective-bundle identity:

        b_2(Y_2) = b_{2(k+1)}(F(k,k+1,n)) - sum_{i=2}^{k+1} b_{2i}(G(k+1,n)).

    Valid when dim Y2 = (k+1)(n-k-2) > 2; the excluded surface case raises.
    """
    if not (1 <= k and k + 1 < n):
        raise RankError(f"need 1 <= k < k+1 < n, got ({k},{n})")
    if (k + 1) * (n - k - 2) <= 2:
        raise ExcludedCaseError(
            f"(k+1)(n-k-2) = {(k + 1) * (n - k - 2)} <= 2: "
            f"Y2 is at most a surface, the Lefschetz argument does not apply"
        )
    flag = epoly_flag(k, n)
    grass = epoly_grassmannian(k + 1, n)
    gamma = betti_even(flag, k + 1)
    return gamma - sum(betti_even(grass, i) for i in range(2, k + 2))
