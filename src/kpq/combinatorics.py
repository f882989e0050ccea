"""Exponent-capped monomial arithmetic and counting.

Everything downstream works inside the ring k[x_0..x_n]/(x_0^d, ..., x_n^d):
monomials whose exponents all stay below a cap d, with multiplication declared
zero as soon as any exponent reaches the cap. This module provides the ring
descriptor, monomial type, enumeration in a frozen order, truncated dimension
counts, and the binomial convention used by every closed-form formula.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

from .errors import ParameterError


def binom(a: int, k: int) -> int:
    """Binomial coefficient C(a, k) under the counting convention.

    Returns 0 for k < 0, 1 for k == 0 (including negative a, the
    empty-product case), 0 whenever a < k, and the ordinary value otherwise.
    The a < k branch covers negative a as well: these coefficients count
    monomials, so there is never a signed generalized value.
    """
    if k < 0:
        return 0
    if k == 0:
        return 1
    if a < k:
        return 0
    return math.comb(a, k)


def _as_int(value, what: str) -> int:
    """`value` as an int; floats, strings and other non-integers are refused."""
    try:
        return operator.index(value)
    except TypeError:
        raise ParameterError(f"{what} must be an integer, got {value!r}") from None


@dataclass(frozen=True, slots=True)
class TruncatedRing:
    """Descriptor for k[x_0..x_{num_vars-1}] with every variable's cap-th power zero."""

    num_vars: int
    cap: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "num_vars", _as_int(self.num_vars, "num_vars"))
        object.__setattr__(self, "cap", _as_int(self.cap, "cap"))
        if self.num_vars < 0:
            raise ParameterError(f"num_vars must be >= 0, got {self.num_vars}")
        if self.cap < 1:
            raise ParameterError(f"cap must be >= 1, got {self.cap}")

    @property
    def n(self) -> int:
        """Projective dimension convention: num_vars = n + 1."""
        return self.num_vars - 1

    @property
    def top_degree(self) -> int:
        """Largest degree with a nonzero graded piece: num_vars * (cap - 1)."""
        return self.num_vars * (self.cap - 1)


@dataclass(frozen=True, slots=True)
class Monomial:
    """A monomial, stored as its exponent tuple."""

    exponents: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(e < 0 for e in self.exponents):
            raise ParameterError(f"negative exponent in {self.exponents}")

    @property
    def degree(self) -> int:
        return sum(self.exponents)

    def __str__(self) -> str:
        return " ".join(str(e) for e in self.exponents)


def mul_truncated(a: Monomial, b: Monomial, ring: TruncatedRing) -> Monomial | None:
    """Product of two monomials in the capped ring; None is the zero element.

    The product vanishes exactly when some combined exponent reaches ring.cap.
    """
    if len(a.exponents) != ring.num_vars or len(b.exponents) != ring.num_vars:
        raise ParameterError("monomial arity does not match ring")
    out = tuple(x + y for x, y in zip(a.exponents, b.exponents))
    if any(e >= ring.cap for e in out):
        return None
    return Monomial(out)


def annihilates(a: Monomial, f: Monomial, ring: TruncatedRing) -> bool:
    """True when a * f = 0 in the capped ring: some exponent sum reaches the cap."""
    if len(a.exponents) != ring.num_vars or len(f.exponents) != ring.num_vars:
        raise ParameterError("monomial arity does not match ring")
    return any(x + y >= ring.cap for x, y in zip(a.exponents, f.exponents))


def divides(a: Monomial, f: Monomial) -> bool:
    """Componentwise divisibility a | f."""
    if len(a.exponents) != len(f.exponents):
        raise ParameterError("monomial arity mismatch")
    return all(x <= y for x, y in zip(a.exponents, f.exponents))


@lru_cache(maxsize=None)
def _capped_exponents(num_vars: int, caps: tuple[int, ...], k: int) -> tuple[tuple[int, ...], ...]:
    # descending lexicographic enumeration; caps[i] is the excluded power of x_i
    if k < 0:
        return ()
    if num_vars == 0:
        return ((),) if k == 0 else ()
    out = []
    tail_room = sum(c - 1 for c in caps[1:])
    lo = max(0, k - tail_room)
    for e0 in range(min(caps[0] - 1, k), lo - 1, -1):
        for rest in _capped_exponents(num_vars - 1, caps[1:], k - e0):
            out.append((e0,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def _monomials(ring: TruncatedRing, k: int) -> tuple[Monomial, ...]:
    caps = (ring.cap,) * ring.num_vars
    return tuple(Monomial(e) for e in _capped_exponents(ring.num_vars, caps, k))


def enumerate_monomials(ring: TruncatedRing, k: int) -> list[Monomial]:
    """Degree-k monomial basis of the capped ring, in the frozen order.

    The order is descending lexicographic on exponent tuples (largest
    x_0-exponent first). Every index used elsewhere (wedge bases, matrix
    rows/columns, witness serialization) refers to this order.
    """
    return list(_monomials(ring, k))


@lru_cache(maxsize=None)
def truncated_dim(ring: TruncatedRing, k: int) -> int:
    """dim of the degree-k piece of the capped ring, by inclusion-exclusion.

    Sum over j of (-1)^j C(num_vars, j) C(k - j*cap + n, n) where n = num_vars - 1.
    Agrees with len(enumerate_monomials(ring, k)) for all k.
    """
    if k < 0:
        return 0
    if ring.num_vars == 0:
        return 1 if k == 0 else 0
    n = ring.n
    total = 0
    for j in range(ring.num_vars + 1):
        if k - j * ring.cap < 0:
            break
        total += (-1) ** j * binom(ring.num_vars, j) * binom(k - j * ring.cap + n, n)
    return total


@lru_cache(maxsize=None)
def mixed_cap_dim(caps: tuple[int, ...], k: int) -> int:
    """dim of the degree-k piece of a product of capped polynomial lines.

    caps[i] is the excluded power of the i-th variable, so each factor
    contributes 1 + t + ... + t^(caps[i]-1). Computed by exact convolution;
    used for divisor counts and ACM witness-set sizes where caps differ.
    """
    if k < 0:
        return 0
    poly = [1]
    for c in caps:
        if c < 1:
            raise ParameterError(f"cap must be >= 1, got {c}")
        new = [0] * min(len(poly) + c - 1, k + 1)
        for i, v in enumerate(poly):
            for j in range(min(c, len(new) - i)):
                new[i + j] += v
        poly = new
    return poly[k] if k < len(poly) else 0


def quot_rem_by_dm1(q: int, d: int, b: int) -> tuple[int, int]:
    """Quotient and remainder of q*d + b by d - 1.

    This is the division that selects the witness monomial shape: with
    q*d + b = m*(d-1) + r the witness takes m full (d-1)-powers and one
    exponent-r tail. Requires d >= 2.
    """
    if d < 2:
        raise ParameterError(f"d must be >= 2 (got d={d}); division by d-1 is undefined")
    return divmod(q * d + b, d - 1)
