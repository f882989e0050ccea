"""Witness monomials, their divisor/annihilator sets, and cycle certificates.

The nonvanishing proofs all follow one pattern: pick the lexicographically
leftmost monomial f of degree q*d + b, let Z_f be the degree-d monomials that
multiply f to zero and D_f the degree-d divisors of f (E_f in the ACM case,
where divisors may carry a Lambda factor), and wedge together any p elements
of Z_f that include all of D_f. The resulting element (factors) tensor f is a
cycle, and if it is nonzero it cannot be a boundary: a boundary's expansion
never produces a wedge of annihilators of its coefficient containing all of
its coefficient's divisors. Counting |D_f| and |Z_f| therefore certifies
nonvanishing for every p between them.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import acm as _acm
from .combinatorics import (
    Monomial,
    TruncatedRing,
    annihilates,
    binom,
    divides,
    enumerate_monomials,
    mixed_cap_dim,
    quot_rem_by_dm1,
    truncated_dim,
)
from .errors import ParameterError


def leftmost_monomial(n: int, d: int, q: int, b: int) -> Monomial:
    """Leftmost degree-(q*d+b) monomial of the capped ring on x_0..x_n.

    Writing q*d + b = m*(d-1) + r, this is x_0^{d-1} ... x_{m-1}^{d-1} x_m^r.
    No such monomial exists when q*d + b exceeds the top degree (n+1)(d-1).
    """
    m, r = quot_rem_by_dm1(q, d, b)
    degree = q * d + b
    if degree < 0:
        raise ParameterError(f"q*d + b = {degree} is negative")
    if degree > (n + 1) * (d - 1):
        raise ParameterError(
            f"no degree-{degree} monomial exists: the capped ring on {n + 1} "
            f"variables tops out at degree {(n + 1) * (d - 1)}"
        )
    exps = [0] * (n + 1)
    for i in range(m):
        exps[i] = d - 1
    if r:
        exps[m] = r
    return Monomial(tuple(exps))


def zero_set(f: Monomial, ring: TruncatedRing) -> list[Monomial]:
    """Degree-cap monomials g with g * f = 0, in the frozen enumeration order."""
    return [g for g in enumerate_monomials(ring, ring.cap) if annihilates(g, f, ring)]


def divisor_set(f: Monomial, ring: TruncatedRing) -> list[Monomial]:
    """Degree-cap monomials dividing f, in the frozen enumeration order."""
    return [g for g in enumerate_monomials(ring, ring.cap) if divides(g, f)]


@dataclass(frozen=True, slots=True)
class CountFormulas:
    """|D_f| and |Z_f| computed two independent ways.

    The counting forms come from graded dimensions of smaller capped rings
    (always valid); the closed forms are the binomial expressions, asserted
    to agree whenever m <= n. `s_d` is the ambient degree-d dimension.
    """

    n: int
    d: int
    q: int
    b: int
    m: int
    r: int
    s_d: int
    divisor_count: int
    annihilator_count: int
    z_complement: int
    divisor_closed_form: int
    annihilator_closed_form: int
    closed_form_asserted: bool

    @property
    def consistent(self) -> bool:
        return (self.divisor_count == self.divisor_closed_form
                and self.annihilator_count == self.annihilator_closed_form)


def closed_forms(n: int, d: int, m: int, r: int) -> tuple[int, int]:
    """Binomial forms of (|D_f|, |Z_f|) at q*d + b = m*(d-1) + r, also past the top degree."""
    divisor = binom(m + d, m) - binom(m + d - r - 1, m) - m
    annihilator = binom(n + d, n) + binom(n - m + r, r) - binom(n - m + d, d) - m - 1
    return divisor, annihilator


def count_formulas(n: int, d: int, q: int, b: int) -> CountFormulas:
    """Count |D_f| and |Z_f| for the leftmost witness monomial.

    Divisors: degree-d monomials below f live in the ring with caps d on
    x_0..x_{m-1} and r+1 on x_m; its degree-d dimension equals
    dim V_d - dim V_{d-r-1} + dim V_0 over the all-caps-d ring V on x_0..x_m
    (a two-step periodic resolution, the alternating sum stops at degree 0).
    Annihilators: the complement of Z_f consists of degree-d monomials with
    no x_0..x_{m-1} and x_m-exponent below d-r, counted the same way over the
    ring T on x_m..x_n. Closed forms are the binomial versions of the same
    two counts, with lower indices rewritten to stay nonnegative.
    """
    m, r = quot_rem_by_dm1(q, d, b)
    degree = q * d + b
    if degree > (n + 1) * (d - 1):
        raise ParameterError(
            f"no witness monomial of degree {degree} exists for n={n}, d={d}"
        )
    s_ring = TruncatedRing(n + 1, d)
    s_d = truncated_dim(s_ring, d)

    v_ring = TruncatedRing(m + 1, d)
    divisors = (truncated_dim(v_ring, d) - truncated_dim(v_ring, d - r - 1)
                + truncated_dim(v_ring, 0))

    t_ring = TruncatedRing(n - m + 1, d) if m <= n else TruncatedRing(0, d)
    z_complement = (truncated_dim(t_ring, d) - truncated_dim(t_ring, r)
                    + truncated_dim(t_ring, 0))
    annihilators = s_d - z_complement

    divisor_closed, annihilator_closed = closed_forms(n, d, m, r)
    return CountFormulas(
        n=n, d=d, q=q, b=b, m=m, r=r, s_d=s_d,
        divisor_count=divisors,
        annihilator_count=annihilators,
        z_complement=z_complement,
        divisor_closed_form=divisor_closed,
        annihilator_closed_form=annihilator_closed,
        closed_form_asserted=m <= n,
    )


# ---------------------------------------------------------------------------
# Witness cycles

Factor = Monomial | _acm.ACMMonomial


@dataclass(frozen=True, slots=True)
class VeroneseWitnessParams:
    n: int
    d: int
    b: int
    q: int


@dataclass(frozen=True, slots=True)
class ACMWitnessParams:
    spec: _acm.ACMSpec
    d: int
    b: int
    q: int


@dataclass(frozen=True, slots=True)
class WitnessCycle:
    """p wedge factors and a coefficient monomial: (f_1 ^ ... ^ f_p) tensor f."""

    factors: tuple[Factor, ...]
    coefficient: Monomial
    params: VeroneseWitnessParams | ACMWitnessParams

    @property
    def p(self) -> int:
        return len(self.factors)

    def to_text(self) -> str:
        """Canonical text form: one factor per line, then '| coefficient'."""
        lines = [str(f) for f in self.factors]
        lines.append(f"| {self.coefficient}")
        return "\n".join(lines) + "\n"


def build_witness(f: Monomial, p: int, zset: list[Factor], dset: list[Factor],
                  params: VeroneseWitnessParams | ACMWitnessParams) -> WitnessCycle:
    """Assemble the witness at wedge length p: all of dset, padded from zset.

    Requires dset to be contained in zset (each required factor must also
    annihilate f) and |dset| <= p <= |zset|.
    """
    zpos = {g: i for i, g in enumerate(zset)}
    missing = [g for g in dset if g not in zpos]
    if missing:
        raise ParameterError(
            f"required factors are not annihilators of the coefficient: {missing[:3]}"
        )
    if not (len(dset) <= p <= len(zset)):
        raise ParameterError(
            f"p={p} is outside the witness interval [{len(dset)}, {len(zset)}]"
        )
    dkeys = set(dset)
    factors = list(dset)
    for g in zset:
        if len(factors) == p:
            break
        if g not in dkeys:
            factors.append(g)
    return WitnessCycle(factors=tuple(factors), coefficient=f, params=params)


@dataclass(frozen=True, slots=True)
class CertificateCheck:
    name: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True, slots=True)
class CertificateReport:
    checks: tuple[CertificateCheck, ...]
    sufficient_condition: bool | None = None

    @property
    def verdict(self) -> bool:
        return all(c.ok for c in self.checks)


def verify_certificate(w: WitnessCycle) -> CertificateReport:
    """Re-derive the witness sets from w.params and check the cycle conditions.

    A passing certificate means: factors distinct, every required divisor-type
    factor present, every factor annihilates the coefficient, the coefficient
    is a nonzero monomial of the capped ring, and p lies in the counting
    interval. For ACM parameters the report also carries the sufficient
    condition d >= b + q + c + 1 (informational: the containment E_f within
    Z_f is verified directly either way).
    """
    params = w.params
    if isinstance(params, ACMWitnessParams):
        spec, d, b, q = params.spec, params.d, params.b, params.q
        f = leftmost_monomial(spec.n, d, q, b)
        zset = acm_zero_set(spec, d, q, b).monomials
        dset = acm_e_set(spec, d, q, b).monomials
        sufficient = d >= b + q + spec.c + 1
    else:
        n, d, b, q = params.n, params.d, params.b, params.q
        ring = TruncatedRing(n + 1, d)
        f = leftmost_monomial(n, d, q, b)
        zset = zero_set(f, ring)
        dset = divisor_set(f, ring)
        sufficient = None

    factor_set = set(w.factors)
    zkeys = set(zset)
    checks = (
        CertificateCheck("factors_distinct", len(factor_set) == len(w.factors)),
        CertificateCheck(
            "required_factors_present",
            all(g in factor_set for g in dset),
            f"|required|={len(dset)}",
        ),
        CertificateCheck(
            "required_factors_annihilate",
            all(g in zkeys for g in dset),
        ),
        CertificateCheck(
            "factors_annihilate_coefficient",
            all(g in zkeys for g in w.factors),
        ),
        CertificateCheck(
            "coefficient_matches_and_nonzero",
            w.coefficient == f and all(e < d for e in f.exponents),
            f"expected {f}",
        ),
        CertificateCheck(
            "p_within_interval",
            len(dset) <= w.p <= len(zset),
            f"[{len(dset)}, {len(zset)}]",
        ),
    )
    return CertificateReport(checks=checks, sufficient_condition=sufficient)


# ---------------------------------------------------------------------------
# ACM witness sets

@dataclass(frozen=True, slots=True)
class ESetReport:
    """E_f: degree-d basis monomials x^a y^b with x^a dividing f.

    `count` = |E_f|; `per_lambda_dims` counts the same set by Lambda element
    as graded dimensions, so its sum must equal `count`.
    """

    monomials: tuple[_acm.ACMMonomial, ...]
    count: int
    per_lambda_dims: tuple[int, ...]


def acm_e_bounds(spec: _acm.ACMSpec, d: int, q: int, b: int) -> tuple[int, int | None]:
    """The coarse and refined closed-form bounds on |E_f|; the refined one needs q in [1, n-1]."""
    coarse = spec.deg_x * (q + b + 1) * binom(q - 1 + d, q - 1)
    if not 1 <= q <= spec.n - 1:
        return coarse, None
    return coarse, ((spec.deg_x - 1) * (q + b + 1) * binom(q - 1 + d - 1, q - 1)
                    + binom(q + d, q) - binom(d - b - 1, q) - q)


def acm_e_set(spec: _acm.ACMSpec, d: int, q: int, b: int) -> ESetReport:
    """Enumerate E_f for the leftmost f of degree q*d + b, and count it by Lambda element.

    The x-parts of E_f elements of Lambda-degree k are the degree-(d-k)
    monomials of k[x_0..x_n] with exponents capped at f's exponents + 1.
    """
    n = spec.n
    f = leftmost_monomial(n, d, q, b)
    out = []
    for g in _acm.basis(spec, d, d):
        if all(a <= c for a, c in zip(g.x_part, f.exponents)):
            out.append(g)
    caps = tuple(e + 1 for e in f.exponents)
    return ESetReport(
        monomials=tuple(out),
        count=len(out),
        per_lambda_dims=tuple(mixed_cap_dim(caps, d - k) for k in spec.lambda_degrees),
    )


@dataclass(frozen=True, slots=True)
class ZSetReport:
    """Z_f in the capped ACM reduction; `complement_count` = r-bar_d - |Z_f|."""

    monomials: tuple[_acm.ACMMonomial, ...]
    count: int
    complement_count: int


def acm_zero_set(spec: _acm.ACMSpec, d: int, q: int, b: int) -> ZSetReport:
    """Enumerate Z_f = degree-d basis monomials annihilating f.

    Freeness of the reduction over the capped Noether ring means only the
    x-part matters: x^a y^b * f = (x^a f) y^b, so g annihilates f exactly
    when its x-part does.
    """
    n = spec.n
    ring = TruncatedRing(n + 1, d)
    f = leftmost_monomial(n, d, q, b)
    zset = []
    complement = 0
    for g in _acm.basis(spec, d, d):
        if annihilates(Monomial(g.x_part), f, ring):
            zset.append(g)
        else:
            complement += 1
    return ZSetReport(
        monomials=tuple(zset),
        count=len(zset),
        complement_count=complement,
    )
