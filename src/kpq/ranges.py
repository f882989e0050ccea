"""Closed-form nonvanishing intervals and the parameter transforms around them.

For the d-uple embedding of P^n twisted by b, the group K_{p,q} is nonzero
for every p between |D_f| and |Z_f| of the leftmost witness monomial; both
endpoints have closed binomial forms. ACM rings get the analogous interval
with deg(X)-weighted endpoints. This module also provides the (b, q)
normalization, the admissibility window, and the duality transform on
(p, q, b).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
import math

from . import acm as _acm
from . import witness as _witness
from .combinatorics import _as_int, binom, quot_rem_by_dm1
from .errors import InadmissibleWeightError, InconsistencyError, ParameterError


@dataclass(frozen=True, slots=True)
class VeroneseParams:
    """Normalized parameters (n, d, b, q) with b in [0, d-1].

    `shift` records how many d-steps were folded from b into q when the
    instance was produced by normalize().
    """

    n: int
    d: int
    b: int
    q: int
    shift: int = 0

    def __post_init__(self) -> None:
        for name in ("n", "d", "b", "q", "shift"):
            object.__setattr__(self, name, _as_int(getattr(self, name), name))
        if self.n < 1:
            raise ParameterError(f"n must be >= 1, got {self.n}")
        if self.d < 2:
            raise ParameterError(f"d must be >= 2, got {self.d}")
        if not 0 <= self.b < self.d:
            raise ParameterError(f"b must lie in [0, {self.d - 1}], got {self.b}")


@dataclass(frozen=True, slots=True)
class PQRange:
    """Closed integer interval [lo, hi] of wedge indices p; may be empty."""

    lo: int
    hi: int

    @property
    def empty(self) -> bool:
        return self.lo > self.hi

    def __contains__(self, p: int) -> bool:
        return self.lo <= p <= self.hi

    def __iter__(self):
        return iter(range(self.lo, self.hi + 1))

    def __len__(self) -> int:
        return 0 if self.empty else self.hi - self.lo + 1


def normalize(n: int, d: int, b: int, q: int) -> VeroneseParams:
    """Fold b into [0, d-1] using the degree-shift identity.

    K_{p,q}(b) and K_{p,q+1}(b-d) are the same group, so b moves by multiples
    of d while q absorbs the shift. Rejects d < 2 (the cap leaves no monomials
    of positive degree to work with).
    """
    d, b, q = _as_int(d, "d"), _as_int(b, "b"), _as_int(q, "q")
    if d < 2:
        raise ParameterError(f"d must be >= 2, got {d}")
    b_norm = b % d
    shift = (b - b_norm) // d
    return VeroneseParams(n=n, d=d, b=b_norm, q=q + shift, shift=shift)


def admissible_q(params: VeroneseParams) -> bool:
    """True when 0 <= q <= n+1 - (n+b)/d, evaluated exactly over the integers."""
    n, d, b, q = params.n, params.d, params.b, params.q
    return 0 <= q and q * d <= (n + 1) * d - n - b


@dataclass(frozen=True, slots=True)
class VeroneseRangeReport:
    params: VeroneseParams
    m: int
    r: int
    pq: PQRange
    counts: _witness.CountFormulas | None
    lo_closed_form: int
    hi_closed_form: int
    closed_form_asserted: bool


def veronese_range_report(params: VeroneseParams) -> VeroneseRangeReport:
    """Nonvanishing interval with both derivations and bookkeeping.

    Primary endpoints are the counting forms |D_f| and |Z_f|; the closed
    binomial forms are asserted equal whenever m <= n. When q*d + b exceeds
    the top degree of the capped ring (only possible at the admissible edge)
    there is no witness monomial and the closed forms give a provably empty
    interval, which is returned as such.
    """
    if not admissible_q(params):
        raise InadmissibleWeightError(
            f"q={params.q} is outside [0, n+1-(n+b)/d] for n={params.n}, "
            f"d={params.d}, b={params.b}: every K_{{p,q}} vanishes there "
            f"(the reduced complex has zero coefficient space)"
        )
    n, d, b, q = params.n, params.d, params.b, params.q
    if q * d + b > (n + 1) * (d - 1):
        m, r = quot_rem_by_dm1(q, d, b)
        lo_closed, hi_closed = _witness.closed_forms(n, d, m, r)
        pq = PQRange(lo_closed, hi_closed)
        if not pq.empty:
            raise InconsistencyError(
                f"expected an empty interval past the top degree, got [{pq.lo}, {pq.hi}]"
            )
        return VeroneseRangeReport(
            params=params, m=m, r=r, pq=pq, counts=None,
            lo_closed_form=lo_closed, hi_closed_form=hi_closed,
            closed_form_asserted=False,
        )
    counts = _witness.count_formulas(n, d, q, b)
    pq = PQRange(counts.divisor_count, counts.annihilator_count)
    if counts.closed_form_asserted and not counts.consistent:
        raise InconsistencyError(
            f"closed-form endpoints [{counts.divisor_closed_form}, "
            f"{counts.annihilator_closed_form}] disagree with "
            f"counting forms [{pq.lo}, {pq.hi}] at n={n}, d={d}, b={b}, q={q}"
        )
    return VeroneseRangeReport(
        params=params, m=counts.m, r=counts.r, pq=pq, counts=counts,
        lo_closed_form=counts.divisor_closed_form,
        hi_closed_form=counts.annihilator_closed_form,
        closed_form_asserted=counts.closed_form_asserted,
    )


def veronese_range(params: VeroneseParams) -> PQRange:
    """The certified nonvanishing interval of p for K_{p,q}(n, b; d)."""
    return veronese_range_report(params).pq


@dataclass(frozen=True, slots=True)
class DualParams:
    """Result of the duality transform on (p, q, b).

    The dual group of K_{p,q}(n, b; d) is K_{p',q'}(n, b'; d) with
    p' = r_d - n - p, q' = n + 1 - q and b' = -n - 1 - b, then (b', q')
    normalized back into b in [0, d-1]. `trivially_zero` flags p' < 0.
    """

    p_prime: int
    params: VeroneseParams
    r_d: int
    q_prime_raw: int
    b_prime_raw: int
    trivially_zero: bool


def dual_params(params: VeroneseParams, p: int) -> DualParams:
    n, d, b, q = params.n, params.d, params.b, params.q
    r_d = binom(n + d, n) - 1
    p_prime = r_d - n - _as_int(p, "p")
    q_raw = n + 1 - q
    b_raw = -n - 1 - b
    normalized = normalize(n, d, b_raw, q_raw)
    return DualParams(
        p_prime=p_prime,
        params=normalized,
        r_d=r_d,
        q_prime_raw=q_raw,
        b_prime_raw=b_raw,
        trivially_zero=p_prime < 0,
    )


# ---------------------------------------------------------------------------
# ACM intervals

def _check_acm_window(spec: _acm.ACMSpec, d: int, b: int, q: int) -> tuple[int, int, int]:
    """(d, b, q) as ints, once they are known to lie in the window."""
    d, b, q = _as_int(d, "d"), _as_int(b, "b"), _as_int(q, "q")
    if not 1 <= q <= spec.n:
        raise ParameterError(
            f"q must lie in [1, {spec.n}] (ACM weights are 1 <= q <= n), got {q}"
        )
    if b < 0:
        raise ParameterError(f"b must be >= 0, got {b}")
    if d < b + q + spec.c + 1:
        raise ParameterError(
            f"need d >= b + q + c + 1 = {b + q + spec.c + 1} (c = {spec.c}), got d={d}"
        )
    return d, b, q


def _acm_interval(spec: _acm.ACMSpec, d: int, b: int, q: int
                  ) -> tuple[tuple[int, int, int], _acm.ACMInvariants, PQRange, int | None]:
    """The window-checked (d, b, q), the invariants at d, the certified
    interval and its refined lower endpoint (None unless q is in [1, n-1])."""
    d, b, q = _check_acm_window(spec, d, b, q)
    n = spec.n
    inv = _acm.invariants(spec, d)
    lo, refined = _witness.acm_e_bounds(spec, d, q, b)
    deficit = spec.deg_x if q == n else spec.deg_x * (d - q - b) * binom(d + n - q - 1, n - q - 1)
    return (d, b, q), inv, PQRange(lo, inv.r_d_prime - deficit), refined


def acm_range(spec: _acm.ACMSpec, d: int, b: int, q: int) -> PQRange:
    """Certified nonvanishing interval for K_{p,q} of the ACM ring at level d.

    Endpoints by the weight:
      q in [1, n-1]: [deg(X)(q+b+1) C(d+q-1, q-1),
                      r'_d - deg(X)(d-q-b) C(d+n-q-1, n-q-1)]
      q = n:         same lower endpoint, upper r'_d - deg(X)
    Requires d >= b + q + c + 1 and 1 <= q <= n.
    """
    return _acm_interval(spec, d, b, q)[2]


def acm_range_improved(spec: _acm.ACMSpec, d: int, b: int, q: int) -> PQRange:
    """Same upper endpoint as acm_range, with the refined lower endpoint

    (deg(X)-1)(q+b+1) C(q-1+d-1, q-1) + C(q+d, q) - C(d-b-1, q) - q,

    valid for q in [1, n-1]. With deg(X) = 1 this collapses to the plain
    projective-space lower endpoint.
    """
    _, _, pq, refined = _acm_interval(spec, d, b, q)
    if refined is None:
        raise ParameterError(
            f"the refined lower endpoint needs q in [1, {spec.n - 1}], got {q}"
        )
    return PQRange(refined, pq.hi)


@dataclass(frozen=True, slots=True)
class ACMRangeReport:
    pq: PQRange
    improved: PQRange | None
    invariants: _acm.ACMInvariants
    z_complement: int
    witness_interval: PQRange


def acm_range_report(spec: _acm.ACMSpec, d: int, b: int, q: int) -> ACMRangeReport:
    """acm_range plus the enumerated witness interval [|E_f|, |Z_f|] behind it.

    Every certified p must lie in the witness interval, and the per-Lambda
    graded dimensions must add up to |E_f|; a report that breaks either is
    an InconsistencyError.
    """
    (d, b, q), inv, pq, refined = _acm_interval(spec, d, b, q)
    eset = _witness.acm_e_set(spec, d, q, b)
    zset = _witness.acm_zero_set(spec, d, q, b)
    where = f"{spec.name} at d={d}, b={b}, q={q}"
    if sum(eset.per_lambda_dims) != eset.count:
        raise InconsistencyError(
            f"per-Lambda dimensions {list(eset.per_lambda_dims)} do not add up to "
            f"|E_f| = {eset.count} for {where}"
        )
    for name, lo in (("lower endpoint", pq.lo), ("refined lower endpoint", refined)):
        if lo is not None and eset.count > lo:
            raise InconsistencyError(
                f"the {name} {lo} lies below |E_f| = {eset.count}, outside the "
                f"witness interval, for {where}"
            )
    if pq.hi > zset.count:
        raise InconsistencyError(
            f"the upper endpoint {pq.hi} lies above |Z_f| = {zset.count}, outside the "
            f"witness interval, for {where}"
        )
    return ACMRangeReport(
        pq=pq,
        improved=None if refined is None else PQRange(refined, pq.hi),
        invariants=inv,
        z_complement=zset.complement_count,
        witness_interval=PQRange(eset.count, zset.count),
    )


# ---------------------------------------------------------------------------
# Leading-order behaviour in d

@dataclass(frozen=True, slots=True)
class AsymptoticCoefficients:
    """Leading coefficients of the interval endpoints as d grows.

    lower endpoint ~ lower_coeff * d^lower_power; the upper endpoint trails
    the maximal p by deficit ~ deficit_coeff * d^deficit_power.
    """

    lower_coeff: Fraction
    lower_power: int
    deficit_coeff: Fraction
    deficit_power: int


def asymptotic_coefficients(n: int, q: int, b: int,
                            deg_x: int | None = None) -> AsymptoticCoefficients:
    """Leading-order data for the interval endpoints as d grows; q in [1, n-1].

    With deg_x omitted this describes the exact interval on P^n: the lower
    endpoint grows like (q+b+1)/(q-1)! * d^{q-1} and the upper endpoint
    trails the top wedge dimension s_d by ~ d^{n-q}/(n-q)!.

    With deg_x given it describes the ACM interval, whose upper endpoint is
    stated relative to r'_d: lower ~ deg(X)(q+b+1)/(q-1)! * d^{q-1} and
    deficit ~ deg(X)/(n-q-1)! * d^{n-q}.
    """
    n, q, b = _as_int(n, "n"), _as_int(q, "q"), _as_int(b, "b")
    if not 1 <= q <= n - 1:
        raise ParameterError(f"asymptotics need q in [1, {n - 1}], got {q}")
    if b < 0:
        raise ParameterError(f"need b >= 0, got {b}")
    if deg_x is None:
        # at q = 1 the interval's lower endpoint is the constant b+1: the -m
        # correction of the divisor count lands in the leading order there
        return AsymptoticCoefficients(
            lower_coeff=Fraction(q + b + 1 if q >= 2 else b + 1,
                                 math.factorial(q - 1)),
            lower_power=q - 1,
            deficit_coeff=Fraction(1, math.factorial(n - q)),
            deficit_power=n - q,
        )
    if _as_int(deg_x, "deg_x") < 1:
        raise ParameterError(f"need deg_x >= 1, got {deg_x}")
    return AsymptoticCoefficients(
        lower_coeff=Fraction(deg_x * (q + b + 1), math.factorial(q - 1)),
        lower_power=q - 1,
        deficit_coeff=Fraction(deg_x, math.factorial(n - q - 1)),
        deficit_power=n - q,
    )
