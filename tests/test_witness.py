import pytest

from kpq.acm import ACMMonomial, hypersurface_spec
from kpq.combinatorics import Monomial, TruncatedRing, enumerate_monomials
from kpq.errors import ParameterError
from kpq.witness import (
    ACMWitnessParams,
    VeroneseWitnessParams,
    WitnessCycle,
    acm_e_set,
    acm_zero_set,
    build_witness,
    count_formulas,
    divisor_set,
    leftmost_monomial,
    verify_certificate,
    zero_set,
)


class TestLeftmostMonomial:
    def test_examples(self):
        assert leftmost_monomial(2, 5, 2, 0) == Monomial((4, 4, 2))
        assert leftmost_monomial(2, 3, 2, 0) == Monomial((2, 2, 2))
        assert leftmost_monomial(1, 2, 1, 0) == Monomial((1, 1))
        assert leftmost_monomial(2, 3, 1, 0) == Monomial((2, 1, 0))
        assert leftmost_monomial(3, 4, 2, 1) == Monomial((3, 3, 3, 0))
        assert leftmost_monomial(2, 4, 0, 2) == Monomial((2, 0, 0))

    def test_degree_and_caps(self):
        for (n, d, q, b) in [(2, 5, 2, 0), (3, 4, 2, 1), (1, 3, 1, 1)]:
            f = leftmost_monomial(n, d, q, b)
            assert f.degree == q * d + b
            assert all(e <= d - 1 for e in f.exponents)
            assert len(f.exponents) == n + 1

    def test_past_top_degree(self):
        with pytest.raises(ParameterError):
            leftmost_monomial(1, 2, 2, 0)
        with pytest.raises(ParameterError, match="no witness monomial of degree 4"):
            count_formulas(1, 2, 2, 0)

    def test_negative_degree(self):
        with pytest.raises(ParameterError, match=r"q\*d \+ b = -1 is negative"):
            leftmost_monomial(1, 3, 0, -1)


class TestWitnessSets:
    def test_divisor_golden_d5(self):
        ring = TruncatedRing(3, 5)
        f = leftmost_monomial(2, 5, 2, 0)
        got = [g.exponents for g in divisor_set(f, ring)]
        assert got == [
            (4, 1, 0), (4, 0, 1), (3, 2, 0), (3, 1, 1), (3, 0, 2),
            (2, 3, 0), (2, 2, 1), (2, 1, 2), (1, 4, 0), (1, 3, 1),
            (1, 2, 2), (0, 4, 1), (0, 3, 2),
        ]

    def test_everything_annihilates_d5(self):
        ring = TruncatedRing(3, 5)
        f = leftmost_monomial(2, 5, 2, 0)
        zset = zero_set(f, ring)
        assert len(zset) == 18
        assert zset == enumerate_monomials(ring, 5)

    def test_strict_complement_case(self):
        ring = TruncatedRing(3, 3)
        f = leftmost_monomial(2, 3, 1, 0)
        zset = zero_set(f, ring)
        assert len(zset) == 6
        assert Monomial((0, 1, 2)) not in zset
        assert divisor_set(f, ring) == [f]

    def test_divisors_within_annihilators(self):
        ring = TruncatedRing(4, 4)
        f = leftmost_monomial(3, 4, 2, 1)
        zset = set(zero_set(f, ring))
        for g in divisor_set(f, ring):
            assert g in zset

    def test_socle_catches_everything(self):
        ring = TruncatedRing(3, 3)
        f = leftmost_monomial(2, 3, 2, 0)
        assert len(divisor_set(f, ring)) == 7
        assert len(zero_set(f, ring)) == 7


class TestCountFormulas:
    def test_frozen_d5(self):
        cf = count_formulas(2, 5, 2, 0)
        assert (cf.m, cf.r) == (2, 2)
        assert cf.divisor_count == 13
        assert cf.annihilator_count == 18
        assert cf.s_d == 18
        assert cf.z_complement == 0
        assert cf.closed_form_asserted
        assert cf.consistent

    def test_frozen_strict_complement(self):
        cf = count_formulas(2, 3, 1, 0)
        assert cf.divisor_count == 1
        assert cf.annihilator_count == 6
        assert cf.z_complement == 1
        assert cf.consistent

    def test_socle_shape_not_asserted(self):
        cf = count_formulas(2, 3, 2, 0)
        assert (cf.m, cf.r) == (3, 0)
        assert not cf.closed_form_asserted
        assert cf.divisor_count == 7
        assert cf.annihilator_count == 7

    def test_counts_match_enumeration_grid(self):
        for n in (1, 2, 3):
            for d in (2, 3, 4):
                ring = TruncatedRing(n + 1, d)
                s_d = len(enumerate_monomials(ring, d))
                for q in range(0, n + 2):
                    for b in range(0, d):
                        if q * d + b > (n + 1) * (d - 1):
                            continue
                        cf = count_formulas(n, d, q, b)
                        f = leftmost_monomial(n, d, q, b)
                        assert cf.divisor_count == len(divisor_set(f, ring))
                        assert cf.annihilator_count == len(zero_set(f, ring))
                        assert cf.s_d == s_d
                        assert cf.z_complement == s_d - cf.annihilator_count
                        assert cf.closed_form_asserted == (cf.m <= n)
                        if cf.closed_form_asserted:
                            assert cf.consistent


class TestBuildWitness:
    def setup_method(self):
        self.ring = TruncatedRing(3, 3)
        self.params = VeroneseWitnessParams(n=2, d=3, b=0, q=1)
        self.f = leftmost_monomial(2, 3, 1, 0)
        self.zset = zero_set(self.f, self.ring)
        self.dset = divisor_set(self.f, self.ring)

    def test_minimal_p_is_divisors(self):
        w = build_witness(self.f, 1, self.zset, self.dset, self.params)
        assert w.factors == (self.f,)
        assert w.p == 1
        assert w.coefficient == self.f

    def test_maximal_p_is_all_annihilators(self):
        w = build_witness(self.f, 6, self.zset, self.dset, self.params)
        assert list(w.factors) == self.zset

    def test_intermediate_p_pads_in_order(self):
        w = build_witness(self.f, 3, self.zset, self.dset, self.params)
        assert len(set(w.factors)) == 3
        assert w.factors[0] == self.f
        pad = [g for g in self.zset if g != self.f]
        assert list(w.factors[1:]) == pad[:2]

    def test_p_out_of_interval(self):
        with pytest.raises(ParameterError, match=r"witness interval \[1, 6\]"):
            build_witness(self.f, 0, self.zset, self.dset, self.params)
        with pytest.raises(ParameterError, match="witness interval"):
            build_witness(self.f, 7, self.zset, self.dset, self.params)

    def test_required_factors_must_annihilate(self):
        with pytest.raises(ParameterError, match="not annihilators"):
            build_witness(self.f, 1, [Monomial((1, 1, 1))], [Monomial((2, 1, 0))],
                          self.params)


class TestVerifyCertificate:
    def setup_method(self):
        self.params = VeroneseWitnessParams(n=2, d=3, b=0, q=1)
        ring = TruncatedRing(3, 3)
        self.f = leftmost_monomial(2, 3, 1, 0)
        self.zset = zero_set(self.f, ring)
        self.dset = divisor_set(self.f, ring)
        self.good = build_witness(self.f, 3, self.zset, self.dset, self.params)

    def _check(self, report, name):
        return next(c for c in report.checks if c.name == name)

    def test_valid_witness_passes(self):
        report = verify_certificate(self.good)
        assert report.verdict
        assert report.sufficient_condition is None
        assert {c.name for c in report.checks} == {
            "factors_distinct", "required_factors_present",
            "required_factors_annihilate", "factors_annihilate_coefficient",
            "coefficient_matches_and_nonzero", "p_within_interval",
        }

    def test_non_annihilating_factor_fails(self):
        bad = WitnessCycle(
            factors=self.good.factors[:-1] + (Monomial((0, 1, 2)),),
            coefficient=self.f, params=self.params)
        report = verify_certificate(bad)
        assert not report.verdict
        assert not self._check(report, "factors_annihilate_coefficient").ok

    def test_duplicate_factor_fails(self):
        bad = WitnessCycle(factors=(self.f, self.f, self.zset[1]),
                           coefficient=self.f, params=self.params)
        assert not self._check(verify_certificate(bad), "factors_distinct").ok

    def test_missing_required_factor_fails(self):
        pad = tuple(g for g in self.zset if g != self.f)[:3]
        bad = WitnessCycle(factors=pad, coefficient=self.f, params=self.params)
        assert not self._check(verify_certificate(bad), "required_factors_present").ok

    def test_wrong_coefficient_fails(self):
        bad = WitnessCycle(factors=self.good.factors,
                           coefficient=Monomial((1, 1, 1)), params=self.params)
        report = verify_certificate(bad)
        assert not self._check(report, "coefficient_matches_and_nonzero").ok

    def test_empty_witness_below_interval_fails(self):
        bad = WitnessCycle(factors=(), coefficient=self.f, params=self.params)
        assert not self._check(verify_certificate(bad), "p_within_interval").ok


class TestACMSets:
    def test_fermat_cubic_frozen(self):
        spec = hypersurface_spec(3, 5)
        e = acm_e_set(spec, 8, 3, 0)
        assert e.count == 301
        assert e.per_lambda_dims == (127, 100, 74)
        z = acm_zero_set(spec, 8, 3, 0)
        assert z.count == 1016
        assert z.complement_count == 14

    def test_quadric_frozen(self):
        spec = hypersurface_spec(2, 3)
        e = acm_e_set(spec, 3, 1, 0)
        assert e.count == 3
        assert e.per_lambda_dims == (1, 2)
        z = acm_zero_set(spec, 3, 1, 0)
        assert (z.count, z.complement_count) == (10, 3)

    def test_e_within_z(self):
        spec = hypersurface_spec(2, 3)
        e = set(acm_e_set(spec, 3, 1, 0).monomials)
        z = set(acm_zero_set(spec, 3, 1, 0).monomials)
        assert e <= z

    def test_count_matches_dims(self):
        spec = hypersurface_spec(2, 3)
        for d, q, b in [(3, 1, 0), (4, 1, 0), (4, 2, 0), (4, 1, 1)]:
            e = acm_e_set(spec, d, q, b)
            assert e.count == sum(e.per_lambda_dims)

    def test_acm_certificate_with_sufficient_condition(self):
        spec = hypersurface_spec(2, 3)
        params = ACMWitnessParams(spec=spec, d=3, b=0, q=1)
        f = leftmost_monomial(2, 3, 1, 0)
        zset = list(acm_zero_set(spec, 3, 1, 0).monomials)
        dset = list(acm_e_set(spec, 3, 1, 0).monomials)
        w = build_witness(f, 5, zset, dset, params)
        report = verify_certificate(w)
        assert report.verdict
        assert report.sufficient_condition is True

    def test_acm_certificate_outside_sufficient_region(self):
        # containment still verified directly when d < b + q + c + 1
        spec = hypersurface_spec(2, 3)
        params = ACMWitnessParams(spec=spec, d=2, b=0, q=1)
        f = leftmost_monomial(2, 2, 1, 0)
        zset = list(acm_zero_set(spec, 2, 1, 0).monomials)
        dset = list(acm_e_set(spec, 2, 1, 0).monomials)
        assert set(dset) <= set(zset)
        w = build_witness(f, len(dset), zset, dset, params)
        report = verify_certificate(w)
        assert report.verdict
        assert report.sufficient_condition is False


class TestSerialization:
    def test_veronese_text_golden(self):
        params = VeroneseWitnessParams(n=1, d=2, b=0, q=1)
        ring = TruncatedRing(2, 2)
        f = leftmost_monomial(1, 2, 1, 0)
        w = build_witness(f, 1, zero_set(f, ring), divisor_set(f, ring), params)
        assert w.to_text() == "1 1\n| 1 1\n"

    def test_acm_text_golden(self):
        spec = hypersurface_spec(2, 3)
        params = ACMWitnessParams(spec=spec, d=3, b=0, q=1)
        f = leftmost_monomial(2, 3, 1, 0)
        zset = list(acm_zero_set(spec, 3, 1, 0).monomials)
        dset = list(acm_e_set(spec, 3, 1, 0).monomials)
        w = build_witness(f, 4, zset, dset, params)
        assert w.to_text() == (
            "2 1 0 @0\n"
            "2 0 0 @1\n"
            "1 1 0 @1\n"
            "2 0 1 @0\n"
            "| 2 1 0\n"
        )
