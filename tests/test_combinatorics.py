import math

import pytest
from hypothesis import given, settings, strategies as st

from kpq.combinatorics import (
    Monomial,
    TruncatedRing,
    annihilates,
    binom,
    divides,
    enumerate_monomials,
    mixed_cap_dim,
    mul_truncated,
    quot_rem_by_dm1,
    truncated_dim,
)
from kpq.errors import ParameterError


class TestBinom:
    def test_ordinary_values(self):
        assert binom(5, 2) == 10
        assert binom(7, 7) == 1
        assert binom(12, 1) == 12

    def test_counting_convention(self):
        # k = 0 is the empty product, even at negative a
        assert binom(0, 0) == 1
        assert binom(-1, 0) == 1
        assert binom(-5, 0) == 1
        # no signed generalized values: a < k is always 0
        assert binom(2, 3) == 0
        assert binom(-1, 1) == 0
        assert binom(-3, 2) == 0
        assert binom(0, 1) == 0
        # negative k is always 0
        assert binom(5, -1) == 0
        assert binom(-2, -2) == 0

    @given(st.integers(0, 40), st.integers(0, 40))
    def test_matches_comb_in_ordinary_range(self, a, k):
        if k <= a:
            assert binom(a, k) == math.comb(a, k)

    @given(st.integers(1, 40), st.integers(1, 12))
    def test_pascal(self, a, k):
        assert binom(a, k) == binom(a - 1, k - 1) + binom(a - 1, k)


class TestTruncatedRing:
    def test_descriptor(self):
        ring = TruncatedRing(3, 5)
        assert ring.n == 2
        assert ring.top_degree == 12

    def test_rejects_bad_parameters(self):
        with pytest.raises(ParameterError):
            TruncatedRing(-1, 3)
        with pytest.raises(ParameterError):
            TruncatedRing(2, 0)

    def test_dims_frozen(self):
        assert truncated_dim(TruncatedRing(2, 2), 2) == 1
        assert truncated_dim(TruncatedRing(3, 3), 3) == 7
        assert truncated_dim(TruncatedRing(3, 5), 5) == 18
        assert truncated_dim(TruncatedRing(5, 8), 8) == 490
        assert truncated_dim(TruncatedRing(4, 2), 2) == 6
        assert truncated_dim(TruncatedRing(3, 4), 9) == 1
        assert truncated_dim(TruncatedRing(2, 3), 5) == 0
        assert truncated_dim(TruncatedRing(2, 3), -1) == 0

    def test_zero_variables(self):
        ring = TruncatedRing(0, 4)
        assert truncated_dim(ring, 0) == 1
        assert truncated_dim(ring, 1) == 0
        assert enumerate_monomials(ring, 0) == [Monomial(())]

    @given(st.integers(1, 4), st.integers(1, 5), st.integers(0, 22))
    @settings(max_examples=120)
    def test_dim_equals_enumeration(self, nv, cap, k):
        ring = TruncatedRing(nv, cap)
        assert truncated_dim(ring, k) == len(enumerate_monomials(ring, k))

    @given(st.integers(1, 4), st.integers(2, 5), st.integers(0, 16))
    def test_poincare_symmetry(self, nv, cap, k):
        ring = TruncatedRing(nv, cap)
        assert truncated_dim(ring, k) == truncated_dim(ring, ring.top_degree - k)


class TestEnumeration:
    def test_frozen_order(self):
        ring = TruncatedRing(3, 3)
        got = [m.exponents for m in enumerate_monomials(ring, 3)]
        assert got == [
            (2, 1, 0), (2, 0, 1), (1, 2, 0), (1, 1, 1),
            (1, 0, 2), (0, 2, 1), (0, 1, 2),
        ]

    def test_order_is_descending_lex(self):
        ring = TruncatedRing(4, 4)
        exps = [m.exponents for m in enumerate_monomials(ring, 6)]
        assert exps == sorted(exps, reverse=True)
        assert len(set(exps)) == len(exps)

    def test_degrees_and_caps(self):
        ring = TruncatedRing(3, 4)
        for m in enumerate_monomials(ring, 7):
            assert m.degree == 7
            assert all(e < 4 for e in m.exponents)


class TestArithmetic:
    def test_mul_and_truncation(self):
        ring = TruncatedRing(2, 3)
        a = Monomial((1, 1))
        assert mul_truncated(a, a, ring) == Monomial((2, 2))
        assert mul_truncated(a, Monomial((2, 0)), ring) is None
        assert mul_truncated(a, Monomial((0, 0)), ring) == a

    def test_mul_arity_check(self):
        with pytest.raises(ParameterError):
            mul_truncated(Monomial((1,)), Monomial((1, 0)), TruncatedRing(2, 3))

    def test_annihilates_and_divides(self):
        ring = TruncatedRing(3, 3)
        socle = Monomial((2, 2, 2))
        assert annihilates(Monomial((1, 0, 0)), socle, ring)
        assert not annihilates(Monomial((0, 0, 0)), socle, ring)
        assert annihilates(Monomial((0, 0, 1)), Monomial((0, 1, 2)), ring)
        assert not annihilates(Monomial((1, 1, 0)), Monomial((1, 1, 2)), ring)
        with pytest.raises(ParameterError, match="arity"):
            annihilates(Monomial((1, 0)), socle, ring)
        assert divides(Monomial((1, 2, 0)), Monomial((2, 2, 1)))
        assert not divides(Monomial((1, 2, 0)), Monomial((2, 1, 1)))
        with pytest.raises(ParameterError, match="arity"):
            divides(Monomial((1, 0)), socle)

    def test_negative_exponents_rejected(self):
        with pytest.raises(ParameterError):
            Monomial((1, -1))

    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=2, max_size=2))
    def test_mul_commutative(self, pair):
        ring = TruncatedRing(2, 4)
        a, b = (Monomial(t) for t in pair)
        assert mul_truncated(a, b, ring) == mul_truncated(b, a, ring)

    @given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
                    min_size=3, max_size=3))
    def test_mul_associative(self, triple):
        ring = TruncatedRing(3, 4)
        a, b, c = (Monomial(t) for t in triple)

        def mul(x, y):
            return None if x is None or y is None else mul_truncated(x, y, ring)

        assert mul(mul(a, b), c) == mul(a, mul(b, c))


class TestMixedCapDim:
    def test_matches_uniform_caps(self):
        for k in range(0, 10):
            assert mixed_cap_dim((3, 3, 3), k) == truncated_dim(TruncatedRing(3, 3), k)

    def test_frozen_values(self):
        # witness-set dimensions of the degree-8 construction at q=3, b=0
        assert mixed_cap_dim((8, 8, 8, 4), 8) == 127
        assert mixed_cap_dim((8, 8, 8, 4), 7) == 100
        assert mixed_cap_dim((8, 8, 8, 4), 6) == 74

    def test_small_cases(self):
        assert mixed_cap_dim((2, 3), 0) == 1
        assert mixed_cap_dim((2, 3), 1) == 2
        assert mixed_cap_dim((2, 3), 2) == 2
        assert mixed_cap_dim((2, 3), 3) == 1
        assert mixed_cap_dim((2, 3), 4) == 0
        assert mixed_cap_dim((), 0) == 1
        assert mixed_cap_dim((), 1) == 0

    def test_rejects_bad_cap(self):
        with pytest.raises(ParameterError):
            mixed_cap_dim((2, 0), 1)


class TestQuotRem:
    def test_examples(self):
        assert quot_rem_by_dm1(2, 5, 0) == (2, 2)
        assert quot_rem_by_dm1(1, 3, 0) == (1, 1)
        assert quot_rem_by_dm1(2, 3, 0) == (3, 0)
        assert quot_rem_by_dm1(1, 2, 0) == (2, 0)
        assert quot_rem_by_dm1(0, 4, 2) == (0, 2)

    @given(st.integers(0, 8), st.integers(2, 9), st.integers(0, 8))
    def test_reconstructs(self, q, d, b):
        m, r = quot_rem_by_dm1(q, d, b)
        assert m * (d - 1) + r == q * d + b
        assert 0 <= r < d - 1 or (d == 2 and r == 0)

    def test_rejects_d1(self):
        with pytest.raises(ParameterError):
            quot_rem_by_dm1(1, 1, 0)
