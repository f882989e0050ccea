import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kpq.acm import ACMMonomial, hypersurface_spec
from kpq.combinatorics import Monomial, TruncatedRing, enumerate_monomials
from kpq.cli import main
from kpq.errors import InconsistencyError, ParameterError, ResourceLimitError
from kpq import koszul
from kpq.koszul import (
    DEFAULT_PRIME,
    MAX_MODULUS,
    SECONDARY_PRIME,
    KoszulComplex,
    PrimeField,
    SparseMatrix,
    _dense_rank_mod,
    _is_prime,
    colex_rank,
    colex_unrank,
    wedge_basis,
)
from kpq.witness import (
    ACMWitnessParams,
    VeroneseWitnessParams,
    WitnessCycle,
    build_witness,
    divisor_set,
    leftmost_monomial,
    zero_set,
)


def reference_rank(dense, p):
    """Plain-python row reduction over GF(p), kept independent of the package."""
    rows = [[int(v) % p for v in row] for row in dense]
    ncols = len(rows[0]) if rows else 0
    rank = 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        rows[rank] = [(v * inv) % p for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(v - f * w) % p for v, w in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def prime_at_most(m):
    while not _is_prime(m) or m == 2:
        m -= 1
    return m


LARGEST_PRIME = prime_at_most(MAX_MODULUS)
EDGE_PRIMES = (3, 5, 32003, 1000003, 1000000007, 2147483647, LARGEST_PRIME)


def product_mod(a, b, p):
    return [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)] for row in a]


class TestPrimeField:
    def test_accepts_odd_primes(self):
        assert PrimeField(32003).modulus == 32003
        assert PrimeField(1000003).modulus == 1000003
        assert PrimeField(5).modulus == 5
        assert PrimeField().modulus == DEFAULT_PRIME

    def test_rejects_two_and_composites(self):
        for bad in (2, 1, 0, -7, 4, 6, 9, 32001, 1000001):
            with pytest.raises(ParameterError):
                PrimeField(bad)

    def test_modulus_cap(self):
        assert (MAX_MODULUS - 1) ** 2 < 2**63 <= MAX_MODULUS**2
        assert PrimeField(LARGEST_PRIME).modulus == LARGEST_PRIME
        for too_big in (4294967311, 10**18 + 9):
            assert _is_prime(too_big)
            with pytest.raises(ParameterError, match="exceeds"):
                PrimeField(too_big)

    def test_inverse(self):
        f = PrimeField(32003)
        for a in (1, 2, 7, 32002, 1234):
            assert (f.inv(a) * a) % 32003 == 1


class TestWedgeBasis:
    def test_colex_order(self):
        assert wedge_basis(4, 2) == [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)]
        assert wedge_basis(3, 0) == [()]
        assert wedge_basis(3, 3) == [(0, 1, 2)]
        assert wedge_basis(3, 4) == []
        assert wedge_basis(3, -1) == []

    def test_prefix_stability(self):
        assert wedge_basis(6, 2)[: len(wedge_basis(4, 2))] == wedge_basis(4, 2)

    def test_rank_matches_position(self):
        for p in (1, 2, 3):
            for i, combo in enumerate(wedge_basis(6, p)):
                assert colex_rank(combo) == i
                assert colex_unrank(i, p) == combo

    @given(st.integers(1, 4), st.integers(0, 200))
    def test_unrank_round_trip(self, p, rank):
        combo = colex_unrank(rank, p)
        assert colex_rank(combo) == rank
        assert list(combo) == sorted(set(combo))


class TestSparseMatrix:
    def test_from_triplets_normalizes(self):
        m = SparseMatrix.from_triplets(2, 2, 7, [(0, 0, 5), (0, 0, -5), (1, 1, 9)])
        assert m.nnz == 1
        assert list(m.triplets()) == [(1, 1, 2)]

    def test_bounds_checked(self):
        with pytest.raises(ParameterError):
            SparseMatrix.from_triplets(2, 2, 7, [(2, 0, 1)])
        with pytest.raises(ParameterError):
            SparseMatrix.from_triplets(2, 2, 7, [(0, -1, 1)])

    def test_rank_hand_cases(self):
        assert SparseMatrix.from_triplets(2, 2, 5, [(0, 0, 1), (0, 1, 2),
                                                    (1, 0, 2), (1, 1, 4)]).rank() == 1
        assert SparseMatrix.from_triplets(2, 2, 5, [(0, 0, 1), (1, 1, 1)]).rank() == 2
        assert SparseMatrix.from_triplets(3, 4, 5, []).rank() == 0

    def test_rank_depends_on_characteristic(self):
        trips = [(0, 0, 2), (0, 1, 1), (1, 0, 1), (1, 1, 3)]  # det = 5
        assert SparseMatrix.from_triplets(2, 2, 5, trips).rank() == 1
        assert SparseMatrix.from_triplets(2, 2, 7, trips).rank() == 2

    def test_solve_consistent(self):
        m = SparseMatrix.from_triplets(3, 2, 5, [(0, 0, 1), (1, 1, 2)])
        assert m.solve_consistent({0: 3})
        assert m.solve_consistent({0: 1, 1: 4})
        assert m.solve_consistent({})
        assert m.solve_consistent({0: 5})  # rhs vanishes mod 5
        assert not m.solve_consistent({2: 1})  # row untouched by any column

    def test_solve_consistent_rank_case(self):
        # columns (1,1) and (2,2) span a line mod 5; (1,2) is off it
        m = SparseMatrix.from_triplets(2, 2, 5, [(0, 0, 1), (1, 0, 1),
                                                 (0, 1, 2), (1, 1, 2)])
        assert m.solve_consistent({0: 3, 1: 3})
        assert not m.solve_consistent({0: 1, 1: 2})

    def test_apply(self):
        m = SparseMatrix.from_triplets(2, 2, 7, [(0, 0, 3), (1, 1, 4)])
        assert m.apply({0: 1, 1: 1}) == {0: 3, 1: 4}
        assert m.apply({0: 0}) == {}
        assert m.apply({1: 5}) == {1: 6}

    def test_compose_is_zero(self):
        a = SparseMatrix.from_triplets(1, 2, 5, [(0, 0, 1), (0, 1, 4)])
        b = SparseMatrix.from_triplets(2, 1, 5, [(0, 0, 1), (1, 0, 1)])
        assert a.compose_is_zero(b)  # (1, -1) . (1, 1)^T = 0
        c = SparseMatrix.from_triplets(2, 1, 5, [(0, 0, 1)])
        assert not a.compose_is_zero(c)
        with pytest.raises(ParameterError):
            a.compose_is_zero(a)

    def test_triplet_text_round_trip(self):
        m = SparseMatrix.from_triplets(3, 2, 32003, [(0, 0, 5), (2, 1, -1)])
        text = m.to_triplet_text()
        assert text == "3 2 32003\n0 0 5\n2 1 32002\n"
        again = SparseMatrix.from_triplet_text(text)
        assert (again.rows, again.cols, again.modulus) == (3, 2, 32003)
        assert list(again.triplets()) == list(m.triplets())

    def test_triplet_text_errors(self):
        with pytest.raises(ParameterError):
            SparseMatrix.from_triplet_text("   \n  ")
        with pytest.raises(ValueError):
            SparseMatrix.from_triplet_text("2 2\n0 0 1\n")
        with pytest.raises(ValueError):
            SparseMatrix.from_triplet_text("2 2 7\n0 x 1\n")
        with pytest.raises(ParameterError):
            SparseMatrix.from_triplet_text("2 2 7\n5 0 1\n")

    @given(
        st.integers(1, 6), st.integers(1, 6),
        st.sampled_from([5, 7, 32003]),
        st.data(),
    )
    @settings(max_examples=80)
    def test_rank_matches_reference(self, rows, cols, p, data):
        dense = data.draw(st.lists(
            st.lists(st.integers(-10, 10), min_size=cols, max_size=cols),
            min_size=rows, max_size=rows))
        trips = [(r, c, v) for r, row in enumerate(dense)
                 for c, v in enumerate(row) if v]
        m = SparseMatrix.from_triplets(rows, cols, p, trips)
        assert m.rank() == reference_rank(dense, p)

    @given(
        st.integers(1, 5), st.integers(1, 5),
        st.sampled_from([5, 7]),
        st.data(),
    )
    @settings(max_examples=80)
    def test_solve_consistent_matches_reference(self, rows, cols, p, data):
        dense = data.draw(st.lists(
            st.lists(st.integers(-4, 4), min_size=cols, max_size=cols),
            min_size=rows, max_size=rows))
        rhs = data.draw(st.lists(st.integers(-4, 4), min_size=rows, max_size=rows))
        trips = [(r, c, v) for r, row in enumerate(dense)
                 for c, v in enumerate(row) if v]
        m = SparseMatrix.from_triplets(rows, cols, p, trips)
        plain = reference_rank(dense, p)
        augmented = reference_rank([row + [b] for row, b in zip(dense, rhs)], p)
        expected = augmented == plain
        got = m.solve_consistent({i: b for i, b in enumerate(rhs) if b % p})
        assert got == expected


class TestDenseRank:
    @pytest.mark.parametrize("p", [1000000007, LARGEST_PRIME])
    def test_low_rank_product_near_the_cap(self, p):
        # 30x20 times 20x40 has rank 20; unreduced int64 growth used to report 30
        rng = random.Random(p)
        a = [[rng.randrange(p) for _ in range(20)] for _ in range(30)]
        b = [[rng.randrange(p) for _ in range(40)] for _ in range(20)]
        block = np.array(product_mod(a, b, p), dtype=np.int64)
        assert _dense_rank_mod(block, p) == 20

    @given(
        st.one_of(st.sampled_from(EDGE_PRIMES),
                  st.integers(3, MAX_MODULUS).map(prime_at_most)),
        st.integers(1, 12), st.integers(1, 12), st.integers(1, 12),
        st.data(),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_reference(self, p, rows, inner, cols, data):
        entries = st.integers(0, p - 1)
        a = data.draw(st.lists(st.lists(entries, min_size=inner, max_size=inner),
                               min_size=rows, max_size=rows))
        b = data.draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                               min_size=inner, max_size=inner))
        dense = product_mod(a, b, p)
        assert _dense_rank_mod(np.array(dense, dtype=np.int64), p) == reference_rank(dense, p)


class TestDifferential:
    def test_hand_built_matrix(self):
        cx = KoszulComplex(TruncatedRing(2, 3))
        # two generators x^2 y > x y^2; on wedge pairs the map alternates signs
        d2 = cx.differential_matrix(2, 0)
        assert (d2.rows, d2.cols) == (4, 1)
        assert set(d2.triplets()) == {(1, 0, 32002), (2, 0, 1)}
        d1 = cx.differential_matrix(1, 0)
        assert set(d1.triplets()) == {(0, 0, 1), (1, 1, 1)}

    def test_zero_shapes(self):
        cx = KoszulComplex(TruncatedRing(2, 3))
        top = cx.algebra.ring.top_degree
        m = cx.differential_matrix(1, top + 1)
        assert (m.rows, m.cols, m.nnz) == (0, 0, 0)
        m = cx.differential_matrix(0, 0)
        assert (m.cols, m.nnz) == (1, 0)

    def test_chain_condition_everywhere(self):
        for ring in (TruncatedRing(2, 3), TruncatedRing(3, 2), TruncatedRing(2, 4)):
            cx = KoszulComplex(ring)
            for q in range(0, ring.n + 2):
                for p in range(0, cx.num_generators + 1):
                    cx.slice(p, q)  # raises InconsistencyError on failure

    def test_acm_chain_condition(self):
        cx = KoszulComplex(hypersurface_spec(2, 2), d=2)
        for q in range(0, 3):
            for p in range(0, cx.num_generators + 1):
                cx.slice(p, q)

    def test_slice_dimensions(self):
        cx = KoszulComplex(TruncatedRing(2, 3))
        sl = cx.slice(1, 1)
        assert sl.middle_dim == 4
        assert sl.d_p.cols == sl.middle_dim
        assert sl.d_p_plus_1.rows == sl.middle_dim
        assert sl.left_dim == sl.d_p_plus_1.cols
        assert sl.right_dim == sl.d_p.rows


class TestOrbitRank:
    """rank() eliminates one multidegree per S_{n+1} orbit; the slow path is the referee."""

    @staticmethod
    def slow_rank(mat):
        return sum(mat._block_rank(c, r) for c, r in mat._component_split())

    @staticmethod
    def degree_rank(mat, comps):
        return sum(mat._block_rank(c, r) for c, r in comps)

    @given(st.integers(1, 3), st.integers(2, 4),
           st.sampled_from([3, 5, DEFAULT_PRIME, SECONDARY_PRIME]), st.data())
    @settings(max_examples=40, deadline=None)
    def test_orbit_rank_matches_every_block(self, n, d, prime, data):
        ring = TruncatedRing(n + 1, d)
        nb = len(enumerate_monomials(ring, d))
        order = data.draw(st.permutations(range(nb)))
        cx = KoszulComplex(ring, field=prime, generator_order=order)
        k = data.draw(st.integers(0, ring.top_degree - d))
        small = [p for p in range(1, nb + 1)
                 if math.comb(nb, p) * cx.algebra.dim(k) <= 3000]
        p = data.draw(st.sampled_from(small))
        mat = cx.differential_matrix(p, k)
        assert mat.rank() == self.slow_rank(mat)

        groups = mat._degree_groups()
        for alpha, comps in groups.items():
            assert all(mat.multidegree(c) == alpha for cols, _ in comps for c in cols)
        if groups:
            alpha = data.draw(st.sampled_from(sorted(groups)))
            sigma = data.draw(st.permutations(range(n + 1)))
            moved = tuple(alpha[i] for i in sigma)
            assert moved in groups
            assert self.degree_rank(mat, groups[moved]) == self.degree_rank(mat, groups[alpha])

    def test_one_elimination_per_orbit(self, monkeypatch):
        cx = KoszulComplex(TruncatedRing(3, 4))
        mat = cx.differential_matrix(5, 4)
        groups = mat._degree_groups()
        orbits = {tuple(sorted(alpha)) for alpha in groups}
        assert len(orbits) < len(groups)
        firsts = {}
        for alpha, comps in groups.items():
            firsts.setdefault(tuple(sorted(alpha)), len(comps))
        slow = self.slow_rank(mat)
        calls = []
        real = koszul._dense_rank_mod
        monkeypatch.setattr(koszul, "_dense_rank_mod",
                            lambda block, p: calls.append(block.shape) or real(block, p))
        assert mat.rank() == slow
        assert len(calls) == sum(firsts.values()) < len(mat._component_split())

    def test_acm_blocks_are_not_merged(self):
        cx = KoszulComplex(hypersurface_spec(2, 2), d=2)
        mat = cx.differential_matrix(2, 2)
        assert mat.multidegree is None
        assert len(mat._degree_groups()) == len(mat._component_split())
        assert mat.rank() == self.slow_rank(mat)


class TestKpqDims:
    def test_twisted_cubic_rows(self):
        cx = KoszulComplex(TruncatedRing(2, 3))
        assert cx.betti_row(1, range(0, 3)) == [0, 3, 2]
        assert cx.betti_row(0, range(0, 3)) == [1, 0, 0]
        assert cx.betti_row(2, range(0, 3)) == [0, 0, 0]

    def test_quartic_curve_row(self):
        cx = KoszulComplex(TruncatedRing(2, 4))
        assert cx.betti_row(1, range(0, 4)) == [0, 6, 8, 3]

    def test_veronese_surface_d2(self):
        cx = KoszulComplex(TruncatedRing(3, 2))
        assert cx.betti_row(1, range(0, 4)) == [0, 6, 8, 3]
        assert cx.betti_row(2, range(0, 4)) == [0, 0, 0, 0]

    def test_threefold_d2_socle_class(self):
        cx = KoszulComplex(TruncatedRing(4, 2))
        assert cx.kpq_dim(6, 2) == 1
        assert cx.kpq_dim(5, 2) == 0
        assert cx.kpq_dim(4, 2) == 0

    def test_surface_d3_top_class(self):
        cx = KoszulComplex(TruncatedRing(3, 3))
        assert cx.kpq_dim(7, 2) == 1
        assert cx.kpq_dim(6, 2) == 0

    def test_dims_in_certified_interval(self):
        cx = KoszulComplex(TruncatedRing(3, 3))
        # certified interval for q=1 at d=3 on the surface: [2, 6]
        row = cx.betti_row(1, range(0, 8))
        for p in range(2, 7):
            assert row[p] > 0

    def test_two_primes_agree(self):
        a = KoszulComplex(TruncatedRing(3, 2), field=DEFAULT_PRIME)
        b = KoszulComplex(TruncatedRing(3, 2), field=SECONDARY_PRIME)
        for q in (0, 1, 2):
            assert a.betti_row(q, range(0, 4)) == b.betti_row(q, range(0, 4))

    def test_generator_order_invariance(self):
        base = KoszulComplex(TruncatedRing(2, 4))
        row = base.betti_row(1, range(0, 4))
        nb = base.num_generators
        for order in (list(reversed(range(nb))), [2, 0, 1]):
            cx = KoszulComplex(TruncatedRing(2, 4), generator_order=order)
            assert cx.betti_row(1, range(0, 4)) == row

    def test_generator_order_validated(self):
        with pytest.raises(ParameterError):
            KoszulComplex(TruncatedRing(2, 4), generator_order=[0, 0, 1])

    def test_twist_changes_row(self):
        cx = KoszulComplex(TruncatedRing(2, 3), b=1)
        row = cx.betti_row(1, range(0, 3))
        assert row == [cx.kpq_dim(p, 1) for p in range(0, 3)]
        assert row != [0, 3, 2]

    def test_euler_characteristic_along_strands(self):
        for make in (
            lambda: KoszulComplex(TruncatedRing(2, 3)),
            lambda: KoszulComplex(TruncatedRing(3, 2)),
            lambda: KoszulComplex(TruncatedRing(2, 3), b=1),
            lambda: KoszulComplex(hypersurface_spec(2, 2), d=2),
        ):
            cx = make()
            nb = cx.num_generators
            for t in range(0, nb + 3):
                mid = sum((-1) ** p * cx.middle_dim(p, t - p) for p in range(nb + 1))
                hom = sum((-1) ** p * cx.kpq_dim(p, t - p) for p in range(nb + 1))
                assert mid == hom, f"strand {t}"


class TestACMOracle:
    def test_conic_matches_reembedded_line(self):
        conic = KoszulComplex(hypersurface_spec(2, 2), d=2)
        line = KoszulComplex(TruncatedRing(2, 4))
        assert conic.num_generators == line.num_generators == 3
        for q in (0, 1):
            assert conic.betti_row(q, range(0, 4)) == line.betti_row(q, range(0, 4))

    def test_rewrite_signs_enter_differential(self):
        # on the conic at d=4 the t*t rewrite survives the cap, so some
        # entries carry the relation's negative coefficients
        cx = KoszulComplex(hypersurface_spec(2, 2), d=4)
        values = set()
        for k in range(0, 5):
            values |= {v for _, _, v in cx.differential_matrix(1, k).triplets()}
        assert 32002 in values  # a -1 residue appears

    def test_quadric_surface_spot_check(self):
        cx = KoszulComplex(hypersurface_spec(2, 3), d=2)
        assert cx.num_generators == 6
        nb = cx.num_generators
        for t in range(0, nb + 2):
            mid = sum((-1) ** p * cx.middle_dim(p, t - p) for p in range(nb + 1))
            hom = sum((-1) ** p * cx.kpq_dim(p, t - p) for p in range(nb + 1))
            assert mid == hom


class TestElements:
    def setup_method(self):
        self.ring = TruncatedRing(3, 3)
        self.cx = KoszulComplex(self.ring)
        self.params = VeroneseWitnessParams(n=2, d=3, b=0, q=1)
        self.f = leftmost_monomial(2, 3, 1, 0)
        self.zset = zero_set(self.f, self.ring)
        self.dset = divisor_set(self.f, self.ring)

    def witness(self, p):
        return build_witness(self.f, p, self.zset, self.dset, self.params)

    def test_witness_is_cycle_not_boundary(self):
        for p in (1, 3, 6):
            w = self.witness(p)
            assert self.cx.is_cycle(w, p, 1)
            assert not self.cx.is_boundary(w, p, 1)

    def test_element_from_witness_position_and_sign(self):
        w = self.witness(2)
        vec, p, q = self.cx.element_from_witness(w)
        assert (p, q) == (2, 1)
        assert vec == {0: 1}  # first wedge pair, first coefficient monomial
        swapped = WitnessCycle(factors=(w.factors[1], w.factors[0]),
                               coefficient=w.coefficient, params=w.params)
        vec2, _, _ = self.cx.element_from_witness(swapped)
        assert vec2 == {0: -1}

    def test_zero_element_is_trivially_both(self):
        assert self.cx.is_cycle({}, 2, 1)
        assert self.cx.is_boundary({}, 2, 1)

    def test_constructed_boundary(self):
        left = {0: 1, 3: 2}
        mat = self.cx.differential_matrix(3, 0)
        img = mat.apply(left)
        assert img
        assert self.cx.is_cycle(img, 2, 1)
        assert self.cx.is_boundary(img, 2, 1)

    def test_non_cycle_detected(self):
        # a bare generator tensor 1 maps to the generator itself
        assert not self.cx.is_cycle({0: 1}, 1, 0)

    def test_witness_wrong_slot_rejected(self):
        w = self.witness(2)
        with pytest.raises(ParameterError, match="witness lives at"):
            self.cx.is_cycle(w, 3, 1)

    def test_repeated_factors_rejected(self):
        w = WitnessCycle(factors=(self.f, self.f), coefficient=self.f,
                         params=self.params)
        with pytest.raises(ParameterError, match="repeat"):
            self.cx.element_from_witness(w)

    def test_non_generator_factor_rejected(self):
        w = WitnessCycle(factors=(Monomial((1, 0, 0)),), coefficient=self.f,
                         params=self.params)
        with pytest.raises(ParameterError, match="not a degree-d generator"):
            self.cx.element_from_witness(w)

    def test_degree_mismatch_rejected(self):
        w = WitnessCycle(factors=(self.f,), coefficient=self.f,
                         params=VeroneseWitnessParams(n=2, d=3, b=0, q=2))
        with pytest.raises(ParameterError, match="does not match"):
            self.cx.element_from_witness(w)

    def test_capped_out_coefficient_rejected(self):
        w = WitnessCycle(factors=(self.f,), coefficient=Monomial((3, 0, 0)),
                         params=self.params)
        with pytest.raises(ParameterError, match="zero in the capped ring"):
            self.cx.element_from_witness(w)

    def test_element_index_bounds(self):
        mid = self.cx.middle_dim(2, 1)
        with pytest.raises(ParameterError, match="middle basis"):
            self.cx.is_cycle({mid: 1}, 2, 1)

    def test_acm_witness_element(self):
        from kpq.witness import acm_e_set, acm_zero_set

        spec = hypersurface_spec(2, 3)
        cx = KoszulComplex(spec, d=3)
        params = ACMWitnessParams(spec=spec, d=3, b=0, q=1)
        f = leftmost_monomial(2, 3, 1, 0)
        zs = list(acm_zero_set(spec, 3, 1, 0).monomials)
        ds = list(acm_e_set(spec, 3, 1, 0).monomials)
        w = build_witness(f, 4, zs, ds, params)
        assert cx.is_cycle(w, 4, 1)
        assert not cx.is_boundary(w, 4, 1)


class TestResourceLimits:
    def test_budget_names_the_dimension(self):
        cx = KoszulComplex(TruncatedRing(4, 4), entry_budget=50)
        with pytest.raises(ResourceLimitError, match="budget is 50"):
            cx.kpq_dim(3, 1)

    def test_budget_allows_trivial_slices(self):
        cx = KoszulComplex(TruncatedRing(2, 3), entry_budget=50)
        assert cx.kpq_dim(0, 0) == 1

    def test_zero_target_ignores_budget(self):
        # 36 source columns times p = 11 is over the budget, but A_12 = 0
        cx = KoszulComplex(TruncatedRing(3, 4), entry_budget=200)
        mat = cx.differential(11, 2)
        assert (mat.rows, mat.cols, mat.nnz) == (0, 36, 0)


class TestChainCheck:
    """slice, kpq_dim and `kpq betti` share one chain check; a broken d_2 must trip it."""

    @pytest.fixture
    def broken_d2(self, monkeypatch):
        real = KoszulComplex.differential_matrix

        def flip_one_sign(cx, p, k, field=None):
            mat = real(cx, p, k, field)
            trips = list(mat.triplets())
            if p == 2 and trips:
                r, c, v = trips[0]
                trips[0] = (r, c, -v)
            return SparseMatrix.from_triplets(mat.rows, mat.cols, mat.modulus, trips)

        monkeypatch.setattr(KoszulComplex, "differential_matrix", flip_one_sign)

    def test_slice_reports_it(self, broken_d2):
        with pytest.raises(InconsistencyError, match="chain condition failed at p=2, q=1"):
            KoszulComplex(TruncatedRing(3, 3)).slice(2, 1)

    def test_kpq_dim_reports_it(self, broken_d2):
        with pytest.raises(InconsistencyError, match="chain condition failed at p=2, q=1"):
            KoszulComplex(TruncatedRing(3, 3)).kpq_dim(2, 1)

    def test_betti_exits_4(self, broken_d2, capsys):
        code = main(["betti", "--n", "2", "--d", "3", "--q-range", "1:1", "--p-range", "2:2"])
        assert code == 4
        assert "chain condition failed" in capsys.readouterr().err
