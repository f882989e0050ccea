import collections
import contextlib
import itertools
import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

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
    verify_certificate,
    zero_set,
)
from kpq.ranges import VeroneseParams, admissible_q, veronese_range_report


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


def alpha(cx, p, k, c):
    """Multidegree of column c of the capped-ring differential leaving wedge^p (x) A_k."""
    coeffs = cx.algebra.degree_basis(k)
    combo = wedge_basis(cx.num_generators, p)[c // len(coeffs)]
    exps = [cx._gens[i].exponents for i in combo] + [coeffs[c % len(coeffs)].exponents]
    return tuple(map(sum, zip(*exps)))


def block_diagonal(data, p, entries=None):
    """(rows, cols, dense): random integer blocks on the diagonal, rows and
    columns then shuffled. A block with no rows gives empty columns, one with
    no columns gives rows that no column touches. `entries` draws an entry,
    by default 0, a small integer or a residue."""
    shapes = data.draw(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                                min_size=1, max_size=4))
    rows, cols = sum(h for h, _ in shapes), sum(w for _, w in shapes)
    dense = [[0] * cols for _ in range(rows)]
    if entries is None:
        entries = st.one_of(st.just(0), st.integers(-4, 4), st.integers(1, p - 1))
    r0 = c0 = 0
    for h, w in shapes:
        block = data.draw(st.lists(st.lists(entries, min_size=w, max_size=w),
                                   min_size=h, max_size=h))
        for i, row in enumerate(block):
            dense[r0 + i][c0:c0 + w] = row
        r0, c0 = r0 + h, c0 + w
    row_order = data.draw(st.permutations(range(rows)))
    col_order = data.draw(st.permutations(range(cols)))
    return rows, cols, [[dense[i][j] for j in col_order] for i in row_order]


def sparse_of(rows, cols, dense, p):
    trips = [(r, c, v) for r, row in enumerate(dense) for c, v in enumerate(row) if v]
    return SparseMatrix.from_triplets(rows, cols, p, trips)


def reference_components(cols, dense, seeds):
    """Closure over the dense adjacency from each nonempty seed in turn, each
    component once, as (ascending columns, ascending rows)."""
    out = []
    for seed in seeds:
        if not any(row[seed] for row in dense) or any(seed in c for c, _ in out):
            continue
        comp_cols, comp_rows = {seed}, set()
        while True:
            rows = {r for r, row in enumerate(dense) if any(row[c] for c in comp_cols)}
            grown = {c for c in range(cols) if any(dense[r][c] for r in rows)}
            if (grown, rows) == (comp_cols, comp_rows):
                break
            comp_cols, comp_rows = grown, rows
        out.append((sorted(comp_cols), sorted(comp_rows)))
    return out


def dense_block_rank(mat, cols, rows):
    """One block's rank as it was taken before sparse pivoting: the block
    filled densely and handed whole to `_dense_rank_mod`."""
    rpos = {r: i for i, r in enumerate(rows)}
    block = np.zeros((len(rows), len(cols)), dtype=np.int64)
    for j, c in enumerate(cols):
        for i in range(mat.ptr[c], mat.ptr[c + 1]):
            block[rpos[mat.idx[i]], j] = mat.val[i]
    return _dense_rank_mod(block, mat.modulus)


def lists(arrays):
    """CSC arrays as the lists the per-column loop gathers."""
    return tuple(a.tolist() for a in arrays)


def plain_rank(mat):
    """Rank with every block counted once, each filled densely outside `rank()`."""
    return sum(dense_block_rank(mat, c, r) for c, r in mat._component_split())


@contextlib.contextmanager
def dense_shapes():
    """The (rows, cols) of every residual `_dense_rank_mod` is handed meanwhile."""
    shapes = []
    real = koszul._dense_rank_mod
    with mock.patch.object(koszul, "_dense_rank_mod",
                           lambda block, p: shapes.append(block.shape) or real(block, p)):
        yield shapes


@contextlib.contextmanager
def solve_calls():
    """The (seeds, block columns) of every `_component_split` call and the
    columns of every `_sparse_rank_mod` call made meanwhile."""
    splits, ranked = [], []
    real_split, real_rank = SparseMatrix._component_split, koszul._sparse_rank_mod

    def split(matrix, columns=None, seeds=None):
        seeds = None if seeds is None else list(seeds)
        out = real_split(matrix, columns, seeds)
        splits.append((seeds, [cols for cols, _ in out]))
        return out

    def rank(cols, rows, *rest):
        ranked.append(list(cols))
        return real_rank(cols, rows, *rest)

    with mock.patch.object(SparseMatrix, "_component_split", split):
        with mock.patch.object(koszul, "_sparse_rank_mod", rank):
            yield splits, ranked


def draw_complex(data, prime):
    """(cx, k): a complex over GF(prime), on the capped ring with n <= 3 and
    d <= 4 or on the cubic surface spec at d = 3, twisted by b = k % d for a
    drawn degree k with A_k and A_{k+d} nonzero. So d_p leaving wedge^p (x) A_k
    is the outgoing differential of (p, k // d) and the incoming one of
    (p - 1, k // d + 1)."""
    if data.draw(st.booleans(), label="acm"):
        ring, d = hypersurface_spec(2, 3), 3
    else:
        d = data.draw(st.integers(2, 4), label="d")
        ring = TruncatedRing(data.draw(st.integers(1, 3), label="n") + 1, d)
    algebra = KoszulComplex(ring, d=d).algebra
    k = data.draw(st.sampled_from([k for k in range(64) if algebra.dim(k) and algebra.dim(k + d)]))
    return KoszulComplex(ring, d=d, b=k % d, field=prime), k


def reference_boundary(mat, vec):
    """Whether vec is in the column span of mat, by `reference_rank` with and
    without vec as a column, on the rows and columns connected to vec's rows:
    no other column meets those rows, and vec is zero on every other row."""
    row_cols, col_rows, entry = collections.defaultdict(set), collections.defaultdict(set), {}
    for r, c, v in mat.triplets():
        row_cols[r].add(c)
        col_rows[c].add(r)
        entry[r, c] = v
    rows, frontier = set(), set(vec)
    while frontier:
        rows |= frontier
        frontier = {i for r in frontier for c in row_cols[r] for i in col_rows[c]} - rows
    cols = sorted({c for r in rows for c in row_cols[r]})
    dense = [[entry.get((r, c), 0) for c in cols] for r in sorted(rows)]
    augmented = [row + [vec.get(r, 0)] for r, row in zip(sorted(rows), dense)]
    return reference_rank(augmented, mat.modulus) == reference_rank(dense, mat.modulus)


def shuffled(dense, data):
    """`dense` with its rows and its columns permuted."""
    rows = data.draw(st.permutations(range(len(dense))))
    cols = data.draw(st.permutations(range(len(dense[0]))))
    return [[dense[i][j] for j in cols] for i in rows]


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

    def test_numpy_integers_accepted(self):
        field = PrimeField(np.int64(7))
        assert field.modulus == 7 and type(field.modulus) is int
        cx = KoszulComplex(TruncatedRing(2, 3), field=np.int64(7))
        assert cx.is_cycle({np.int64(0): np.int64(1)}, 1, 1) == cx.is_cycle({0: 1}, 1, 1)


@pytest.mark.parametrize("call", [
    lambda: PrimeField(7.0),
    lambda: KoszulComplex(TruncatedRing(2, 3), field=7.5),
    lambda: KoszulComplex(TruncatedRing(2, 3)).is_cycle({0.9: 1}, 1, 1),
    lambda: KoszulComplex(TruncatedRing(2, 3)).is_cycle({"3": 1}, 1, 1),
    lambda: KoszulComplex(TruncatedRing(2, 3)).is_cycle({0: 1.5}, 1, 1),
    lambda: SparseMatrix.from_triplets(2, 2, 7, [(0.5, 0, 1)]),
    lambda: SparseMatrix.from_triplets(2.0, 2, 7, []),
    lambda: SparseMatrix.from_triplets(3, 2, 5, [(0, 0, 1)]).apply({0.0: 1}),
    lambda: SparseMatrix.from_triplets(3, 2, 5, [(0, 0, 1)]).apply({0: 1.5}),
    lambda: SparseMatrix.from_triplets(3, 2, 5, [(0, 0, 1)]).solve_consistent({0.5: 1}),
    lambda: SparseMatrix.from_triplets(3, 2, 5, [(0, 0, 1)]).solve_consistent({0: 1.5}),
    lambda: SparseMatrix.from_triplets(3, 2, 5, [(0, 0, 1), (1, 1, 2)]).rank([1.5, 1]),
    lambda: SparseMatrix.from_triplets(3, 2, 5, [(0, 0, 1), (1, 1, 2)]).rank([1, "2"]),
    lambda: SparseMatrix.from_triplets(2, 2, 7, [(0, 0, 1)]).rank([1, 1.5]),
    lambda: KoszulComplex(TruncatedRing(2, 3), b=0.5).kpq_dim(1, 1),
    lambda: KoszulComplex(TruncatedRing(2, 3), entry_budget="x").kpq_dim(1, 1),
    lambda: TruncatedRing(2, 3.0),
    lambda: TruncatedRing(2.0, 3),
    lambda: KoszulComplex(TruncatedRing(2, 3)).kpq_dim(1.0, 1),
    lambda: KoszulComplex(TruncatedRing(2, 3)).kpq_dim(1, 1.0),
    lambda: KoszulComplex(TruncatedRing(2, 3)).differential_matrix(1.0, 3),
    lambda: KoszulComplex(TruncatedRing(2, 3)).is_cycle({0: 1}, 1.0, 1),
    lambda: KoszulComplex(TruncatedRing(2, 3)).is_boundary({0: 1}, 1, 1.0),
    lambda: KoszulComplex(TruncatedRing(2, 3)).betti_row(1, [0, 1.5]),
    lambda: colex_unrank(1.0, 2),
    lambda: colex_unrank(1, 2.0),
    lambda: wedge_basis(3, 1.0),
    lambda: KoszulComplex(TruncatedRing(2, 3), generator_order=[0.0, 1.0]),
], ids=["float-modulus", "float-field", "float-index", "str-index", "float-value",
        "float-triplet-row", "float-dimension", "apply-float-index", "apply-float-value",
        "solve-float-index", "solve-float-value", "rank-float-weight", "rank-str-weight",
        "rank-float-weight-of-empty-column",
        "float-b", "str-entry-budget", "ring-float-cap", "ring-float-num-vars",
        "kpq-dim-float-p", "kpq-dim-float-q", "differential-float-p", "cycle-float-p",
        "boundary-float-q", "betti-row-float-p", "unrank-float-rank", "unrank-float-p",
        "wedge-basis-float-p", "generator-order-float"])
def test_non_integer_inputs_refused(call):
    # int() would truncate or parse these into a different, valid input
    with pytest.raises(ParameterError, match="must be an integer"):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda: KoszulComplex(TruncatedRing(2, 3), d=4), "d=4 conflicts with ring cap 3"),
    (lambda: KoszulComplex(hypersurface_spec(2, 3)), "an ACM spec needs an explicit d"),
    (lambda: KoszulComplex(hypersurface_spec(2, 3), d=1), "d must be >= 2, got 1"),
    (lambda: KoszulComplex((3, 3)), "expected a TruncatedRing or ACMSpec"),
    (lambda: KoszulComplex(TruncatedRing(3, 1)), "cap must be >= 2"),
    (lambda: KoszulComplex(TruncatedRing(2, 3)).element_from_witness({0: 1}),
     "expected a WitnessCycle"),
], ids=["d-conflicts-with-cap", "acm-without-d", "acm-d-1", "ring-of-wrong-type", "cap-1",
        "element-from-dict"])
def test_unusable_complex_inputs_refused(call, message):
    with pytest.raises(ParameterError, match=message):
        call()


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
        assert colex_unrank(0, 0) == ()
        # each of these once returned a tuple of another rank or length
        for rank, p in ((-1, 2), (5, 0), (0, -1)):
            with pytest.raises(ParameterError, match="colex rank"):
                colex_unrank(rank, p)

    @given(st.integers(1, 4), st.integers(0, 200))
    def test_unrank_round_trip(self, p, rank):
        combo = colex_unrank(rank, p)
        assert colex_rank(combo) == rank
        assert list(combo) == sorted(set(combo))


class TestWedgeTable:
    """The memoised wedge rows and sub-wedge ranks of the array gather, checked in plain Python."""

    def test_rows_and_sub_wedge_ranks(self):
        for nb in range(1, 13):
            for p in range(nb + 1):
                combos, sub_ranks = koszul._wedge_table(nb, p)
                assert combos.shape == sub_ranks.shape == (math.comb(nb, p), p)
                # the narrowest dtypes: one byte per generator, two per rank once one passes 255
                assert combos.dtype == np.uint8
                assert sub_ranks.dtype == (np.uint16 if p and math.comb(nb, p - 1) > 256
                                           else np.uint8)
                for w, (row, ranks) in enumerate(zip(combos.tolist(), sub_ranks.tolist())):
                    combo = colex_unrank(w, p)
                    assert tuple(row) == combo, (nb, p, w)
                    assert ranks == [colex_rank(combo[:t] + combo[t + 1:]) for t in range(p)]

    def test_read_only(self):
        for a in koszul._wedge_table(6, 3):
            with pytest.raises(ValueError, match="read-only"):
                a[0, 0] = 1
            with pytest.raises(ValueError, match="read-only"):
                a += 1

    def test_memo_is_bounded(self):
        maxsize = koszul._wedge_table.cache_info().maxsize
        assert maxsize is not None and 0 < maxsize == koszul._WEDGE_TABLES

    def test_complexes_share_the_memo(self):
        # another b and another prime over the same ring: the second complex's
        # gathers find every table the first one built
        ring = TruncatedRing(3, 4)
        first = KoszulComplex(ring, b=0, field=DEFAULT_PRIME)
        second = KoszulComplex(ring, b=1, field=SECONDARY_PRIME)
        koszul._wedge_table.cache_clear()
        first.kpq_dim(3, 1)
        built = koszul._wedge_table.cache_info()
        second.kpq_dim(3, 1)
        again = koszul._wedge_table.cache_info()
        assert built.misses == built.currsize == 2 and built.hits == 0
        assert again.misses == 2 and again.hits == 2


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

    def test_rank_refuses_weights_of_the_wrong_length(self):
        # compress() would drop the columns past a short list without a word
        m = SparseMatrix.from_triplets(3, 2, 5, [(0, 0, 1), (1, 1, 1)])
        assert m.rank() == m.rank([1, 1]) == 2
        for weights in ([1], [1, 1, 1]):
            with pytest.raises(ParameterError, match="weights for a matrix of 2 columns"):
                m.rank(weights)

    def test_rank_refuses_negative_weights(self):
        # a negative weight would subtract its block's rank from the others
        m = SparseMatrix.from_triplets(3, 2, 5, [(0, 0, 1), (1, 1, 1)])
        assert m.rank([0, 3]) == 3
        for weights in ([-1, 1], [1, -2]):
            with pytest.raises(ParameterError, match="rank weights must be >= 0"):
                m.rank(weights)
        # no block holds an empty column, but its weight is checked all the same
        empty_column = SparseMatrix.from_triplets(2, 2, 7, [(0, 0, 1)])
        assert empty_column.rank([1, 4]) == 1
        with pytest.raises(ParameterError, match="rank weights must be >= 0"):
            empty_column.rank([1, -1])

    def test_rank_refuses_weights_that_vary_inside_a_block(self):
        # one block of two columns: its rank read 2 under [1, 2] and 4 under [2, 1]
        m = SparseMatrix.from_triplets(2, 2, 5, [(0, 0, 1), (0, 1, 1), (1, 1, 1)])
        assert m.rank([3, 3]) == 6
        for weights in ([1, 2], [2, 1]):
            with pytest.raises(ParameterError, match="constant on a block"):
                m.rank(weights)
        # a column of weight 0 is left out of the walk, not compared
        assert m.rank([0, 2]) == 2

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

    @pytest.mark.parametrize("method, vec", [
        ("apply", {-3: 1}), ("apply", {2: 1}), ("apply", {-1: 0}),
        ("solve_consistent", {-1: 1}), ("solve_consistent", {3: 1}),
        ("solve_consistent", {3: 5}),
    ], ids=["apply-negative", "apply-past-end", "apply-zero-value",
            "solve-negative", "solve-past-end", "solve-vanishing-value"])
    def test_outside_indices_refused(self, method, vec):
        # a negative index would otherwise wrap around to the last columns or rows
        m = SparseMatrix.from_triplets(3, 2, 5, [(0, 0, 1), (1, 1, 2)])
        with pytest.raises(ParameterError, match="outside a 3x2 matrix"):
            getattr(m, method)(vec)

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

    def test_compose_is_exact_past_int64_rows(self):
        # rows * cols beyond 2^64 once wrapped the (column, row) sort key, so
        # two nonzero entries of the product summed to zero
        p = DEFAULT_PRIME
        a = SparseMatrix.from_triplets(2**62, 1, p, [(0, 0, 1)])
        b = SparseMatrix.from_triplets(1, 5, p, [(0, 0, 1), (0, 4, p - 1)])
        assert not a.compose_is_zero(b)
        # and a product that does vanish on such rows still reads zero
        tall = SparseMatrix.from_triplets(2**62, 2, p, [(r, j, (-1) ** j) for r in (0, 2**62 - 1)
                                                        for j in range(2)])
        ones = SparseMatrix.from_triplets(2, 5, p, [(i, j, 1) for i in range(2) for j in (0, 4)])
        assert tall.compose_is_zero(ones)
        assert not tall.compose_is_zero(SparseMatrix.from_triplets(2, 5, p, [(0, 4, 1)]))

    def test_compose_refuses_mixed_moduli(self):
        a = SparseMatrix.from_triplets(1, 2, 7, [(0, 0, 1), (0, 1, 6)])
        b = SparseMatrix.from_triplets(2, 1, 5, [(0, 0, 1), (1, 0, 1)])
        with pytest.raises(ParameterError, match="moduli 7 and 5"):
            a.compose_is_zero(b)

    @given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4),
           st.sampled_from([3, 5, DEFAULT_PRIME, LARGEST_PRIME]), st.booleans(), st.data())
    @settings(max_examples=80)
    def test_compose_matches_reference(self, rows, mid, cols, p, vanish, data):
        # [A | -AB] @ [B; I] vanishes; without `vanish` one entry of I moves
        def dense(n, m):
            return data.draw(st.lists(st.lists(st.integers(0, p - 1), min_size=m, max_size=m),
                                      min_size=n, max_size=n))

        def sparse(mat):
            trips = [(r, c, v) for r, row in enumerate(mat) for c, v in enumerate(row) if v]
            return SparseMatrix.from_triplets(len(mat), len(mat[0]), p, trips)

        a, b = dense(rows, mid), dense(mid, cols)
        left = [row + [-v % p for v in ab] for row, ab in zip(a, product_mod(a, b, p))]
        right = b + [[int(i == j) for j in range(cols)] for i in range(cols)]
        if not vanish:
            i, j = data.draw(st.integers(0, cols - 1)), data.draw(st.integers(0, cols - 1))
            right[mid + i][j] += data.draw(st.integers(1, p - 1))
        expected = not any(map(any, product_mod(left, right, p)))
        assert vanish <= expected
        assert sparse(left).compose_is_zero(sparse(right)) == expected

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
        for text in ("2 -3 7\n", "-1 2 7\n"):
            with pytest.raises(ParameterError, match="must be >= 0"):
                SparseMatrix.from_triplet_text(text)

    @pytest.mark.parametrize("text, line", [
        ("2 2 7\n0 0 1 1\n", "0 0 1 1"),
        ("2 2 7\n0 1\n", "0 1"),
        ("2 x 7\n0 0 1\n", "2 x 7"),
        ("2 2\n0 0 1\n", "2 2"),
        ("2 2 7\n0 x 1\n", "0 x 1"),
    ])
    def test_triplet_text_names_the_bad_line(self, text, line):
        with pytest.raises(ParameterError, match=f"got '{line}'"):
            SparseMatrix.from_triplet_text(text)

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

    @given(st.sampled_from((7,) + EDGE_PRIMES), st.sampled_from(["image", "perturbed", "random"]),
           st.data())
    @settings(max_examples=160, deadline=None)
    def test_solve_consistent_matches_reference(self, p, kind, data):
        # an image A @ x meets every block that x reaches; a perturbed one may
        # also land in a row that no column touches
        rows, cols, dense = block_diagonal(data, p)
        residues = st.one_of(st.integers(-4, 4), st.integers(0, p - 1))
        if kind == "random":
            rhs = data.draw(st.lists(residues, min_size=rows, max_size=rows))
        else:
            x = data.draw(st.lists(residues, min_size=cols, max_size=cols))
            rhs = [sum(a * b for a, b in zip(row, x)) % p for row in dense]
            if kind == "perturbed" and rows:
                rhs[data.draw(st.integers(0, rows - 1))] += data.draw(st.integers(1, p - 1))
        m = sparse_of(rows, cols, dense, p)
        plain = reference_rank(dense, p)
        augmented = reference_rank([row + [b] for row, b in zip(dense, rhs)], p)
        got = m.solve_consistent({i: b for i, b in enumerate(rhs) if b % p})
        assert got == (augmented == plain)

    @given(st.sampled_from([5, DEFAULT_PRIME]), st.sampled_from(["every", "union", "seeds"]),
           st.data())
    @settings(max_examples=120, deadline=None)
    def test_component_split_matches_reference(self, p, kind, data):
        # p > 4, so every nonzero entry of `dense` is nonzero mod p
        rows, cols, dense = block_diagonal(data, p)
        mat = sparse_of(rows, cols, dense, p)
        if kind == "every":
            columns = seeds = range(cols)
            got = mat._component_split()
        elif kind == "union":
            # the index covers `columns` only: a union of whole blocks, plus
            # some empty columns, listed in any order
            whole = reference_components(cols, dense, range(cols))
            empty = [c for c in range(cols) if not any(row[c] for row in dense)]
            chosen = [c for comp, _ in whole if data.draw(st.booleans()) for c in comp]
            chosen += data.draw(st.lists(st.sampled_from(empty), unique=True)) if empty else []
            columns = seeds = data.draw(st.permutations(chosen))
            got = mat._component_split(iter(columns))
        else:
            # every column indexed, the walk only from `seeds`, empty ones included
            columns = range(cols)
            seeds = data.draw(st.lists(st.integers(0, cols - 1))) if cols else []
            got = mat._component_split(seeds=iter(seeds))
        expected = reference_components(cols, dense, seeds)
        assert [(sorted(cols_g), sorted(rows_g)) for cols_g, rows_g in got] == expected
        for cols_g, rows_g in got:
            # a block is headed by the seed it was walked from, and each row
            # lists its columns in the order they were indexed
            assert cols_g[0] == next(c for c in seeds if c in cols_g)
            assert len(cols_g) == len(set(cols_g))
            for r, cs in rows_g.items():
                assert cs == [c for c in columns if dense[r][c]]

    @given(st.sampled_from(EDGE_PRIMES), st.data())
    @settings(max_examples=120, deadline=None)
    def test_weighted_rank_matches_reference(self, p, data):
        # weights constant on each block of the whole graph; rank() indexes
        # only the columns of nonzero weight, the referee splits every column
        rows, cols, dense = block_diagonal(data, p)
        mat = sparse_of(rows, cols, dense, p)
        weights = [0] * cols
        for comp_cols, _ in reference_components(cols, dense, range(cols)):
            w = data.draw(st.sampled_from([0, 0, 1, 2, 7]))
            for c in comp_cols:
                weights[c] = w
        for c in range(cols):  # an empty column's weight is never read
            if not any(row[c] for row in dense):
                weights[c] = data.draw(st.integers(0, 9))
        expected = sum(weights[comp_cols[0]] * reference_rank(
            [[dense[r][c] for c in comp_cols] for r in comp_rows], p)
            for comp_cols, comp_rows in reference_components(cols, dense, range(cols)))
        assert mat.rank(weights) == expected


class TestDenseRank:
    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0), (0, 5), (5, 0)])
    def test_empty_block(self, shape):
        assert _dense_rank_mod(np.zeros(shape, dtype=np.int64), 5) == 0
        # an empty block leaves before it is reduced: a read-only one is never written
        block = np.zeros(shape, dtype=np.int64)
        block.flags.writeable = False
        assert _dense_rank_mod(block, 5) == 0

    def test_shared_empty_block_stays_empty(self):
        # the early returns of `_sparse_rank_mod` all hand the kernel one module-level block
        empty = []
        real = koszul._dense_rank_mod

        def spy(block, p):
            empty.append(block is koszul._EMPTY_BLOCK)
            return real(block, p)

        cx = KoszulComplex(TruncatedRing(3, 3))
        with mock.patch.object(koszul, "_dense_rank_mod", spy):
            for q in range(3):
                cx.betti_row(q, range(cx.num_generators + 1))
        assert any(empty)
        assert koszul._EMPTY_BLOCK.shape == (0, 0) and koszul._EMPTY_BLOCK.dtype == np.int64

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
        # around (p, q) = (1, 1): d_1 leaves the middle term, d_2 enters it
        k = cx.coeff_degree(1)
        d_p, d_p1 = cx.differential_matrix(1, k), cx.differential_matrix(2, k - cx.d)
        assert cx.middle_dim(1, 1) == 4
        assert d_p.cols == d_p1.rows == cx.middle_dim(1, 1)
        assert d_p1.cols == cx.middle_dim(2, 0)
        assert d_p.rows == cx.middle_dim(0, 2)

    def test_zero_shapes(self):
        cx = KoszulComplex(TruncatedRing(2, 3))
        top = cx.algebra.ring.top_degree
        m = cx.differential_matrix(1, top + 1)
        assert (m.rows, m.cols, m.nnz) == (0, 0, 0)
        m = cx.differential_matrix(0, 0)
        assert (m.cols, m.nnz) == (1, 0)

    @pytest.mark.parametrize("make", [
        lambda rng: KoszulComplex(TruncatedRing(3, 3), generator_order=rng.sample(range(7), 7)),
        lambda rng: KoszulComplex(hypersurface_spec(2, 3), d=3),
    ], ids=["capped", "acm"])
    def test_dim_memo(self, make, monkeypatch):
        rng = random.Random(23)
        cx = make(rng)
        nb, d = cx.num_generators, cx.d
        top = cx.algebra.ring.top_degree
        queries = [(p, k) for p in range(-1, nb + 2) for k in range(-d, top + d + 1)]
        expected = {(p, k): math.comb(nb, p) * cx.algebra.dim(k) if p >= 0 else 0
                    for p, k in queries}
        assert any(expected.values()) and not all(expected.values())
        rng.shuffle(queries)
        for p, k in queries:  # every query a miss
            assert cx._dim(p, k) == expected[p, k], (p, k)
        # every query a hit: the algebra is not asked again
        monkeypatch.setattr(cx.algebra, "dim", lambda k: pytest.fail(f"dim({k}) recomputed"))
        rng.shuffle(queries)
        for p, k in queries:
            assert cx._dim(p, k) == expected[p, k], (p, k)

    def test_mask_of_the_wrong_length_refused(self):
        cx = KoszulComplex(TruncatedRing(2, 3))
        assert cx.differential_matrix(1, 0, mask=[0, 1]).nnz == 1
        for mask in ([1], [1, 1, 1]):
            with pytest.raises(ParameterError, match="mask of"):
                cx.differential_matrix(1, 0, mask=mask)

    def test_chain_condition_everywhere(self):
        for ring in (TruncatedRing(2, 3), TruncatedRing(3, 2), TruncatedRing(2, 4)):
            cx = KoszulComplex(ring)
            for q in range(0, ring.n + 2):
                for p in range(0, cx.num_generators + 1):
                    cx.kpq_dim(p, q)  # raises InconsistencyError on failure

    def test_acm_chain_condition(self):
        cx = KoszulComplex(hypersurface_spec(2, 2), d=2)
        for q in range(0, 3):
            for p in range(0, cx.num_generators + 1):
                cx.kpq_dim(p, q)


class TestOrbitRank:
    """rank() eliminates one multidegree per S_{n+1} orbit; the slow path is the referee."""

    @staticmethod
    def degree_rank(mat, comps):
        ptr, idx, val = mat.ptr.tolist(), mat.idx.tolist(), mat.val.tolist()
        return sum(koszul._sparse_rank_mod(c, r, ptr, idx, val, mat.modulus) for c, r in comps)

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
        assert mat.rank(cx._weights(p, k)) == plain_rank(mat)

        groups = {}
        for comp in mat._component_split():
            degrees = {alpha(cx, p, k, c) for c in comp[0]}
            assert len(degrees) == 1
            groups.setdefault(degrees.pop(), []).append(comp)
        if groups:
            a = data.draw(st.sampled_from(sorted(groups)))
            sigma = data.draw(st.permutations(range(n + 1)))
            moved = tuple(a[i] for i in sigma)
            assert moved in groups
            assert self.degree_rank(mat, groups[moved]) == self.degree_rank(mat, groups[a])

    @given(st.integers(1, 3), st.integers(2, 4), st.data())
    @settings(max_examples=40, deadline=None)
    def test_weights_are_constant_on_blocks(self, n, d, data):
        # rank() indexes only the columns of nonzero weight; that is exact
        # because no block of the whole differential mixes zero and nonzero
        ring = TruncatedRing(n + 1, d)
        nb = len(enumerate_monomials(ring, d))
        cx = KoszulComplex(ring, generator_order=data.draw(st.permutations(range(nb))))
        k = data.draw(st.integers(0, ring.top_degree - d))
        small = [p for p in range(1, nb + 1)
                 if math.comb(nb, p) * cx.algebra.dim(k) <= 3000]
        p = data.draw(st.sampled_from(small))
        weights = cx._weights(p, k)
        for cols, _ in cx.differential_matrix(p, k)._component_split():
            assert len({weights[c] for c in cols}) == 1

    def test_one_elimination_per_orbit(self, monkeypatch):
        cx = KoszulComplex(TruncatedRing(3, 4))
        mat = cx.differential_matrix(5, 4)
        degrees = [alpha(cx, 5, 4, cols[0]) for cols, _ in mat._component_split()]
        orbits = {tuple(sorted(a)) for a in degrees}
        assert len(orbits) < len(set(degrees))
        sorted_components = sum(list(a) == sorted(a) for a in degrees)
        slow = plain_rank(mat)
        weights = cx._weights(5, 4)
        assert mat.nnz >= koszul._PEEL_MIN_ENTRIES
        # the split-first stage alone eliminates each sorted alpha's block once
        with dense_shapes() as shapes:
            assert mat._split_rank(weights) == slow
        assert len(shapes) == sorted_components < len(mat._component_split())
        # after the numpy peel of those blocks, the kernel sees at most one residual each
        with dense_shapes() as shapes:
            assert mat.rank(weights) == slow
        assert len(shapes) <= sorted_components

    @pytest.mark.parametrize("make", [
        lambda: KoszulComplex(TruncatedRing(3, 3)),
        lambda: KoszulComplex(hypersurface_spec(2, 2), d=2),
    ], ids=["capped", "acm"])
    def test_only_rank_assembles_masked(self, make, monkeypatch):
        # the chain check composes whole differentials; a differential
        # assembled only to be ranked is gathered on its weighted columns
        cx, calls = make(), []
        real = KoszulComplex.differential_matrix

        def spy(cx, p, k, **kwargs):
            calls.append((p, k, kwargs.get("mask")))
            return real(cx, p, k, **kwargs)

        monkeypatch.setattr(KoszulComplex, "differential_matrix", spy)
        for q in range(3):
            cx.betti_row(q, range(cx.num_generators + 1))
        masked = [(p, k, mask) for p, k, mask in calls if mask is not None]
        assert len(calls) > len(masked)
        if cx.algebra.multigraded:
            assert masked and all(mask == cx._weights(p, k) for p, k, mask in masked)
        else:
            assert not masked

    def test_acm_blocks_are_not_merged(self, monkeypatch):
        cx = KoszulComplex(hypersurface_spec(2, 2), d=2)
        mat = cx.differential_matrix(2, 2)
        assert not cx.algebra.multigraded
        slow = plain_rank(mat)
        calls = []
        real = koszul._dense_rank_mod
        monkeypatch.setattr(koszul, "_dense_rank_mod",
                            lambda block, p: calls.append(block.shape) or real(block, p))
        assert mat.rank() == slow
        assert len(calls) == len(mat._component_split())


def orbit_weight(a):
    """|S_{n+1} . alpha| for sorted alpha, 0 otherwise, from the factorial formula."""
    if list(a) != sorted(a):
        return 0
    size = math.factorial(len(a))
    for v in set(a):
        size //= math.factorial(a.count(v))
    return size


ACM_RINGS = [
    (hypersurface_spec(2, 2), 2),
    (hypersurface_spec(2, 2), 3),
    (hypersurface_spec(3, 2), 2),
    (hypersurface_spec(2, 3), 2),
    (hypersurface_spec(2, 3), 3),
    (hypersurface_spec(2, 2, relation=[[(1, (2, 0)), (1, (0, 2))], []]), 2),
]


class TestSparseRank:
    """`_sparse_rank_mod` through `SparseMatrix.rank`: `reference_rank` and the
    old dense per-block rank are the referees."""

    @given(st.sampled_from(EDGE_PRIMES), st.integers(1, 12), st.integers(1, 12),
           st.booleans(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_random_sparse(self, p, rows, cols, product, data):
        # residues near 0 and p make exact cancellations in the fill likely
        residue = st.one_of(st.integers(1, 3), st.integers(p - 3, p - 1), st.integers(1, p - 1))
        size = data.draw(st.integers(0, rows))

        def columns(height, width):
            # each column a set of distinct rows, so no (row, col) repeats
            picks = data.draw(st.lists(st.dictionaries(st.integers(0, height - 1), residue,
                                                       max_size=size), min_size=width,
                                       max_size=width))
            return [[picks[c].get(r, 0) for c in range(width)] for r in range(height)]

        dense = columns(rows, cols)
        if product:  # a product through a thin middle has deficient rank
            inner = data.draw(st.integers(1, 4))
            dense = product_mod(columns(rows, inner), columns(inner, cols), p)
        mat = sparse_of(rows, cols, dense, p)
        with dense_shapes() as shapes:
            assert mat.rank() == reference_rank(dense, p)
        # one kernel call per block, whichever return the block takes
        assert len(shapes) == len(mat._component_split())

    def test_every_return_calls_the_kernel_once(self):
        # one block per path: a lone column, a lone row, a block that peels
        # fully, one that nothing peels but Markowitz pivots resolve (the
        # first one's update cancels an entry, so singletons follow), and one
        # left dense; the kernel sees a 0x0 residual on every path but the last
        lone_column = [[1], [2], [3]]
        lone_row = [[1, 2, 3]]
        peels = [[1, 1, 0], [0, 1, 1], [0, 0, 1]]
        markowitz = [[2, 0, 2], [2, 3, 1], [3, 1, 0]]
        dense = [[1, 2, 3], [4, 5, 6], [7, 8, 10]]
        for block, shape in ((lone_column, (0, 0)), (lone_row, (0, 0)), (peels, (0, 0)),
                             (markowitz, (0, 0)), (dense, (3, 3))):
            with dense_shapes() as shapes:
                rank = sparse_of(len(block), len(block[0]), block, 7).rank()
            assert rank == reference_rank(block, 7)
            assert shapes == [shape], block

    @given(st.sampled_from(EDGE_PRIMES), st.integers(1, 15), st.data())
    @settings(max_examples=60, deadline=None)
    def test_triangular_peels_fully(self, p, n, data):
        residue = st.integers(1, p - 1)
        dense = [[data.draw(residue) if i == j else
                  data.draw(st.one_of(st.just(0), residue)) if i < j else 0
                  for j in range(n)] for i in range(n)]
        dense = shuffled(dense, data)
        mat = sparse_of(n, n, dense, p)
        with dense_shapes() as shapes:
            assert mat.rank() == reference_rank(dense, p) == n
        assert shapes == [(0, 0)] * len(mat._component_split())

    @given(st.sampled_from(EDGE_PRIMES), st.integers(3, 14), st.booleans(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_cycle_needs_markowitz_fill(self, p, n, singular, data):
        # every row and column holds two entries, so nothing peels; each pivot
        # fills one new entry and leaves a cycle one shorter, until 2x2 is left
        a = data.draw(st.lists(st.integers(1, p - 1), min_size=n, max_size=n))
        b = data.draw(st.lists(st.integers(1, p - 1), min_size=n, max_size=n))
        if singular:
            b[-1] = (-1) ** n * math.prod(a) * pow(math.prod(b[:-1]), -1, p) % p
        det = (math.prod(a) + (-1) ** (n - 1) * math.prod(b)) % p
        assert det == 0 or not singular
        dense = [[0] * n for _ in range(n)]
        for i in range(n):
            dense[i][i], dense[i][(i + 1) % n] = a[i], b[i]
        dense = shuffled(dense, data)
        with dense_shapes() as shapes:
            assert sparse_of(n, n, dense, p).rank() == reference_rank(dense, p) == n - (det == 0)
        assert shapes == [(2, 2)]
        # rows s, t and a column x on them go in front, and a long pendant
        # column meets every row: still nothing peels, x is the heap minimum,
        # and its pivot on s leaves t one live entry, in the pendant column,
        # which is not the heap minimum
        x = data.draw(st.lists(st.integers(1, p - 1), min_size=2, max_size=2))
        pendant = data.draw(st.lists(st.integers(1, p - 1), min_size=n + 2, max_size=n + 2))
        grown = [[x[0]] + [0] * n, [x[1]] + [0] * n] + [[0] + row for row in dense]
        grown = [row + [w] for row, w in zip(grown, pendant)]
        with dense_shapes() as shapes:
            assert sparse_of(n + 2, n + 2, grown, p).rank() == reference_rank(grown, p)
        assert len(shapes) == 1

    @given(st.sampled_from(EDGE_PRIMES), st.integers(2, 9), st.integers(2, 9),
           st.booleans(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_dense_falls_through(self, p, rows, cols, rank_one, data):
        # no entry is zero: the first pivot's fill bound is a quarter of the cells or more
        residue = st.integers(1, p - 1)
        if rank_one:
            u = data.draw(st.lists(residue, min_size=rows, max_size=rows))
            v = data.draw(st.lists(residue, min_size=cols, max_size=cols))
            dense = [[x * y % p for y in v] for x in u]
        else:
            dense = data.draw(st.lists(st.lists(residue, min_size=cols, max_size=cols),
                                       min_size=rows, max_size=rows))
        with dense_shapes() as shapes:
            assert sparse_of(rows, cols, dense, p).rank() == reference_rank(dense, p)
        assert shapes == [(rows, cols)]

    @given(st.sampled_from([(TruncatedRing(2, 3), None), (TruncatedRing(2, 5), None),
                            (TruncatedRing(3, 3), None), (TruncatedRing(4, 2), None)]
                           + ACM_RINGS),
           st.sampled_from([3, 5, DEFAULT_PRIME, SECONDARY_PRIME, LARGEST_PRIME]), st.data())
    @settings(max_examples=40, deadline=None)
    def test_differentials_match_dense_blocks(self, ring, prime, data):
        ring, d = ring
        cx = KoszulComplex(ring, d=d, field=prime)
        nb = cx.num_generators
        cases = [(p, k) for k in range(0, 4 * cx.d) for p in range(1, nb + 1)
                 if 0 < math.comb(nb, p) * cx.algebra.dim(k) <= 3000 and cx._nontrivial(p, k)]
        p, k = data.draw(st.sampled_from(cases))
        mat = cx.differential_matrix(p, k)
        weights = cx._weights(p, k) if cx.algebra.multigraded else [1] * mat.cols
        seeds = itertools.compress(range(mat.cols), weights)
        assert mat.rank(weights) == sum(weights[cols[0]] * dense_block_rank(mat, cols, rows)
                                        for cols, rows in mat._component_split(seeds))

    @pytest.mark.parametrize("p", [5, 6])
    def test_quadric_surface_blocks_peel_fully(self, p):
        # criterion 8: d_6 holds its 646x2565 blocks. Both differentials peel
        # to nothing in numpy, so no block reaches the dense kernel; the
        # split-first stage alone hands it every block as a 0x0 residual
        mat = KoszulComplex(hypersurface_spec(2, 3), d=3).differential_matrix(p, 3)
        ones = [1] * mat.cols
        with dense_shapes() as shapes:
            rank = mat.rank()
        peeled, core, _ = koszul._peel(mat, ones)
        assert (peeled, core.rows, core.cols, shapes) == (rank, 0, 0, [])
        with dense_shapes() as shapes:
            assert mat._split_rank(ones) == rank
        assert shapes == [(0, 0)] * len(mat._component_split()) and len(shapes) > 1


def chain_matrix(n, p, rng, pendant, shuffle=True):
    """(mat, entries): an n x n upper-bidiagonal matrix of random nonzero
    residues, with `pendant` one more column meeting every row, rows and
    columns shuffled unless `shuffle` is false; and its (row, column,
    residue) entries before the shuffle. It has rank n."""
    cols = n + pendant
    entries = [(i, j, rng.randrange(1, p)) for i in range(n) for j in (i, i + 1) if j < n]
    entries += [(i, n, rng.randrange(1, p)) for i in range(n) if pendant]
    row_order, col_order = list(range(n)), list(range(cols))
    if shuffle:
        row_order, col_order = rng.sample(row_order, n), rng.sample(col_order, cols)
    mat = SparseMatrix.from_triplets(n, cols, p, [(row_order[i], col_order[j], v)
                                                  for i, j, v in entries])
    return mat, entries


def chain(n, p, rng, pendant):
    """`chain_matrix`, shuffled, and its transpose, unshuffled and dense.
    Rank ignores both changes, and `reference_rank` row-reduces that
    lower-bidiagonal transpose without fill."""
    mat, entries = chain_matrix(n, p, rng, pendant)
    transposed = [[0] * n for _ in range(mat.cols)]
    for i, j, v in entries:
        transposed[j][i] = v
    return mat, transposed


class TestNumpyPeel:
    """`_peel`, the first stage of a large `rank`, called directly, so the
    size threshold does not limit it. The rank it takes plus the split-first
    rank of its core, and plus the pivot rounds' rank of its core, must be
    the split-first rank of the whole matrix, and `reference_rank`'s or the
    dense per-block rank."""

    @staticmethod
    def two_stage(mat, weights):
        rank, core, core_weights = koszul._peel(mat, weights)
        # the core is renumbered, so each of its rows and columns holds an entry
        assert len(core_weights) == core.cols and all(core_weights)
        assert (np.diff(core.ptr) > 0).all() and set(core.idx.tolist()) == set(range(core.rows))
        split = rank + core._split_rank(core_weights)
        # the pivot rounds, `rank`'s own next stage, and the split of their rest
        taken, rest, rest_weights = koszul._pivot_rounds(core, core_weights)
        assert rank + taken + rest._split_rank(rest_weights) == split
        return split

    @given(st.sampled_from(EDGE_PRIMES), st.data())
    @settings(max_examples=150, deadline=None)
    def test_block_diagonal_matches_referees(self, p, data):
        # zero and nonzero block weights, and empty columns of any weight
        rows, cols, dense = block_diagonal(data, p)
        mat = sparse_of(rows, cols, dense, p)
        comps = reference_components(cols, dense, range(cols))
        weights = [0] * cols
        for comp_cols, _ in comps:
            w = data.draw(st.sampled_from([0, 0, 1, 2, 7]))
            for c in comp_cols:
                weights[c] = w
        for c in range(cols):
            if not any(row[c] for row in dense):
                weights[c] = data.draw(st.integers(0, 9))
        expected = sum(weights[comp_cols[0]] * reference_rank(
            [[dense[r][c] for c in comp_cols] for r in comp_rows], p)
            for comp_cols, comp_rows in comps)
        assert self.two_stage(mat, weights) == mat._split_rank(weights) == expected

    @given(st.sampled_from(EDGE_PRIMES), st.data())
    @settings(max_examples=40, deadline=None)
    def test_differentials_match_referees(self, prime, data):
        # ACM differentials with every block once, capped-ring ones with their orbit weights
        cx, k = draw_complex(data, prime)
        nb = cx.num_generators
        cases = [p for p in range(1, nb + 1) if 0 < cx._dim(p, k) <= 3000 and cx._nontrivial(p, k)]
        p = data.draw(st.sampled_from(cases))
        mat = cx.differential_matrix(p, k)
        weights = cx._weights(p, k) if cx.algebra.multigraded else [1] * mat.cols
        seeds = itertools.compress(range(mat.cols), weights)
        expected = sum(weights[cols[0]] * dense_block_rank(mat, cols, rows)
                       for cols, rows in mat._component_split(seeds))
        assert self.two_stage(mat, weights) == mat._split_rank(weights) == expected

    @given(st.sampled_from(EDGE_PRIMES), st.data())
    @settings(max_examples=30, deadline=None)
    def test_mixed_weights_are_refused_alike(self, p, data):
        # 2x2 blocks of nonzero residues, enough to pass the size threshold,
        # columns shuffled; the columns of one block get two weights
        blocks = koszul._PEEL_MIN_ENTRIES // 4 + 1
        rng = data.draw(st.randoms(use_true_random=False))
        order = rng.sample(range(2 * blocks), 2 * blocks)
        mat = SparseMatrix.from_triplets(2 * blocks, 2 * blocks, p, [
            (2 * b + i, order[2 * b + j], rng.randrange(1, p))
            for b in range(blocks) for i in range(2) for j in range(2)])
        mixed = data.draw(st.integers(0, blocks - 1))
        weights = [0] * mat.cols
        for b in range(blocks):
            weights[order[2 * b]] = rng.randint(1, 3)
            weights[order[2 * b + 1]] = weights[order[2 * b]] + (b == mixed)
        assert mat.nnz >= koszul._PEEL_MIN_ENTRIES and koszul._peel(mat, weights) is None
        with pytest.raises(ParameterError, match="mixes weights") as split_first:
            mat._split_rank(weights)
        with pytest.raises(ParameterError) as default:
            mat.rank(weights)
        assert str(default.value) == str(split_first.value)
        assert f"column {min(order[2 * mixed:2 * mixed + 2])}'s block" in str(default.value)

    def test_weights_past_int64_skip_the_peel(self):
        # the peel sums weights in int64; a weight that could overflow it
        # leaves the rank to the split, in Python ints
        mat, transposed = chain(koszul._PEEL_MIN_ENTRIES, 5, random.Random(0), False)
        expected = reference_rank(transposed, 5)
        for weight, peels in ((2**40, 1), (2**70, 0)):
            called = []
            real = koszul._peel
            with mock.patch.object(koszul, "_peel", lambda *args: called.append(1) or real(*args)):
                assert mat.rank([weight] * mat.cols) == weight * expected
            assert len(called) == peels

    @pytest.mark.parametrize("pendant", [False, True], ids=["bidiagonal", "dense-pendant"])
    def test_chain_rounds_are_bounded(self, pendant):
        # the chain comes free one link per round from each end, so the first
        # round removes a few of its 4,000 or so entries and the rounds stop
        # there; the split's own peel takes the rest in linear time. The
        # pendant column leaves no singleton row at all
        p = DEFAULT_PRIME
        mat, transposed = chain(2000, p, random.Random(pendant), pendant)
        expected = reference_rank(transposed, p)
        sides = []
        real = koszul._peel_side
        with mock.patch.object(koszul, "_peel_side", lambda *args: sides.append(1) or real(*args)):
            assert mat.rank() == expected
        assert mat.nnz >= koszul._PEEL_MIN_ENTRIES and len(sides) == 2
        assert self.two_stage(mat, [1] * mat.cols) == mat._split_rank([1] * mat.cols) == expected


class TestPivotRounds:
    """`_pivot_rounds`, the second stage of a large `rank`, called directly
    on a matrix and its weights, so neither the size threshold nor the peel
    stands before it. The rank it takes plus the split-first rank of its
    rest must be `_split_rank`'s and `reference_rank`'s."""

    @staticmethod
    def rounds(mat, weights):
        """(rank, outcomes, rest): the weighted rank of the rounds and the
        split of their rest, what each round returned (None, or the count
        of entries it left), and the rest."""
        outcomes = []
        real = koszul._pivot_round

        def one_round(*args):
            out = real(*args)
            outcomes.append(None if out is None else out[1].size)
            return out

        with mock.patch.object(koszul, "_pivot_round", one_round):
            taken, rest, rest_weights = koszul._pivot_rounds(mat, weights)
        # the rest is renumbered, so each of its rows and columns holds an entry
        assert len(rest_weights) == rest.cols and all(rest_weights)
        assert (np.diff(rest.ptr) > 0).all() and set(rest.idx.tolist()) == set(range(rest.rows))
        return taken + rest._split_rank(rest_weights), outcomes, rest

    @pytest.mark.parametrize("tall", [True, False], ids=["rows>cols", "cols>rows"])
    @given(st.sampled_from(EDGE_PRIMES), st.data())
    @settings(max_examples=100, deadline=None)
    def test_block_diagonal_matches_referees(self, tall, p, data):
        # residues p - 1 in a third of the entries, so that the products are
        # the largest possible and equal columns cancel; zero and nonzero
        # block weights. With more columns than rows, a priority of score *
        # rows + column once let two conflicting pivots through
        entries = st.one_of(st.just(p - 1), st.just(0), st.integers(1, p - 1))
        rows, cols, dense = block_diagonal(data, p, entries)
        assume(rows != cols)
        if (rows > cols) != tall:
            rows, cols, dense = cols, rows, [list(col) for col in zip(*dense)]
        mat = sparse_of(rows, cols, dense, p)
        comps = reference_components(cols, dense, range(cols))
        weights = [0] * cols
        for comp_cols, _ in comps:
            w = data.draw(st.sampled_from([0, 1, 2, 7]))
            for c in comp_cols:
                weights[c] = w
        expected = sum(weights[comp_cols[0]] * reference_rank(
            [[dense[r][c] for c in comp_cols] for r in comp_rows], p)
            for comp_cols, comp_rows in comps)
        assert self.rounds(mat, weights)[0] == mat._split_rank(weights) == expected

    @pytest.mark.parametrize("n", [2000, 8000])
    @pytest.mark.parametrize("shuffle", [False, True], ids=["column-order", "shuffled"])
    def test_chain_rounds_are_bounded(self, n, shuffle):
        # in column order each candidate conflicts with its neighbours and
        # only the least priorities stay, a pivot or two per round: the
        # first round removes less than _ROUNDS_PROGRESS of the entries and
        # the split's linear peel takes the rest. Shuffled, a round removes
        # a share of what is live, so the rounds grow with log n
        p = DEFAULT_PRIME
        mat, _ = chain_matrix(n, p, random.Random(n), False, shuffle)
        rank, outcomes, _ = self.rounds(mat, [1] * n)
        assert rank == n == mat._split_rank([1] * n)
        assert len(outcomes) <= (2 * math.ceil(math.log2(n)) if shuffle else 1)
        assert None not in outcomes

    @pytest.mark.parametrize("p", [3, DEFAULT_PRIME, LARGEST_PRIME])
    def test_bordered_block_trips_the_fill_rule(self, p):
        # k diagonal entries bordered by a dense k x b and b x k: the diagonal
        # are the candidates of least score and none conflict, but their fill
        # is k * b * b entries, more than the k + 2kb live. So the round is
        # not taken, and the rest is the whole block
        k, b = 10, 4
        rng = random.Random(p)
        dense = [[0] * (k + b) for _ in range(k + b)]
        for i in range(k):
            dense[i][i] = rng.randrange(1, p)
            for j in range(k, k + b):
                dense[i][j], dense[j][i] = rng.randrange(1, p), rng.randrange(1, p)
        mat = sparse_of(k + b, k + b, dense, p)
        rank, outcomes, rest = self.rounds(mat, [3] * mat.cols)
        assert rank == 3 * reference_rank(dense, p) == mat._split_rank([3] * mat.cols)
        assert outcomes == [None]
        assert (rest.rows, rest.cols, rest.nnz) == (mat.rows, mat.cols, mat.nnz)

    def test_a_round_past_the_growth_cap_is_not_taken(self):
        # with one border row and column the k pivots' fill sums into one
        # entry, and the round is taken (the next takes that entry); with no
        # room to grow at all it is not, and the rest is the whole block
        k, p = 10, DEFAULT_PRIME
        trips = [(i, i, 1) for i in range(k)] + [(i, k, 1) for i in range(k)]
        mat = SparseMatrix.from_triplets(k + 1, k + 1, p, trips + [(k, i, 1) for i in range(k)])
        rank, outcomes, rest = self.rounds(mat, [1] * mat.cols)
        assert (rank, outcomes, rest.nnz) == (k + 1, [1, 0], 0)
        with mock.patch.object(koszul, "_ROUNDS_GROWTH", 0):
            rank, outcomes, rest = self.rounds(mat, [1] * mat.cols)
        assert (rank, outcomes) == (k + 1, [1])
        assert (rest.rows, rest.cols, rest.nnz) == (mat.rows, mat.cols, mat.nnz)


class TestArrayPath:
    """The numpy gather of a differential against the per-column loop, on both sides of the threshold."""

    @staticmethod
    def assert_same_columns(cx, p, k, prime, mask):
        loop = cx._columns_by_loop(p, k)
        arrays = cx._columns_by_arrays(p, k)
        mat = cx.differential_matrix(p, k)
        # the arrays are int64, and as lists they are the loop's
        assert [a.dtype for a in arrays] == [np.dtype(np.int64)] * 3 and lists(arrays) == loop
        ptr, idx, val = lists((mat.ptr, mat.idx, mat.val))
        assert (ptr, idx, val) == loop
        assert len(ptr) == mat.cols + 1 and ptr[0] == 0 and ptr[-1] == len(idx)
        for c in range(mat.cols):
            rows = idx[ptr[c]:ptr[c + 1]]
            assert rows == sorted(set(rows)) and all(0 <= r < mat.rows for r in rows)
        assert all(0 < v < prime for v in val)
        # the merging constructor rebuilds the same lists: nothing to merge or drop
        again = SparseMatrix.from_triplets(mat.rows, mat.cols, prime, mat.triplets())
        assert lists((again.ptr, again.idx, again.val)) == loop
        # masked, both gathers give the whole lists with the columns of mask 0 emptied
        kept = SparseMatrix.from_triplets(mat.rows, mat.cols, prime,
                                          [(r, c, v) for r, c, v in mat.triplets() if mask[c]])
        expected = lists((kept.ptr, kept.idx, kept.val))
        assert cx._columns_by_loop(p, k, mask) == lists(cx._columns_by_arrays(p, k, mask)) == expected
        masked = cx.differential_matrix(p, k, mask=mask)
        assert (masked.rows, masked.cols, *lists((masked.ptr, masked.idx, masked.val))) == (
            mat.rows, mat.cols, *expected)

    @given(st.integers(1, 3), st.integers(2, 4),
           st.sampled_from([3, 5, DEFAULT_PRIME, SECONDARY_PRIME, LARGEST_PRIME]), st.data())
    @settings(max_examples=60, deadline=None)
    def test_capped_ring(self, n, d, prime, data):
        ring = TruncatedRing(n + 1, d)
        nb = len(enumerate_monomials(ring, d))
        order = data.draw(st.permutations(range(nb)))
        cx = KoszulComplex(ring, field=prime, generator_order=order)
        k = data.draw(st.integers(0, ring.top_degree - d))
        small = [p for p in range(1, nb + 1)
                 if math.comb(nb, p) * cx.algebra.dim(k) <= 3000]
        p = data.draw(st.sampled_from(small))
        weights = cx._weights(p, k)
        self.assert_same_columns(cx, p, k, prime, weights)
        expected = [orbit_weight(alpha(cx, p, k, c))
                    for c in range(math.comb(nb, p) * cx.algebra.dim(k))]
        assert weights == expected

    @given(st.permutations(range(7)))
    @settings(max_examples=10, deadline=None)
    def test_weights_at_the_largest_radix(self, order):
        # n = 1, d = 8 has the grid's largest gap radix, 2 * 7 * 6 + 1; a fresh
        # complex per order starts from an empty gap memo, so every gap code
        # is decoded from its digits at least once
        ring = TruncatedRing(2, 8)
        cx = KoszulComplex(ring, generator_order=order)
        nb = cx.num_generators
        for k in range(ring.top_degree + 1):
            for p in range(nb + 1):
                cols = math.comb(nb, p) * cx.algebra.dim(k)
                if cols <= 3000:
                    expected = [orbit_weight(alpha(cx, p, k, c)) for c in range(cols)]
                    assert cx._weights(p, k) == expected, (order, p, k)

    @given(st.integers(1, 3), st.integers(2, 4), st.data())
    @settings(max_examples=40, deadline=None)
    def test_removals_give_sub_wedge_rows(self, n, d, data):
        ring = TruncatedRing(n + 1, d)
        cx = KoszulComplex(ring)
        table = cx._table(data.draw(st.integers(0, ring.top_degree - d)))
        nb = cx.num_generators
        combo = tuple(sorted(data.draw(st.sets(st.integers(0, nb - 1), max_size=nb))))
        expected = [(colex_rank(combo[:t] + combo[t + 1:]) * table.n_dst,
                     table.terms[combo[t]], t % 2) for t in reversed(range(len(combo)))]
        assert table.removals(combo) == expected

    @given(st.sampled_from(ACM_RINGS),
           st.sampled_from([3, 5, DEFAULT_PRIME, SECONDARY_PRIME, LARGEST_PRIME]), st.data())
    @settings(max_examples=40, deadline=None)
    def test_acm_rings(self, ring, prime, data):
        spec, d = ring
        cx = KoszulComplex(spec, d=d, field=prime)
        nb = cx.num_generators
        cases = [(p, k) for k in range(0, 3 * d + 1) for p in range(1, nb + 1)
                 if 0 < math.comb(nb, p) * cx.algebra.dim(k) <= 3000
                 and cx.algebra.dim(k + d) > 0]
        p, k = data.draw(st.sampled_from(cases))
        # no orbit weights here: a random mask, which the gathers treat alike
        pick = random.Random(data.draw(st.integers(0, 2**32), label="mask seed"))
        mask = [pick.randrange(3) for _ in range(cx._dim(p, k))]
        self.assert_same_columns(cx, p, k, prime, mask)
        assert not cx.algebra.multigraded

    @given(st.sampled_from([(TruncatedRing(n + 1, d), None) for n in (1, 2, 3) for d in (2, 3, 4)]
                           + ACM_RINGS),
           st.sampled_from(["per wedge", "none", "all"]),
           st.sampled_from([3, DEFAULT_PRIME, LARGEST_PRIME]), st.data())
    @settings(max_examples=60, deadline=None)
    def test_wedge_level_masks(self, ring, kind, prime, data):
        # masks that zero whole wedges: both gathers skip those. The loop takes
        # no sub-wedge ranks for them, and the arrays read no row of the wedge
        # table for them, which a table poisoned at exactly those rows shows
        ring, d = ring
        cx = KoszulComplex(ring, d=d, field=prime)
        nb = cx.num_generators
        if cx.algebra.multigraded:
            cx = KoszulComplex(ring, field=prime, generator_order=data.draw(st.permutations(range(nb))))
        cases = [(p, k) for k in range(0, 3 * cx.d + 1) for p in range(1, nb + 1)
                 if 0 < cx._dim(p, k) <= 3000 and cx._dim(p - 1, k + cx.d) > 0]
        p, k = data.draw(st.sampled_from(cases))
        n_src = cx.algebra.dim(k)
        wedges = wedge_basis(nb, p)
        if kind == "per wedge":
            pick = random.Random(data.draw(st.integers(0, 2**32), label="mask seed"))
            mask = [w if pick.random() < 0.5 else 0 for w in (
                cx._weights(p, k) if cx.algebra.multigraded else
                [pick.randrange(3) for _ in range(cx._dim(p, k))])]
            for w in range(len(wedges)):
                if pick.random() < 0.3:
                    mask[w * n_src:(w + 1) * n_src] = [0] * n_src
        else:
            mask = [int(kind == "all")] * cx._dim(p, k)
        self.assert_same_columns(cx, p, k, prime, mask)
        dropped = [not any(mask[w * n_src:(w + 1) * n_src]) for w in range(len(wedges))]
        removed = []
        real_removals = koszul._ProductTable.removals

        def removals(table, combo):
            removed.append(combo)
            return real_removals(table, combo)

        with mock.patch.object(koszul._ProductTable, "removals", removals):
            loop = cx._columns_by_loop(p, k, mask)
        assert removed == [combo for combo, gone in zip(wedges, dropped) if not gone]
        # a dropped wedge's generators are out of range and its ranks out of
        # the rows, so a gather that read one would raise or differ
        combos, sub_ranks = (a.copy() for a in koszul._wedge_table(nb, p))
        combos[dropped], sub_ranks[dropped] = nb, np.iinfo(sub_ranks.dtype).max
        with mock.patch.object(koszul, "_wedge_table", lambda *key: (combos, sub_ranks)):
            assert lists(cx._columns_by_arrays(p, k, mask)) == loop

    def test_degree_basis_has_dim_elements(self):
        # the column count comb(nb, p) * dim(k) indexes the basis of A_k
        rings = [(TruncatedRing(n + 1, d), None) for n in (1, 2, 3) for d in (2, 3, 4)]
        for ring, d in rings + [(spec, d) for spec, d in ACM_RINGS]:
            algebra = KoszulComplex(ring, d=d).algebra
            assert algebra.degree_basis(-1) == [] and algebra.dim(-1) == 0
            for k in range(-1, 4 * algebra.d + 2):
                assert len(algebra.degree_basis(k)) == algebra.dim(k), (ring, d, k)

    def test_product_table_merges_repeated_labels(self):
        class Stub:
            d = 1
            multigraded = False

            def degree_basis(self, k):
                return {0: ["a", "b"], 1: ["x", "y", "z"]}.get(k, [])

            def multiply(self, g, m):
                if m == "a":  # z cancels, x and y repeat
                    return [(2, "z"), (3, "x"), (6, "y"), (-2, "z"), (5, "x"), (-1, "y")]
                return [(12, "y")]

        table = koszul._ProductTable(["g"], Stub(), 0, 7)
        assert table.terms == [[[(1, 0), (5, 1)], [(5, 1)]]]
        res, tgt = table.arrays
        assert res.tolist() == [[[1, 5], [5, 0]]]
        assert tgt.tolist() == [[[0, 1], [1, 0]]]

    def test_rank_splits_only_weighted_columns(self, monkeypatch):
        cx = KoszulComplex(TruncatedRing(3, 4))
        mat = cx.differential_matrix(5, 4)
        weights = cx._weights(5, 4)

        def normal(blocks):
            return sorted((sorted(cols), sorted(rows)) for cols, rows in blocks)

        full = normal(mat._component_split())
        weighted = [comp for comp in full if weights[comp[0][0]]]
        assert 0 < len(weighted) < len(full)
        slow = plain_rank(mat)
        fresh = cx.differential_matrix(5, 4)
        assert fresh.nnz >= koszul._PEEL_MIN_ENTRIES
        splits = []
        real = SparseMatrix._component_split

        def spy(matrix, columns=None, seeds=None):
            columns = list(columns)
            out = real(matrix, columns, seeds)
            splits.append((matrix, columns, seeds, normal(out)))
            return out

        monkeypatch.setattr(SparseMatrix, "_component_split", spy)
        # the split-first stage alone indexes the weighted columns, once
        assert fresh._split_rank(weights) == slow
        assert [s[1:] for s in splits] == [([c for c in range(mat.cols) if weights[c]], None,
                                            weighted)]
        # the numpy peel reads the weighted columns alone: it peels the masked
        # gather, whose other columns are empty, exactly as it peels `fresh`
        masked = cx.differential_matrix(5, 4, mask=weights)
        rank, core, core_weights = koszul._peel(fresh, weights)
        again, masked_core, masked_weights = koszul._peel(masked, weights)
        assert (rank, core_weights, core.rows, core.cols) == (
            again, masked_weights, masked_core.rows, masked_core.cols)
        assert lists((core.ptr, core.idx, core.val)) == lists(
            (masked_core.ptr, masked_core.idx, masked_core.val))
        # and the pivot rounds then get what the peel left, whole; the split,
        # once, sees only what they leave, every column of it
        handed = []
        real_rounds = koszul._pivot_rounds
        monkeypatch.setattr(koszul, "_pivot_rounds",
                            lambda m, w: handed.append((m, w)) or real_rounds(m, w))
        splits.clear()
        assert fresh.rank(weights) == slow
        [(whole, whole_weights)] = handed
        assert (whole.rows, whole.cols, whole_weights) == (core.rows, core.cols, core_weights)
        assert lists((whole.ptr, whole.idx, whole.val)) == lists((core.ptr, core.idx, core.val))
        [(split, columns, seeds, _)] = splits
        assert split.nnz <= core.nnz and (columns, seeds) == (list(range(split.cols)), None)
        assert core.nnz < masked.nnz
        monkeypatch.undo()
        assert normal(fresh._component_split()) == full


class TestKpqDims:
    def test_eagon_northcott_rational_normal_curve(self):
        """n = 1, b = 0: the rational normal curve of degree d. Its minimal
        free resolution is the Eagon-Northcott complex of the 2 x d matrix of
        its quadrics, so K_{p,1} has dimension p * C(d, p + 1), and K_{p,0}
        and K_{p,2} vanish for p >= 1 (Eisenbud, The Geometry of Syzygies,
        GTM 229, ch. 6). A referee from outside the oracle, on both primes."""
        peeled = []
        real = koszul._peel
        with mock.patch.object(koszul, "_peel", lambda *args: peeled.append(1) or real(*args)):
            for d in range(2, 13):
                for prime in (DEFAULT_PRIME, SECONDARY_PRIME):
                    cx = KoszulComplex(TruncatedRing(2, d), field=prime)
                    for p in range(1, d + 1):
                        assert cx.kpq_dim(p, 1) == p * math.comb(d, p + 1), (d, prime, p)
                        assert cx.kpq_dim(p, 0) == cx.kpq_dim(p, 2) == 0, (d, prime, p)
        # the larger ranks take the numpy peel
        assert peeled

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

    def test_copied_differentials_give_the_same_table(self, monkeypatch):
        # the orbit weights belong to the rank, so a plain copy of each
        # assembled matrix (as the chain-check fixtures make) changes nothing
        def table(cx):
            return [[cx.kpq_dim(p, q) for p in range(cx.num_generators + 1)]
                    for q in range(4)]

        expected = table(KoszulComplex(TruncatedRing(3, 3)))
        real = KoszulComplex.differential_matrix

        def copied(cx, p, k, **kwargs):
            mat = real(cx, p, k, **kwargs)
            return SparseMatrix.from_triplets(mat.rows, mat.cols, mat.modulus, mat.triplets())

        monkeypatch.setattr(KoszulComplex, "differential_matrix", copied)
        assert table(KoszulComplex(TruncatedRing(3, 3))) == expected
        assert expected[0][1] == 0

    @pytest.mark.parametrize("query", [
        lambda cx: cx.kpq_dim(1, 1),
        lambda cx: cx.betti_row(1, range(0, 4)),
        lambda cx: cx.is_cycle({0: 1}, 1, 0),
        lambda cx: cx.is_boundary({0: 1}, 1, 0),
        lambda cx: list(cx.differential_matrix(1, 0).triplets()),
    ], ids=["kpq_dim", "betti_row", "is_cycle", "is_boundary", "differential_matrix"])
    def test_int_field_on_every_query(self, query):
        # the field is chosen once, in the constructor, for every query
        ring = TruncatedRing(2, 4)
        assert (query(KoszulComplex(ring, field=7))
                == query(KoszulComplex(ring, field=PrimeField(7))))
        with pytest.raises(ParameterError, match="odd prime"):
            KoszulComplex(ring, field=4)

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
            lambda: KoszulComplex(TruncatedRing(3, 3)),
            lambda: KoszulComplex(TruncatedRing(3, 4), b=2),
            lambda: KoszulComplex(TruncatedRing(4, 2)),
            lambda: KoszulComplex(TruncatedRing(4, 2), b=1),
        ):
            cx = make()
            nb = cx.num_generators
            for t in range(0, nb + 3):
                mid = sum((-1) ** p * cx.middle_dim(p, t - p) for p in range(nb + 1))
                hom = sum((-1) ** p * cx.kpq_dim(p, t - p) for p in range(nb + 1))
                assert mid == hom, f"strand {t}"

    @given(st.integers(1, 3), st.integers(2, 4),
           st.sampled_from([3, 5, DEFAULT_PRIME, SECONDARY_PRIME]), st.data())
    @settings(max_examples=40, deadline=None)
    def test_kpq_dim_matches_plain_ranks(self, n, d, prime, data):
        # the strand Euler sums cancel every rank; this referee sees the orbit weights
        ring = TruncatedRing(n + 1, d)
        nb = len(enumerate_monomials(ring, d))
        order = data.draw(st.permutations(range(nb)))
        b = data.draw(st.integers(0, d - 1))
        cx = KoszulComplex(ring, b=b, field=prime, generator_order=order)
        small = [(p, q) for q in range((ring.top_degree - b) // d + 1)
                 for p in range(nb + 1)
                 if 0 < cx.middle_dim(p, q) <= 3000 and cx.middle_dim(p + 1, q - 1) <= 3000]
        cells = data.draw(st.lists(st.sampled_from(small), min_size=1, max_size=3, unique=True))
        for p, q in cells:
            k = cx.coeff_degree(q)
            expected = (cx.middle_dim(p, q) - plain_rank(cx.differential_matrix(p, k))
                        - plain_rank(cx.differential_matrix(p + 1, k - d)))
            assert cx.kpq_dim(p, q) == expected, (p, q)


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

    def test_boundary_across_two_blocks(self):
        # K_{10,2} of TruncatedRing(3, 4): d_11 has blocks of several columns
        # and deficient rank; the preimage spans two of them, of two multidegrees
        cx = KoszulComplex(TruncatedRing(3, 4))
        mat = cx.differential_matrix(11, 4)
        blocks = [(sorted(cols), sorted(rows)) for cols, rows in mat._component_split()
                  if 1 < dense_block_rank(mat, cols, rows) < len(rows)][:2]
        assert len({alpha(cx, 11, 4, cols[0]) for cols, _ in blocks}) == 2
        img = mat.apply({c: 1 + i for i, c in enumerate(blocks[0][0] + blocks[1][0])})
        assert all(set(img) & set(rows) for _, rows in blocks)
        with solve_calls() as (splits, ranked):
            assert cx.is_boundary(img, 10, 2)
        # one walk from the rhs column, the one past mat.cols, reaches both
        # blocks, and their union is ranked with and without that column
        union = sorted(blocks[0][0] + blocks[1][0])
        [([seed], [block])] = splits
        assert seed == block[0] == mat.cols and sorted(block[1:]) == union
        assert sorted(map(sorted, ranked)) == [union, union + [mat.cols]]
        img[min(img)] += 1
        p = cx.field.modulus
        dense = [[0] * mat.cols for _ in range(mat.rows)]
        for r, c, v in mat.triplets():
            dense[r][c] = v
        augmented = [row + [img.get(r, 0)] for r, row in enumerate(dense)]
        assert reference_rank(augmented, p) > reference_rank(dense, p)
        assert not cx.is_boundary(img, 10, 2)

    def test_spread_vector_is_ranked_in_one_block(self):
        # d_5 of TruncatedRing(3, 4) at k = 0 is 5940x792 with one column per
        # block; a dense image meets all 792 of them
        cx = KoszulComplex(TruncatedRing(3, 4))
        mat = cx.differential_matrix(5, 0)
        img = mat.apply({c: 1 + c % 5 for c in range(mat.cols)})
        with solve_calls() as (splits, ranked):
            assert cx.is_boundary(img, 4, 1)
        [([seed], [block])] = splits
        assert seed == block[0] == mat.cols and sorted(block[1:]) == list(range(mat.cols))
        assert sorted(map(len, ranked)) == [mat.cols, mat.cols + 1]
        perturbed = dict(img)
        perturbed[min(img)] += 1
        assert not cx.is_boundary(perturbed, 4, 1)
        # rows that are zero in A and in both vectors change no rank
        p, rows = cx.field.modulus, sorted(set(mat.idx))
        at = {r: i for i, r in enumerate(rows)}
        dense = [[0] * mat.cols for _ in rows]
        for r, c, v in mat.triplets():
            dense[at[r]][c] = v
        plain = reference_rank(dense, p)
        for vec, boundary in ((img, True), (perturbed, False)):
            augmented = [row + [vec.get(r, 0)] for r, row in zip(rows, dense)]
            assert (reference_rank(augmented, p) == plain) is boundary

    @given(st.sampled_from([5, DEFAULT_PRIME, SECONDARY_PRIME]),
           st.sampled_from(["image", "perturbed", "random"]), st.data())
    @settings(max_examples=60, deadline=None)
    def test_is_boundary_matches_reference(self, prime, kind, data):
        # d_p leaves wedge^p (x) A_k, so it is the incoming differential of
        # (p - 1, q) for k = q*d + b - d
        cx, k = draw_complex(data, prime)
        nb = cx.num_generators
        # with no multigrading the reference ranks nearly the whole matrix
        cap = 3000 if cx.algebra.multigraded else 800
        small = [p for p in range(1, nb + 1) if math.comb(nb, p) * cx.algebra.dim(k) <= cap]
        p = data.draw(st.sampled_from(small))
        q = k // cx.d + 1
        mat = cx.differential_matrix(p, k)
        rng = data.draw(st.randoms(use_true_random=False))
        nonzero = 1 + rng.randrange(prime - 1)
        if kind == "image":
            x = {c: rng.randrange(prime) for c in range(mat.cols) if rng.random() < 0.5}
            assert cx.is_boundary(mat.apply(x), p - 1, q)
            return
        if kind == "perturbed":
            vec = mat.apply({c: 1 + rng.randrange(prime - 1)
                             for c in rng.sample(range(mat.cols), min(3, mat.cols))})
            r = rng.choice(sorted(vec) or range(mat.rows))
            vec[r] = (vec.get(r, 0) + nonzero) % prime
        else:
            # mostly on rows some column touches, so the walk is reached
            touched = sorted(set(mat.idx)) or range(mat.rows)
            vec = {rng.choice(touched): 1 + rng.randrange(prime - 1) for _ in range(3)}
            if rng.random() < 0.25:
                vec[rng.randrange(mat.rows)] = nonzero
        assert cx.is_boundary(vec, p - 1, q) == reference_boundary(mat, vec)

    @given(st.sampled_from([5, DEFAULT_PRIME, LARGEST_PRIME]),
           st.sampled_from(["image", "lifted", "perturbed", "random"]), st.data())
    @settings(max_examples=80, deadline=None)
    def test_is_cycle_matches_assembled_differential(self, prime, kind, data):
        # is_cycle reads d_p v off the product table; the assembled d_p referees it
        cx, k = draw_complex(data, prime)
        nb, d = cx.num_generators, cx.d
        small = [p for p in range(1, nb + 1) if math.comb(nb, p) * cx.algebra.dim(k) <= 3000
                 and math.comb(nb, p + 1) * cx.algebra.dim(k - d) <= 3000]
        p = data.draw(st.sampled_from(small))
        mat = cx.differential_matrix(p, k)
        rng = data.draw(st.randoms(use_true_random=False))
        if kind == "random":
            vec = {rng.randrange(mat.cols): rng.randrange(-prime, 2 * prime) for _ in range(3)}
        else:
            # an image of d_{p+1} is a cycle: its terms under d_p cancel mod p;
            # lifted by multiples of p, they cancel mod p alone
            incoming = cx.differential_matrix(p + 1, k - d)
            vec = incoming.apply({c: 1 + rng.randrange(prime - 1)
                                  for c in rng.sample(range(incoming.cols), min(4, incoming.cols))})
            if kind == "lifted":
                vec = {i: v + prime * rng.randint(-3, 3) for i, v in vec.items()}
            if kind == "perturbed":
                c = rng.randrange(mat.cols)
                vec[c] = vec.get(c, 0) + 1 + rng.randrange(prime - 1)
            else:
                assert cx.is_cycle(vec, p, k // d)
        assert cx.is_cycle(vec, p, k // d) == (not mat.apply(vec))

    def test_witness_fails_before_any_split(self, monkeypatch):
        # a column hitting the witness row would need a degree-d divisor of f
        # outside the wedge, and the wedge holds them all: the row is empty
        params = VeroneseWitnessParams(n=2, d=4, b=0, q=1)
        ring = TruncatedRing(3, 4)
        f = leftmost_monomial(2, 4, 1, 0)
        p = veronese_range_report(VeroneseParams(2, 4, 0, 1)).pq.lo
        w = build_witness(f, p, zero_set(f, ring), divisor_set(f, ring), params)
        cx = KoszulComplex(ring)
        splits, assembled = [], []
        real = SparseMatrix._component_split
        monkeypatch.setattr(SparseMatrix, "_component_split",
                            lambda *args, **kwargs: splits.append(1) or real(*args, **kwargs))
        real_assembly = KoszulComplex.differential_matrix
        monkeypatch.setattr(KoszulComplex, "differential_matrix",
                            lambda *args: assembled.append(args[1:]) or real_assembly(*args))
        assert cx.is_cycle(w, p, 1)
        assert not cx.is_boundary(w, p, 1)
        assert splits == [] and assembled == []

    @pytest.mark.parametrize("n, d", [(1, d) for d in range(2, 6)] + [(2, 2), (2, 3)])
    def test_witness_row_is_empty(self, n, d):
        ring = TruncatedRing(n + 1, d)
        checked = 0
        for b in range(d):
            cx = KoszulComplex(ring, b=b)
            for q in range(n + 2):
                params = VeroneseParams(n, d, b, q)
                if not admissible_q(params):
                    continue
                report = veronese_range_report(params)
                if report.counts is None:
                    continue
                f = leftmost_monomial(n, d, q, b)
                zset, dset = zero_set(f, ring), divisor_set(f, ring)
                for p in report.pq:
                    w = build_witness(f, p, zset, dset, VeroneseWitnessParams(n, d, b, q))
                    assert verify_certificate(w).verdict
                    [row] = cx.element_from_witness(w)[0]
                    assert row not in cx.differential_matrix(p + 1, cx.coeff_degree(q) - d).idx
                    checked += 1
        assert checked > 0

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

    def test_budget_names_the_cell(self):
        # q = (k - b) / d: with b = 1 and d = 4, d_3 of the cell (3, 1) leaves k = 5
        cx = KoszulComplex(TruncatedRing(3, 4), b=1, entry_budget=50)
        with pytest.raises(ResourceLimitError,
                           match=r"cell \(p, q\) = \(3, 1\), coefficient degree k=5,"):
            cx.kpq_dim(3, 1)
        with pytest.raises(ResourceLimitError, match=r"= \(3, 3/4\), coefficient degree k=4,"):
            cx.differential_matrix(3, 4)

    @pytest.mark.parametrize("budget", [0, -1])
    def test_budget_below_one_refused(self, budget):
        # a budget of 0 once made every nonzero assembly a resource error
        with pytest.raises(ParameterError, match="entry budget must be >= 1"):
            KoszulComplex(TruncatedRing(2, 3), entry_budget=budget)

    def test_budget_allows_trivial_slices(self):
        cx = KoszulComplex(TruncatedRing(2, 3), entry_budget=50)
        assert cx.kpq_dim(0, 0) == 1

    @pytest.mark.parametrize("budget, refused", [
        (100, {"is_cycle", "is_boundary"}), (500, {"is_cycle"}), (1000, set())])
    def test_element_checks_keep_the_budget(self, budget, refused):
        # the checks read the product table, yet refuse what assembly refuses:
        # d_3 leaving k = 3 needs ~735 entries, d_4 leaving k = 0 ~140
        ring = TruncatedRing(3, 3)
        f = leftmost_monomial(2, 3, 1, 0)
        w = build_witness(f, 3, zero_set(f, ring), divisor_set(f, ring),
                          VeroneseWitnessParams(n=2, d=3, b=0, q=1))
        cx = KoszulComplex(ring, entry_budget=budget)
        for check, answer in (("is_cycle", True), ("is_boundary", False)):
            if check in refused:
                with pytest.raises(ResourceLimitError, match=f"budget is {budget}"):
                    getattr(cx, check)(w, 3, 1)
            else:
                assert getattr(cx, check)(w, 3, 1) is answer

    def test_element_checks_on_zero_maps_ignore_budget(self):
        cx = KoszulComplex(TruncatedRing(3, 4), field=5, entry_budget=1)
        assert cx.is_cycle({0: 1}, 11, 2)  # A_12 = 0
        assert not cx.is_boundary({0: 1}, 1, 0)  # A_{-4} = 0
        assert cx.is_boundary({0: 5}, 1, 0)  # 5 = 0 in GF(5)

    def test_zero_target_ignores_budget(self):
        # 36 source columns times p = 11 is over the budget, but A_12 = 0
        cx = KoszulComplex(TruncatedRing(3, 4), entry_budget=200)
        mat = cx.differential(11, 2)
        assert (mat.rows, mat.cols, mat.nnz) == (0, 36, 0)


class TestChainCheck:
    """kpq_dim holds the one chain check, and `kpq betti` reaches it through
    kpq_dim; a broken d_p or d_{p+1} must trip it."""

    @staticmethod
    def negate_one_entry(monkeypatch, wedge, pick):
        """Negate entry pick(cx, k, triplets) of every assembled nonzero d_wedge."""
        real = KoszulComplex.differential_matrix

        def flipped(cx, p, k, **kwargs):
            mat = real(cx, p, k, **kwargs)
            trips = list(mat.triplets())
            if p == wedge and trips:
                i = pick(cx, k, trips)
                r, c, v = trips[i]
                trips[i] = (r, c, -v)
            return SparseMatrix.from_triplets(mat.rows, mat.cols, mat.modulus, trips)

        monkeypatch.setattr(KoszulComplex, "differential_matrix", flipped)

    @pytest.fixture
    def broken_d2(self, monkeypatch):
        self.negate_one_entry(monkeypatch, 2, lambda cx, k, trips: 0)

    @pytest.fixture
    def broken_d3(self, monkeypatch):
        # negating entry (r, c) of d_3 adds -2v times column r of d_2 to d_2 d_3,
        # so r must be a nonzero column of d_2 (the first entry's is not)
        def pick(cx, k, trips):
            d2 = cx.differential_matrix(2, k + cx.d)
            return next(i for i, (r, _, _) in enumerate(trips) if d2.ptr[r] < d2.ptr[r + 1])

        self.negate_one_entry(monkeypatch, 3, pick)

    def test_kpq_dim_reports_it(self, broken_d2):
        with pytest.raises(InconsistencyError, match="chain condition failed at p=2, q=1"):
            KoszulComplex(TruncatedRing(3, 3)).kpq_dim(2, 1)

    def test_kpq_dim_reports_a_broken_d_p_plus_1(self, broken_d3):
        # (2, 1) composes d_2 with d_3: a break on the entering side is caught too
        with pytest.raises(InconsistencyError, match="chain condition failed at p=2, q=1"):
            KoszulComplex(TruncatedRing(3, 3)).kpq_dim(2, 1)

    def test_betti_exits_4(self, broken_d2, capsys):
        code = main(["betti", "--n", "2", "--d", "3", "--q-range", "1:1", "--p-range", "2:2"])
        assert code == 4
        assert "chain condition failed" in capsys.readouterr().err

    def test_unsorted_multidegree_column_is_checked(self, monkeypatch):
        # kpq_dim ranks from sorted multidegrees, but composes the full d_2
        def pick(cx, k, trips):
            return next(i for i, (_, c, _) in enumerate(trips)
                        if list(alpha(cx, 2, k, c)) != sorted(alpha(cx, 2, k, c)))

        self.negate_one_entry(monkeypatch, 2, pick)
        with pytest.raises(InconsistencyError, match="chain condition failed at p=2, q=1"):
            KoszulComplex(TruncatedRing(3, 3)).kpq_dim(2, 1)


def test_overcounted_rank_reports_a_negative_dimension(monkeypatch, capsys):
    real = KoszulComplex._rank
    monkeypatch.setattr(KoszulComplex, "_rank",
                        lambda cx, p, k, mat=None: real(cx, p, k, mat) + 100)
    with pytest.raises(InconsistencyError,
                       match=r"negative homology dimension -\d+ at p=2, q=1"):
        KoszulComplex(TruncatedRing(3, 3)).kpq_dim(2, 1)
    code = main(["betti", "--n", "2", "--d", "3", "--q-range", "1:1", "--p-range", "2:2"])
    assert code == 4
    assert "negative homology dimension" in capsys.readouterr().err
