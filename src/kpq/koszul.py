"""Exact brute-force oracle: dimensions of K_{p,q} over a prime field.

The complex computed here is

    wedge^{p+1} A_d (x) A_{k-d}  ->  wedge^p A_d (x) A_k  ->  wedge^{p-1} A_d (x) A_{k+d}

with k = q*d + b, where A is either the exponent-capped ring on x_0..x_n or
the capped reduction of an ACM ring. Modding the ambient polynomial ring on
A_d out by the pure powers x_i^d (a regular sequence of linear forms there)
does not change these homology groups, which is what makes the finite model
exact. The differential removes one wedge factor at a time and multiplies it
into the coefficient, with sign (-1)^{i+1} on the i-th factor.

A `KoszulComplex` computes over the one prime field it is built with; a
second prime takes a second complex. All linear algebra is exact over GF(p)
for every odd prime p up to MAX_MODULUS, the largest modulus for which a
product of two residues fits in int64.

On the capped ring every basis element (f_1 ^ ... ^ f_p) (x) m has a
multidegree alpha = f_1 + ... + f_p + m in Z^{n+1}, and the differential
preserves it. Permuting the variables x_0..x_n maps the alpha-block of a
differential onto the sigma(alpha)-block by a signed permutation of rows and
columns, so the two have the same rank over every field. Hence the orbit
rule: a rank counts the block of each sorted (nondecreasing) alpha
|S_{n+1} . alpha| times and skips every other block (`KoszulComplex._weights`
lists the weights, `SparseMatrix.rank` applies them). ACM rings have no such
grading (the Fermat relation is not multigraded), so there every block
counts once.

The one chain check is in `KoszulComplex.kpq_dim`: where it first visits a
cell whose two differentials are both nontrivial, it checks that they
compose to zero and ranks those same matrices. How a differential is
gathered, how a rank is peeled, cut down by rounds of pivots, split and
eliminated, and how the element checks read the product table, is told at
the function that does it.
"""

from __future__ import annotations

import collections
import functools
import heapq
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

from . import acm as _acm
from .combinatorics import Monomial, TruncatedRing, _as_int, enumerate_monomials, truncated_dim
from .errors import InconsistencyError, ParameterError, ResourceLimitError

DEFAULT_PRIME = 32003
SECONDARY_PRIME = 1000003
DEFAULT_ENTRY_BUDGET = 20_000_000

# A differential with fewer than this many estimated entries,
# comb(nb, p) * dim(k) * p, is assembled column by column: below it the fixed
# cost of the numpy calls of the array path is more than the whole loop.
_ARRAY_PATH_MIN_ENTRIES = 400
# Largest number of (wedge, coefficient, position, term) cells in one chunk
# of the array path, so its temporaries stay a few MB whatever the matrix.
_CHUNK_CELLS = 1 << 13
# Most (nb, p) wedge tables `_wedge_table` keeps: every complex of the rings
# a sweep visits shares them, and each ring needs at most nb + 1.
_WEDGE_TABLES = 32

# A rank of a matrix with at least this many entries peels its weighted
# columns in numpy (`_peel`) before the split; below it the numpy calls'
# fixed cost is more than the whole split-first path. In-process passes over
# the veronese-grid workload read alike from 100 to 1,000 and slower at 0
# and 4,000; its n = 1, d <= 4 matrices hold at most 4 entries.
_PEEL_MIN_ENTRIES = 400
# Markowitz pivots stop once their fill bound (r-1)(c-1) exceeds this share of the live cells.
_DENSE_FILL_SHARE = 1 / 8
# `_pivot_rounds` stops once a round removes less than this share of the live
# entries, or would leave more than this many times the core's entries.
_ROUNDS_PROGRESS = 1 / 32
_ROUNDS_GROWTH = 2

_INT64_MAX = 2**63 - 1
# Largest modulus for which (p-1)^2, a product of two residues, fits in int64.
MAX_MODULUS = math.isqrt(_INT64_MAX) + 1

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# The residual `_sparse_rank_mod` hands the dense kernel when nothing is left,
# so the kernel's calls count the blocks it is handed: on a large rank, only
# those of what `_pivot_rounds` left. Read-only, since every early return
# shares it.
_EMPTY_BLOCK = np.zeros((0, 0), dtype=np.int64)
_EMPTY_BLOCK.flags.writeable = False


def _is_prime(m: int) -> bool:
    # deterministic Miller-Rabin, valid far beyond 64 bits of modulus
    if m < 2:
        return False
    for small in _MR_BASES:
        if m == small:
            return True
        if m % small == 0:
            return False
    d, s = m - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True, slots=True)
class PrimeField:
    """GF(modulus) for an odd prime modulus of at most MAX_MODULUS."""

    modulus: int = DEFAULT_PRIME

    def __post_init__(self) -> None:
        object.__setattr__(self, "modulus", _as_int(self.modulus, "field modulus"))
        if self.modulus == 2 or not _is_prime(self.modulus):
            raise ParameterError(f"field modulus must be an odd prime, got {self.modulus}")
        if self.modulus > MAX_MODULUS:
            raise ParameterError(
                f"field modulus {self.modulus} exceeds {MAX_MODULUS}, the largest "
                f"for which products of two residues fit in int64"
            )


# ---------------------------------------------------------------------------
# Wedge bases in colexicographic order

def wedge_basis(nb: int, p: int) -> list[tuple[int, ...]]:
    """Strictly increasing p-tuples of indices into range(nb), in colex order.

    Colex ordering keeps every tuple's position stable when the underlying
    list grows, so indices freeze together with the monomial enumeration.
    Returns [] for p < 0 or p > nb, and [()] for p = 0.
    """
    nb, p = _as_int(nb, "nb"), _as_int(p, "p")
    if p < 0 or p > nb:
        return []
    # lex order over the elements taken in descending order is colex order
    # reversed, with each tuple reversed
    descending = itertools.combinations(range(nb - 1, -1, -1), p)
    return [combo[::-1] for combo in descending][::-1]


def colex_rank(combo: Sequence[int]) -> int:
    """Position of a strictly increasing tuple in the colex enumeration."""
    return sum(math.comb(c, i + 1) for i, c in enumerate(combo))


def colex_unrank(rank: int, p: int) -> tuple[int, ...]:
    """Inverse of colex_rank for p-tuples: every rank >= 0 when p >= 1, and
    only 0 when p = 0."""
    rem, p = _as_int(rank, "rank"), _as_int(p, "p")
    if rem < 0 or p < 0 or (p == 0 and rem):
        raise ParameterError(f"no {p}-tuple has colex rank {rem}")
    out = []
    for i in range(p, 0, -1):
        c = i - 1
        while math.comb(c + 1, i) <= rem:
            c += 1
        rem -= math.comb(c, i)
        out.append(c)
    return tuple(reversed(out))


@functools.lru_cache(maxsize=_WEDGE_TABLES)
def _wedge_table(nb: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """The wedges of p of nb generators for the array gather, as two
    read-only (comb(nb, p), p) arrays, for 1 <= nb and 0 <= p <= nb: the
    strictly increasing p-tuples of range(nb) in colex order, and the colex
    rank of each with its t-th element removed. Each is in the narrowest
    unsigned dtype that holds it, so a reader widens a rank before it scales
    it.

    The tuples are built one position at a time: the i-tuples with top
    element t are the (i-1)-tuples below t, a colex prefix of the previous
    level, followed by t. In a sub-wedge the elements before t keep their
    position i and add C(c_i, i+1), and those after t move down to i-1 and
    add C(c_i, i): a prefix and a suffix sum over a binomial table, every
    cell of which they read has c_i - i at most nb - p and so fits in int64.

    Memoised on (nb, p) alone, for every complex and prime in the process.
    Worst case: _WEDGE_TABLES entries of comb(nb, p) * p cells per array, at
    most 8 bytes a cell, where each comb(nb, p) * p is bounded by the entry
    budget of the differential that asked for it (DEFAULT_ENTRY_BUDGET
    unless raised). In practice all p of one nb hold nb * 2^(nb-1) cells per
    array; at nb = 18 (n = 2, d = 5) that is 2.4 M cells, 1 byte each for
    the tuples and 2 for the ranks, about 7 MB.
    """
    combos = np.zeros((1, 0), dtype=np.int64)
    for i in range(1, p + 1):
        tops = np.arange(i - 1, nb - p + i)
        counts = np.array([math.comb(t, i - 1) for t in tops.tolist()])
        prefix = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
        combos = np.column_stack((combos[prefix], np.repeat(tops, counts)))
    binom = np.array([[math.comb(c, i) if c - i <= nb - p else 0 for i in range(p + 1)]
                      for c in range(nb)], dtype=np.int64)
    up = binom[combos, np.arange(1, p + 1)]
    down = binom[combos, np.arange(p)]
    ranks = (np.cumsum(up, axis=1) - up) + (np.cumsum(down[:, ::-1], axis=1)[:, ::-1] - down)
    out = (combos.astype(np.min_scalar_type(nb - 1)),
           ranks.astype(np.min_scalar_type(math.comb(nb, p - 1) - 1 if p else 0)))
    for a in out:
        a.flags.writeable = False
    return out


# ---------------------------------------------------------------------------
# Sparse matrices over GF(p)

class SparseMatrix:
    """Sparse matrix of residues mod an odd prime, in compressed sparse columns.

    `ptr` has cols + 1 offsets; column c holds the rows idx[ptr[c]:ptr[c+1]],
    strictly ascending, with the residues val[ptr[c]:ptr[c+1]], each in
    [1, p-1]. All three are int64 numpy arrays, converted here once from
    whatever sequences they are given; the Python loops of `triplets`,
    `_component_split`, `rank`'s split, `solve_consistent` and `apply` read
    them as lists. Nothing is cached: `KoszulComplex` keeps the ranks it
    needs.
    """

    def __init__(self, rows: int, cols: int, modulus: int,
                 ptr: Sequence[int], idx: Sequence[int], val: Sequence[int]):
        self.rows = rows
        self.cols = cols
        self.modulus = modulus
        self.ptr = np.asarray(ptr, dtype=np.int64)
        self.idx = np.asarray(idx, dtype=np.int64)
        self.val = np.asarray(val, dtype=np.int64)

    @classmethod
    def from_triplets(cls, rows: int, cols: int, modulus: int,
                      triplets: Iterable[tuple[int, int, int]]) -> "SparseMatrix":
        """The matrix of summed triplets: repeated (row, col) add up, zeros drop."""
        field = PrimeField(modulus)
        rows, cols = _as_int(rows, "matrix dimension"), _as_int(cols, "matrix dimension")
        if rows < 0 or cols < 0:
            raise ParameterError(f"matrix dimensions must be >= 0, got {rows}x{cols}")
        acc: list[dict[int, int]] = [dict() for _ in range(cols)]
        for r, c, v in triplets:
            r, c, v = (_as_int(x, "matrix entry") for x in (r, c, v))
            if not (0 <= r < rows and 0 <= c < cols):
                raise ParameterError(f"entry ({r}, {c}) outside a {rows}x{cols} matrix")
            acc[c][r] = (acc[c].get(r, 0) + v) % field.modulus
        ptr, idx, val = [0], [], []
        for col in acc:
            for r in sorted(col):
                if col[r]:
                    idx.append(r)
                    val.append(col[r])
            ptr.append(len(idx))
        return cls(rows, cols, field.modulus, ptr, idx, val)

    @property
    def nnz(self) -> int:
        return len(self.idx)

    def triplets(self) -> Iterable[tuple[int, int, int]]:
        ptr, idx, val = self.ptr.tolist(), self.idx.tolist(), self.val.tolist()
        for c in range(self.cols):
            for i in range(ptr[c], ptr[c + 1]):
                yield idx[i], c, val[i]

    # -- block decomposition ------------------------------------------------

    def _component_split(self, columns: Iterable[int] | None = None,
                         seeds: Iterable[int] | None = None
                         ) -> list[tuple[list[int], dict[int, list[int]]]]:
        """The blocks among `columns` (default: every column) that hold a
        column of `seeds` (default: `columns`), the connected components of
        their row/column graph, each as (columns, {row: columns}).

        The row -> columns index is built over `columns` alone, so they must be
        a union of blocks of the whole matrix; `rank` passes the columns of
        nonzero weight, which are one because a weight is constant on each
        block. A block is walked once, from its first nonempty seed, which
        heads its column list; its row lists are the index's own. Rank is
        additive across blocks, and the differential's internal multigrading
        shows up here automatically.
        """
        ptr, idx = self.ptr.tolist(), self.idx.tolist()
        columns = range(self.cols) if columns is None else list(columns)
        row_cols: dict[int, list[int]] = collections.defaultdict(list)
        for c in columns:
            for r in idx[ptr[c]:ptr[c + 1]]:
                row_cols[r].append(c)
        seen = bytearray(self.cols)
        blocks = []
        for seed in columns if seeds is None else seeds:
            if seen[seed] or ptr[seed] == ptr[seed + 1]:
                continue
            seen[seed] = 1
            cols_g, rows_g = [seed], {}
            for c in cols_g:  # cols_g grows while the walk reaches new columns
                for r in idx[ptr[c]:ptr[c + 1]]:
                    if r not in rows_g:
                        cs = rows_g[r] = row_cols[r]
                        for c2 in cs:
                            if not seen[c2]:
                                seen[c2] = 1
                                cols_g.append(c2)
            blocks.append((cols_g, rows_g))
        return blocks

    def rank(self, weights: Sequence[int] | None = None) -> int:
        """Rank over GF(modulus), or weight times rank summed over the blocks.

        `weights[c]` is how many times the rank of column c's block counts;
        without weights each counts once. A weight must be an integer >= 0,
        and one block's columns must all have the same weight. Only the
        columns of nonzero weight are read, so the blocks are those of the
        other columns alone.

        Three stages. A matrix of at least _PEEL_MIN_ENTRIES entries is
        first peeled on the pattern of its weighted columns (`_peel`), then
        what that leaves is cut down by rounds of independent pivots
        (`_pivot_rounds`), both in numpy, and only what the rounds leave goes
        on; a smaller matrix goes on whole, since the numpy calls would cost
        more than they save. Last the split: the blocks are found by
        `_component_split` and each is ranked by `_sparse_rank_mod`.
        """
        weights = [1] * self.cols if weights is None else weights
        if len(weights) != self.cols:
            raise ParameterError(f"{len(weights)} weights for a matrix of {self.cols} columns")
        # every weight, also of a column no block holds: each distinct value once
        distinct = set(weights)
        for weight in distinct:
            if _as_int(weight, "rank weight") < 0:
                raise ParameterError(f"rank weights must be >= 0, got {weight}")
        # the peel sums weights in int64, and a rank is at most cols
        if (self.nnz >= _PEEL_MIN_ENTRIES
                and _as_int(max(distinct), "rank weight") * self.cols <= _INT64_MAX):
            peeled = _peel(self, weights)
            if peeled is not None:
                rank, core, core_weights = peeled
                taken, rest, rest_weights = _pivot_rounds(core, core_weights)
                del peeled, core  # free the core's arrays before the split of the rest
                return rank + taken + rest._split_rank(rest_weights)
        return self._split_rank(weights)

    def _split_rank(self, weights: Sequence[int]) -> int:
        """`rank`'s second stage, for checked weights: the blocks of the
        columns of nonzero weight, each ranked by `_sparse_rank_mod`, and the
        first block whose columns mix weights refused by name."""
        ptr, idx, val, p = self.ptr.tolist(), self.idx.tolist(), self.val.tolist(), self.modulus
        total = 0
        for cols_g, rows_g in self._component_split(itertools.compress(range(self.cols), weights)):
            weight = _as_int(weights[cols_g[0]], "rank weight")
            if len(cols_g) > 1 and any(weights[c] != weight for c in cols_g):
                raise ParameterError(f"rank weights must be constant on a block, "
                                     f"but column {cols_g[0]}'s block mixes weights")
            total += weight * _sparse_rank_mod(cols_g, rows_g, ptr, idx, val, p)
        return total

    def solve_consistent(self, rhs: Mapping[int, int]) -> bool:
        """True when self @ x = rhs has a solution over GF(modulus).

        The reduced rhs b is appended as column n = self.cols, and one walk
        from it gives one block, headed by n, holding every block b meets: b is
        in the column span exactly when the rank of that block is the rank of
        its other columns. A row of b that no other column touches needs no
        test of its own: there column n is alone, so it raises the rank.
        """
        rhs = {_as_int(r, "row index"): _as_int(v, "rhs entry") for r, v in rhs.items()}
        if any(not 0 <= r < self.rows for r in rhs):
            raise ParameterError(f"row index outside a {self.rows}x{self.cols} matrix")
        p, n = self.modulus, self.cols
        b = {r: v % p for r, v in sorted(rhs.items()) if v % p}
        if not b:
            return True
        aug = SparseMatrix(self.rows, n + 1, p, np.append(self.ptr, self.nnz + len(b)),
                           np.append(self.idx, list(b)), np.append(self.val, list(b.values())))
        [(cols_g, rows_g)] = aug._component_split(seeds=[n])
        without = {r: [c for c in cs if c != n] for r, cs in rows_g.items()}
        ptr, idx, val = aug.ptr.tolist(), aug.idx.tolist(), aug.val.tolist()
        return (_sparse_rank_mod(cols_g, rows_g, ptr, idx, val, p)
                == _sparse_rank_mod(cols_g[1:], without, ptr, idx, val, p))

    def apply(self, vec: Mapping[int, int]) -> dict[int, int]:
        """Matrix-vector product; vec is indexed by columns."""
        vec = {_as_int(c, "column index"): _as_int(v, "vector entry") for c, v in vec.items()}
        if any(not 0 <= c < self.cols for c in vec):
            raise ParameterError(f"column index outside a {self.rows}x{self.cols} matrix")
        p = self.modulus
        ptr, idx, val = self.ptr.tolist(), self.idx.tolist(), self.val.tolist()
        out: dict[int, int] = {}
        for c, v in vec.items():
            a, b = ptr[c], ptr[c + 1]
            for r, w in zip(idx[a:b], val[a:b]):
                out[r] = (out.get(r, 0) + v * w) % p
        return {r: v for r, v in out.items() if v}

    def compose_is_zero(self, other: "SparseMatrix") -> bool:
        """True when self @ other vanishes (the chain condition).

        Entry (m, c, v) of `other` meets column m of self; the products, each
        reduced below p, are summed per (row, c) after one sort on that key,
        c * rows + row. Where self.rows * other.cols would wrap in int64, the
        rows met are numbered first, so the key is exact for every shape.
        """
        if other.rows != self.cols:
            raise ParameterError("shape mismatch in composition")
        if other.modulus != self.modulus:
            raise ParameterError(f"moduli {self.modulus} and {other.modulus} differ")
        p = self.modulus
        ptr, idx, val, mid, mid_val = self.ptr, self.idx, self.val, other.idx, other.val
        lens = ptr[mid + 1] - ptr[mid]
        # the positions in idx of column m, for each entry's m in turn
        at = np.repeat(ptr[mid] - np.cumsum(lens) + lens, lens) + np.arange(lens.sum())
        cols = np.repeat(np.repeat(np.arange(other.cols), np.diff(other.ptr)), lens)
        rows, n_rows = idx[at], self.rows
        if other.cols * n_rows > _INT64_MAX:
            # the key would wrap in int64: number the rows met instead, no more than the terms
            met, rows = np.unique(rows, return_inverse=True)
            n_rows = met.size
        key = cols * n_rows + rows
        order = np.argsort(key)
        key, terms = key[order], (np.repeat(mid_val, lens) * val[at] % p)[order]
        if key.size == 0:
            return True
        return not (np.add.reduceat(terms, np.flatnonzero(np.diff(key, prepend=-1))) % p).any()

    # -- interchange ---------------------------------------------------------

    def to_triplet_text(self) -> str:
        """Header 'rows cols modulus', then one 'row col value' line per entry."""
        lines = [f"{self.rows} {self.cols} {self.modulus}"]
        for r, c, v in self.triplets():
            lines.append(f"{r} {c} {v}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_triplet_text(cls, text: str) -> "SparseMatrix":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ParameterError("empty matrix text")
        trips = []
        for ln in lines:
            try:
                r, c, v = map(int, ln.split())
            except ValueError:
                raise ParameterError(f"expected three integers, got {ln!r}") from None
            trips.append((r, c, v))
        (rows, cols, modulus), *trips = trips
        return cls.from_triplets(rows, cols, modulus, trips)


def _peel(mat: SparseMatrix, weights: Sequence[int]
          ) -> tuple[int, SparseMatrix, list[int]] | None:
    """The first stage of a large `SparseMatrix.rank`: the pattern peel of
    the columns of nonzero weight, in numpy, for weights already checked.

    Returns (rank, core, core_weights): the weighted rank the peel took, and
    what it left as a matrix of its live rows and live columns, renumbered
    in order, with their residues and the columns' weights. The weighted
    rank of `mat` is rank plus that of `core`. Returns None when a row meets
    two weights: then some block mixes them, and the split names it.

    A round takes every column with one live entry, one pivot per row, then
    every row with one live entry, one pivot per column (`_peel_side`). A
    pivot adds its column's weight, which is its block's, and deletes its
    row and column; no other entry changes, so no residue is read. The
    rounds end once one of them removes less than 1/8 of the live entries:
    on a chain that comes free one link per round they would be quadratic,
    and the split's own peel in `_sparse_rank_mod` finishes such a chain in
    linear time. So `core` is the 2-core, unless the rounds ended first;
    what that leaves goes on to `_pivot_rounds`.
    """
    w = np.asarray(weights, dtype=np.int64)
    ptr, idx = mat.ptr, mat.idx
    lens = np.diff(ptr)
    cols = np.flatnonzero((w != 0) & (lens != 0))
    w, lens = w[cols], lens[cols]
    # the positions in idx of the weighted columns' entries, and their column and row numbers
    at = np.repeat(ptr[cols] - np.cumsum(lens) + lens, lens) + np.arange(lens.sum())
    c = np.repeat(np.arange(cols.size), lens)
    rows, r = np.unique(idx[at], return_inverse=True)
    # the weight of a row's last column, which must be that of all its columns
    row_w = np.zeros(rows.size, dtype=np.int64)
    row_w[r] = w[c]
    if (row_w[r] != w[c]).any():
        return None
    rank = 0
    while r.size:
        live = r.size
        taken, keep = _peel_side(c, r, cols.size, row_w)
        r, c, at = r[keep], c[keep], at[keep]
        more, keep = _peel_side(r, c, rows.size, w)
        r, c, at = r[keep], c[keep], at[keep]
        rank += taken + more
        if 8 * (live - r.size) < live:
            break
    return (rank, *_renumbered(r, c, mat.val[at], mat.modulus, w))


def _renumbered(r: np.ndarray, c: np.ndarray, v: np.ndarray, modulus: int,
                w: np.ndarray) -> tuple[SparseMatrix, list[int]]:
    """The live entries (r, c, v), sorted by column then row, as a matrix of
    their rows and columns renumbered in order, and the weights of its
    columns, read from `w` in c's numbering."""
    starts = np.flatnonzero(np.diff(c, prepend=-1))  # c ascends: each live column's first entry
    rows, r = np.unique(r, return_inverse=True)
    return (SparseMatrix(rows.size, starts.size, modulus, np.append(starts, c.size), r, v),
            w[c[starts]].tolist())


def _peel_side(lines: np.ndarray, crossing: np.ndarray, n_lines: int,
               crossing_weight: np.ndarray) -> tuple[int, np.ndarray]:
    """Half a round of `_peel` over the live entries, entry e on line
    lines[e] and on crossing line crossing[e]: columns and rows, or rows and
    columns. A line with one live entry pivots there. Its crossing line is
    taken once, however many such lines it meets, and every entry on it
    goes, which empties those lines too. Returns the weight of the crossing
    lines taken and the mask of the entries left."""
    alone = np.bincount(lines, minlength=n_lines)[lines] == 1
    taken = np.zeros(crossing_weight.size, dtype=bool)
    taken[crossing[alone]] = True
    return int(crossing_weight[taken].sum()), ~taken[crossing]


def _pivot_rounds(core: SparseMatrix, core_weights: Sequence[int]
                  ) -> tuple[int, SparseMatrix, list[int]]:
    """The second stage of a large `SparseMatrix.rank`: rounds of
    independent pivots in numpy, on the core `_peel` returns, all of whose
    columns have a nonzero weight.

    Returns (rank, rest, rest_weights): the weighted rank the rounds took,
    and what they left, renumbered as `_peel` renumbers its core. The
    weighted rank of `core` is rank plus that of `rest`.

    The live entries are kept as int64 (row, column, residue) arrays sorted
    by (column, row). Each round (`_pivot_round`) takes pivots whose rows and
    columns meet in a diagonal block, adds their columns' weights, and leaves
    the Schur complement. The rounds need no block split: independence is
    global, and a pivot's fill stays in its own block, on which the weight
    is constant. They stop once a round would add more entries than are live
    or leave more than _ROUNDS_GROWTH times the core's (that round is not
    taken), or once one removes less than _ROUNDS_PROGRESS of the live
    entries: a chain in column order comes free a pivot or two per round,
    and would be quadratic.
    """
    p, rows, cols = core.modulus, core.rows, core.cols
    w = np.asarray(core_weights, dtype=np.int64)
    r, c, v = core.idx, np.repeat(np.arange(cols), np.diff(core.ptr)), core.val
    cap, rank = _ROUNDS_GROWTH * r.size, 0
    while r.size:
        live = r.size
        step = _pivot_round(r, c, v, rows, cols, p, w)
        if step is None or step[1].size > cap:
            break
        taken, r, c, v = step
        rank += taken
        if live - r.size < _ROUNDS_PROGRESS * live:
            break
    return (rank, *_renumbered(r, c, v, p, w))


def _pivot_round(r: np.ndarray, c: np.ndarray, v: np.ndarray, rows: int, cols: int, p: int,
                 w: np.ndarray) -> tuple[int, np.ndarray, np.ndarray, np.ndarray] | None:
    """One round of `_pivot_rounds` over the live entries, entry e at row
    r[e] < rows and column c[e] < cols with residue v[e], sorted by (c, r).
    Returns None when its fill would be more entries than are live; else
    the weight `w` of its pivot columns and the entries left, sorted alike.

    Each column's candidate is its first entry of least Markowitz score
    (r-1)(c-1), and each row keeps its candidate of least priority, score
    times cols plus column: distinct, since a column has one candidate.
    Candidates i and j conflict when an entry lies in i's row and j's
    column, and of the two only the one of lower priority may stay (one
    Luby step), so the pivots meet in a diagonal block; the one of least
    priority always stays. Pivot (r_k, c_k) of residue a adds -x * y / a
    at (i, j) for each entry x at (i, c_k) and y at (r_k, j), and the sums
    are reduced mod p after one sort on the key c * rows + r. That key fits
    in int64 because the core is renumbered, so rows * cols is at most its
    entries squared; a sum adds at most one live residue and one per pivot.
    """
    n = r.size
    n_r, n_c = np.bincount(r, minlength=rows), np.bincount(c, minlength=cols)
    lens = n_c[n_c > 0]
    # a score too large for score * n + position, or for the priority, is clipped
    score = np.minimum((n_r[r] - 1) * (n_c[c] - 1), _INT64_MAX // (n + cols) - 1)
    at = np.minimum.reduceat(score * n + np.arange(n), np.cumsum(lens) - lens) % n
    pri = score[at] * cols + c[at]
    best = np.full(rows, _INT64_MAX)
    np.minimum.at(best, r[at], pri)
    kept = pri == best[r[at]]
    at, pri = at[kept], pri[kept]
    by_row, by_col = np.full(rows, -1), np.full(cols, -1)
    by_row[r[at]] = by_col[c[at]] = np.arange(at.size)
    i, j = by_row[r], by_col[c]
    clash = (i >= 0) & (j >= 0) & (i != j)
    i, j = i[clash], j[clash]
    lost = np.zeros(at.size, dtype=bool)
    lost[np.where(pri[i] < pri[j], j, i)] = True
    at = at[~lost]
    piv_r, piv_c = r[at], c[at]
    n_row = n_r[piv_r] - 1  # a pivot row's other entries, none of them in a pivot column
    fill = int(((n_c[piv_c] - 1) * n_row).sum())
    if fill > n:
        return None
    by_row[:], by_col[:] = -1, -1
    by_row[piv_r] = by_col[piv_c] = np.arange(at.size)  # pivot k, in column order
    in_r, in_c = by_row[r] >= 0, by_col[c] >= 0
    down = (in_c & ~in_r).nonzero()[0]  # in pivot columns, grouped by pivot as c ascends
    across = (in_r & ~in_c).nonzero()[0]
    across = across[np.argsort(by_row[r[across]], kind="stable")]
    k = by_col[c[down]]
    lens = n_row[k]
    # for each entry of `down`, the positions in `across` of its pivot's row
    first = np.cumsum(n_row) - n_row
    pos = across[np.repeat(first[k] - np.cumsum(lens) + lens, lens) + np.arange(fill)]
    neg_inv = np.array([p - pow(a, -1, p) for a in v[at].tolist()], dtype=np.int64)
    keep = ~(in_r | in_c)
    key = np.concatenate((c[keep] * rows + r[keep], c[pos] * rows + np.repeat(r[down], lens)))
    val = np.concatenate((v[keep], np.repeat(v[down] * neg_inv[k] % p, lens) * v[pos] % p))
    if key.size:
        order = np.argsort(key, kind="stable")
        key, val = key[order], val[order]
        starts = np.concatenate(([True], key[1:] != key[:-1])).nonzero()[0]
        key, val = key[starts], np.add.reduceat(val, starts) % p
        nonzero = val != 0
        key, val = key[nonzero], val[nonzero]
    return int(w[piv_c].sum()), key % rows, key // rows, val


def _dense_rank_mod(a: np.ndarray, p: int) -> int:
    """Exact rank of an int64 block `a` mod p, in place, for odd p <= MAX_MODULUS.

    The block is first reduced to residues in [0, p-1]. After that only the
    pivot row is fully reduced, into the copy the update reads: later pivots
    read only the rows below it. Each update subtracts a product of two
    residues, at most (p-1)^2, so after t updates every trailing entry lies
    in [-t * (p-1)^2, p-1]. The trailing block is reduced mod p again every
    (2^63 - 1) // (p-1)^2 pivots, which keeps every value inside int64. For
    32003 and 1000003 that period is above 9 * 10^6 pivots, longer than any
    block, so no extra reduction runs. An empty block has rank 0 and returns
    before any of that.
    """
    if not a.size:
        return 0
    a %= p
    period = _INT64_MAX // (p - 1) ** 2
    m, n_cols = a.shape
    rank = 0
    for c in range(n_cols):
        if rank == m:
            break
        col = a[rank:, c] % p
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        piv = rank + int(nz[0])
        row = a[piv, c:] % p
        if piv != rank:
            a[piv, c:] = a[rank, c:]  # row `rank` is never read again
        row = (row * pow(int(row[0]), -1, p)) % p
        f = a[rank + 1:, c] % p
        a[rank + 1:, c:] -= f[:, None] * row
        rank += 1
        if rank % period == 0:
            a[rank:, c + 1:] %= p
    return rank


def _sparse_rank_mod(block_cols: list[int], block_rows: dict[int, list[int]],
                     ptr: list[int], idx: list[int], val: list[int], p: int) -> int:
    """Exact rank mod p of one block: its columns `block_cols`, column c with
    the residues val[ptr[c]:ptr[c+1]], each in [1, p-1], at the rows
    idx[ptr[c]:ptr[c+1]] (all three lists), and its rows `block_rows`, each
    with its columns. Every column has an entry; a row may have none
    (`solve_consistent` ranks its block without the appended column).
    Neither is changed. Below `rank`'s size threshold a block is a whole
    block of the matrix; above it, a block of what `_peel` and then
    `_pivot_rounds` left, where the pattern peel below finds little unless
    a chain came free too slowly for the rounds.

    A block of one column, or of one row and at least one column, has rank 1
    and returns at once. Otherwise it is first peeled on its pattern: a
    column or row with one live entry adds 1 to the rank, and deleting its
    row and column changes no other entry, so only live entry counts are kept
    and no residue is read. If no column is left, the rank is known. Else the
    residues of the columns left are read at the rows left, and each step
    takes the Markowitz pivot (r, c): c is the shortest live column, from
    one heap of (length, column) built here and pushed whenever a column
    changes, and r is its shortest row. Column c is eliminated from the
    columns meeting row r in Python ints, fill kept, and row r and column c
    are deleted. A column left with one entry comes off the heap before any
    longer one, with fill bound 0; any pivot order is exact. Once the fill
    bound (r-1)(c-1) is above _DENSE_FILL_SHARE of the live cells, the rest
    goes to `_dense_rank_mod`. Every return calls it exactly once, on the
    shared 0x0 `_EMPTY_BLOCK` when nothing is left, so its calls count the
    blocks this function is handed: on the large path, the blocks of what
    the rounds left.
    """
    if len(block_cols) == 1 or (len(block_rows) == 1 and block_cols):
        return 1 + _dense_rank_mod(_EMPTY_BLOCK, p)
    live_c = {c: ptr[c + 1] - ptr[c] for c in block_cols}
    live_r = {r: len(cs) for r, cs in block_rows.items()}
    col_stack = [c for c, n in live_c.items() if n == 1]
    row_stack = [r for r, n in live_r.items() if n == 1]
    rank = 0
    while col_stack or row_stack:
        if col_stack:
            if live_c.get(c := col_stack.pop()) != 1:
                continue
            del live_c[c]
            for r in idx[ptr[c]:ptr[c + 1]]:
                if r in live_r:
                    break
            del live_r[r]
            for j in block_rows[r]:  # the other live columns of row r lose an entry
                if j in live_c:
                    n = live_c[j] = live_c[j] - 1
                    if n == 1:
                        col_stack.append(j)
                    elif not n:
                        del live_c[j]
        else:
            if live_r.get(r := row_stack.pop()) != 1:
                continue
            del live_r[r]
            for c in block_rows[r]:
                if c in live_c:
                    break
            del live_c[c]
            for i in idx[ptr[c]:ptr[c + 1]]:  # the other live rows of column c lose an entry
                if i in live_r:
                    n = live_r[i] = live_r[i] - 1
                    if n == 1:
                        row_stack.append(i)
                    elif not n:
                        del live_r[i]
        rank += 1
    if not live_c:
        return rank + _dense_rank_mod(_EMPTY_BLOCK, p)
    row_cols = {r: {c for c in block_rows[r] if c in live_c} for r in live_r}
    cols = {c: {r: v for r, v in zip(idx[ptr[c]:ptr[c + 1]], val[ptr[c]:ptr[c + 1]])
                if r in live_r} for c in live_c}
    heap = [(len(col), c) for c, col in cols.items()]
    heapq.heapify(heap)
    while cols:
        while len(cols.get(heap[0][1], ())) != heap[0][0]:
            heapq.heappop(heap)
        col = cols[c := heap[0][1]]
        r = min(col, key=lambda i: len(row_cols[i]))
        if (len(col) - 1) * (len(row_cols[r]) - 1) > _DENSE_FILL_SHARE * len(cols) * len(row_cols):
            break
        del cols[c]
        inv = pow(col.pop(r), -1, p)
        for j in row_cols.pop(r) - {c}:
            other = cols[j]
            f = other.pop(r) * inv % p
            for i, w in col.items():
                x = (other.get(i, 0) - f * w) % p
                if x:
                    if i not in other:
                        row_cols[i].add(j)
                    other[i] = x
                elif i in other:
                    del other[i]
                    row_cols[i].discard(j)
            if other:
                heapq.heappush(heap, (len(other), j))
            else:
                del cols[j]
        for i in col:  # the other rows of column c lose it, and go once empty
            row_cols[i].discard(c)
            if not row_cols[i]:
                del row_cols[i]
        rank += 1
    block = np.array([[col.get(r, 0) for col in cols.values()] for r in row_cols],
                     dtype=np.int64).reshape(len(row_cols), len(cols))
    return rank + _dense_rank_mod(block, p)


# ---------------------------------------------------------------------------
# Coefficient algebras

class TruncatedAlgebra:
    """The capped ring on x_0..x_n as a coefficient algebra."""

    # (f_1 ^ ... ^ f_p) (x) m has the multidegree f_1 + ... + f_p + m
    multigraded = True

    def __init__(self, ring: TruncatedRing):
        if ring.cap < 2:
            raise ParameterError("cap must be >= 2 for a nontrivial complex")
        self.ring = ring
        self.d = ring.cap
        self.max_terms = 1

    @property
    def key(self):
        return ("truncated", self.ring.num_vars, self.ring.cap)

    def degree_basis(self, k: int) -> list:
        return enumerate_monomials(self.ring, k)

    def dim(self, k: int) -> int:
        return truncated_dim(self.ring, k)

    def multiply(self, a: Monomial, b: Monomial) -> list[tuple[int, Monomial]]:
        out = tuple(x + y for x, y in zip(a.exponents, b.exponents))
        if any(e >= self.d for e in out):
            return []
        return [(1, Monomial(out))]


class ReducedACMAlgebra:
    """The capped reduction of an ACM ring as a coefficient algebra."""

    # the Fermat relation mixes multidegrees, so no orbit reuse applies
    multigraded = False

    def __init__(self, spec: _acm.ACMSpec, d: int):
        if d < 2:
            raise ParameterError(f"d must be >= 2, got {d}")
        self.spec = spec
        self.d = d
        self.ring = TruncatedRing(spec.n + 1, d)
        self.max_terms = max(len(terms) for _, terms in spec.table)

    @property
    def key(self):
        return ("acm", self.spec.name, self.spec.n, self.spec.lambda_degrees, self.d)

    def degree_basis(self, k: int) -> list:
        return _acm.basis(self.spec, self.d, k)

    def dim(self, k: int) -> int:
        return sum(truncated_dim(self.ring, k - lam) for lam in self.spec.lambda_degrees)

    def multiply(self, a: _acm.ACMMonomial, b: _acm.ACMMonomial) -> list[tuple[int, _acm.ACMMonomial]]:
        return _acm.reduce_product(a, b, self.spec, self.d)


class _ProductTable:
    """Every product generator x A_k -> A_{k+d} of one complex, mod one prime.

    `terms[g][j]` lists (residue, target index) of gens[g] * basis_k[j] on the
    degree-(k+d) basis, with repeated labels merged, zero residues dropped and
    targets ascending. `arrays`, built at the first array gather, holds the
    same table as two (nb, dim A_k, T) arrays, residue and target, padded
    with residue 0; T is the longest list.
    On a multigraded algebra `coeff_steps` holds the steps m_i - m_{i+1} of
    each m in basis_k, `gap_codes` each generator's gap code, and
    `weights_by_gap` the block weights of a wedge's columns, listed by
    `KoszulComplex._weights` and memoised on the wedge's gap code.
    """

    def __init__(self, gens: Sequence, algebra, k: int, mod: int):
        src = algebra.degree_basis(k)
        dst_index = {m: i for i, m in enumerate(algebra.degree_basis(k + algebra.d))}
        self.n_src = len(src)
        self.n_dst = len(dst_index)
        self.terms: list[list[list[tuple[int, int]]]] = []
        for g in gens:
            row = []
            for m in src:
                merged: dict[int, int] = {}
                for cv, label in algebra.multiply(g, m):
                    t = dst_index[label]
                    merged[t] = merged.get(t, 0) + cv
                row.append([(v % mod, t) for t, v in sorted(merged.items()) if v % mod])
            self.terms.append(row)
        if algebra.multigraded:
            self.coeff_steps = [tuple(map(operator.sub, m.exponents, m.exponents[1:])) for m in src]
            # a wedge's gaps sum(F)_{i+1} - sum(F)_i as one integer in balanced
            # base `radix`: every digit is a sum of at most nb generator gaps,
            # so it lies strictly between -radix/2 and radix/2, and two wedges
            # get the same code exactly when they have the same gaps
            gaps = [list(map(operator.sub, g.exponents[1:], g.exponents)) for g in gens]
            self.radix = 2 * len(gens) * max((abs(x) for g in gaps for x in g), default=0) + 1
            self.gap_codes = [sum(x * self.radix**i for i, x in enumerate(g)) for g in gaps]
            self.weights_by_gap: dict[int, list[int]] = {}

    def removals(self, combo: tuple[int, ...]) -> list[tuple[int, list, int]]:
        """(first row of combo without combo[t], terms[combo[t]], t % 2) for t from last to
        first: column (combo, j) of d_p holds terms[combo[t]][j] there, negated for odd t.

        The sub-wedge ranks are the prefix and suffix sums of `_wedge_table`,
        taken in one pass over the wedge.
        """
        p = len(combo)
        up = list(map(math.comb, combo, range(1, p + 1)))
        down = list(map(math.comb, combo, range(p)))
        before, after, out = sum(up), 0, []
        for t in range(p - 1, -1, -1):
            before -= up[t]
            out.append(((before + after) * self.n_dst, self.terms[combo[t]], t % 2))
            after += down[t]
        return out

    @functools.cached_property
    def sources(self) -> list[set[int]]:
        """The generators with a product term at each basis element of A_{k+d}."""
        out: list[set[int]] = [set() for _ in range(self.n_dst)]
        for g, row in enumerate(self.terms):
            for _, t in itertools.chain.from_iterable(row):
                out[t].add(g)
        return out

    @functools.cached_property
    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        width = max((len(t) for row in self.terms for t in row), default=0) or 1
        pad = [(0, 0)] * width
        table = np.array([[(terms + pad)[:width] for terms in row] for row in self.terms],
                         dtype=np.int64).reshape(len(self.terms), self.n_src, width, 2)
        return table[..., 0].copy(), table[..., 1].copy()


def _algebra_for(ring_or_spec, d: int | None):
    if isinstance(ring_or_spec, TruncatedRing):
        if d is not None and d != ring_or_spec.cap:
            raise ParameterError(f"d={d} conflicts with ring cap {ring_or_spec.cap}")
        return TruncatedAlgebra(ring_or_spec)
    if isinstance(ring_or_spec, _acm.ACMSpec):
        if d is None:
            raise ParameterError("an ACM spec needs an explicit d")
        return ReducedACMAlgebra(ring_or_spec, d)
    raise ParameterError(f"expected a TruncatedRing or ACMSpec, got {type(ring_or_spec)!r}")


# ---------------------------------------------------------------------------
# The complex

class KoszulComplex:
    """Assembles and eliminates the differentials of one (algebra, b),
    over the one prime field `field`.

    Product tables are cached per coefficient degree, dimensions and ranks
    per (p, coefficient degree), and chain-checked cells per (p, q).
    `generator_order` optionally permutes the degree-d generator list
    (dimensions are invariant; used to test exactly that).
    """

    def __init__(self, ring_or_spec, d: int | None = None, b: int = 0,
                 field: Union[PrimeField, int, None] = None,
                 entry_budget: int = DEFAULT_ENTRY_BUDGET,
                 generator_order: Sequence[int] | None = None):
        self.algebra = _algebra_for(ring_or_spec, d)
        self.d = self.algebra.d
        self.b = _as_int(b, "b")
        self.field = (field if isinstance(field, PrimeField)
                      else PrimeField(DEFAULT_PRIME if field is None else field))
        self.entry_budget = _as_int(entry_budget, "entry budget")
        if self.entry_budget < 1:
            raise ParameterError(f"entry budget must be >= 1, got {self.entry_budget}")
        gens = self.algebra.degree_basis(self.d)
        if generator_order is not None:
            order = [_as_int(i, "generator_order entry") for i in generator_order]
            if sorted(order) != list(range(len(gens))):
                raise ParameterError("generator_order must be a permutation of the basis")
            gens = [gens[i] for i in order]
        self._gens = gens
        self._gen_index = {g: i for i, g in enumerate(gens)}
        # products per k, each built at its first assembly
        self._tables: dict[int, _ProductTable] = {}
        # basis element -> position in A_k, per k, each built at its first witness
        self._coeff_index: dict[int, dict] = {}
        self._dims: dict[tuple[int, int], int] = {}
        self._raw_ranks: dict[tuple[int, int], int] = {}
        self._chain_checked: set[tuple[int, int]] = set()

    # -- bookkeeping ----------------------------------------------------------

    @property
    def num_generators(self) -> int:
        return len(self._gens)

    def coeff_degree(self, q: int) -> int:
        return _as_int(q, "q") * self.d + self.b

    def _dim(self, p: int, k: int) -> int:
        """dim wedge^p A_d (x) A_k, for ints p and k: the public methods check
        them. Memoised, since a cell asks for the same few about ten times."""
        dim = self._dims.get((p, k))
        if dim is None:
            dim = self._dims[p, k] = (math.comb(self.num_generators, p) * self.algebra.dim(k)
                                      if p >= 0 else 0)
        return dim

    def middle_dim(self, p: int, q: int) -> int:
        return self._dim(_as_int(p, "p"), self.coeff_degree(q))

    def _budget_check(self, p: int, k: int) -> None:
        dim_mid = self._dim(p, k)
        est = dim_mid * max(p, 1) * self.algebra.max_terms
        if dim_mid > self.entry_budget or est > self.entry_budget:
            raise ResourceLimitError(
                f"differential d_p leaving cell (p, q) = ({p}, {Fraction(k - self.b, self.d)}), "
                f"coefficient degree k={k}, needs ~{max(dim_mid, est)} entries "
                f"(dimension {dim_mid}); budget is {self.entry_budget}"
            )

    # -- assembly -------------------------------------------------------------

    def differential_matrix(self, p: int, k: int, *,
                            mask: Sequence[int] | None = None) -> SparseMatrix:
        """The map wedge^p (x) A_k -> wedge^{p-1} (x) A_{k+d} as residues.

        With `mask`, one entry per column, the columns where it is 0 are left
        empty, and a wedge with no kept column is not gathered at all; the
        shape and every other column are those of the whole differential.
        `_rank` passes the orbit weights, which `rank` reads only where they
        are nonzero; every other caller gets the whole map.
        """
        p, k = _as_int(p, "p"), _as_int(k, "coefficient degree")
        mod = self.field.modulus
        n_src, rows = self._dim(p, k), self._dim(p - 1, k + self.d)
        if n_src == 0 or rows == 0:
            # a zero map has no entries, so the entry budget does not bound its columns
            return SparseMatrix(rows, n_src, mod, np.zeros(n_src + 1, dtype=np.int64), [], [])
        self._budget_check(p, k)
        if mask is not None and len(mask) != n_src:
            raise ParameterError(f"a mask of {len(mask)} entries for d_{p} of {n_src} columns")
        if n_src * p < _ARRAY_PATH_MIN_ENTRIES:
            return SparseMatrix(rows, n_src, mod, *self._columns_by_loop(p, k, mask))
        return SparseMatrix(rows, n_src, mod, *self._columns_by_arrays(p, k, mask))

    def _table(self, k: int) -> _ProductTable:
        table = self._tables.get(k)
        if table is None:
            table = self._tables[k] = _ProductTable(self._gens, self.algebra, k,
                                                    self.field.modulus)
        return table

    def _weights(self, p: int, k: int) -> list[int]:
        """Block weight of each column of d_p, wedge by wedge.

        Column (F, m) has alpha = sum(F) + m, which is sorted iff
        m_i - m_{i+1} <= g_i for the gaps g_i = sum(F)_{i+1} - sum(F)_i, with
        alpha_i = alpha_{i+1} iff equality holds there. So a wedge's weights
        depend on g alone and are memoised on its code, the sum of its
        generators' codes. On a miss g is read back from the code's balanced
        digits, and a sorted alpha gets |S_{n+1} . alpha| = (n+1)! / prod(run!)
        over its runs of equal entries.
        """
        table = self._table(k)
        memo, radix, half = table.weights_by_gap, table.radix, table.radix // 2
        n = self.algebra.ring.num_vars - 1
        orbit = math.factorial(n + 1)
        # combinations of the reversed codes list the wedges in reversed colex order
        codes = list(map(sum, itertools.combinations(table.gap_codes[::-1], p)))
        codes.reverse()
        for code in set(codes).difference(memo):
            gap, rest = [], code
            for _ in range(n):
                digit = rest % radix
                digit -= radix if digit > half else 0
                gap.append(digit)
                rest = (rest - digit) // radix
            weights = memo[code] = []
            for steps in table.coeff_steps:
                size, run = orbit, 1
                for step, g in zip(steps, gap):
                    if step > g:
                        size = 0
                        break
                    run = run + 1 if step == g else 1
                    size //= run
                weights.append(size)
        return list(itertools.chain.from_iterable(map(memo.__getitem__, codes)))

    # -- the per-column loop: small differentials, and the referee --------------

    def _columns_by_loop(self, p: int, k: int, mask: Sequence[int] | None = None
                         ) -> tuple[list[int], list[int], list[int]]:
        """The columns of d_p as (ptr, idx, val), one column at a time, with
        `mask` as in `differential_matrix`.

        Each column removes the wedge factors from last to first: removing a
        later factor gives a smaller sub-wedge, and a product's targets
        ascend, so the entries come in ascending row order with no repeated
        row (see `_columns_by_arrays`).
        """
        mod = self.field.modulus
        table = self._table(k)
        n_src = table.n_src
        keep = [True] * n_src
        ptr, idx, val = [0], [], []
        for w, combo in enumerate(wedge_basis(self.num_generators, p)):
            if mask is not None:
                keep = mask[w * n_src:(w + 1) * n_src]
                if not any(keep):
                    ptr += [ptr[-1]] * n_src
                    continue
            removals = table.removals(combo)
            for j, kept in enumerate(keep):
                if kept:
                    for base, terms, odd in removals:
                        for res, tj in terms[j]:
                            idx.append(base + tj)
                            val.append(mod - res if odd else res)
                ptr.append(len(idx))
        return ptr, idx, val

    # -- the array path ------------------------------------------------------------

    def _columns_by_arrays(self, p: int, k: int, mask: Sequence[int] | None = None
                           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The columns of d_p as (ptr, idx, val), gathered from the product table
        in numpy, with `mask` as in `differential_matrix`: only the wedges that
        keep a column are taken from `_wedge_table`, and the cells of their
        masked columns are zeroed before the entries are listed.

        For each chunk of wedges, one (wedge, coefficient, position, term)
        array holds the product residues with the wedge positions reversed:
        removing a later factor gives a smaller sub-wedge, so C order over it
        is column order with rows ascending, and `np.flatnonzero` lists the
        entries ready to append. Removing different factors gives different
        sub-wedges and a product's targets are distinct, so no two entries of
        a column share a row; every residue is nonzero, and so is its negative.
        The lists of `_columns_by_loop`, as int64 arrays.
        """
        mod = self.field.modulus
        table = self._table(k)
        res, tgt = table.arrays
        n_src_c, width = res.shape[1], res.shape[2]
        combos, sub_ranks = _wedge_table(self.num_generators, p)
        counts = np.zeros(len(combos) * n_src_c + 1, dtype=np.int64)
        # entries per column, one row per wedge: a view of counts past its leading 0
        per_wedge = counts[1:].reshape(len(combos), n_src_c)
        wedges = dropped = None
        if mask is not None:
            kept = np.not_equal(mask, 0).reshape(len(combos), n_src_c)
            wedges = np.flatnonzero(kept.any(axis=1))
            combos, sub_ranks, dropped = combos[wedges], sub_ranks[wedges], ~kept[wedges]
        # each starts with an empty chunk, so that no kept wedge still concatenates
        idx, val = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
        # position t' of the reversed wedge removes factor t = p-1-t', sign (-1)^t
        negate = np.arange(p - 1, -1, -1) % 2 == 1
        coeff_index = np.arange(n_src_c)[None, :, None]
        step = max(1, _CHUNK_CELLS // (n_src_c * p * width))
        for w0 in range(0, len(combos), step):
            reversed_combos = combos[w0:w0 + step, ::-1]
            # the table's ranks are narrow: widened first, so the product cannot wrap
            sub_rows = sub_ranks[w0:w0 + step, ::-1].astype(np.int64) * table.n_dst
            cells = res[reversed_combos[:, None, :], coeff_index]
            if dropped is not None:
                cells[dropped[w0:w0 + step]] = 0
            flat = np.flatnonzero(cells)
            slot, rest = flat % width, flat // width
            pos, col = rest % p, rest // p
            w, j = col // n_src_c, col % n_src_c
            rows = sub_rows[w, pos] + tgt[reversed_combos[w, pos], j, slot]
            vals = cells.ravel()[flat]
            idx.append(rows)
            val.append(np.where(negate[pos], mod - vals, vals))
            at = slice(w0, w0 + step) if wedges is None else wedges[w0:w0 + step]
            per_wedge[at] = np.bincount(col, minlength=cells.shape[0] * n_src_c).reshape(
                -1, n_src_c)
        return np.cumsum(counts), np.concatenate(idx), np.concatenate(val)

    def differential(self, p: int, q: int) -> SparseMatrix:
        """The outgoing differential of the (p, q) middle term."""
        return self.differential_matrix(p, self.coeff_degree(q))

    # -- ranks and dimensions ---------------------------------------------------

    def _nontrivial(self, p: int, k: int) -> bool:
        """Whether the differential leaving wedge^p (x) A_k can have nonzero rank."""
        return self._dim(p, k) > 0 and self._dim(p - 1, k + self.d) > 0

    def _rank(self, p: int, k: int, mat: SparseMatrix | None = None) -> int:
        """Rank of d_p leaving wedge^p (x) A_k, cached per (p, k): on a
        multigraded algebra, weight times rank over the blocks of the columns
        of nonzero orbit weight. `mat` is the whole d_p when the chain check
        has just assembled it; otherwise the weights are listed first and d_p
        is assembled on those columns alone, the mask `rank` would apply anyway.
        """
        if not self._nontrivial(p, k):
            return 0
        if (p, k) not in self._raw_ranks:
            weights = self._weights(p, k) if self.algebra.multigraded else None
            if mat is None:
                mat = self.differential_matrix(p, k, mask=weights)
            self._raw_ranks[p, k] = mat.rank(weights)
        return self._raw_ranks[p, k]

    def kpq_dim(self, p: int, q: int) -> int:
        """dim K_{p,q} over the field: dim ker d_p minus rank d_{p+1}, which is
        sound because d_p d_{p+1} = 0. The first visit to (p, q) with both maps
        nontrivial checks that on the very matrices it then ranks, and records
        (p, q) as checked only once the check has passed.
        """
        p, q = _as_int(p, "p"), _as_int(q, "q")
        k = self.coeff_degree(q)
        mid = self._dim(p, k)
        if mid == 0:
            return 0
        d_p = d_p1 = None
        if ((p, q) not in self._chain_checked and self._nontrivial(p, k)
                and self._nontrivial(p + 1, k - self.d)):
            d_p = self.differential_matrix(p, k)
            d_p1 = self.differential_matrix(p + 1, k - self.d)
            if not d_p.compose_is_zero(d_p1):
                raise InconsistencyError(
                    f"chain condition failed at p={p}, q={q}: the composed "
                    f"differentials are nonzero mod {self.field.modulus}"
                )
        self._chain_checked.add((p, q))
        dim = mid - self._rank(p, k, d_p) - self._rank(p + 1, k - self.d, d_p1)
        if dim < 0:
            raise InconsistencyError(
                f"negative homology dimension {dim} at p={p}, q={q}: rank bookkeeping is broken"
            )
        return dim

    def betti_row(self, q: int, p_range: Iterable[int]) -> list[int]:
        """dim K_{p,q} for each p in p_range (shared caches across the row)."""
        return [self.kpq_dim(p, q) for p in p_range]

    # -- elements ----------------------------------------------------------------

    def element_from_witness(self, w) -> tuple[dict[int, int], int, int]:
        """Express a witness cycle in the frozen middle basis.

        Returns (element, p, q). The element is a single +-1 coordinate: the
        wedge factors sorted into generator order with the permutation sign.
        """
        from .witness import WitnessCycle

        if not isinstance(w, WitnessCycle):
            raise ParameterError("expected a WitnessCycle")
        q = w.params.q
        k = self.coeff_degree(q)
        if w.coefficient.degree != k:
            raise ParameterError(
                f"witness coefficient degree {w.coefficient.degree} does not match q*d+b={k}"
            )
        coeff_label = w.coefficient
        if isinstance(self.algebra, ReducedACMAlgebra):
            unit = self.algebra.spec.unit_index
            coeff_label = _acm.ACMMonomial(w.coefficient.exponents, unit)
        coeff_pos = self._coeff_index.get(k)
        if coeff_pos is None:
            coeff_pos = self._coeff_index[k] = {
                m: i for i, m in enumerate(self.algebra.degree_basis(k))}
        if coeff_label not in coeff_pos:
            raise ParameterError(f"coefficient {w.coefficient} is zero in the capped ring")
        try:
            idx = [self._gen_index[f] for f in w.factors]
        except KeyError as exc:
            raise ParameterError(f"factor {exc.args[0]} is not a degree-d generator") from exc
        if len(set(idx)) != len(idx):
            raise ParameterError("wedge factors repeat: the witness element is zero")
        inversions = sum(a > b for a, b in itertools.combinations(idx, 2))
        pos = colex_rank(sorted(idx)) * len(coeff_pos) + coeff_pos[coeff_label]
        return {pos: -1 if inversions % 2 else 1}, len(idx), q

    def _coerce_element(self, element, p: int, q: int) -> tuple[dict[int, int], int, int]:
        """The element as {index: coefficient}, with p and k = q*d + b as ints."""
        from .witness import WitnessCycle

        p, q = _as_int(p, "p"), _as_int(q, "q")
        k = self.coeff_degree(q)
        if isinstance(element, WitnessCycle):
            vec, wp, wq = self.element_from_witness(element)
            if (wp, wq) != (p, q):
                raise ParameterError(
                    f"witness lives at (p={wp}, q={wq}), not (p={p}, q={q})"
                )
            return vec, p, k
        vec = {_as_int(i, "element index"): _as_int(v, "element coefficient")
               for i, v in dict(element).items()}
        mid = self._dim(p, k)
        if any(not 0 <= i < mid for i in vec):
            raise ParameterError(f"element index outside the {mid}-dimensional middle basis")
        return vec, p, k

    def is_cycle(self, element, p: int, q: int) -> bool:
        """True when d_p kills the element: d_p v is summed mod p from its own
        columns, read off the product table as `_columns_by_loop` reads them.
        """
        vec, p, k = self._coerce_element(element, p, q)
        if not vec or not self._dim(p - 1, k + self.d):
            return True
        self._budget_check(p, k)
        table = self._table(k)
        image: dict[int, int] = collections.defaultdict(int)
        for pos, v in vec.items():
            wedge, j = divmod(pos, table.n_src)
            for base, terms, odd in table.removals(colex_unrank(wedge, p)):
                for res, t in terms[j]:
                    image[base + t] += -v * res if odd else v * res
        return not any(x % self.field.modulus for x in image.values())

    def is_boundary(self, element, p: int, q: int) -> bool:
        """True when d_{p+1} hits the element. Row (F, t) of d_{p+1} is touched when
        a generator outside F has a product term at t (the table's `sources`);
        d_{p+1} is assembled only if the element is nonzero in touched rows alone.
        """
        vec, p, k = self._coerce_element(element, p, q)
        k -= self.d  # d_{p+1} leaves wedge^{p+1} (x) A_{k-d}
        mod = self.field.modulus
        if not vec or not self._dim(p + 1, k):
            return not any(v % mod for v in vec.values())
        self._budget_check(p + 1, k)
        table = self._table(k)
        for pos, v in vec.items():
            wedge, t = divmod(pos, table.n_dst)
            if v % mod and table.sources[t].issubset(colex_unrank(wedge, p)):
                return False
        return self.differential_matrix(p + 1, k).solve_consistent(vec)
