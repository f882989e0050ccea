"""Exact brute-force oracle: dimensions of K_{p,q} over a prime field.

The complex computed here is

    wedge^{p+1} A_d (x) A_{k-d}  ->  wedge^p A_d (x) A_k  ->  wedge^{p-1} A_d (x) A_{k+d}

with k = q*d + b, where A is either the exponent-capped ring on x_0..x_n or
the capped reduction of an ACM ring. Modding the ambient polynomial ring on
A_d out by the pure powers x_i^d (a regular sequence of linear forms there)
does not change these homology groups, which is what makes the finite model
exact. The differential removes one wedge factor at a time and multiplies it
into the coefficient, with sign (-1)^{i+1} on the i-th factor.

All linear algebra is exact over GF(p). Matrices are sparse and decompose
into blocks along the connected components of their row/column incidence
graph (the complex's internal multigrading, discovered by union-find); each
block is eliminated densely in int64 with delayed reduction. The modulus is
capped at MAX_MODULUS, where a product of two residues, (p-1)^2, still fits
in int64, and the trailing block is reduced mod p every
(2^63 - 1) // (p-1)^2 pivots, so no intermediate value ever overflows.

On the capped ring every basis element (f_1 ^ ... ^ f_p) (x) m has a
multidegree alpha = f_1 + ... + f_p + m in Z^{n+1}, and the differential
preserves it. Permuting the variables x_0..x_n maps the alpha-block of a
differential onto the sigma(alpha)-block by a signed permutation of rows and
columns, so the two have the same rank over every field. `rank()` therefore
eliminates the blocks of one multidegree per S_{n+1} orbit (orbit key:
sorted(alpha)) and reuses that rank for the rest of the orbit. ACM rings
have no such grading (the Fermat relation is not multigraded), so there
every block is eliminated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence, Union

import numpy as np

from . import acm as _acm
from .combinatorics import Monomial, TruncatedRing, enumerate_monomials, truncated_dim
from .errors import InconsistencyError, ParameterError, ResourceLimitError

DEFAULT_PRIME = 32003
SECONDARY_PRIME = 1000003
DEFAULT_ENTRY_BUDGET = 20_000_000

_INT64_MAX = 2**63 - 1
# Largest modulus for which (p-1)^2, a product of two residues, fits in int64.
MAX_MODULUS = math.isqrt(_INT64_MAX) + 1

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


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
        if self.modulus == 2 or not _is_prime(self.modulus):
            raise ParameterError(f"field modulus must be an odd prime, got {self.modulus}")
        if self.modulus > MAX_MODULUS:
            raise ParameterError(
                f"field modulus {self.modulus} exceeds {MAX_MODULUS}, the largest "
                f"for which products of two residues fit in int64"
            )

    def inv(self, a: int) -> int:
        return pow(a % self.modulus, -1, self.modulus)


def _as_field(field: Union["PrimeField", int, None]) -> PrimeField:
    if field is None:
        return PrimeField()
    if isinstance(field, PrimeField):
        return field
    return PrimeField(int(field))


# ---------------------------------------------------------------------------
# Wedge bases in colexicographic order

_WEDGE_CACHE: dict[tuple[int, int], tuple[tuple[int, ...], ...]] = {}
_WEDGE_CACHE_LIMIT = 300_000


def _colex_combos(nb: int, p: int):
    if p == 0:
        yield ()
        return
    for top in range(p - 1, nb):
        for rest in _colex_combos(top, p - 1):
            yield rest + (top,)


def wedge_basis(nb: int, p: int) -> list[tuple[int, ...]]:
    """Strictly increasing p-tuples of indices into range(nb), in colex order.

    Colex ordering keeps every tuple's position stable when the underlying
    list grows, so indices freeze together with the monomial enumeration.
    Returns [] for p < 0 or p > nb, and [()] for p = 0.
    """
    if p < 0 or p > nb:
        return []
    key = (nb, p)
    cached = _WEDGE_CACHE.get(key)
    if cached is None:
        cached = tuple(_colex_combos(nb, p))
        if len(cached) <= _WEDGE_CACHE_LIMIT:
            _WEDGE_CACHE[key] = cached
    return list(cached)


def colex_rank(combo: Sequence[int]) -> int:
    """Position of a strictly increasing tuple in the colex enumeration."""
    return sum(math.comb(c, i + 1) for i, c in enumerate(combo))


def colex_unrank(rank: int, p: int) -> tuple[int, ...]:
    """Inverse of colex_rank for p-tuples."""
    out = []
    rem = rank
    for i in range(p, 0, -1):
        c = i - 1
        while math.comb(c + 1, i) <= rem:
            c += 1
        rem -= math.comb(c, i)
        out.append(c)
    return tuple(reversed(out))


# ---------------------------------------------------------------------------
# Sparse matrices over GF(p)

class SparseMatrix:
    """Column-major sparse matrix of residues mod an odd prime.

    Invariants: one entry per (row, col); stored residues lie in [1, p-1].
    `multidegree`, when given, maps a column to the multidegree it lives in;
    the matrix must preserve it, and blocks whose multidegrees differ by a
    permutation must have equal rank (see the module docstring).
    """

    def __init__(self, rows: int, cols: int, modulus: int,
                 cols_data: list[Sequence[tuple[int, int]]],
                 multidegree: Callable[[int], tuple[int, ...]] | None = None):
        self.rows = rows
        self.cols = cols
        self.modulus = modulus
        self._cols = cols_data
        self.multidegree = multidegree
        self._rank: int | None = None
        self._components: list[tuple[list[int], list[int]]] | None = None

    @classmethod
    def from_triplets(cls, rows: int, cols: int, modulus: int,
                      triplets: Iterable[tuple[int, int, int]]) -> "SparseMatrix":
        field = PrimeField(modulus)
        acc: list[dict[int, int]] = [dict() for _ in range(cols)]
        for r, c, v in triplets:
            if not (0 <= r < rows and 0 <= c < cols):
                raise ParameterError(f"entry ({r}, {c}) outside a {rows}x{cols} matrix")
            acc[c][r] = (acc[c].get(r, 0) + v) % field.modulus
        data = [sorted((r, v) for r, v in col.items() if v) for col in acc]
        return cls(rows, cols, modulus, data)

    @property
    def nnz(self) -> int:
        return sum(len(c) for c in self._cols)

    def triplets(self) -> Iterable[tuple[int, int, int]]:
        for c, col in enumerate(self._cols):
            for r, v in col:
                yield r, c, v

    # -- block decomposition ------------------------------------------------

    def _component_split(self) -> list[tuple[list[int], list[int]]]:
        """Connected components of the bipartite row/column graph.

        Rank is additive across components, and the differential's internal
        multigrading shows up here automatically: two columns land in one
        component only if a chain of shared rows links them.
        """
        if self._components is not None:
            return self._components
        parent = list(range(self.cols + self.rows))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for c, col in enumerate(self._cols):
            for r, _ in col:
                ra, rb = find(c), find(self.cols + r)
                if ra != rb:
                    parent[rb] = ra
        groups: dict[int, tuple[list[int], list[int]]] = {}
        for c, col in enumerate(self._cols):
            if col:
                groups.setdefault(find(c), ([], []))[0].append(c)
        for c, col in enumerate(self._cols):
            for r, _ in col:
                root = find(c)
                groups[root][1].append(self.cols + r)
        comps = []
        for cols_g, rows_g in groups.values():
            rows_sorted = sorted({r - self.cols for r in rows_g})
            comps.append((cols_g, rows_sorted))
        self._components = comps
        return comps

    def _degree_groups(self) -> dict[tuple[int, ...], list[tuple[list[int], list[int]]]]:
        """Components grouped by the multidegree of their columns.

        Without a multidegree, each component is its own group, keyed by its
        first column.
        """
        degree = self.multidegree or (lambda c: (c,))
        groups: dict[tuple[int, ...], list[tuple[list[int], list[int]]]] = {}
        for comp in self._component_split():
            groups.setdefault(degree(comp[0][0]), []).append(comp)
        return groups

    def rank(self) -> int:
        """Rank over GF(modulus), eliminating one multidegree per S_{n+1} orbit."""
        if self._rank is None:
            orbit_rank: dict[tuple[int, ...], int] = {}
            total = 0
            for alpha, comps in self._degree_groups().items():
                key = tuple(sorted(alpha))
                if key not in orbit_rank:
                    orbit_rank[key] = sum(self._block_rank(c, r) for c, r in comps)
                total += orbit_rank[key]
            self._rank = total
        return self._rank

    def _block_rank(self, cols_g: list[int], rows_g: list[int],
                    rhs: dict[int, int] | None = None) -> int:
        rpos = {r: i for i, r in enumerate(rows_g)}
        width = len(cols_g) + (1 if rhs is not None else 0)
        block = np.zeros((len(rows_g), width), dtype=np.int64)
        for j, c in enumerate(cols_g):
            for r, v in self._cols[c]:
                block[rpos[r], j] = v
        if rhs is not None:
            for r, v in rhs.items():
                block[rpos[r], len(cols_g)] = v % self.modulus
        return _dense_rank_mod(block, self.modulus)

    def solve_consistent(self, rhs: Mapping[int, int]) -> bool:
        """True when self @ x = rhs has a solution over GF(modulus)."""
        p = self.modulus
        reduced = {r: v % p for r, v in rhs.items() if v % p}
        if not reduced:
            return True
        comps = self._component_split()
        row_to_comp: dict[int, int] = {}
        for idx, (_, rows_g) in enumerate(comps):
            for r in rows_g:
                row_to_comp[r] = idx
        by_comp: dict[int, dict[int, int]] = {}
        for r, v in reduced.items():
            if r not in row_to_comp:
                return False  # nonzero target in a row no column touches
            by_comp.setdefault(row_to_comp[r], {})[r] = v
        for idx, part in by_comp.items():
            cols_g, rows_g = comps[idx]
            plain = self._block_rank(cols_g, rows_g)
            augmented = self._block_rank(cols_g, rows_g, rhs=part)
            if augmented > plain:
                return False
        return True

    def apply(self, vec: Mapping[int, int]) -> dict[int, int]:
        """Matrix-vector product; vec is indexed by columns."""
        p = self.modulus
        out: dict[int, int] = {}
        for c, v in vec.items():
            if v % p == 0:
                continue
            for r, w in self._cols[c]:
                out[r] = (out.get(r, 0) + v * w) % p
        return {r: v for r, v in out.items() if v}

    def compose_is_zero(self, other: "SparseMatrix") -> bool:
        """True when self @ other vanishes (the chain condition)."""
        if other.rows != self.cols:
            raise ParameterError("shape mismatch in composition")
        for c in range(other.cols):
            acc: dict[int, int] = {}
            for r_mid, v in other._cols[c]:
                for r2, w in self._cols[r_mid]:
                    acc[r2] = (acc.get(r2, 0) + v * w) % self.modulus
            if any(acc.values()):
                return False
        return True

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
        rows, cols, modulus = (int(t) for t in lines[0].split())
        trips = []
        for ln in lines[1:]:
            r, c, v = (int(t) for t in ln.split())
            trips.append((r, c, v))
        return cls.from_triplets(rows, cols, modulus, trips)


def _dense_rank_mod(block: np.ndarray, p: int) -> int:
    """Exact rank of an int64 block mod p, in place, for odd p <= MAX_MODULUS.

    The block is first reduced to residues in [0, p-1]. After that only the
    pivot row is fully reduced: each update subtracts a product of two
    residues, at most (p-1)^2, so after t updates every trailing entry lies
    in [-t * (p-1)^2, p-1]. The trailing block is reduced mod p again every
    (2^63 - 1) // (p-1)^2 pivots, which keeps every value inside int64. For
    32003 and 1000003 that period is above 9 * 10^6 pivots, longer than any
    block, so no extra reduction runs.
    """
    if block.size == 0:
        return 0
    a = block if block.shape[0] <= block.shape[1] else block.T.copy()
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
        if piv != rank:
            a[[rank, piv]] = a[[piv, rank]]
        row = a[rank, c:] % p
        row = (row * pow(int(row[0]), -1, p)) % p
        a[rank, c:] = row
        if rank + 1 < m:
            f = a[rank + 1:, c] % p
            a[rank + 1:, c:] -= f[:, None] * row
        rank += 1
        if rank % period == 0:
            a[rank:, c + 1:] %= p
    return rank


# ---------------------------------------------------------------------------
# Coefficient algebras

class TruncatedAlgebra:
    """The capped ring on x_0..x_n as a coefficient algebra."""

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
        if k < 0:
            return []
        return enumerate_monomials(self.ring, k)

    def dim(self, k: int) -> int:
        return truncated_dim(self.ring, k) if k >= 0 else 0

    def multiply(self, a: Monomial, b: Monomial) -> list[tuple[int, Monomial]]:
        out = tuple(x + y for x, y in zip(a.exponents, b.exponents))
        if any(e >= self.d for e in out):
            return []
        return [(1, Monomial(out))]

    @staticmethod
    def multidegree(factors: Sequence[Monomial], coeff: Monomial) -> tuple[int, ...]:
        """Exponent vector of (f_1 ^ ... ^ f_p) (x) m: f_1 + ... + f_p + m."""
        return tuple(map(sum, zip(coeff.exponents, *(f.exponents for f in factors))))


class ReducedACMAlgebra:
    """The capped reduction of an ACM ring as a coefficient algebra."""

    # the Fermat relation mixes multidegrees, so no orbit reuse applies
    multidegree = None

    def __init__(self, spec: _acm.ACMSpec, d: int):
        if d < 2:
            raise ParameterError(f"d must be >= 2, got {d}")
        self.spec = spec
        self.d = d
        self.ring = TruncatedRing(spec.n + 1, d)
        self.max_terms = max(len(terms) for _, terms in spec.table)
        self._bases: dict[int, list] = {}

    @property
    def key(self):
        return ("acm", self.spec.name, self.spec.n, self.spec.lambda_degrees, self.d)

    def degree_basis(self, k: int) -> list:
        if k < 0:
            return []
        if k not in self._bases:
            self._bases[k] = _acm.basis(self.spec, self.d, k)
        return self._bases[k]

    def dim(self, k: int) -> int:
        if k < 0:
            return 0
        return sum(truncated_dim(self.ring, k - lam) for lam in self.spec.lambda_degrees)

    def multiply(self, a: _acm.ACMMonomial, b: _acm.ACMMonomial) -> list[tuple[int, _acm.ACMMonomial]]:
        return _acm.reduce_product(a, b, self.spec, self.d)


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

@dataclass(frozen=True, slots=True)
class ComplexSlice:
    """One assembled window around wedge index p at weight q."""

    p: int
    q: int
    coeff_degree: int
    left_dim: int
    middle_dim: int
    right_dim: int
    d_p: SparseMatrix
    d_p_plus_1: SparseMatrix


class KoszulComplex:
    """Assembles and eliminates slices of the complex for one (algebra, b).

    Ranks are cached per (p, coefficient degree, modulus); bases and wedge
    enumerations are shared across calls. `generator_order` optionally
    permutes the degree-d generator list (dimensions are invariant; used to
    test exactly that).
    """

    def __init__(self, ring_or_spec, d: int | None = None, b: int = 0,
                 field: Union[PrimeField, int, None] = None,
                 entry_budget: int = DEFAULT_ENTRY_BUDGET,
                 generator_order: Sequence[int] | None = None):
        self.algebra = _algebra_for(ring_or_spec, d)
        self.d = self.algebra.d
        self.b = b
        self.field = _as_field(field)
        self.entry_budget = entry_budget
        gens = self.algebra.degree_basis(self.d)
        if generator_order is not None:
            if sorted(generator_order) != list(range(len(gens))):
                raise ParameterError("generator_order must be a permutation of the basis")
            gens = [gens[i] for i in generator_order]
        self._gens = gens
        self._raw_ranks: dict[tuple[int, int, int], int] = {}
        self._chain_checked: set[tuple[int, int, int]] = set()

    # -- bookkeeping ----------------------------------------------------------

    @property
    def num_generators(self) -> int:
        return len(self._gens)

    def coeff_degree(self, q: int) -> int:
        return q * self.d + self.b

    def middle_dim(self, p: int, q: int) -> int:
        k = self.coeff_degree(q)
        return math.comb(self.num_generators, p) * self.algebra.dim(k) if 0 <= p else 0

    def middle_basis(self, p: int, q: int) -> list[tuple[tuple[int, ...], object]]:
        """Frozen middle basis: wedge-major over colex tuples, then coefficients."""
        coeffs = self.algebra.degree_basis(self.coeff_degree(q))
        out = []
        for combo in wedge_basis(self.num_generators, p):
            for mono in coeffs:
                out.append((combo, mono))
        return out

    def _budget_check(self, p: int, k: int) -> None:
        dim_mid = math.comb(self.num_generators, p) * self.algebra.dim(k)
        est = dim_mid * max(p, 1) * self.algebra.max_terms
        if dim_mid > self.entry_budget or est > self.entry_budget:
            raise ResourceLimitError(
                f"differential at wedge index p={p}, coefficient degree {k} needs "
                f"~{max(dim_mid, est)} entries (dimension {dim_mid}); "
                f"budget is {self.entry_budget}"
            )

    # -- assembly -------------------------------------------------------------

    def differential_matrix(self, p: int, k: int,
                            field: PrimeField | None = None) -> SparseMatrix:
        """The map wedge^p (x) A_k -> wedge^{p-1} (x) A_{k+d} as residues."""
        field = field or self.field
        mod = field.modulus
        nb = self.num_generators
        src_coeffs = self.algebra.degree_basis(k)
        n_src = math.comb(nb, p) * len(src_coeffs) if 0 <= p <= nb else 0
        rows = math.comb(nb, p - 1) * self.algebra.dim(k + self.d) if p > 0 else 0
        if n_src == 0 or rows == 0:
            # a zero map has no entries, so the entry budget does not bound its
            # columns; one shared empty tuple keeps each to a single pointer
            return SparseMatrix(rows, n_src, mod, [()] * n_src)
        self._budget_check(p, k)
        dst_coeffs = self.algebra.degree_basis(k + self.d)
        dst_index = {m: i for i, m in enumerate(dst_coeffs)}
        n_dst_c = len(dst_coeffs)
        cols_data: list[list[tuple[int, int]]] = []

        # product expansions are shared by every wedge containing a generator
        n_src_c = len(src_coeffs)
        prod: list[list[list[tuple[int, int]]]] = []
        for g in self._gens:
            row_g = []
            for cmono in src_coeffs:
                terms = []
                for cv, label in self.algebra.multiply(g, cmono):
                    res = cv % mod
                    if res:
                        terms.append((res, dst_index[label]))
                row_g.append(terms)
            prod.append(row_g)

        nnz = 0
        combos = wedge_basis(nb, p)
        for combo in combos:
            sub_ranks = []
            for t in range(p):
                sub = combo[:t] + combo[t + 1:]
                sub_ranks.append(colex_rank(sub) * n_dst_c)
            for j in range(n_src_c):
                entries: dict[int, int] = {}
                for t in range(p):
                    terms = prod[combo[t]][j]
                    if not terms:
                        continue
                    base = sub_ranks[t]
                    if t % 2 == 0:
                        for cv, tj in terms:
                            r = base + tj
                            entries[r] = (entries.get(r, 0) + cv) % mod
                    else:
                        for cv, tj in terms:
                            r = base + tj
                            entries[r] = (entries.get(r, 0) - cv) % mod
                col = sorted((r, v) for r, v in entries.items() if v)
                nnz += len(col)
                if nnz > self.entry_budget:
                    raise ResourceLimitError(
                        f"differential at p={p}, coefficient degree {k} exceeded the "
                        f"entry budget {self.entry_budget} during assembly"
                    )
                cols_data.append(col)

        column_degree = None
        if self.algebra.multidegree is not None:
            def column_degree(c: int) -> tuple[int, ...]:
                factors = [self._gens[i] for i in combos[c // n_src_c]]
                return self.algebra.multidegree(factors, src_coeffs[c % n_src_c])

        return SparseMatrix(rows, n_src, mod, cols_data, column_degree)

    def differential(self, p: int, q: int) -> SparseMatrix:
        """The outgoing differential of the (p, q) middle term."""
        return self.differential_matrix(p, self.coeff_degree(q))

    def slice(self, p: int, q: int) -> ComplexSlice:
        """Assemble both differentials around (p, q) and verify the chain condition.

        The check is the one `kpq_dim` runs on its first visit to (p, q).
        """
        k = self.coeff_degree(q)
        d_p, d_p1 = self._checked_differentials(p, q, self.field)
        nb = self.num_generators
        return ComplexSlice(
            p=p, q=q, coeff_degree=k,
            left_dim=math.comb(nb, p + 1) * self.algebra.dim(k - self.d),
            middle_dim=math.comb(nb, p) * self.algebra.dim(k),
            right_dim=math.comb(nb, p - 1) * self.algebra.dim(k + self.d) if p >= 1 else 0,
            d_p=d_p or self.differential_matrix(p, k),
            d_p_plus_1=d_p1 or self.differential_matrix(p + 1, k - self.d),
        )

    # -- ranks and dimensions ---------------------------------------------------

    def _nontrivial(self, p: int, k: int) -> bool:
        """Whether the differential leaving wedge^p (x) A_k can have nonzero rank."""
        if p <= 0 or p > self.num_generators:
            return False
        return self.algebra.dim(k) > 0 and self.algebra.dim(k + self.d) > 0

    def _checked_differentials(self, p: int, q: int, field: PrimeField
                               ) -> tuple[SparseMatrix | None, SparseMatrix | None]:
        """Assemble the nontrivial differentials d_p, d_{p+1} around (p, q) and
        verify d_p d_{p+1} = 0; a trivial one comes back as None.
        """
        k = self.coeff_degree(q)
        d_p = self.differential_matrix(p, k, field) if self._nontrivial(p, k) else None
        d_p1 = (self.differential_matrix(p + 1, k - self.d, field)
                if self._nontrivial(p + 1, k - self.d) else None)
        if d_p is not None and d_p1 is not None and not d_p.compose_is_zero(d_p1):
            raise InconsistencyError(
                f"chain condition failed at p={p}, q={q}: the composed "
                f"differentials are nonzero mod {field.modulus}"
            )
        self._chain_checked.add((p, q, field.modulus))
        return d_p, d_p1

    def _rank(self, p: int, k: int, field: PrimeField,
              mat: SparseMatrix | None = None) -> int:
        if not self._nontrivial(p, k):
            return 0
        key = (p, k, field.modulus)
        if key not in self._raw_ranks:
            if mat is None:
                mat = self.differential_matrix(p, k, field)
            self._raw_ranks[key] = mat.rank()
        return self._raw_ranks[key]

    def kpq_dim(self, p: int, q: int, field: PrimeField | None = None) -> int:
        """dim K_{p,q} over the field: dim ker d_p minus rank d_{p+1}."""
        field = field or self.field
        if p < 0:
            return 0
        k = self.coeff_degree(q)
        mid = self.middle_dim(p, q)
        if mid == 0:
            return 0
        d_p = d_p1 = None
        if (p, q, field.modulus) not in self._chain_checked:
            d_p, d_p1 = self._checked_differentials(p, q, field)
        dim = mid - self._rank(p, k, field, d_p) - self._rank(p + 1, k - self.d, field, d_p1)
        if dim < 0:
            raise InconsistencyError(
                f"negative homology dimension {dim} at p={p}, q={q}: rank bookkeeping is broken"
            )
        return dim

    def betti_row(self, q: int, p_range: Iterable[int],
                  field: PrimeField | None = None) -> list[int]:
        """dim K_{p,q} for each p in p_range (shared caches across the row)."""
        return [self.kpq_dim(p, q, field) for p in p_range]

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
        gen_index = {g: i for i, g in enumerate(self._gens)}
        coeff_label = w.coefficient
        if isinstance(self.algebra, ReducedACMAlgebra):
            unit = self.algebra.spec.unit_index
            coeff_label = _acm.ACMMonomial(w.coefficient.exponents, unit)
        coeffs = self.algebra.degree_basis(k)
        coeff_pos = {m: i for i, m in enumerate(coeffs)}
        if coeff_label not in coeff_pos:
            raise ParameterError(f"coefficient {w.coefficient} is zero in the capped ring")
        try:
            idx = [gen_index[f] for f in w.factors]
        except KeyError as exc:
            raise ParameterError(f"factor {exc.args[0]} is not a degree-d generator") from exc
        if len(set(idx)) != len(idx):
            raise ParameterError("wedge factors repeat: the witness element is zero")
        order = sorted(range(len(idx)), key=idx.__getitem__)
        inversions = sum(
            1 for i in range(len(order)) for j in range(i + 1, len(order))
            if order[i] > order[j]
        )
        combo = tuple(sorted(idx))
        pos = colex_rank(combo) * len(coeffs) + coeff_pos[coeff_label]
        sign = -1 if inversions % 2 else 1
        return {pos: sign}, len(idx), q

    def _coerce_element(self, element, p: int, q: int) -> dict[int, int]:
        from .witness import WitnessCycle

        if isinstance(element, WitnessCycle):
            vec, wp, wq = self.element_from_witness(element)
            if (wp, wq) != (p, q):
                raise ParameterError(
                    f"witness lives at (p={wp}, q={wq}), not (p={p}, q={q})"
                )
            return vec
        vec = {int(i): int(v) for i, v in dict(element).items()}
        mid = self.middle_dim(p, q)
        if any(not 0 <= i < mid for i in vec):
            raise ParameterError(f"element index outside the {mid}-dimensional middle basis")
        return vec

    def is_cycle(self, element, p: int, q: int, field: PrimeField | None = None) -> bool:
        """True when the outgoing differential kills the element."""
        field = field or self.field
        vec = self._coerce_element(element, p, q)
        if not vec:
            return True
        mat = self.differential_matrix(p, self.coeff_degree(q), field)
        return not mat.apply(vec)

    def is_boundary(self, element, p: int, q: int, field: PrimeField | None = None) -> bool:
        """True when the element is hit by the incoming differential."""
        field = field or self.field
        vec = self._coerce_element(element, p, q)
        if not vec:
            return True
        mat = self.differential_matrix(p + 1, self.coeff_degree(q) - self.d, field)
        return mat.solve_consistent(vec)
