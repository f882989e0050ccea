"""Rings of arithmetically Cohen-Macaulay embeddings via Noether normalization.

An ACM coordinate ring R is described relative to a Noether normalization
S = k[x_0..x_n]: R is a free S-module with a finite monomial basis Lambda
containing 1, and multiplication of Lambda elements closes back into the
module with polynomial coefficients in S. That structure is all the rest of
the package needs: deg(X) = |Lambda|, the regularity-style invariant
c(X) = max degree in Lambda, graded dimensions, and products in the
exponent-capped reduction R / (x_0^d, ..., x_n^d).

Hypersurfaces monic in their last coordinate get a dedicated constructor; any
other ring can be supplied as a JSON file with an explicit rewrite table.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .combinatorics import (
    Monomial, TruncatedRing, _monomials, binom, truncated_dim,
)
from .errors import ACMSpecError, ParameterError

SCHEMA_VERSION = 1

# one rewrite term: (integer coefficient, x-exponent tuple, lambda index)
Term = tuple[int, tuple[int, ...], int]


@dataclass(frozen=True, slots=True)
class ACMMonomial:
    """Basis monomial of R as a free S-module: x-part times a Lambda element."""

    x_part: tuple[int, ...]
    lambda_index: int

    def __str__(self) -> str:
        return " ".join(str(e) for e in self.x_part) + f" @{self.lambda_index}"


@dataclass(frozen=True, slots=True)
class ACMSpec:
    """Multiplication structure of an ACM ring over its Noether normalization.

    lambda_degrees[i] is the degree of the i-th Lambda basis element;
    table[(i, j)] expands the product of Lambda elements i and j as a sum of
    terms (coeff, x-exponents, lambda index). The table is exact integer data,
    independent of any exponent cap.
    """

    name: str
    n: int
    lambda_degrees: tuple[int, ...]
    table: tuple[tuple[tuple[int, int], tuple[Term, ...]], ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ACMSpecError(f"n must be >= 1, got {self.n}")
        if not self.lambda_degrees:
            raise ACMSpecError("Lambda basis is empty")
        if 0 not in self.lambda_degrees:
            raise ACMSpecError("Lambda basis must contain the unit (a degree-0 element)")
        if min(self.lambda_degrees) < 0:
            raise ACMSpecError(f"Lambda degrees must be >= 0, got {self.lambda_degrees}")
        table = dict(self.table)
        size = len(self.lambda_degrees)
        for i, j in table:
            if not (0 <= i < size and 0 <= j < size):
                raise ACMSpecError(f"table entry ({i}, {j}) is outside the Lambda basis")
        if len({frozenset(key) for key in table}) != len(self.table):
            raise ACMSpecError("rewrite table stores a Lambda product more than once")
        for i in range(size):
            for j in range(i, size):
                if (i, j) not in table and (j, i) not in table:
                    raise ACMSpecError(f"rewrite table is missing the Lambda product ({i}, {j})")
        for (i, j), terms in table.items():
            want = self.lambda_degrees[i] + self.lambda_degrees[j]
            for coeff, x_exp, lam in terms:
                if coeff == 0:
                    raise ACMSpecError(f"zero coefficient stored in table entry ({i}, {j})")
                if lam < 0 or lam >= size:
                    raise ACMSpecError(f"table entry ({i}, {j}) references Lambda index {lam}")
                if len(x_exp) != self.n + 1 or any(e < 0 for e in x_exp):
                    raise ACMSpecError(f"bad x-exponents {x_exp} in table entry ({i}, {j})")
                if sum(x_exp) + self.lambda_degrees[lam] != want:
                    raise ACMSpecError(
                        f"table entry ({i}, {j}) is not degree-preserving: "
                        f"term {x_exp} @{lam} has degree "
                        f"{sum(x_exp) + self.lambda_degrees[lam]}, expected {want}"
                    )

    @property
    def deg_x(self) -> int:
        """Degree of the embedded variety: the rank |Lambda| of R over S."""
        return len(self.lambda_degrees)

    @property
    def c(self) -> int:
        """Largest degree of a Lambda basis element."""
        return max(self.lambda_degrees)

    @property
    def unit_index(self) -> int:
        return self.lambda_degrees.index(0)

    def product_terms(self, i: int, j: int) -> tuple[Term, ...]:
        # __post_init__ has checked that exactly one of (i, j) and (j, i) is stored
        return next(terms for key, terms in self.table if key in ((i, j), (j, i)))


def _reduce_power_tower(e: int, rel_coeffs: list[dict[tuple[int, ...], int]], n: int,
                        power: int) -> dict[tuple[int, tuple[int, ...]], int]:
    """Rewrite t^power as sum c * x^a * t^k with k < e, given t^e = -(sum rel_coeffs[k] t^k)."""
    zero_x = (0,) * (n + 1)
    # state: {(k, x_exponents): coeff}
    state: dict[tuple[int, tuple[int, ...]], int] = {(power, zero_x): 1}
    while True:
        high = [key for key in state if key[0] >= e]
        if not high:
            break
        k, x_exp = max(high)
        coeff = state.pop((k, x_exp))
        for low_k, poly in enumerate(rel_coeffs):
            for mono, c in poly.items():
                new_x = tuple(a + bb for a, bb in zip(x_exp, mono))
                key = (k - e + low_k, new_x)
                val = state.get(key, 0) - coeff * c
                if val:
                    state[key] = val
                else:
                    state.pop(key, None)
    return state


def hypersurface_spec(e: int, ambient_m: int,
                      relation: list[list[tuple[int, tuple[int, ...]]]] | None = None,
                      name: str | None = None) -> ACMSpec:
    """ACM spec of a degree-e hypersurface in P^ambient_m, monic in the last coordinate.

    The coordinate ring k[x_0..x_n, t]/(F) with t = x_{ambient_m}, n = ambient_m - 1
    is free over k[x_0..x_n] with basis 1, t, ..., t^{e-1} whenever F is monic of
    degree e in t. `relation` optionally gives the lower coefficients of F as
    F = t^e + sum_k c_k(x) t^k, each c_k a list of (coeff, x-exponents) terms of
    degree e - k; the default is the Fermat-type relation t^e + x_0^e + ... + x_n^e.
    """
    if e < 2:
        raise ACMSpecError(f"hypersurface degree must be >= 2, got {e}")
    if ambient_m < 2:
        raise ACMSpecError(f"ambient dimension must be >= 2, got {ambient_m}")
    n = ambient_m - 1
    if relation is None:
        fermat = [(1, tuple(e * (j == i) for j in range(n + 1))) for i in range(n + 1)]
        relation = [fermat] + [[]] * (e - 1)
        if name is None:
            name = f"fermat-{e}-p{ambient_m}"
    if len(relation) != e:
        raise ACMSpecError(f"relation needs {e} coefficient lists, got {len(relation)}")
    rel_coeffs = []
    for k, terms in enumerate(relation):
        poly: dict[tuple[int, ...], int] = {}
        for coeff, x_exp in terms:
            x_exp = tuple(x_exp)
            if len(x_exp) != n + 1 or any(v < 0 for v in x_exp):
                raise ACMSpecError(f"bad x-exponents {x_exp} in relation coefficient {k}")
            if sum(x_exp) != e - k:
                raise ACMSpecError(
                    f"relation coefficient of t^{k} must be homogeneous of degree {e - k}"
                )
            poly[x_exp] = poly.get(x_exp, 0) + coeff
        rel_coeffs.append({m: c for m, c in poly.items() if c})
    if name is None:
        name = f"hypersurface-{e}-p{ambient_m}"

    table = []
    for i in range(e):
        for j in range(i, e):
            if i + j < e:
                exp = (0,) * (n + 1)
                table.append(((i, j), ((1, exp, i + j),)))
            else:
                reduced = _reduce_power_tower(e, rel_coeffs, n, i + j)
                terms = tuple(
                    (coeff, x_exp, k) for (k, x_exp), coeff in sorted(reduced.items())
                )
                table.append(((i, j), terms))
    return ACMSpec(name=name, n=n, lambda_degrees=tuple(range(e)), table=tuple(table))


def veronese_spec(n: int, name: str | None = None) -> ACMSpec:
    """Trivial spec with Lambda = {1}: plain projective space P^n as an ACM ring."""
    table = (((0, 0), ((1, (0,) * (n + 1), 0),)),)
    return ACMSpec(name=name or f"projective-space-{n}", n=n,
                   lambda_degrees=(0,), table=table)


@dataclass(frozen=True, slots=True)
class ACMInvariants:
    deg_x: int
    c: int
    r_d: int
    r_d_prime: int
    r_bar_d: int


def invariants(spec: ACMSpec, d: int) -> ACMInvariants:
    """Graded dimensions at level d: r_d = dim R_d, r'_d = r_d - deg(X)(n+1),
    and r-bar_d = dim of the exponent-capped reduction."""
    if d < 1:
        raise ParameterError(f"d must be >= 1, got {d}")
    n = spec.n
    ring = TruncatedRing(n + 1, d)
    r_d = sum(binom(d - k + n, n) for k in spec.lambda_degrees)
    r_bar_d = sum(truncated_dim(ring, d - k) for k in spec.lambda_degrees)
    return ACMInvariants(
        deg_x=spec.deg_x,
        c=spec.c,
        r_d=r_d,
        r_d_prime=r_d - spec.deg_x * (n + 1),
        r_bar_d=r_bar_d,
    )


def reduce_product(a: ACMMonomial, b: ACMMonomial, spec: ACMSpec, cap: int) -> list[tuple[int, ACMMonomial]]:
    """Product of two basis monomials in the capped reduction, expanded on the basis.

    x-parts add; Lambda parts rewrite through the table; any term whose combined
    x-exponents reach the cap is dropped. Returns a list of (coeff, monomial),
    empty when the product is zero.
    """
    merged = tuple(p + q for p, q in zip(a.x_part, b.x_part))
    if any(v >= cap for v in merged):
        return []
    out = []
    for coeff, x_exp, lam in spec.product_terms(a.lambda_index, b.lambda_index):
        total = tuple(p + q for p, q in zip(merged, x_exp))
        if any(v >= cap for v in total):
            continue
        out.append((coeff, ACMMonomial(total, lam)))
    return out


def basis(spec: ACMSpec, d: int, k: int) -> list[ACMMonomial]:
    """Degree-k monomial basis of the capped reduction, in the frozen order.

    Lambda-major: Lambda elements in spec order, then x-parts in the frozen
    descending-lex order of the capped Noether ring.
    """
    ring = TruncatedRing(spec.n + 1, d)
    out = []
    for i, lam_deg in enumerate(spec.lambda_degrees):
        for mono in _monomials(ring, k - lam_deg):
            out.append(ACMMonomial(mono.exponents, i))
    return out


# ---------------------------------------------------------------------------
# JSON interchange

def spec_to_json(spec: ACMSpec) -> dict:
    """Plain-dict form of a spec, stable under json round-trips."""
    return {
        "schema_version": SCHEMA_VERSION,
        "name": spec.name,
        "n": spec.n,
        "lambda": [{"degree": k} for k in spec.lambda_degrees],
        "table": [
            {
                "i": i,
                "j": j,
                "terms": [
                    {"coeff": c, "x_exponents": list(x), "lambda_index": lam}
                    for c, x, lam in terms
                ],
            }
            for (i, j), terms in spec.table
        ],
    }


_JSON_TYPES = {int: "an integer", str: "a string", list: "a list", dict: "an object"}


def _check(value, kind: type, what: str):
    """value, refused with ACMSpecError unless it has JSON type `kind`."""
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ACMSpecError(f"{what} must be {_JSON_TYPES[kind]}, got {value!r}")
    return value


def _field(obj, key: str, kind: type, where: str):
    """obj[key], refused with ACMSpecError unless present and of JSON type `kind`."""
    _check(obj, dict, where)
    if key not in obj:
        raise ACMSpecError(f"{where} is missing required field '{key}'")
    return _check(obj[key], kind, f"field '{key}' of {where}")


def _exponents(obj, where: str) -> tuple[int, ...]:
    return tuple(_check(e, int, f"x_exponents of {where}")
                 for e in _field(obj, "x_exponents", list, where))


def spec_from_json(data: dict) -> ACMSpec:
    """Inverse of spec_to_json; also accepts the monic relation form.

    Any structural problem (a missing field, a wrong JSON type) raises
    ACMSpecError.
    """
    if not isinstance(data, dict):
        raise ACMSpecError("spec document must be a JSON object")
    if "schema_version" not in data:
        raise ACMSpecError("spec document is missing schema_version")
    if data["schema_version"] != SCHEMA_VERSION:
        raise ACMSpecError(
            f"unsupported schema_version {data['schema_version']} (supported: {SCHEMA_VERSION})"
        )
    name = _field(data, "name", str, "spec document")
    n = _field(data, "n", int, "spec document")
    lam_degrees = tuple(_field(entry, "degree", int, "a lambda entry")
                        for entry in _field(data, "lambda", list, "spec document"))
    if "relation" in data and "table" in data:
        raise ACMSpecError("give either a relation or a table, not both")
    if "relation" in data:
        rel = _field(data, "relation", dict, "spec document")
        e = _field(rel, "degree", int, "the relation")
        if e != len(lam_degrees) or lam_degrees != tuple(range(e)):
            raise ACMSpecError("a relation-form spec needs Lambda = 1, t, ..., t^{e-1}")
        if not rel.get("monic", True):
            raise ACMSpecError("hypersurface relation must be monic in t")
        coeffs = [
            [(_field(t, "coeff", int, "a relation term"), _exponents(t, "a relation term"))
             for t in _check(lst, list, "a relation coefficient")]
            for lst in _field(rel, "coefficients", list, "the relation")
        ]
        return hypersurface_spec(e, n + 1, relation=coeffs, name=name)
    if "table" not in data:
        raise ACMSpecError("spec document needs a 'table' or a 'relation'")
    table = tuple(
        (
            (_field(entry, "i", int, "a table entry"), _field(entry, "j", int, "a table entry")),
            tuple(
                (_field(t, "coeff", int, "a table term"), _exponents(t, "a table term"),
                 _field(t, "lambda_index", int, "a table term"))
                for t in _field(entry, "terms", list, "a table entry")
            ),
        )
        for entry in _field(data, "table", list, "spec document")
    )
    return ACMSpec(name=name, n=n, lambda_degrees=lam_degrees, table=table)


def load_spec(path: str) -> ACMSpec:
    """Read an ACM spec from a JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ACMSpecError(f"{path}: cannot read the spec file ({exc.strerror})") from exc
    except ValueError as exc:  # malformed JSON or not UTF-8
        raise ACMSpecError(f"{path}: not valid JSON ({exc})") from exc
    return spec_from_json(data)


def save_spec(spec: ACMSpec, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec_to_json(spec), fh, indent=2, sort_keys=True)
        fh.write("\n")
