"""Command-line frontend: intervals, witnesses, oracle tables, and sweeps.

Subcommands
    range    closed-form nonvanishing interval (projective space or ACM spec)
    witness  build a witness cycle and verify it at the chosen tier
    betti    brute-force dimension table over a prime field
    sweep    invariant suites over a parameter grid

Exit codes: 0 success, 2 parameter/precondition violation or unwritable
output path, 3 resource budget exceeded, 4 internal inconsistency
(cross-checked quantities disagree).
JSON output is byte-stable: keys sorted, fixed indentation, no timestamps.
The default field prime comes from KPQ_PRIME when set.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from . import acm as _acm
from . import ranges as _ranges
from . import witness as _witness
from .combinatorics import TruncatedRing, binom
from .errors import (
    InconsistencyError,
    ParameterError,
    ResourceLimitError,
)
from .koszul import (
    DEFAULT_ENTRY_BUDGET,
    DEFAULT_PRIME,
    SECONDARY_PRIME,
    KoszulComplex,
    PrimeField,
)

PRESETS = {
    "op-surface-d5": {"n": 2, "d": 5, "b": 0, "q": 2},
    "fermat-cubic-p5": {"acm_builtin": (3, 5), "d": 8, "b": 0, "q": 3},
}


@dataclass(frozen=True, slots=True)
class RunConfig:
    """Validated run-wide settings shared by every subcommand."""

    field_prime: int = DEFAULT_PRIME
    size_budget: int = DEFAULT_ENTRY_BUDGET
    output_format: str = "json"

    def __post_init__(self) -> None:
        PrimeField(self.field_prime)
        if self.size_budget <= 0:
            raise ParameterError(f"size budget must be positive, got {self.size_budget}")
        if self.output_format not in ("json", "csv", "table"):
            raise ParameterError(f"unknown output format {self.output_format!r}")


def _parse_int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParameterError(f"{what} must be an integer, got {text!r}") from None


def _config_from(args: argparse.Namespace) -> RunConfig:
    prime = args.prime
    if prime is None:
        env = os.environ.get("KPQ_PRIME")
        prime = DEFAULT_PRIME if env is None else _parse_int(env, "KPQ_PRIME")
    return RunConfig(
        field_prime=prime,
        size_budget=args.budget,
        output_format=args.format,
    )


# ---------------------------------------------------------------------------
# Rendering

def _strip_private(obj):
    if isinstance(obj, dict):
        return {k: _strip_private(v) for k, v in obj.items() if not k.startswith("_")}
    if isinstance(obj, (list, tuple)):
        return [_strip_private(v) for v in obj]
    return obj


def _flatten(obj, prefix="") -> list[tuple[str, object]]:
    rows = []
    if isinstance(obj, dict):
        for k in sorted(obj):
            rows.extend(_flatten(obj[k], f"{prefix}{k}." if prefix else f"{k}."))
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            rows.extend(_flatten(v, f"{prefix}{i}."))
    else:
        rows.append((prefix[:-1], obj))
    return rows


def _render(payload: dict, cfg: RunConfig) -> str:
    if cfg.output_format == "json":
        return json.dumps(_strip_private(payload), indent=2, sort_keys=True) + "\n"
    if cfg.output_format == "csv":
        if "_csv" in payload:
            return "\n".join(",".join(str(c) for c in row) for row in payload["_csv"]) + "\n"
        rows = _flatten(_strip_private(payload))
        return "\n".join(f"{k},{v}" for k, v in rows) + "\n"
    return payload["_table"]


def _emit(payload: dict, cfg: RunConfig, out: str | None) -> int:
    text = _render(payload, cfg)
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)
    return payload.get("_exit", 0)


# ---------------------------------------------------------------------------
# range

def _veronese_range_payload(n: int, d: int, b: int, q: int) -> dict:
    params = _ranges.normalize(n, d, b, q)
    report = _ranges.veronese_range_report(params)
    pq = report.pq
    payload = {
        "kind": "range",
        "ring": "projective-space",
        "n": n, "d": d,
        "b_input": b, "q_input": q,
        "b": params.b, "q": params.q, "shift": params.shift,
        "m": report.m, "r": report.r,
        "lo": pq.lo, "hi": pq.hi, "empty": pq.empty,
        "lo_closed_form": report.lo_closed_form,
        "hi_closed_form": report.hi_closed_form,
        "closed_form_asserted": report.closed_form_asserted,
        "method": "witness-set counting with binomial cross-check",
    }
    if report.counts is not None:
        c = report.counts
        payload.update({
            "divisor_count": c.divisor_count,
            "annihilator_count": c.annihilator_count,
            "z_complement": c.z_complement,
            "s_d": c.s_d,
        })
    lines = [
        f"nonvanishing interval for K_p,q: [{pq.lo}, {pq.hi}]"
        + ("  (empty)" if pq.empty else ""),
        f"n={n} d={d} b={params.b} q={params.q} (input b={b}, q={q}, shift={params.shift})",
        f"m={report.m} r={report.r}",
    ]
    if report.counts is not None:
        c = report.counts
        lines.append(f"|D_f|={c.divisor_count}  |Z_f|={c.annihilator_count}  "
                     f"s_d={c.s_d}  complement={c.z_complement}")
    lines.append(f"closed forms: [{report.lo_closed_form}, {report.hi_closed_form}]"
                 f" (asserted equal: {report.closed_form_asserted})")
    payload["_table"] = "\n".join(lines) + "\n"
    return payload


def _acm_range_payload(spec: _acm.ACMSpec, d: int, b: int, q: int) -> dict:
    report = _ranges.acm_range_report(spec, d, b, q)
    inv, pq, witness = report.invariants, report.pq, report.witness_interval
    payload = {
        "kind": "range",
        "ring": "acm",
        "spec_name": spec.name,
        "deg_x": spec.deg_x, "n": spec.n, "c": spec.c,
        "d": d, "b": b, "q": q,
        "lo": pq.lo, "hi": pq.hi, "empty": pq.empty,
        "r_d": inv.r_d, "r_d_prime": inv.r_d_prime, "r_bar_d": inv.r_bar_d,
        "e_count": witness.lo,
        "z_count": witness.hi,
        "z_complement": report.z_complement,
        "witness_lo": witness.lo,
        "witness_hi": witness.hi,
        "method": "weighted witness-set bounds over the free Noether basis",
    }
    if report.improved is not None:
        payload["improved_lo"] = report.improved.lo
        payload["improved_hi"] = report.improved.hi
    lines = [
        f"nonvanishing interval for K_p,q: [{pq.lo}, {pq.hi}]"
        + ("  (empty)" if pq.empty else ""),
        f"spec={spec.name} deg_x={spec.deg_x} n={spec.n} c={spec.c} "
        f"d={d} b={b} q={q}",
        f"r_d={inv.r_d}  r'_d={inv.r_d_prime}  r_bar_d={inv.r_bar_d}",
        f"|E_f|={witness.lo}  |Z_f|={witness.hi}  complement={report.z_complement}",
        f"exact witness interval: [{witness.lo}, {witness.hi}]",
    ]
    if report.improved is not None:
        lines.append(f"refined lower endpoint: {report.improved.lo}")
    payload["_table"] = "\n".join(lines) + "\n"
    return payload


def cmd_range(args: argparse.Namespace, cfg: RunConfig) -> dict:
    n, d, b, q, acm_path = args.n, args.d, args.b, args.q, args.acm
    # a preset names the whole cell, and an ACM spec its own ring: a flag
    # either would override is refused, not silently dropped
    given = [flag for flag, value in (("--n", n), ("--d", d), ("--b", b), ("--q", q),
                                      ("--acm", acm_path)) if value is not None]
    if args.preset and given:
        raise ParameterError(f"range --preset takes no {given[0]}")
    if acm_path and n is not None:
        raise ParameterError("range --acm takes no --n")
    b = 0 if b is None else b
    acm_builtin = None
    if args.preset:
        preset = PRESETS.get(args.preset)
        if preset is None:
            raise ParameterError(
                f"unknown preset {args.preset!r}; available: {', '.join(sorted(PRESETS))}"
            )
        n, d, b, q = preset.get("n"), preset["d"], preset["b"], preset["q"]
        acm_builtin = preset.get("acm_builtin")
    if acm_builtin is not None:
        e, m = acm_builtin
        return _acm_range_payload(_acm.hypersurface_spec(e, m), d, b, q)
    if acm_path:
        if d is None or q is None:
            raise ParameterError("range needs --d and --q with --acm")
        return _acm_range_payload(_acm.load_spec(acm_path), d, b, q)
    if n is None or d is None:
        raise ParameterError("range needs --n and --d (or --acm/--preset)")
    if q is None:
        raise ParameterError("range needs --q")
    return _veronese_range_payload(n, d, b, q)


# ---------------------------------------------------------------------------
# witness

def cmd_witness(args: argparse.Namespace, cfg: RunConfig) -> dict:
    n, d, b, q, p = args.n, args.d, args.b, args.q, args.p
    params = _ranges.normalize(n, d, b, q)
    report = _ranges.veronese_range_report(params)
    if report.counts is None or p not in report.pq:
        raise ParameterError(
            f"p={p} is outside the witness interval [{report.pq.lo}, {report.pq.hi}]"
        )
    ring = TruncatedRing(n + 1, d)
    f = _witness.leftmost_monomial(n, d, params.q, params.b)
    zset = _witness.zero_set(f, ring)
    dset = _witness.divisor_set(f, ring)
    wparams = _witness.VeroneseWitnessParams(n=n, d=d, b=params.b, q=params.q)
    w = _witness.build_witness(f, p, zset, dset, wparams)
    payload = {
        "kind": "witness",
        "n": n, "d": d, "b": params.b, "q": params.q, "p": p,
        "coefficient": str(f),
        "witness": w.to_text(),
        "verify_tier": args.verify,
    }
    lines = [f"witness for K_p,q at n={n} d={d} b={params.b} q={params.q} p={p}:",
             w.to_text().rstrip("\n")]
    exit_code = 0
    if args.verify in ("certificate", "exhaustive"):
        cert = _witness.verify_certificate(w)
        payload["certificate"] = {
            "verdict": cert.verdict,
            "checks": {c.name: c.ok for c in cert.checks},
        }
        lines.append(f"certificate: {'pass' if cert.verdict else 'FAIL'}")
        for c in cert.checks:
            lines.append(f"  {c.name}: {'ok' if c.ok else 'FAIL'}"
                         + (f" ({c.detail})" if c.detail and not c.ok else ""))
        if not cert.verdict:
            exit_code = 4
    if args.verify == "exhaustive" and exit_code == 0:
        cx = KoszulComplex(ring, b=params.b, field=cfg.field_prime,
                           entry_budget=cfg.size_budget)
        cyc = cx.is_cycle(w, p, params.q)
        bnd = cx.is_boundary(w, p, params.q)
        payload["oracle"] = {
            "prime": cfg.field_prime,
            "is_cycle": cyc,
            "is_boundary": bnd,
        }
        lines.append(f"oracle over GF({cfg.field_prime}): "
                     f"is_cycle={cyc} is_boundary={bnd}")
        if not cyc or bnd:
            exit_code = 4
    payload["_table"] = "\n".join(lines) + "\n"
    payload["_exit"] = exit_code
    return payload


# ---------------------------------------------------------------------------
# betti

def _parse_span(text: str, what: str) -> tuple[int, int]:
    m = re.fullmatch(r"(-?\d+):(-?\d+)", text.strip())
    if not m:
        raise ParameterError(f"{what} must look like a:b, got {text!r}")
    lo, hi = int(m.group(1)), int(m.group(2))
    if lo > hi:
        raise ParameterError(f"{what} has lo > hi: {text!r}")
    return lo, hi


def cmd_betti(args: argparse.Namespace, cfg: RunConfig) -> dict:
    if args.acm:
        spec = _acm.load_spec(args.acm)
        if args.d is None:
            raise ParameterError("betti over an ACM spec needs --d")
        n, d = spec.n, args.d
        ring_or_spec = spec
    else:
        if args.n is None or args.d is None:
            raise ParameterError("betti needs --n and --d (or --acm with --d)")
        n, d = args.n, args.d
        if n < 1:
            raise ParameterError(f"n must be >= 1, got {n}")
        ring_or_spec = TruncatedRing(n + 1, d)
    q_lo, q_hi = _parse_span(args.q_range, "--q-range") if args.q_range else (0, n + 1)
    p_span = _parse_span(args.p_range, "--p-range") if args.p_range else None

    cx = KoszulComplex(ring_or_spec, d=(d if args.acm else None), b=args.b,
                       field=cfg.field_prime, entry_budget=cfg.size_budget)
    # the top wedge index is the number of degree-d generators
    p_lo, p_hi = p_span or (0, cx.num_generators)
    p_lo = max(p_lo, 0)
    dump_dir = Path(args.dump_dir) if args.dump_dir else None
    if dump_dir:
        dump_dir.mkdir(parents=True, exist_ok=True)

    rows = []
    errors = []
    for q in range(q_lo, q_hi + 1):
        dims: list[int | None] = []
        for p in range(p_lo, p_hi + 1):
            try:
                dim = cx.kpq_dim(p, q)
                if dump_dir:
                    name = f"dp_b{args.b}_q{q}_p{p}.txt"
                    (dump_dir / name).write_text(cx.differential(p, q).to_triplet_text())
            except ResourceLimitError as exc:
                dim = None
                errors.append({"q": q, "p": p, "error": str(exc)})
            dims.append(dim)
        rows.append({"q": q, "dims": dims})

    payload = {
        "kind": "betti",
        "ring": "acm" if args.acm else "projective-space",
        "n": n, "d": d, "b": args.b,
        "prime": cfg.field_prime,
        "p_range": [p_lo, p_hi],
        "q_range": [q_lo, q_hi],
        "rows": rows,
        "errors": errors,
    }
    header = ["q\\p"] + [str(p) for p in range(p_lo, p_hi + 1)]
    table_rows = [header]
    for row in rows:
        cells = ["." if v == 0 else ("!" if v is None else str(v)) for v in row["dims"]]
        table_rows.append([str(row["q"])] + cells)
    widths = [max(len(r[i]) for r in table_rows) for i in range(len(header))]
    lines = ["  ".join(c.rjust(w) for c, w in zip(r, widths)) for r in table_rows]
    if errors:
        lines.append(f"({len(errors)} cell(s) skipped on resource budget, marked '!')")
    payload["_table"] = "\n".join(lines) + "\n"
    payload["_csv"] = table_rows
    return payload


# ---------------------------------------------------------------------------
# sweep

def parse_grid(text: str) -> list[tuple[int, int]]:
    """Expand a grid description like "n<=2,d<=4;n=3,d=2" into (n, d) cells.

    Each semicolon-separated clause must bound both n and d, with `=` or
    `<=`; lower limits are n >= 1, d >= 2, and a clause bounding n or d
    below them is refused. "tiny" means "n<=2,d<=3".
    """
    if text.strip() == "tiny":
        text = "n<=2,d<=3"
    cells: set[tuple[int, int]] = set()
    for clause in text.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        bounds: dict[str, tuple[int, int]] = {}
        for part in clause.split(","):
            m = re.fullmatch(r"\s*([nd])\s*(<=|==|=)\s*(\d+)\s*", part)
            if not m:
                raise ParameterError(f"cannot parse grid term {part!r}")
            var, op, val = m.group(1), m.group(2), int(m.group(3))
            floor = {"n": 1, "d": 2}[var]
            if val < floor:
                raise ParameterError(f"grid clause {clause!r} needs {var} >= {floor}")
            bounds[var] = (floor if op == "<=" else val, val)
        if "n" not in bounds or "d" not in bounds:
            raise ParameterError(f"grid clause {clause!r} must bound both n and d")
        for n in range(bounds["n"][0], bounds["n"][1] + 1):
            for d in range(bounds["d"][0], bounds["d"][1] + 1):
                cells.add((n, d))
    if not cells:
        raise ParameterError(f"grid {text!r} is empty")
    return sorted(cells)


def _sweep_oracle_cell(check, own_lists: tuple[str, ...],
                       n: int, d: int, primes: list[int], budget: int) -> dict:
    """Run `check` on each admissible (b, q) of the cell (n, d).

    `check(cell, complex_for, primes, n, d, b, q)` appends what it finds to
    the cell; `complex_for(prime, b)` builds the KoszulComplex of the
    degree-d embedding of P^n twisted by b over GF(prime) once, at its first
    call. A (b, q) that runs over the entry budget is recorded under
    `skipped`, after whatever the check recorded before it did.
    """
    cell = {"n": n, "d": d, "checked": 0, "failures": [], "skipped": [], "_ranked": 0,
            **{name: [] for name in own_lists}}
    complex_for = functools.cache(lambda prime, b: KoszulComplex(
        TruncatedRing(n + 1, d), b=b, field=prime, entry_budget=budget))
    # q <= n + 1 for every admissible (b, q)
    for b, q in itertools.product(range(d), range(n + 2)):
        if not _ranges.admissible_q(_ranges.VeroneseParams(n, d, b, q)):
            continue
        try:
            check(cell, complex_for, primes, n, d, b, q)
        except ResourceLimitError as exc:
            cell["skipped"].append({"b": b, "q": q, "error": str(exc)})
    return cell


def _compared(cell, *sides) -> None:
    """Count one comparison of the cells (cx, p, q) in `sides`, and count it in
    `_ranked` too when some side's kpq_dim needed a rank: its middle term and
    one of its neighbours are nonzero. Otherwise K_{p,q} is the middle term."""
    cell["checked"] += 1
    cell["_ranked"] += any(cx.middle_dim(p, q) and (
        cx.middle_dim(p - 1, q + 1) or cx.middle_dim(p + 1, q - 1)) for cx, p, q in sides)


def _check_ranges(cell, complex_for, primes, n, d, b, q) -> None:
    """Every p of the certified interval is nonzero over each prime, with the
    same dimension; the first prime also probes one step past each end."""
    report = _ranges.veronese_range_report(_ranges.VeroneseParams(n, d, b, q))
    pq = report.pq
    if pq.empty:
        cell["empty_intervals"].append({"b": b, "q": q})
        return
    cxs = {prime: complex_for(prime, b) for prime in primes}
    for p in pq:
        dims = {prime: cx.kpq_dim(p, q) for prime, cx in cxs.items()}
        _compared(cell, (cxs[primes[0]], p, q))
        entry = {"b": b, "q": q, "p": p, "dims": {str(k): v for k, v in dims.items()}}
        if 0 in dims.values():
            cell["failures"].append(entry)
        if len(set(dims.values())) > 1:
            cell["characteristic_flags"].append(dict(entry))
    # 0 <= lo <= hi <= s_d, so each probe needs only its own side's test
    for side, p in (("below", pq.lo - 1), ("above", pq.hi + 1)):
        if 0 <= p <= report.counts.s_d:
            cell["boundaries"].append({"b": b, "q": q, "p": p, "side": side,
                                       "dim": cxs[primes[0]].kpq_dim(p, q)})


def _check_duality(cell, complex_for, primes, n, d, b, q) -> None:
    """dim K_{p,q}(b) equals the dimension of its dual group, for every p."""
    cx, params = complex_for(primes[0], b), _ranges.VeroneseParams(n, d, b, q)
    for p in range(cx.num_generators + 1):
        dim = cx.kpq_dim(p, q)
        dual = _ranges.dual_params(params, p)
        sides, dual_dim = [(cx, p, q)], 0
        if not dual.trivially_zero:
            dual_cx = complex_for(primes[0], dual.params.b)
            dual_dim = dual_cx.kpq_dim(dual.p_prime, dual.params.q)
            sides.append((dual_cx, dual.p_prime, dual.params.q))
        _compared(cell, *sides)
        if dim != dual_dim:
            cell["failures"].append({
                "b": b, "q": q, "p": p, "dim": dim,
                "dual_p": dual.p_prime, "dual_q": dual.params.q,
                "dual_b": dual.params.b, "dual_dim": dual_dim,
            })


def _check_shift(cell, complex_for, primes, n, d, b, q) -> None:
    """dim K_{p,q}(b) equals dim K_{p,q+1}(b - d), for every p."""
    # both sides have coefficient degree k = qd + b on one ring and field, so
    # the second complex computes the same differentials and ranks again: a
    # reproducibility check of the oracle, at twice its cost
    cx, cx_shift = complex_for(primes[0], b), complex_for(primes[0], b - d)
    for p in range(cx.num_generators + 1):
        dim = cx.kpq_dim(p, q)
        shifted = cx_shift.kpq_dim(p, q + 1)
        _compared(cell, (cx, p, q), (cx_shift, p, q + 1))
        if dim != shifted:
            cell["failures"].append({"b": b, "q": q, "p": p,
                                     "dim": dim, "shifted_dim": shifted})


def _shifted_product_poly(shifts: list[int]) -> list[Fraction]:
    """Ascending coefficients of prod (d + s) over the given shifts."""
    coeffs = [Fraction(1)]
    for s in shifts:
        nxt = [Fraction(0)] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i] += c * s
            nxt[i + 1] += c
        coeffs = nxt
    return coeffs


def _monotone_sample_base(error_terms: list[Fraction], floor: int) -> int:
    """Smallest power-free base so |sum error_terms[i]/d^(i+1)| strictly halves.

    Past 4 * sum|c_i/c_j| (j the first nonzero term) the leading term
    dominates by 4x, so doubling d provably shrinks the error; geometric
    samples from such a base are monotone by construction, not by luck.
    """
    lead = next((i for i, c in enumerate(error_terms) if c), None)
    if lead is None:
        return floor
    spread = sum(abs(c / error_terms[lead]) for c in error_terms[lead + 1:])
    return max(floor, math.ceil(4 * spread) + 1)


def _asymptotic_error_terms(n: int, q: int, b: int
                            ) -> tuple[tuple[Fraction, int, list[Fraction]], ...]:
    """Exact expansions of the lower endpoint and of the deficit s_d - hi in d.

    Valid once d >= q + b + 2, where the leftmost monomial has the stable
    shape x_0^{d-1}..x_{q-1}^{d-1} x_q^{q+b} and both endpoints are
    polynomials in d. Each comes as (lead, power, terms), the endpoint being
    lead * d^power * (1 + sum terms[i] / d^(i+1)).
    """
    qf = math.factorial(q)
    lower = [x / qf for x in _shifted_product_poly(list(range(1, q + 1)))]
    sub = [x / qf for x in _shifted_product_poly([-b - 1 - i for i in range(q)])]
    lo_poly = [a - c for a, c in zip(lower, sub)]
    lo_poly[0] -= q
    if lo_poly[q]:
        raise InconsistencyError(f"the lower endpoint at n={n}, q={q}, b={b} has a "
                                 f"degree-{q} term; its leading term should be d^{q - 1}")
    lead = lo_poly[q - 1]
    lo_terms = [lo_poly[q - 1 - i] / lead for i in range(1, q)]

    k = n - q
    kf = math.factorial(k)
    def_poly = [x / kf for x in _shifted_product_poly(list(range(1, k + 1)))]
    def_poly[0] -= binom(n + b, q + b) - q + n
    dlead = def_poly[k]
    def_terms = [def_poly[k - i] / dlead for i in range(1, k + 1)]
    return (lead, q - 1, lo_terms), (dlead, k, def_terms)


def _sweep_asymptotics_cell(n: int, d: int, primes: list[int], budget: int) -> dict:
    """Each endpoint of every (q, b) against `asymptotic_coefficients`: its
    leading term must be that of the exact expansion, each sample's ratio - 1
    must be the expansion's exact value, and |ratio - 1| must not grow."""
    # d plays no role here beyond the grid shape: the samples below go far
    # beyond any oracle-sized d, using closed forms only.
    cell = {"n": n, "d": d, "checked": 0, "failures": [], "ratios": []}
    for q in range(1, n):
        for b in range(0, 2):
            (lo_lead, lo_power, lo_terms), (def_lead, def_power, def_terms) = \
                _asymptotic_error_terms(n, q, b)
            floor = max(8, q + b + 2)
            base = max(_monotone_sample_base(lo_terms, floor),
                       _monotone_sample_base(def_terms, floor))
            samples = (base, 2 * base, 4 * base)
            coeffs = _ranges.asymptotic_coefficients(n, q, b)
            exact = ((coeffs.lower_coeff, coeffs.lower_power, coeffs.deficit_coeff,
                      coeffs.deficit_power) == (lo_lead, lo_power, def_lead, def_power))
            lo_err, hi_err = [], []
            entry = {"q": q, "b": b, "d_samples": list(samples),
                     "lower_coeff": str(coeffs.lower_coeff),
                     "lower_power": coeffs.lower_power,
                     "deficit_coeff": str(coeffs.deficit_coeff),
                     "deficit_power": coeffs.deficit_power,
                     "lower_ratios": [], "deficit_ratios": []}
            for dd in samples:
                report = _ranges.veronese_range_report(_ranges.VeroneseParams(n, dd, b, q))
                s_d = report.counts.s_d
                lo_ratio = Fraction(report.pq.lo) / (coeffs.lower_coeff * dd ** coeffs.lower_power)
                deficit = s_d - report.pq.hi
                hi_ratio = Fraction(deficit) / (coeffs.deficit_coeff * dd ** coeffs.deficit_power)
                exact = exact and all(
                    ratio - 1 == sum(c / dd ** (i + 1) for i, c in enumerate(terms))
                    for ratio, terms in ((lo_ratio, lo_terms), (hi_ratio, def_terms)))
                lo_err.append(abs(lo_ratio - 1))
                hi_err.append(abs(hi_ratio - 1))
                entry["lower_ratios"].append(float(lo_ratio))
                entry["deficit_ratios"].append(float(hi_ratio))
            cell["checked"] += 1
            monotone = all(lo_err[i + 1] <= lo_err[i] for i in range(len(lo_err) - 1)) \
                and all(hi_err[i + 1] <= hi_err[i] for i in range(len(hi_err) - 1))
            if not (monotone and exact):
                cell["failures"].append({"q": q, "b": b,
                                         "d_samples": list(samples),
                                         "lower_ratios": entry["lower_ratios"],
                                         "deficit_ratios": entry["deficit_ratios"],
                                         "monotone": monotone, "exact": exact})
            cell["ratios"].append(entry)
    return cell


_SWEEP_CELLS = {
    "ranges": functools.partial(_sweep_oracle_cell, _check_ranges,
                                ("boundaries", "characteristic_flags", "empty_intervals")),
    "duality": functools.partial(_sweep_oracle_cell, _check_duality, ()),
    "shift": functools.partial(_sweep_oracle_cell, _check_shift, ()),
    "asymptotics": _sweep_asymptotics_cell,
}


def cmd_sweep(args: argparse.Namespace, cfg: RunConfig) -> dict:
    cells = parse_grid(args.grid)
    primes = ([_parse_int(t, "--primes") for t in args.primes.split(",")]
              if args.primes else [cfg.field_prime])
    for prime in primes:
        PrimeField(prime)
    if args.check in ("duality", "shift") and len(primes) > 1:
        raise ParameterError(f"--check {args.check} compares over one prime, "
                             f"got --primes {','.join(map(str, primes))}")
    worker = _SWEEP_CELLS[args.check]
    results = [worker(n, d, primes, cfg.size_budget) for n, d in cells]

    failures = [dict(f, n=c["n"], d=c["d"]) for c in results for f in c["failures"]]
    skipped = [dict(s, n=c["n"], d=c["d"]) for c in results for s in c.get("skipped", [])]
    checked = sum(c["checked"] for c in results)
    ranked = sum(c.get("_ranked", 0) for c in results)
    verdict = "fail" if failures else "skipped" if skipped and not ranked else "pass"
    payload = {
        "kind": "sweep",
        "check": args.check,
        "grid": [{"n": n, "d": d} for n, d in cells],
        "primes": primes,
        "checked": checked,
        "failures": failures,
        "skipped": skipped,
        "cells": results,
        "verdict": verdict,
    }
    lines = [
        f"sweep check={args.check} over {len(cells)} cell(s), primes {primes}",
        f"comparisons: {checked}; failures: {len(failures)}; skipped: {len(skipped)}",
        f"verdict: {payload['verdict']}",
    ]
    for f in failures[:20]:
        lines.append(f"  FAIL {f}")
    payload["_table"] = "\n".join(lines) + "\n"
    payload["_exit"] = {"fail": 4, "skipped": 3, "pass": 0}[verdict]
    return payload


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--prime", type=int, default=None,
                        help=f"field prime (default KPQ_PRIME or {DEFAULT_PRIME})")
    common.add_argument("--budget", type=int, default=DEFAULT_ENTRY_BUDGET,
                        help="matrix entry budget before a resource error")
    common.add_argument("--format", choices=("json", "csv", "table"), default="json")
    common.add_argument("--out", default=None, help="write output to a file instead of stdout")

    parser = argparse.ArgumentParser(
        prog="kpq",
        description="Nonvanishing intervals, witness cycles, and an exact "
                    "prime-field oracle for Koszul cohomology of embeddings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_range = sub.add_parser("range", parents=[common],
                             help="closed-form nonvanishing interval")
    p_range.add_argument("--n", type=int, default=None)
    p_range.add_argument("--d", type=int, default=None)
    p_range.add_argument("--b", type=int, default=None)
    p_range.add_argument("--q", type=int, default=None)
    p_range.add_argument("--acm", default=None, help="ACM ring spec (JSON file)")
    p_range.add_argument("--preset", default=None,
                         help=f"named example: {', '.join(sorted(PRESETS))}")
    p_range.set_defaults(func=cmd_range)

    p_wit = sub.add_parser("witness", parents=[common],
                           help="build and verify a witness cycle")
    p_wit.add_argument("--n", type=int, required=True)
    p_wit.add_argument("--d", type=int, required=True)
    p_wit.add_argument("--b", type=int, default=0)
    p_wit.add_argument("--q", type=int, required=True)
    p_wit.add_argument("--p", type=int, required=True)
    p_wit.add_argument("--verify", choices=("none", "certificate", "exhaustive"),
                       default="certificate")
    p_wit.set_defaults(func=cmd_witness)

    p_betti = sub.add_parser("betti", parents=[common],
                             help="brute-force dimension table")
    p_betti.add_argument("--n", type=int, default=None)
    p_betti.add_argument("--d", type=int, default=None)
    p_betti.add_argument("--b", type=int, default=0)
    p_betti.add_argument("--acm", default=None, help="ACM ring spec (JSON file)")
    p_betti.add_argument("--q-range", dest="q_range", default=None, metavar="A:B")
    p_betti.add_argument("--p-range", dest="p_range", default=None, metavar="A:B")
    p_betti.add_argument("--dump-dir", dest="dump_dir", default=None,
                         help="write each outgoing differential as triplet text")
    p_betti.set_defaults(func=cmd_betti)

    p_sweep = sub.add_parser("sweep", parents=[common],
                             help="run an invariant suite over a grid")
    p_sweep.add_argument("--check", choices=tuple(sorted(_SWEEP_CELLS)), required=True)
    p_sweep.add_argument("--grid", required=True,
                         help='e.g. "n<=2,d<=4;n=3,d=2" or "tiny"')
    p_sweep.add_argument("--primes", default=None,
                         help=f"comma-separated, e.g. {DEFAULT_PRIME},{SECONDARY_PRIME}")
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from(args)
        payload = args.func(args, cfg)
        return _emit(payload, cfg, args.out)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return 3
    except InconsistencyError as exc:
        print(f"inconsistency: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
