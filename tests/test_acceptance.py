"""Acceptance gate: eight end-to-end criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v` (add -s to see the timing
lines while tests pass). Every criterion asserts exact values and its own
wall-clock budget.
"""

import json
import time
from contextlib import contextmanager

from kpq.acm import hypersurface_spec
from kpq.cli import main
from kpq.combinatorics import TruncatedRing, binom, enumerate_monomials, truncated_dim
from kpq.errors import ResourceLimitError
from kpq.koszul import DEFAULT_PRIME, SECONDARY_PRIME, KoszulComplex
from kpq.ranges import (
    VeroneseParams,
    acm_range,
    admissible_q,
    dual_params,
    veronese_range,
    veronese_range_report,
)
from kpq.witness import (
    ACMWitnessParams,
    VeroneseWitnessParams,
    acm_e_set,
    acm_zero_set,
    build_witness,
    count_formulas,
    divisor_set,
    leftmost_monomial,
    verify_certificate,
    zero_set,
)

GRID = [(1, d) for d in range(2, 9)] + [(2, d) for d in range(2, 5)] + [(3, 2)]


@contextmanager
def criterion(num, budget_s, description):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        elapsed = time.perf_counter() - start
        print(f"[criterion {num}] FAIL ({elapsed:.2f}s): {description}", flush=True)
        raise
    elapsed = time.perf_counter() - start
    ok = elapsed < budget_s
    status = "PASS" if ok else "FAIL (over budget)"
    print(f"[criterion {num}] {status} ({elapsed:.2f}s, budget {budget_s:g}s): "
          f"{description}", flush=True)
    assert ok, f"criterion {num} took {elapsed:.2f}s, budget {budget_s:g}s"


def cli_json(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0, f"kpq {' '.join(argv)} exited {code}"
    return json.loads(out)


def admissible_cells(n, d):
    """Nonempty certified intervals for all admissible (b, q) at one (n, d)."""
    out = []
    for b in range(d):
        for q in range(0, n + 2):
            params = VeroneseParams(n, d, b, q)
            if not admissible_q(params):
                continue
            report = veronese_range_report(params)
            if report.counts is None or report.pq.empty:
                continue
            out.append((b, q, report.pq))
    return out


def test_criterion_1_surface_range_row(capsys):
    with criterion(1, 1.0, "closed-form interval row at n=2, q=2 for d=3..10"):
        for d in range(3, 11):
            doc = cli_json(capsys, "range", "--n", "2", "--d", str(d), "--q", "2")
            assert (doc["lo"], doc["hi"]) == (3 * d - 2, binom(d + 2, 2) - 3)
            pq = veronese_range(VeroneseParams(2, d, 0, 2))
            assert (pq.lo, pq.hi) == (doc["lo"], doc["hi"])


def test_criterion_2_cubic_preset(capsys):
    with criterion(2, 1.0, "degree-8 interval of the cubic threefold preset"):
        doc = cli_json(capsys, "range", "--preset", "fermat-cubic-p5")
        assert doc["lo"] == 540
        assert doc["hi"] == 1005
        assert doc["e_count"] == 301
        assert doc["z_complement"] == 14
        assert doc["z_count"] == 1016
        assert doc["r_bar_d"] == 1030


def test_criterion_3_intervals_nonzero_over_two_primes():
    with criterion(3, 600.0, "oracle confirms every certified interval on the "
                             "grid over GF(32003) and GF(1000003)"):
        checked = 0
        for n, d in GRID:
            ring = TruncatedRing(n + 1, d)
            cells = admissible_cells(n, d)
            for prime in (DEFAULT_PRIME, SECONDARY_PRIME):
                complexes = {}
                for b, q, pq in cells:
                    cx = complexes.get(b)
                    if cx is None:
                        cx = complexes[b] = KoszulComplex(ring, b=b, field=prime)
                    for p in pq:
                        assert cx.kpq_dim(p, q) > 0, \
                            f"dim K_{{{p},{q}}} = 0 at n={n}, d={d}, b={b}, GF({prime})"
                        checked += 1
        assert checked >= 300


def test_criterion_4_degenerate_case_and_duality():
    with criterion(4, 30.0, "socle class at n=3, d=2: [6,6], dim 1, self-dual"):
        params = VeroneseParams(3, 2, 0, 2)
        pq = veronese_range(params)
        assert (pq.lo, pq.hi) == (6, 6)
        cx = KoszulComplex(TruncatedRing(4, 2))
        assert cx.kpq_dim(6, 2) == 1
        assert cx.kpq_dim(5, 2) == 0
        dp = dual_params(params, 6)
        assert (dp.p_prime, dp.params.q, dp.params.b) == (0, 0, 0)
        assert not dp.trivially_zero
        dual_cx = KoszulComplex(TruncatedRing(4, 2), b=dp.params.b)
        assert dual_cx.kpq_dim(dp.p_prime, dp.params.q) == 1


def test_criterion_5_witness_soundness():
    with criterion(5, 600.0, "witnesses certify and survive the oracle on the "
                             "whole grid; zero failures"):
        certified = oracled = skipped = 0
        for n, d in GRID:
            ring = TruncatedRing(n + 1, d)
            complexes = {}
            for b, q, pq in admissible_cells(n, d):
                f = leftmost_monomial(n, d, q, b)
                zset = zero_set(f, ring)
                dset = divisor_set(f, ring)
                params = VeroneseWitnessParams(n=n, d=d, b=b, q=q)
                cx = complexes.get(b)
                if cx is None:
                    cx = complexes[b] = KoszulComplex(ring, b=b)
                for p in pq:
                    w = build_witness(f, p, zset, dset, params)
                    report = verify_certificate(w)
                    assert report.verdict, \
                        f"certificate failed at n={n}, d={d}, b={b}, q={q}, p={p}"
                    certified += 1
                    try:
                        assert cx.is_cycle(w, p, q), \
                            f"witness not a cycle at n={n}, d={d}, b={b}, q={q}, p={p}"
                        assert not cx.is_boundary(w, p, q), \
                            f"witness is a boundary at n={n}, d={d}, b={b}, q={q}, p={p}"
                        oracled += 1
                    except ResourceLimitError:
                        skipped += 1
        assert certified >= 150
        assert oracled > 0
        print(f"  (criterion 5: {certified} certificates, {oracled} oracle "
              f"confirmations, {skipped} skipped on budget)", flush=True)


def test_criterion_6_counting_identities():
    with criterion(6, 120.0, "witness-set counts match enumeration and closed "
                             "forms on n<=4, d<=6"):
        intervals = degrees = 0
        for n in range(1, 5):
            for d in range(2, 7):
                ring = TruncatedRing(n + 1, d)
                for k in range(0, ring.top_degree + 2):
                    assert truncated_dim(ring, k) == len(enumerate_monomials(ring, k))
                    degrees += 1
                for b in range(d):
                    for q in range(0, n + 2):
                        if q * d + b > ring.top_degree:
                            continue
                        cf = count_formulas(n, d, q, b)
                        f = leftmost_monomial(n, d, q, b)
                        assert cf.divisor_count == len(divisor_set(f, ring))
                        assert cf.annihilator_count == len(zero_set(f, ring))
                        if cf.m <= n:
                            assert cf.closed_form_asserted and cf.consistent
                        intervals += 1
        assert intervals >= 100 and degrees >= 100


def test_criterion_7_identity_suites(capsys):
    with criterion(7, 300.0, "chain condition on every cell; twist-shift and "
                             "duality equalities on the tiny grid"):
        cells = 0
        for n in (1, 2):
            for d in (2, 3):
                for b in range(d):
                    cx = KoszulComplex(TruncatedRing(n + 1, d), b=b)
                    for q in range(0, n + 2):
                        for p in range(0, cx.num_generators + 1):
                            cx.kpq_dim(p, q)  # raises InconsistencyError on failure
                            cells += 1
        assert cells >= 100

        shift = cli_json(capsys, "sweep", "--check", "shift", "--grid", "tiny")
        assert shift["verdict"] == "pass" and shift["checked"] > 0
        dual = cli_json(capsys, "sweep", "--check", "duality", "--grid", "tiny")
        assert dual["verdict"] == "pass" and dual["checked"] > 0


def test_criterion_8_acm_spot_check():
    with criterion(8, 300.0, "quadric surface at d=3, q=1: positive dims across "
                             "the interval, E_f within Z_f both ways"):
        spec = hypersurface_spec(2, 3)
        d, b, q = 3, 0, 1
        assert d >= b + q + spec.c + 1  # hypothesis of the interval theorem
        pq = acm_range(spec, d, b, q)
        assert (pq.lo, pq.hi) == (4, 6)

        eset = acm_e_set(spec, d, q, b)
        zset = acm_zero_set(spec, d, q, b)
        assert set(eset.monomials) <= set(zset.monomials)  # direct containment
        f = leftmost_monomial(spec.n, d, q, b)
        w = build_witness(f, pq.lo, list(zset.monomials), list(eset.monomials),
                          ACMWitnessParams(spec=spec, d=d, b=b, q=q))
        report = verify_certificate(w)
        assert report.verdict
        assert report.sufficient_condition is True  # containment via the window

        cx = KoszulComplex(spec, d=d)
        for p in pq:
            assert cx.kpq_dim(p, q) > 0, f"dim K_{{{p},{q}}} = 0 on the quadric"


def test_first_cell_of_the_larger_grid():
    # n=2, d=5, (b, q, p) = (0, 1, 7): the interval, the oracle over both
    # primes and the witness agree; d_7 here is 111,384 x 572,832
    ring = TruncatedRing(3, 5)
    b, q, p = 0, 1, 7
    pq = veronese_range_report(VeroneseParams(2, 5, b, q)).pq
    assert (pq.lo, pq.hi) == (1, 15)
    dims = [KoszulComplex(ring, b=b, field=prime).kpq_dim(p, q)
            for prime in (DEFAULT_PRIME, SECONDARY_PRIME)]
    assert dims == [417690, 417690]
    f = leftmost_monomial(2, 5, q, b)
    w = build_witness(f, p, zero_set(f, ring), divisor_set(f, ring),
                      VeroneseWitnessParams(n=2, d=5, b=b, q=q))
    assert verify_certificate(w).verdict
    cx = KoszulComplex(ring, b=b)
    assert cx.is_cycle(w, p, q)
    assert not cx.is_boundary(w, p, q)
