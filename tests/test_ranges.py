import dataclasses
from fractions import Fraction

import pytest

from kpq import acm, ranges, witness
from kpq.acm import hypersurface_spec, save_spec, veronese_spec
from kpq.cli import main
from kpq.combinatorics import binom
from kpq.errors import InadmissibleWeightError, InconsistencyError, ParameterError
from kpq.koszul import KoszulComplex
from kpq.ranges import (
    PQRange,
    VeroneseParams,
    acm_range,
    acm_range_improved,
    acm_range_report,
    admissible_q,
    asymptotic_coefficients,
    dual_params,
    normalize,
    veronese_range,
    veronese_range_report,
)


class TestNormalize:
    def test_identity_when_in_window(self):
        p = normalize(2, 5, 0, 2)
        assert (p.n, p.d, p.b, p.q, p.shift) == (2, 5, 0, 2, 0)

    def test_folds_down(self):
        p = normalize(2, 5, 5, 1)
        assert (p.b, p.q, p.shift) == (0, 2, 1)
        p = normalize(1, 3, 7, 0)
        assert (p.b, p.q, p.shift) == (1, 2, 2)

    def test_folds_up(self):
        p = normalize(2, 5, -2, 2)
        assert (p.b, p.q, p.shift) == (3, 1, -1)

    def test_rejects_d1(self):
        with pytest.raises(ParameterError):
            normalize(1, 1, 0, 0)

    def test_params_validation(self):
        with pytest.raises(ParameterError):
            VeroneseParams(n=0, d=3, b=0, q=1)
        with pytest.raises(ParameterError):
            VeroneseParams(n=1, d=3, b=3, q=1)
        with pytest.raises(ParameterError):
            VeroneseParams(n=1, d=3, b=-1, q=1)
        with pytest.raises(ParameterError, match="d must be >= 2, got 1"):
            VeroneseParams(n=1, d=1, b=0, q=0)


class TestPQRange:
    def test_interval_protocol(self):
        pq = PQRange(3, 5)
        assert not pq.empty
        assert len(pq) == 3
        assert list(pq) == [3, 4, 5]
        assert 3 in pq and 5 in pq and 6 not in pq

    def test_empty(self):
        pq = PQRange(6, 2)
        assert pq.empty
        assert len(pq) == 0
        assert list(pq) == []
        assert 4 not in pq


class TestAdmissibility:
    def test_window(self):
        assert admissible_q(VeroneseParams(2, 5, 0, 2))
        assert not admissible_q(VeroneseParams(2, 5, 0, 3))
        assert admissible_q(VeroneseParams(1, 2, 0, 1))
        assert not admissible_q(VeroneseParams(1, 2, 0, 2))
        assert not admissible_q(VeroneseParams(1, 2, 0, -1))

    def test_edge_is_admissible(self):
        # q*d exactly equal to (n+1)d - n - b
        assert admissible_q(VeroneseParams(2, 4, 2, 2))

    def test_inadmissible_raises_with_window(self):
        with pytest.raises(InadmissibleWeightError, match=r"outside \[0, n\+1-\(n\+b\)/d\]"):
            veronese_range_report(VeroneseParams(3, 2, 0, 3))


class TestVeroneseRange:
    def test_surface_row(self):
        for d in range(3, 11):
            pq = veronese_range(normalize(2, d, 0, 2))
            assert (pq.lo, pq.hi) == (3 * d - 2, binom(d + 2, 2) - 3)

    def test_frozen_instances(self):
        assert veronese_range(normalize(2, 5, 0, 2)) == PQRange(13, 18)
        assert veronese_range(normalize(2, 7, 0, 2)) == PQRange(19, 33)
        assert veronese_range(normalize(1, 3, 0, 1)) == PQRange(1, 2)
        assert veronese_range(normalize(3, 2, 0, 2)) == PQRange(6, 6)
        assert veronese_range(normalize(1, 2, 0, 1)) == PQRange(1, 1)

    def test_report_carries_both_derivations(self):
        rep = veronese_range_report(normalize(2, 5, 0, 2))
        assert (rep.m, rep.r) == (2, 2)
        assert rep.closed_form_asserted
        assert (rep.lo_closed_form, rep.hi_closed_form) == (13, 18)
        assert rep.counts is not None
        assert rep.counts.consistent

    def test_admissible_edge_gives_empty_interval(self):
        rep = veronese_range_report(VeroneseParams(2, 2, 0, 2))
        assert rep.pq.empty
        assert rep.counts is None
        assert (rep.pq.lo, rep.pq.hi) == (6, 2)

        rep = veronese_range_report(VeroneseParams(2, 4, 2, 2))
        assert rep.pq.empty
        assert (rep.pq.lo, rep.pq.hi) == (22, 11)

    def test_q0_is_single_point_at_b0(self):
        pq = veronese_range(normalize(2, 4, 0, 0))
        assert (pq.lo, pq.hi) == (0, 0)

    def test_interval_within_wedge_bounds(self):
        for n in (1, 2, 3):
            for d in (2, 3, 4):
                s_d = binom(n + d, n) - (n + 1)
                for q in range(0, n + 2):
                    params = VeroneseParams(n, d, 0, q)
                    if not admissible_q(params):
                        continue
                    pq = veronese_range(params)
                    if not pq.empty:
                        assert 0 <= pq.lo and pq.hi <= s_d


class TestDuality:
    def test_frozen_examples(self):
        dp = dual_params(VeroneseParams(3, 2, 0, 2), 6)
        assert dp.p_prime == 0
        assert (dp.params.q, dp.params.b) == (0, 0)
        assert dp.r_d == 9
        assert not dp.trivially_zero

        dp = dual_params(VeroneseParams(1, 2, 0, 1), 1)
        assert dp.p_prime == 0
        assert (dp.params.q, dp.params.b) == (0, 0)

        dp = dual_params(VeroneseParams(2, 3, 0, 1), 1)
        assert dp.p_prime == 6
        assert (dp.params.q, dp.params.b) == (1, 0)
        assert (dp.q_prime_raw, dp.b_prime_raw) == (2, -3)

    def test_trivially_zero_flag(self):
        dp = dual_params(VeroneseParams(2, 3, 0, 1), 8)
        assert dp.p_prime == -1
        assert dp.trivially_zero

    def test_involution(self):
        for n in (1, 2, 3):
            for d in (2, 3):
                for b in range(d):
                    for q in range(0, n + 2):
                        for p in range(0, 6):
                            params = VeroneseParams(n, d, b, q)
                            dp = dual_params(params, p)
                            back = dual_params(dp.params, dp.p_prime)
                            assert back.p_prime == p
                            assert (back.params.b, back.params.q) == (b, q)


class TestACMRange:
    def test_fermat_cubic_frozen(self):
        spec = hypersurface_spec(3, 5)
        assert acm_range(spec, 8, 0, 3) == PQRange(540, 1005)
        assert acm_range_improved(spec, 8, 0, 3) == PQRange(415, 1005)

    def test_quadric_frozen(self):
        spec = hypersurface_spec(2, 3)
        assert acm_range(spec, 3, 0, 1) == PQRange(4, 6)
        assert acm_range_improved(spec, 3, 0, 1) == PQRange(3, 6)
        assert acm_range(spec, 4, 0, 1) == PQRange(4, 13)

    def test_extreme_weights(self):
        spec = hypersurface_spec(2, 3)
        with pytest.raises(ParameterError, match=r"q must lie in \[1, 2\]"):
            acm_range(spec, 3, 0, 0)
        pq = acm_range(spec, 4, 0, 2)
        assert (pq.lo, pq.hi) == (30, 17)
        pq = acm_range(spec, 10, 0, 2)
        assert (pq.lo, pq.hi) == (66, 113)
        assert not pq.empty

    def test_window_preconditions(self):
        spec = hypersurface_spec(2, 3)
        with pytest.raises(ParameterError, match="d >= b \\+ q \\+ c \\+ 1"):
            acm_range(spec, 3, 0, 2)
        with pytest.raises(ParameterError, match="q must lie"):
            acm_range(spec, 8, 0, 3)
        with pytest.raises(ParameterError, match="b must be"):
            acm_range(spec, 8, -1, 1)
        with pytest.raises(ParameterError, match="refined lower endpoint"):
            acm_range_improved(spec, 8, 0, 2)
        with pytest.raises(ParameterError, match="1 <= q <= n"):
            acm_range_improved(spec, 8, 0, 0)

    def test_improved_never_worse(self):
        fermat = hypersurface_spec(3, 5)
        quadric = hypersurface_spec(2, 3)
        cases = [(fermat, d, b, q) for d in (8, 9, 10) for b in (0, 1)
                 for q in (1, 2, 3)] + [(quadric, d, 0, 1) for d in (3, 4, 5, 6)]
        for spec, d, b, q in cases:
            if d < b + q + spec.c + 1:
                continue
            coarse = acm_range(spec, d, b, q)
            improved = acm_range_improved(spec, d, b, q)
            assert improved.lo <= coarse.lo
            assert improved.hi == coarse.hi

    def test_degree_one_collapses_to_plain_endpoint(self):
        spec = veronese_spec(2)
        for d in (3, 4, 5, 6):
            improved = acm_range_improved(spec, d, 0, 1)
            plain = veronese_range(normalize(2, d, 0, 1))
            assert improved.lo == plain.lo

    def test_report_witness_interval_contains_theorem_interval(self):
        for spec, d, b, q in [
            (hypersurface_spec(3, 5), 8, 0, 3),
            (hypersurface_spec(2, 3), 3, 0, 1),
            (hypersurface_spec(2, 3), 5, 1, 1),
        ]:
            rep = acm_range_report(spec, d, b, q)
            assert rep.witness_interval.lo <= rep.pq.lo
            assert rep.witness_interval.hi >= rep.pq.hi
            if rep.improved is not None:
                assert rep.witness_interval.lo <= rep.improved.lo
            assert rep.z_complement == rep.invariants.r_bar_d - rep.witness_interval.hi

    @pytest.mark.parametrize("call", [acm_range, acm_range_improved, acm_range_report])
    def test_weight_zero_refused(self, call):
        with pytest.raises(ParameterError, match=r"q must lie in \[1, 1\] \(ACM weights "
                                                 r"are 1 <= q <= n\), got 0"):
            call(hypersurface_spec(2, 2), 4, 0, 0)

    @pytest.mark.parametrize("d, b, withdrawn, dims", [
        (4, 0, PQRange(0, 1), [1, 0, 0]),
        (5, 1, PQRange(0, 3), [3, 20, 45, 0, 0]),
    ])
    def test_oracle_refutes_the_withdrawn_weight_zero_interval(self, d, b, withdrawn, dims):
        # [0, r'_d - (d-b) C(n-1+d, n-1)] was once certified at q = 0; on the
        # conic the oracle reads 0 at its upper end
        cx = KoszulComplex(hypersurface_spec(2, 2), d=d, b=b)
        assert [cx.kpq_dim(p, 0) for p in range(len(dims))] == dims
        assert cx.kpq_dim(withdrawn.hi, 0) == 0


class TestACMContainmentAlarms:
    """acm_range_report referees its interval against the enumerated witness
    interval [|E_f|, |Z_f|]; a breach is an inconsistency, exit 4 on the
    command line."""

    @pytest.mark.parametrize("owner, name, fake, message", [
        (witness, "acm_e_bounds", lambda real: lambda *args: (2, real(*args)[1]),
         r"the lower endpoint 2 lies below \|E_f\| = 3"),
        (witness, "acm_e_bounds", lambda real: lambda *args: (real(*args)[0], 2),
         r"the refined lower endpoint 2 lies below \|E_f\| = 3"),
        (acm, "invariants", lambda real: lambda spec, d: dataclasses.replace(
            real(spec, d), r_d_prime=real(spec, d).r_d_prime + 5),
         r"the upper endpoint 11 lies above \|Z_f\| = 10"),
        (witness, "mixed_cap_dim", lambda real: lambda caps, k: 0,
         r"per-Lambda dimensions \[0, 0\] do not add up to \|E_f\| = 3"),
    ], ids=["lower-endpoint", "refined-lower-endpoint", "upper-endpoint", "per-lambda-dims"])
    def test_breach_exits_4(self, monkeypatch, capsys, tmp_path, owner, name, fake, message):
        spec = hypersurface_spec(2, 3)
        path = str(tmp_path / "quadric.json")
        save_spec(spec, path)
        monkeypatch.setattr(owner, name, fake(getattr(owner, name)))
        with pytest.raises(InconsistencyError, match=message):
            acm_range_report(spec, 3, 0, 1)
        assert main(["range", "--acm", path, "--d", "3", "--q", "1"]) == 4
        assert capsys.readouterr().err.startswith("inconsistency: ")


def _count_calls(monkeypatch, targets):
    """Wrap each (module, name) so that its calls are counted under 'module.name'."""
    counts = {}
    for owner, name in targets:
        key = f"{owner.__name__.rsplit('.', 1)[-1]}.{name}"
        counts[key] = 0
        real = getattr(owner, name)

        def counted(*args, _real=real, _key=key, **kwargs):
            counts[_key] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return counts


class TestOneDerivationPerReport:
    """Each interval quantity is derived once per report; every name is
    wrapped in the module that looks it up."""

    @pytest.mark.parametrize("spec, d, b, q", [
        (hypersurface_spec(2, 3), 3, 0, 1),
        (hypersurface_spec(2, 3), 4, 0, 2),
        (hypersurface_spec(3, 5), 8, 0, 3),
    ])
    def test_acm_report(self, monkeypatch, spec, d, b, q):
        counts = _count_calls(monkeypatch, [
            (ranges, "_check_acm_window"), (acm, "invariants"), (witness, "acm_e_bounds")])
        acm_range_report(spec, d, b, q)
        assert counts == {"ranges._check_acm_window": 1, "acm.invariants": 1,
                          "witness.acm_e_bounds": 1}

    @pytest.mark.parametrize("params", [VeroneseParams(2, 5, 0, 2), VeroneseParams(2, 2, 0, 2)],
                             ids=["witness-monomial", "past-the-top-degree"])
    def test_veronese_report(self, monkeypatch, params):
        counts = _count_calls(monkeypatch, [
            (witness, "closed_forms"), (ranges, "quot_rem_by_dm1"), (witness, "quot_rem_by_dm1")])
        veronese_range_report(params)
        assert counts.pop("witness.closed_forms") == 1
        assert sum(counts.values()) == 1


class TestAsymptotics:
    def test_plain_interval(self):
        ac = asymptotic_coefficients(3, 2, 0)
        assert (ac.lower_coeff, ac.lower_power) == (Fraction(3), 1)
        assert (ac.deficit_coeff, ac.deficit_power) == (Fraction(1), 1)

    def test_plain_q1_constant_endpoint(self):
        ac = asymptotic_coefficients(3, 1, 0)
        assert (ac.lower_coeff, ac.lower_power) == (Fraction(1), 0)
        assert (ac.deficit_coeff, ac.deficit_power) == (Fraction(1, 2), 2)
        ac = asymptotic_coefficients(4, 1, 2)
        assert (ac.lower_coeff, ac.lower_power) == (Fraction(3), 0)

    def test_acm_interval(self):
        ac = asymptotic_coefficients(4, 2, 1, deg_x=3)
        assert (ac.lower_coeff, ac.lower_power) == (Fraction(12), 1)
        assert (ac.deficit_coeff, ac.deficit_power) == (Fraction(3), 2)

    def test_window(self):
        with pytest.raises(ParameterError):
            asymptotic_coefficients(2, 0, 0)
        with pytest.raises(ParameterError):
            asymptotic_coefficients(2, 2, 0)
        with pytest.raises(ParameterError):
            asymptotic_coefficients(3, 1, -1)
        with pytest.raises(ParameterError):
            asymptotic_coefficients(3, 1, 0, deg_x=0)


@pytest.mark.parametrize("call", [
    lambda: veronese_range(VeroneseParams(1.5, 3, 0, 1)),
    lambda: VeroneseParams(2, 3.0, 0, 1),
    lambda: VeroneseParams(2, 3, 0.0, 1),
    lambda: VeroneseParams(2, 3, 0, 1.0),
    lambda: VeroneseParams(2, 3, 0, 1, shift=0.0),
    lambda: veronese_range(normalize(2, 3, 0, 1.0)),
    lambda: normalize(2, 3.0, 0, 1),
    lambda: normalize(2, 3, 0, "1"),
    lambda: dual_params(VeroneseParams(2, 3, 0, 1), 1.5),
    lambda: acm_range(hypersurface_spec(2, 3), 5, 0, 1.0),
    lambda: acm_range_improved(hypersurface_spec(3, 2), 5, 0.0, 1),
    lambda: acm_range_report(hypersurface_spec(2, 3), 5, 0, 1.0),
    lambda: asymptotic_coefficients(3, 1.5, 0),
    lambda: asymptotic_coefficients(3.0, 1, 0),
    lambda: asymptotic_coefficients(3, 1, 0.0),
    lambda: asymptotic_coefficients(4, 2, 1, deg_x=3.0),
], ids=["range-float-n", "params-float-d", "params-float-b", "params-float-q",
        "params-float-shift", "normalize-float-q", "normalize-float-d",
        "normalize-str-q", "dual-float-p", "acm-float-q", "acm-improved-float-b",
        "acm-report-float-q", "asym-float-q", "asym-float-n", "asym-float-b",
        "asym-float-deg-x"])
def test_non_integer_parameters_refused(call):
    # each of these was once accepted as it stood, raised TypeError, or
    # returned a non-integer p'
    with pytest.raises(ParameterError, match="must be an integer"):
        call()


class TestClosedFormAlarms:
    """veronese_range_report cross-checks the closed forms; a wrong one is an
    inconsistency, exit 4 on the command line."""

    def test_nonempty_interval_past_the_top_degree(self, monkeypatch):
        monkeypatch.setattr(witness, "closed_forms", lambda n, d, m, r: (0, 5))
        with pytest.raises(InconsistencyError, match=r"past the top degree, got \[0, 5\]"):
            veronese_range_report(VeroneseParams(2, 2, 0, 2))

    def test_closed_forms_that_disagree_with_the_counts(self, monkeypatch, capsys):
        real = witness.closed_forms
        monkeypatch.setattr(witness, "closed_forms",
                            lambda *args: (real(*args)[0] + 1, real(*args)[1]))
        with pytest.raises(InconsistencyError, match=r"closed-form endpoints \[14, 18\] "
                                                     r"disagree with counting forms \[13, 18\]"):
            veronese_range_report(normalize(2, 5, 0, 2))
        assert main(["range", "--n", "2", "--d", "5", "--q", "2"]) == 4
        assert capsys.readouterr().err.startswith("inconsistency: closed-form endpoints")
