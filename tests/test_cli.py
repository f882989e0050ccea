import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from kpq.acm import hypersurface_spec, save_spec, spec_to_json
from kpq.cli import main, parse_grid
from kpq.errors import ParameterError
from kpq.koszul import SparseMatrix


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestRangeCommand:
    def test_plain_range(self, capsys):
        doc = run_json(capsys, "range", "--n", "2", "--d", "7", "--q", "2")
        assert (doc["lo"], doc["hi"]) == (19, 33)
        assert doc["empty"] is False
        assert (doc["divisor_count"], doc["annihilator_count"]) == (19, 33)
        assert doc["closed_form_asserted"] is True
        assert doc["ring"] == "projective-space"

    def test_twist_normalization_reported(self, capsys):
        doc = run_json(capsys, "range", "--n", "2", "--d", "5", "--b", "5", "--q", "1")
        assert (doc["b_input"], doc["q_input"]) == (5, 1)
        assert (doc["b"], doc["q"], doc["shift"]) == (0, 2, 1)
        assert (doc["lo"], doc["hi"]) == (13, 18)

    def test_surface_preset(self, capsys):
        doc = run_json(capsys, "range", "--preset", "op-surface-d5")
        assert (doc["lo"], doc["hi"]) == (13, 18)

    def test_cubic_preset(self, capsys):
        doc = run_json(capsys, "range", "--preset", "fermat-cubic-p5")
        assert doc["ring"] == "acm"
        assert (doc["lo"], doc["hi"]) == (540, 1005)
        assert doc["e_count"] == 301
        assert doc["z_complement"] == 14
        assert doc["z_count"] == 1016
        assert doc["r_bar_d"] == 1030
        assert doc["improved_lo"] == 415

    def test_acm_file(self, capsys, tmp_path):
        path = str(tmp_path / "quadric.json")
        save_spec(hypersurface_spec(2, 3), path)
        doc = run_json(capsys, "range", "--acm", path, "--d", "3", "--q", "1")
        assert (doc["lo"], doc["hi"]) == (4, 6)
        assert (doc["witness_lo"], doc["witness_hi"]) == (3, 10)

    def test_unknown_preset_exits_2(self, capsys):
        code, _, err = run(capsys, "range", "--preset", "nope")
        assert code == 2
        assert "unknown preset" in err

    def test_inadmissible_exits_2(self, capsys):
        code, _, err = run(capsys, "range", "--n", "3", "--d", "2", "--q", "3")
        assert code == 2
        assert "outside [0, n+1-(n+b)/d]" in err

    def test_missing_arguments_exit_2(self, capsys):
        code, _, err = run(capsys, "range", "--n", "2")
        assert code == 2
        assert "needs" in err

    def test_table_format(self, capsys):
        code, out, _ = run(capsys, "range", "--n", "2", "--d", "5", "--q", "2",
                           "--format", "table")
        assert code == 0
        assert "nonvanishing interval for K_p,q: [13, 18]" in out

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "range", "--n", "2", "--d", "5", "--q", "2",
                           "--format", "csv")
        assert code == 0
        rows = dict(line.split(",", 1) for line in out.strip().splitlines())
        assert rows["lo"] == "13"
        assert rows["hi"] == "18"

    def test_json_output_is_byte_stable(self, capsys):
        _, out1, _ = run(capsys, "range", "--preset", "fermat-cubic-p5")
        _, out2, _ = run(capsys, "range", "--preset", "fermat-cubic-p5")
        assert out1 == out2
        assert out1.endswith("\n")
        doc = json.loads(out1)
        assert list(doc.keys()) == sorted(doc.keys())

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "range.json"
        code, out, _ = run(capsys, "range", "--n", "2", "--d", "5", "--q", "2",
                           "--out", str(path))
        assert code == 0
        assert out == ""
        assert json.loads(path.read_text())["lo"] == 13


class TestWitnessCommand:
    def test_certificate_tier(self, capsys):
        doc = run_json(capsys, "witness", "--n", "2", "--d", "5", "--q", "2",
                       "--p", "13")
        assert doc["verify_tier"] == "certificate"
        assert doc["certificate"]["verdict"] is True
        assert all(doc["certificate"]["checks"].values())
        assert doc["witness"].count("\n") == 14  # 13 factors + coefficient line
        assert doc["coefficient"] == "4 4 2"

    def test_none_tier_skips_checks(self, capsys):
        doc = run_json(capsys, "witness", "--n", "2", "--d", "5", "--q", "2",
                       "--p", "18", "--verify", "none")
        assert "certificate" not in doc
        assert "oracle" not in doc

    def test_exhaustive_tier(self, capsys):
        doc = run_json(capsys, "witness", "--n", "1", "--d", "3", "--q", "1",
                       "--p", "2", "--verify", "exhaustive")
        assert doc["certificate"]["verdict"] is True
        assert doc["oracle"]["is_cycle"] is True
        assert doc["oracle"]["is_boundary"] is False
        assert doc["oracle"]["prime"] == 32003

    def test_p_outside_interval_exits_2(self, capsys):
        code, _, err = run(capsys, "witness", "--n", "2", "--d", "5", "--q", "2",
                           "--p", "12")
        assert code == 2
        assert "outside the witness interval [13, 18]" in err

    def test_tiny_budget_exits_3(self, capsys):
        code, _, err = run(capsys, "witness", "--n", "2", "--d", "5", "--q", "2",
                           "--p", "13", "--verify", "exhaustive", "--budget", "10")
        assert code == 3
        assert "budget is 10" in err

    def test_prime_override(self, capsys):
        doc = run_json(capsys, "witness", "--n", "1", "--d", "3", "--q", "1",
                       "--p", "1", "--verify", "exhaustive", "--prime", "1000003")
        assert doc["oracle"]["prime"] == 1000003

    def test_bad_prime_exits_2(self, capsys):
        code, _, err = run(capsys, "witness", "--n", "1", "--d", "3", "--q", "1",
                           "--p", "1", "--prime", "6")
        assert code == 2


class TestBettiCommand:
    def test_plain_rows(self, capsys):
        doc = run_json(capsys, "betti", "--n", "1", "--d", "3")
        assert doc["p_range"] == [0, 2]
        assert doc["q_range"] == [0, 2]
        rows = {row["q"]: row["dims"] for row in doc["rows"]}
        assert rows[0] == [1, 0, 0]
        assert rows[1] == [0, 3, 2]
        assert rows[2] == [0, 0, 0]
        assert doc["errors"] == []
        assert doc["prime"] == 32003

    def test_explicit_spans(self, capsys):
        doc = run_json(capsys, "betti", "--n", "3", "--d", "2",
                       "--q-range", "2:2", "--p-range", "4:6")
        assert doc["rows"] == [{"q": 2, "dims": [0, 0, 1]}]

    def test_acm_rows_match_veronese(self, capsys, tmp_path):
        path = str(tmp_path / "conic.json")
        save_spec(hypersurface_spec(2, 2), path)
        acm = run_json(capsys, "betti", "--acm", path, "--d", "2",
                       "--q-range", "1:1")
        plain = run_json(capsys, "betti", "--n", "1", "--d", "4",
                         "--q-range", "1:1")
        assert acm["rows"][0]["dims"] == plain["rows"][0]["dims"] == [0, 6, 8, 3]

    def test_table_marks_zeros(self, capsys):
        code, out, _ = run(capsys, "betti", "--n", "1", "--d", "3",
                           "--format", "table")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split() == ["q\\p", "0", "1", "2"]
        assert lines[1].split() == ["0", "1", ".", "."]
        assert lines[2].split() == ["1", ".", "3", "2"]

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "betti", "--n", "1", "--d", "3",
                           "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "q\\p,0,1,2"
        assert lines[2] == "1,.,3,2"

    def test_budget_marks_cells(self, capsys):
        doc = run_json(capsys, "betti", "--n", "2", "--d", "4", "--budget", "2000")
        assert doc["errors"]
        skipped = {(e["q"], e["p"]) for e in doc["errors"]}
        for row in doc["rows"]:
            for i, v in enumerate(row["dims"]):
                assert (v is None) == ((row["q"], i + doc["p_range"][0]) in skipped)

    def test_bad_span_exits_2(self, capsys):
        code, _, err = run(capsys, "betti", "--n", "1", "--d", "3",
                           "--q-range", "2-3")
        assert code == 2
        assert "a:b" in err

    def test_dump_dir_round_trips(self, capsys, tmp_path):
        dump = tmp_path / "mats"
        doc = run_json(capsys, "betti", "--n", "1", "--d", "3",
                       "--q-range", "1:1", "--dump-dir", str(dump))
        assert doc["rows"][0]["dims"] == [0, 3, 2]
        files = sorted(f.name for f in dump.iterdir())
        assert files == ["dp_b0_q1_p0.txt", "dp_b0_q1_p1.txt", "dp_b0_q1_p2.txt"]
        for name in files:
            mat = SparseMatrix.from_triplet_text((dump / name).read_text())
            assert mat.modulus == 32003

    def test_dump_dir_keeps_rows_aligned(self, capsys, tmp_path):
        argv = ("betti", "--n", "2", "--d", "4", "--q-range", "2:2", "--p-range", "10:12",
                "--budget", "200")
        plain = run_json(capsys, *argv)
        dumped = run_json(capsys, *argv, "--dump-dir", str(tmp_path))
        assert plain["rows"] == dumped["rows"] == [{"q": 2, "dims": [None, 24, 3]}]
        assert plain["errors"] == dumped["errors"]
        assert [e["p"] for e in dumped["errors"]] == [10]
        assert sorted(f.name for f in tmp_path.iterdir()) == [
            "dp_b0_q2_p11.txt", "dp_b0_q2_p12.txt"]


class TestGridParsing:
    def test_explicit_grid(self):
        assert parse_grid("n<=2,d<=3") == [(1, 2), (1, 3), (2, 2), (2, 3)]
        assert parse_grid("n=3,d=2") == [(3, 2)]
        assert parse_grid("n<=2,d<=3;n=3,d=2") == [
            (1, 2), (1, 3), (2, 2), (2, 3), (3, 2)]
        assert parse_grid("n == 2, d == 5") == [(2, 5)]

    def test_tiny_alias(self):
        assert parse_grid("tiny") == parse_grid("n<=2,d<=3")

    def test_duplicates_collapse(self):
        assert parse_grid("n=2,d=2;n=2,d=2") == [(2, 2)]

    def test_errors(self):
        with pytest.raises(ParameterError, match="cannot parse"):
            parse_grid("n<=2,k<=3")
        with pytest.raises(ParameterError, match="must bound both"):
            parse_grid("n<=2")
        with pytest.raises(ParameterError, match="cannot parse"):
            parse_grid("n>=2,d<=3")


class TestSweepCommand:
    def test_ranges_sweep_two_primes(self, capsys):
        doc = run_json(capsys, "sweep", "--check", "ranges", "--grid", "n=1,d<=3",
                       "--primes", "32003,1000003")
        assert doc["verdict"] == "pass"
        assert doc["failures"] == []
        assert doc["checked"] > 0
        assert doc["primes"] == [32003, 1000003]
        assert doc["grid"] == [{"n": 1, "d": 2}, {"n": 1, "d": 3}]

    def test_ranges_sweep_records_boundaries(self, capsys):
        doc = run_json(capsys, "sweep", "--check", "ranges", "--grid", "n=1,d=3")
        cell = doc["cells"][0]
        assert cell["boundaries"]
        assert all(obs["dim"] == 0 for obs in cell["boundaries"])

    def test_duality_sweep(self, capsys):
        doc = run_json(capsys, "sweep", "--check", "duality", "--grid", "n=2,d=2")
        assert doc["verdict"] == "pass"
        assert doc["checked"] > 0

    def test_shift_sweep(self, capsys):
        doc = run_json(capsys, "sweep", "--check", "shift", "--grid", "tiny")
        assert doc["verdict"] == "pass"

    def test_asymptotics_sweep(self, capsys):
        doc = run_json(capsys, "sweep", "--check", "asymptotics", "--grid",
                       "n=4,d=2")
        assert doc["verdict"] == "pass"
        cell = doc["cells"][0]
        assert cell["checked"] > 0

    def test_bad_grid_exits_2(self, capsys):
        code, _, err = run(capsys, "sweep", "--check", "ranges", "--grid", "bogus")
        assert code == 2

    def test_bad_prime_list_exits_2(self, capsys):
        code, _, err = run(capsys, "sweep", "--check", "ranges", "--grid",
                           "n=1,d=2", "--primes", "32003,4")
        assert code == 2


class TestEnvironment:
    def test_env_prime_honored(self, capsys, monkeypatch):
        monkeypatch.setenv("KPQ_PRIME", "1000003")
        doc = run_json(capsys, "betti", "--n", "1", "--d", "3", "--q-range", "1:1")
        assert doc["prime"] == 1000003

    def test_env_prime_overridden_by_flag(self, capsys, monkeypatch):
        monkeypatch.setenv("KPQ_PRIME", "1000003")
        doc = run_json(capsys, "betti", "--n", "1", "--d", "3", "--q-range", "1:1",
                       "--prime", "32003")
        assert doc["prime"] == 32003

    def test_bad_env_prime_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("KPQ_PRIME", "6")
        code, _, err = run(capsys, "betti", "--n", "1", "--d", "3")
        assert code == 2

    def test_unknown_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


def _relation_doc():
    return {"schema_version": 1, "name": "conic", "n": 1,
            "lambda": [{"degree": 0}, {"degree": 1}],
            "relation": {"degree": 2, "monic": True,
                         "coefficients": [[{"coeff": 1, "x_exponents": [2, 0]}], []]}}


def _negative_lambda(doc):
    # with t^2 = 0 every table entry stays degree-preserving
    doc["lambda"][1] = {"degree": -1}
    doc["table"][2]["terms"] = []


def _relation_without_degree(doc):
    del doc["table"]
    doc["relation"] = _relation_doc()["relation"]
    del doc["relation"]["degree"]


# each breaks one spec document in one way; all must be refused with exit 2
BAD_SPECS = {
    "lambda-key": lambda doc: doc["lambda"].__setitem__(0, {"deg": 0}),
    "lambda-type": lambda doc: doc["lambda"].__setitem__(1, {"degree": "1"}),
    "lambda-negative": _negative_lambda,
    "no-i": lambda doc: doc["table"][0].pop("i"),
    "no-j": lambda doc: doc["table"][0].pop("j"),
    "no-coeff": lambda doc: doc["table"][0]["terms"][0].pop("coeff"),
    "no-x-exponents": lambda doc: doc["table"][0]["terms"][0].pop("x_exponents"),
    "x-exponents-type": lambda doc: doc["table"][0]["terms"][0].update(x_exponents=3),
    "n-type": lambda doc: doc.update(n="2"),
    "table-type": lambda doc: doc.update(table={"i": 0}),
    "entry-type": lambda doc: doc["table"].__setitem__(0, [0, 0]),
    "index-range": lambda doc: doc["table"][0].update(i=9),
    "relation-no-degree": _relation_without_degree,
}


# options with values for the argv fuzz; --out and --dump-dir are left out so that
# no example writes into the working directory (their exit codes have tests of their own)
SMALL_INTS = ("-1", "0", "1", "2", "3")
ARGV_OPTIONS = {
    "--n": SMALL_INTS, "--d": SMALL_INTS, "--b": SMALL_INTS, "--q": SMALL_INTS,
    "--p": SMALL_INTS + ("6",),
    "--prime": ("3", "4", "32003", "abc"), "--primes": ("32003,5", "32003,4", ""),
    "--format": ("json", "csv", "table"),
    "--check": ("ranges", "duality", "shift", "asymptotics", "bogus"),
    "--grid": ("tiny", "n=1,d=2", "n<=2,d<=3", "n=4,d=2", "bogus"),
    "--verify": ("none", "certificate", "exhaustive"),
    "--q-range": ("0:2", "1:1", "2:1", "x"), "--p-range": ("0:3", "2:6", "3:2", "x"),
    "--preset": ("op-surface-d5", "fermat-cubic-p5", "bogus"),
    "--acm": ("absent.json",),
}
argv_options = st.sampled_from(sorted(ARGV_OPTIONS)).flatmap(
    lambda flag: st.tuples(st.just(flag), st.sampled_from(ARGV_OPTIONS[flag])))


class TestExitCodes:
    @given(st.sampled_from(["range", "witness", "betti", "sweep", "bogus"]),
           st.lists(argv_options, max_size=6),
           st.lists(st.sampled_from(["-h", "--n", "2", "--budget"]), max_size=1))
    @settings(max_examples=150, deadline=None)
    def test_random_argv_exits_with_a_documented_code(self, command, options, stray):
        # a low budget keeps every oracle call small
        argv = [command, *(t for pair in options for t in pair), *stray, "--budget", "500"]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse: 2 on a usage error, 0 after -h
                code = exc.code
        assert code in (0, 2, 3, 4), argv

    @pytest.mark.parametrize("breakage", sorted(BAD_SPECS))
    def test_malformed_spec_exits_2(self, capsys, tmp_path, breakage):
        doc = spec_to_json(hypersurface_spec(2, 3))
        BAD_SPECS[breakage](doc)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "range", "--acm", str(path), "--d", "3", "--q", "1")
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize("breakage", ["no-coeff", "coeff-type", "list-type"])
    def test_malformed_relation_exits_2(self, capsys, tmp_path, breakage):
        doc = _relation_doc()
        terms = doc["relation"]["coefficients"]
        if breakage == "no-coeff":
            terms[0][0].pop("coeff")
        elif breakage == "coeff-type":
            terms[0][0]["coeff"] = "1"
        else:
            terms[1] = {"coeff": 1}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "betti", "--acm", str(path), "--d", "2")
        assert code == 2
        assert err.startswith("error:")

    def test_missing_spec_file_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "range", "--acm", str(tmp_path / "absent.json"),
                           "--d", "3", "--q", "1")
        assert code == 2
        assert "cannot read" in err

    @pytest.mark.parametrize("value", ["abc", "", "3.5", "32003x", "4294967311"])
    def test_unusable_env_prime_exits_2(self, capsys, monkeypatch, value):
        monkeypatch.setenv("KPQ_PRIME", value)
        code, _, err = run(capsys, "betti", "--n", "1", "--d", "2")
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize("argv", [
        ("sweep", "--check", "ranges", "--grid", "n=1,d=2", "--primes", "32003,abc"),
        ("betti", "--n", "1", "--d", "2", "--prime", "4294967311"),
        ("betti", "--n", "1", "--d", "2", "--prime", str(10**18 + 9)),
    ])
    def test_unusable_prime_exits_2(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize("option", ["--out", "--dump-dir"])
    def test_unwritable_output_path_exits_2(self, capsys, tmp_path, option):
        regular_file = tmp_path / "file"
        regular_file.write_text("")
        target = {"--out": tmp_path / "missing_dir" / "x.json",
                  "--dump-dir": regular_file / "mats"}[option]
        code, _, err = run(capsys, "betti", "--n", "1", "--d", "2", option, str(target))
        assert code == 2
        assert err.startswith("error:")
