import copy
import json

import pytest
from hypothesis import given, settings, strategies as st

from kpq.acm import (
    SCHEMA_VERSION,
    ACMMonomial,
    ACMSpec,
    basis,
    fermat_A_dims,
    hypersurface_spec,
    invariants,
    load_spec,
    reduce_product,
    save_spec,
    spec_from_json,
    spec_to_json,
    veronese_spec,
)
from kpq.combinatorics import Monomial, TruncatedRing, enumerate_monomials, mul_truncated
from kpq.errors import ACMSpecError, ParameterError


def quadric_surface():
    return hypersurface_spec(2, 3)


def fermat_cubic():
    return hypersurface_spec(3, 5)


class TestHypersurfaceSpec:
    def test_fermat_quadric_table(self):
        spec = quadric_surface()
        assert spec.name == "fermat-2-p3"
        assert spec.n == 2
        assert spec.lambda_degrees == (0, 1)
        assert spec.deg_x == 2
        assert spec.c == 1
        assert spec.unit_index == 0
        assert spec.product_terms(0, 0) == ((1, (0, 0, 0), 0),)
        assert spec.product_terms(0, 1) == ((1, (0, 0, 0), 1),)
        # t^2 rewrites to -(x0^2 + x1^2 + x2^2)
        assert spec.product_terms(1, 1) == (
            (-1, (0, 0, 2), 0),
            (-1, (0, 2, 0), 0),
            (-1, (2, 0, 0), 0),
        )

    def test_fermat_cubic_shape(self):
        spec = fermat_cubic()
        assert spec.name == "fermat-3-p5"
        assert spec.n == 4
        assert spec.lambda_degrees == (0, 1, 2)
        assert spec.deg_x == 3
        # t^2 * t^2 = t * t^3 = -t(x0^3 + ... + x4^3)
        assert spec.product_terms(2, 2) == tuple(
            (-1, exp, 1)
            for exp in sorted(
                tuple(3 if i == j else 0 for i in range(5)) for j in range(5)
            )
        )

    def test_product_is_symmetric_lookup(self):
        spec = fermat_cubic()
        assert spec.product_terms(2, 1) == spec.product_terms(1, 2)

    def test_rejects_degenerate_parameters(self):
        with pytest.raises(ParameterError):
            hypersurface_spec(1, 3)
        with pytest.raises(ParameterError):
            hypersurface_spec(2, 1)

    def test_custom_relation(self):
        # t^2 = -x0^2 - x1^2 on the conic in P^2
        spec = hypersurface_spec(2, 2, relation=[[(1, (2, 0)), (1, (0, 2))], []])
        assert spec.name == "hypersurface-2-p2"
        assert spec.product_terms(1, 1) == ((-1, (0, 2), 0), (-1, (2, 0), 0))

    def test_custom_relation_with_linear_term(self):
        # t^2 = -x0 x1 - x0 t  (still monic, mixed coefficients)
        spec = hypersurface_spec(2, 2, relation=[[(1, (1, 1))], [(1, (1, 0))]])
        assert spec.product_terms(1, 1) == ((-1, (1, 1), 0), (-1, (1, 0), 1))

    def test_relation_validation(self):
        with pytest.raises(ACMSpecError):
            hypersurface_spec(2, 2, relation=[[(1, (2, 0))]])  # wrong length
        with pytest.raises(ACMSpecError):
            # coefficient of t^0 must have degree 2
            hypersurface_spec(2, 2, relation=[[(1, (1, 0))], []])
        with pytest.raises(ACMSpecError):
            hypersurface_spec(2, 2, relation=[[(1, (2, 0, 0))], []])  # wrong arity

    def test_cancelling_relation_terms_drop_out(self):
        spec = hypersurface_spec(
            2, 2, relation=[[(1, (2, 0)), (-1, (2, 0)), (1, (0, 2))], []]
        )
        assert spec.product_terms(1, 1) == ((-1, (0, 2), 0),)


class TestSpecValidation:
    def test_missing_table_pair(self):
        with pytest.raises(ACMSpecError, match="missing"):
            ACMSpec(name="bad", n=1, lambda_degrees=(0, 1),
                    table=(((0, 0), ((1, (0, 0), 0),)),))

    def test_zero_coefficient(self):
        with pytest.raises(ACMSpecError, match="zero coefficient"):
            ACMSpec(name="bad", n=1, lambda_degrees=(0,),
                    table=(((0, 0), ((0, (0, 0), 0),)),))

    def test_degree_preservation(self):
        with pytest.raises(ACMSpecError, match="degree-preserving"):
            ACMSpec(name="bad", n=1, lambda_degrees=(0,),
                    table=(((0, 0), ((1, (1, 0), 0),)),))

    def test_lambda_index_bounds(self):
        with pytest.raises(ACMSpecError, match="Lambda index"):
            ACMSpec(name="bad", n=1, lambda_degrees=(0,),
                    table=(((0, 0), ((1, (0, 0), 3),)),))

    def test_unit_required(self):
        with pytest.raises(ACMSpecError, match="unit"):
            ACMSpec(name="bad", n=1, lambda_degrees=(1,),
                    table=(((0, 0), ((1, (2, 0), 0),)),))


class TestInvariants:
    def test_fermat_cubic_d8(self):
        inv = invariants(fermat_cubic(), 8)
        assert inv.deg_x == 3
        assert inv.c == 2
        assert inv.r_d == 1035
        assert inv.r_d_prime == 1020
        assert inv.r_bar_d == 1030

    def test_quadric_d3(self):
        inv = invariants(quadric_surface(), 3)
        assert (inv.r_d, inv.r_d_prime, inv.r_bar_d) == (16, 10, 13)

    def test_projective_space_matches_plain_ring(self):
        spec = veronese_spec(2)
        inv = invariants(spec, 5)
        assert inv.deg_x == 1
        assert inv.r_d == 21
        assert inv.r_bar_d == 18
        assert inv.r_d_prime == 21 - 3

    def test_rejects_bad_d(self):
        with pytest.raises(ParameterError):
            invariants(quadric_surface(), 0)


class TestReduceProduct:
    def test_plain_x_parts_multiply(self):
        spec = quadric_surface()
        a = ACMMonomial((1, 0, 0), 0)
        b = ACMMonomial((0, 1, 1), 0)
        assert reduce_product(a, b, spec, 3) == [(1, ACMMonomial((1, 1, 1), 0))]

    def test_cap_kills_x_overflow(self):
        spec = quadric_surface()
        a = ACMMonomial((2, 0, 0), 0)
        assert reduce_product(a, a, spec, 3) == []

    def test_rewrite_with_signs(self):
        spec = quadric_surface()
        t = ACMMonomial((0, 0, 0), 1)
        got = reduce_product(t, t, spec, 3)
        assert got == [
            (-1, ACMMonomial((0, 0, 2), 0)),
            (-1, ACMMonomial((0, 2, 0), 0)),
            (-1, ACMMonomial((2, 0, 0), 0)),
        ]

    def test_rewrite_terms_can_be_partially_capped(self):
        spec = quadric_surface()
        a = ACMMonomial((1, 0, 0), 1)
        b = ACMMonomial((0, 1, 0), 1)
        got = reduce_product(a, b, spec, 3)
        # (2,1,2) and (1,3,0)-type terms survive only where no exponent hits 3
        assert got == [
            (-1, ACMMonomial((1, 1, 2), 0)),
        ]

    def test_conic_total_annihilation(self):
        spec = hypersurface_spec(2, 2)
        a = ACMMonomial((1, 0), 1)
        b = ACMMonomial((0, 0), 1)
        assert reduce_product(a, b, spec, 2) == []
        assert reduce_product(a, b, spec, 4) == [
            (-1, ACMMonomial((1, 2), 0)),
            (-1, ACMMonomial((3, 0), 0)),
        ]

    def test_projective_space_matches_monomial_product(self):
        spec = veronese_spec(1)
        ring = TruncatedRing(2, 3)
        for a in enumerate_monomials(ring, 2):
            for b in enumerate_monomials(ring, 2):
                got = reduce_product(
                    ACMMonomial(a.exponents, 0), ACMMonomial(b.exponents, 0), spec, 3
                )
                plain = mul_truncated(a, b, ring)
                if plain is None:
                    assert got == []
                else:
                    assert got == [(1, ACMMonomial(plain.exponents, 0))]


class TestFermatADims:
    def test_frozen_values(self):
        dims, total = fermat_A_dims(fermat_cubic(), 3, 0, 8)
        assert dims == (127, 100, 74)
        assert total == 301

    def test_quadric_small(self):
        dims, total = fermat_A_dims(quadric_surface(), 1, 0, 3)
        assert total == 3

    def test_bounds_check(self):
        with pytest.raises(ParameterError):
            fermat_A_dims(quadric_surface(), 5, 0, 3)
        with pytest.raises(ParameterError):
            fermat_A_dims(quadric_surface(), 1, -1, 3)


class TestBasis:
    def test_conic_degree2(self):
        spec = hypersurface_spec(2, 2)
        got = basis(spec, 2, 2)
        assert got == [
            ACMMonomial((1, 1), 0),
            ACMMonomial((1, 0), 1),
            ACMMonomial((0, 1), 1),
        ]

    def test_lambda_major_order_and_size(self):
        spec = quadric_surface()
        got = basis(spec, 3, 3)
        assert len(got) == invariants(spec, 3).r_bar_d
        # unit block first, then the t block, each in descending-lex x order
        switch = [m.lambda_index for m in got]
        assert switch == sorted(switch)

    def test_projective_space_basis_is_plain_monomials(self):
        spec = veronese_spec(2)
        ring = TruncatedRing(3, 4)
        got = basis(spec, 4, 4)
        assert [m.x_part for m in got] == [m.exponents for m in enumerate_monomials(ring, 4)]
        assert all(m.lambda_index == 0 for m in got)

    def test_str_form(self):
        assert str(ACMMonomial((2, 0, 1), 1)) == "2 0 1 @1"


class TestJsonInterchange:
    def test_round_trip(self):
        spec = fermat_cubic()
        again = spec_from_json(spec_to_json(spec))
        assert again == spec

    def test_file_round_trip(self, tmp_path):
        spec = quadric_surface()
        path = str(tmp_path / "quadric.json")
        save_spec(spec, path)
        assert load_spec(path) == spec
        with open(path, encoding="utf-8") as fh:
            raw = fh.read()
        assert raw.endswith("\n")
        assert json.loads(raw)["schema_version"] == SCHEMA_VERSION

    def test_relation_form_loads_through_builder(self):
        doc = {
            "schema_version": SCHEMA_VERSION,
            "name": "conic",
            "n": 1,
            "lambda": [{"degree": 0}, {"degree": 1}],
            "relation": {
                "degree": 2,
                "monic": True,
                "coefficients": [
                    [{"coeff": 1, "x_exponents": [2, 0]},
                     {"coeff": 1, "x_exponents": [0, 2]}],
                    [],
                ],
            },
        }
        spec = spec_from_json(doc)
        assert spec == hypersurface_spec(2, 2, relation=[[(1, (2, 0)), (1, (0, 2))], []],
                                         name="conic")

    def test_schema_errors(self):
        good = spec_to_json(quadric_surface())

        missing = dict(good)
        del missing["schema_version"]
        with pytest.raises(ACMSpecError, match="schema_version"):
            spec_from_json(missing)

        wrong = dict(good, schema_version=99)
        with pytest.raises(ACMSpecError, match="unsupported"):
            spec_from_json(wrong)

        both = dict(good)
        both["relation"] = {"degree": 2, "monic": True, "coefficients": [[], []]}
        with pytest.raises(ACMSpecError, match="not both"):
            spec_from_json(both)

        neither = dict(good)
        del neither["table"]
        with pytest.raises(ACMSpecError, match="table"):
            spec_from_json(neither)

        for field in ("name", "n", "lambda"):
            broken = dict(good)
            del broken[field]
            with pytest.raises(ACMSpecError, match=field):
                spec_from_json(broken)

        with pytest.raises(ACMSpecError, match="JSON object"):
            spec_from_json([1, 2, 3])

    def test_relation_form_requires_power_basis(self):
        doc = {
            "schema_version": SCHEMA_VERSION,
            "name": "bad",
            "n": 1,
            "lambda": [{"degree": 0}, {"degree": 2}],
            "relation": {"degree": 2, "monic": True, "coefficients": [[], []]},
        }
        with pytest.raises(ACMSpecError, match="Lambda"):
            spec_from_json(doc)

    def test_relation_form_requires_monic(self):
        doc = {
            "schema_version": SCHEMA_VERSION,
            "name": "bad",
            "n": 1,
            "lambda": [{"degree": 0}, {"degree": 1}],
            "relation": {"degree": 2, "monic": False, "coefficients": [[], []]},
        }
        with pytest.raises(ACMSpecError, match="monic"):
            spec_from_json(doc)

    @pytest.mark.parametrize("field, value", [("n", 0), ("degree", 1)])
    def test_relation_form_degenerate_parameters(self, field, value):
        doc = copy.deepcopy(VALID_DOCS[1])
        if field == "n":
            doc["n"] = value
        else:
            doc["relation"].update(degree=value, coefficients=[[]])
            doc["lambda"] = [{"degree": 0}]
        with pytest.raises(ACMSpecError, match="must be >= 2"):
            spec_from_json(doc)

    def test_bad_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ACMSpecError, match="not valid JSON"):
            load_spec(str(path))


SPEC_KEYS = ("schema_version", "name", "n", "lambda", "degree", "table", "relation", "monic",
             "coefficients", "i", "j", "terms", "coeff", "x_exponents", "lambda_index")
# small integers keep every spec that does load tiny, so each example runs in milliseconds
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 4) | st.floats(-2, 4) | st.text(max_size=2),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(SPEC_KEYS) | st.text(max_size=2), inner, max_size=4),
    max_leaves=10,
)
VALID_DOCS = (
    spec_to_json(quadric_surface()),
    {"schema_version": SCHEMA_VERSION, "name": "conic", "n": 1,
     "lambda": [{"degree": 0}, {"degree": 1}],
     "relation": {"degree": 2, "monic": True,
                  "coefficients": [[{"coeff": 1, "x_exponents": [2, 0]}], []]}},
)


def mutate_once(doc, data):
    """Replace or delete one value somewhere inside `doc`, in place."""
    node = doc
    while True:
        key = data.draw(st.sampled_from(list(node) if isinstance(node, dict)
                                        else range(len(node))))
        child = node[key]
        if isinstance(child, (dict, list)) and child and data.draw(st.booleans()):
            node = child
        elif isinstance(node, dict) and data.draw(st.booleans()):
            del node[key]
            return
        else:
            node[key] = data.draw(st.integers(-1, 3) | json_values)
            return


class TestSpecFuzz:
    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_load_or_spec_error(self, data):
        if data.draw(st.booleans()):
            doc = data.draw(json_values)
        else:
            doc = copy.deepcopy(data.draw(st.sampled_from(VALID_DOCS)))
            for _ in range(data.draw(st.integers(1, 3))):
                if doc:
                    mutate_once(doc, data)
        try:
            spec = spec_from_json(doc)
        except ACMSpecError:
            return
        assert isinstance(spec, ACMSpec)
