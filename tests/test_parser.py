
import json

import pytest

from produpd import (
    ActionDiamond,
    And,
    Announce,
    Atom,
    Box,
    EmptyDomain,
    EmptyEventSet,
    ExistsProp,
    Global,
    Implies,
    LanguageTag,
    Nominal,
    Not,
    Or,
    ParseError,
    PositivityViolation,
    PreconditionNotBaseMso,
    UnknownWorldInRelation,
    UnknownWorldInValuation,
    dump_event_model,
    dump_model,
    dump_tagged_model,
    parse_event_model,
    parse_formula,
    parse_model,
    parse_tagged_model,
    print_formula,
    product_update,
    random_event_model,
    random_formula,
    random_model,
)
from produpd import parser
from produpd.harness import FuzzConfig

p, q, r = Atom("p"), Atom("q"), Atom("r")


class TestParseFormula:
    def test_quantifier_scope(self):
        phi = parse_formula("exists p. (p & U(p -> q))")
        assert phi == ExistsProp("p", And(p, Global(Implies(p, q))))

    def test_event_diamond(self):
        assert parse_formula("<a0> j0") == ActionDiamond("a0", Nominal(0))

    def test_positivity_checked(self):
        with pytest.raises(PositivityViolation):
            parse_formula("nu p. ~p")

    def test_precedence(self):
        assert parse_formula("p & q | r") == Or(And(p, q), r)
        assert parse_formula("p -> q -> r") == Implies(p, Implies(q, r))
        assert parse_formula("~[] p") == Not(Box(p))

    def test_maximal_quantifier_scope(self):
        assert parse_formula("exists p. p & q") == ExistsProp("p", And(p, q))

    def test_announce_forms(self):
        assert parse_formula("<!p> q") == Announce(p, q)
        assert parse_formula("[!p] q") == Not(Announce(p, Not(q)))

    def test_reserved_fresh_names(self):
        assert parse_formula("_f0") == Atom("_f0")
        with pytest.raises(ParseError):
            parse_formula("_x")

    def test_nominal_lexing(self):
        assert parse_formula("j10") == Nominal(10)
        assert parse_formula("jay") == Atom("jay")

    def test_error_span(self):
        with pytest.raises(ParseError) as err:
            parse_formula("p & ")
        assert err.value.span is not None
        assert err.value.expected

    def test_trailing_input(self):
        with pytest.raises(ParseError):
            parse_formula("p q")

    def test_unknown_uppercase(self):
        with pytest.raises(ParseError):
            parse_formula("X")


class TestPrintFormula:
    def test_box(self):
        assert print_formula(Box(p)) == "[] p"

    def test_parenthesization(self):
        assert print_formula(And(p, Or(q, r))) == "(p & (q | r))"

    def test_global(self):
        assert print_formula(Global(p)) == "U p"

    def test_quantifier_operand_parenthesized(self):
        phi = And(ExistsProp("p", p), q)
        assert print_formula(phi) == "((exists p. p) & q)"
        assert parse_formula(print_formula(phi)) == phi

    def test_round_trip_random(self):
        cfg = FuzzConfig(seed=11, cases=1)
        languages = (
            LanguageTag.BASE_MSO,
            LanguageTag.SCOPED_NOMINALS,
            LanguageTag.MU_FRAGMENT,
        )
        for i in range(300):
            phi = random_formula(cfg, i, languages[i % 3])
            assert parse_formula(print_formula(phi)) == phi


class TestModelJson:
    def test_one_world_reflexive(self):
        m = parse_model('{"worlds":["w0"],"rel":[["w0","w0"]],"val":{"p":["w0"]}}')
        assert m.worlds == ("w0",)
        assert ("w0", "w0") in m.relation
        assert m.valuation["p"] == {"w0"}

    def test_empty_domain(self):
        with pytest.raises(EmptyDomain):
            parse_model('{"worlds":[],"rel":[],"val":{}}')

    def test_unknown_world_in_relation(self):
        with pytest.raises(UnknownWorldInRelation):
            parse_model('{"worlds":["w0"],"rel":[["w0","w1"]],"val":{}}')

    def test_unknown_world_in_valuation(self):
        with pytest.raises(UnknownWorldInValuation):
            parse_model('{"worlds":["w0"],"rel":[],"val":{"p":["w1"]}}')

    def test_bad_json(self):
        with pytest.raises(ParseError):
            parse_model("{nope")

    def test_normalization_byte_stable(self):
        cfg = FuzzConfig(seed=12, cases=1)
        for i in range(50):
            m = random_model(cfg, i)
            text = dump_model(m)
            assert dump_model(parse_model(text)) == text

    def test_tagged_round_trip(self):
        cfg = FuzzConfig(seed=13, cases=1)
        m = random_model(cfg, 0)
        a = random_event_model(cfg, 0)
        tm = product_update(m, a)
        if tm.model.worlds:
            text = dump_tagged_model(tm)
            back = parse_tagged_model(text)
            assert back == tm
            assert dump_tagged_model(back) == text

    def test_tagged_decodes_once(self, monkeypatch):
        calls = []
        load = parser._load_json

        def counting(text):
            calls.append(text)
            return load(text)

        monkeypatch.setattr(parser, "_load_json", counting)
        text = '{"worlds":["w0"],"rel":[],"val":{},"tags":{"w0":"a0"}}'
        assert parse_tagged_model(text).tags == {"w0": "a0"}
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "text, error",
        [
            ("[1]", "expected a JSON object"),
            ('{"worlds":[],"tags":7}', "a model needs at least one world"),
            ('{"worlds":["w0"],"tags":7}', "'tags' must map worlds to event names"),
            ('{"worlds":["w0","w1"],"tags":{"w0":"a0"}}', "'tags' must be empty or total"),
        ],
    )
    def test_tagged_error_order(self, text, error):
        with pytest.raises(ParseError, match=error):
            parse_tagged_model(text)


    @pytest.mark.parametrize("name", ["p\n", "_f0\n", "j0\n", "q\n\n"])
    def test_name_with_trailing_newline(self, name):
        text = json.dumps({"worlds": ["w0"], "val": {name: ["w0"]}})
        with pytest.raises(ParseError, match="bad proposition name"):
            parse_model(text)


class TestEventModelJson:
    @pytest.mark.parametrize("name", ["a0\n", "b\n"])
    def test_name_with_trailing_newline(self, name):
        text = json.dumps({"events": [name], "rel": [], "pre": {name: "true"}})
        with pytest.raises(ParseError, match="bad event name"):
            parse_event_model(text)

    def test_skip_model(self):
        a = parse_event_model('{"events":["a0"],"rel":[["a0","a0"]],"pre":{"a0":"true"}}')
        assert a.events == ("a0",)
        assert a.pre["a0"] == parse_formula("true")

    def test_precondition_not_base(self):
        with pytest.raises(PreconditionNotBaseMso):
            parse_event_model(
                '{"events":["a0"],"rel":[],"pre":{"a0":"<a0> p"}}'
            )

    def test_empty_event_set(self):
        with pytest.raises(EmptyEventSet):
            parse_event_model('{"events":[],"rel":[],"pre":{}}')

    def test_missing_precondition(self):
        with pytest.raises(ParseError):
            parse_event_model('{"events":["a0"],"rel":[],"pre":{}}')

    def test_normalization_byte_stable(self):
        cfg = FuzzConfig(seed=14, cases=1)
        for i in range(50):
            a = random_event_model(cfg, i)
            text = dump_event_model(a)
            assert dump_event_model(parse_event_model(text)) == text

    def test_event_order_fixes_indices(self):
        a = parse_event_model(
            '{"events":["b","a"],"rel":[],"pre":{"a":"true","b":"p"}}'
        )
        assert a.index_of("b") == 0
        assert a.index_of("a") == 1


class TestDumpJson:
    """`dump_json` writes `json.dumps(value, indent=2)` byte for byte."""

    SHARED = {"rule": "box", "at": "<a0> [] p"}

    @pytest.mark.parametrize(
        "value",
        [
            {},
            [],
            [[], {}],
            {"a": {}, "b": [[], {"c": []}], "d": [{}]},
            ["é", "\n", '"', " ", "\U0001f600", "\\", "\x00", ""],
            {"é": "\n", "\U0001f600": '"'},
            [0.1, 1e-7, 1e300, -0.0, 2**70, -(2**70), 0, True, False, None],
            [float("inf"), float("-inf"), float("nan")],
            ("tuple", ("nested",)),
            "top-level string",
            17,
            None,
            # non-str keys are converted as json converts them
            {1: "int", 2.5: "float", True: "bool", None: "null", "s": {7: []}},
            # one dict object shared at one depth, then at several: a cache
            # keyed on identity alone would reuse the depth-1 text deeper down
            [SHARED, SHARED, {"x": SHARED}],
            {"top": SHARED, "deeper": [SHARED, [SHARED]], "again": SHARED},
        ],
    )
    def test_byte_identical(self, value):
        assert parser.dump_json(value) == json.dumps(value, indent=2)

    def test_bad_key_type_error(self):
        with pytest.raises(TypeError, match="keys must be str, int, float, bool or None"):
            parser.dump_json({(1, 2): 3})

    def test_unserializable_type_error(self):
        with pytest.raises(TypeError, match="not JSON serializable"):
            parser.dump_json([object()])
