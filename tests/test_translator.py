import pytest

from produpd import (
    TOP,
    ActionDiamond,
    And,
    Announce,
    Atom,
    Bottom,
    Box,
    EventModel,
    ExistsGlobal,
    ExistsProp,
    Global,
    Implies,
    InputNotSentenceFragment,
    KripkeModel,
    LanguageTag,
    Nominal,
    Not,
    Nu,
    Or,
    PreconditionNotBaseMso,
    UnknownEvent,
    classify,
    eliminate_all,
    extension,
    parse_formula,
    print_formula,
    singleton_point_schema,
    translate_announcement,
    translate_event,
)
from produpd.harness import FuzzConfig, random_formula, random_model
from produpd.models import announcement_event_model
from produpd.semantics import Evaluator
from produpd.syntax import contains_node
from produpd.translator import fold_constants

p, q, r = Atom("p"), Atom("q"), Atom("r")


def two_event_model():
    return EventModel(
        ("a0", "a1"),
        frozenset({("a0", "a0"), ("a0", "a1"), ("a1", "a1")}),
        {"a0": q, "a1": TOP},
    )


def all_small_models(max_worlds, props):
    """Every model with up to `max_worlds` worlds over `props`, presented
    as (bare model, valuation environment) pairs for session reuse."""
    for n in range(1, max_worlds + 1):
        worlds = tuple(f"w{i}" for i in range(n))
        pairs = [(u, v) for u in worlds for v in worlds]
        for relbits in range(1 << len(pairs)):
            rel = frozenset(pr for i, pr in enumerate(pairs) if (relbits >> i) & 1)
            yield KripkeModel(worlds, rel, {}), n


class TestNominalRules:
    def test_match_gives_precondition(self):
        a = two_event_model()
        assert translate_event(a, "a0", Nominal(0)) == q

    def test_mismatch_gives_false(self):
        a = two_event_model()
        assert translate_event(a, "a0", Nominal(1)) == Bottom()

    def test_out_of_range_nominal_gives_false(self):
        a = two_event_model()
        assert translate_event(a, "a0", Nominal(7)) == Bottom()


class TestQuantifierRule:
    def test_transcript_shape(self):
        a = two_event_model()
        chi = translate_event(a, "a0", ExistsProp("p", p))
        expected = ExistsProp(
            "_f0",
            ExistsProp(
                "_f1",
                And(
                    Global(Implies(Atom("_f0"), q)),
                    And(
                        Global(Implies(Atom("_f1"), TOP)),
                        Or(
                            And(And(q, Atom("_f0")), q),
                            And(And(q, Atom("_f1")), Bottom()),
                        ),
                    ),
                ),
            ),
        )
        assert chi == expected
        assert print_formula(chi) == (
            "exists _f0. exists _f1. (U (_f0 -> q) & (U (_f1 -> true) & "
            "(((q & _f0) & q) | ((q & _f1) & false))))"
        )

    def test_transcript_equivalence_exhaustive(self):
        # <a0> exists p. p is equivalent to q (the a0 precondition) on
        # every model with up to three worlds over {p, q}
        a = two_event_model()
        psi = ExistsProp("p", p)
        chi = translate_event(a, "a0", psi)
        lhs_formula = ActionDiamond("a0", psi)
        checked = 0
        for bare, n in all_small_models(3, ("p", "q")):
            ev = Evaluator(bare, events=a)
            for pbits in range(1 << n):
                for qbits in range(1 << n):
                    env = {"p": pbits, "q": qbits}
                    lhs = ev.extension_mask(lhs_formula, env)
                    rhs = ev.extension_mask(chi, env)
                    assert lhs == rhs == qbits
                    checked += 1
        assert checked == 33032


class TestTranslateEventContracts:
    def test_output_always_base(self):
        cfg = FuzzConfig(seed=41, cases=1)
        from produpd.harness import translation_case_inputs

        for i in range(40):
            m, a, psi = translation_case_inputs(cfg, i)
            for alpha in a.events:
                chi = translate_event(a, alpha, psi)
                assert classify(chi) is LanguageTag.BASE_MSO
                assert not contains_node(chi, Nominal)

    def test_measure_strictly_decreases(self):
        a = two_event_model()
        log = []
        translate_event(
            a, "a0", ExistsProp("p", And(p, Box(ExistsProp("q", And(p, q))))),
            measure_log=log,
        )
        assert log
        for parent, child in log:
            assert child < parent

    def test_rejects_dynamic_nodes(self):
        a = two_event_model()
        for bad in (ActionDiamond("a0", p), Announce(p, q), Nu("p", p)):
            with pytest.raises(InputNotSentenceFragment):
                translate_event(a, "a0", bad)

    def test_unknown_event(self):
        with pytest.raises(UnknownEvent):
            translate_event(two_event_model(), "zz", p)

    def test_forall_handled_by_expansion(self):
        a = two_event_model()
        cfg = FuzzConfig(seed=42, cases=1)
        psi = parse_formula("forall p. (p | ~p)")
        chi = translate_event(a, "a0", psi)
        assert classify(chi) is LanguageTag.BASE_MSO
        for i in range(10):
            m = random_model(cfg, i)
            assert extension(m, ActionDiamond("a0", psi), events=a) == extension(m, chi)


class TestTranslateAnnouncement:
    def test_atomic(self):
        announced = parse_formula("p | q")
        assert translate_announcement(announced, p) == And(announced, p)

    def test_quantifier_clause_shape(self):
        announced = q
        out = translate_announcement(announced, ExistsProp("p", Box(p)))
        assert isinstance(out, ExistsProp) and out.var == "p"
        guard, rest = out.body.left, out.body.right
        assert guard == Global(Implies(p, q))

    def test_quantifier_clause_renames_on_capture(self):
        announced = p
        out = translate_announcement(announced, ExistsProp("p", Box(p)))
        assert isinstance(out, ExistsProp)
        assert out.var != "p"

    def test_top_announcement_is_transparent(self):
        cfg = FuzzConfig(seed=43, cases=1)
        for i in range(25):
            m = random_model(cfg, i)
            psi = random_formula(cfg, i, LanguageTag.BASE_MSO)
            out = translate_announcement(TOP, psi)
            assert extension(m, out) == extension(m, psi)

    def test_soundness_random(self):
        cfg = FuzzConfig(seed=44, cases=1)
        for i in range(40):
            m = random_model(cfg, i)
            announced = random_formula(cfg, i, LanguageTag.BASE_MSO, label="a", max_eps=0)
            psi = random_formula(cfg, i, LanguageTag.BASE_MSO, label="psi")
            out = translate_announcement(announced, psi)
            assert classify(out) is LanguageTag.BASE_MSO
            assert extension(m, out) == extension(m, Announce(announced, psi))

    def test_nested_announcements_supported(self):
        cfg = FuzzConfig(seed=45, cases=1)
        psi = Announce(q, Box(p))
        out = translate_announcement(p, psi)
        assert classify(out) is LanguageTag.BASE_MSO
        for i in range(10):
            m = random_model(cfg, i)
            assert extension(m, out) == extension(m, Announce(p, psi))

    def test_is_the_one_event_product_update(self):
        # quantifier-free and without nominals, an announcement reduces
        # clause for clause as its one-event model does
        cfg = FuzzConfig(seed=3, cases=1)
        for i in range(2000):
            announced = random_formula(cfg, i, LanguageTag.BASE_MSO, label="a", max_eps=0)
            psi = random_formula(cfg, i, LanguageTag.BASE_MSO, label="psi", max_eps=0)
            ann_steps, event_steps = [], []
            out = translate_announcement(announced, psi, steps=ann_steps)
            event = translate_event(
                announcement_event_model(announced), "a0", psi, steps=event_steps
            )
            assert out is event
            assert [s.rule for s in ann_steps] == [
                "ann-" + s.rule for s in event_steps
            ]

    def test_rejects_non_base_announcement(self):
        with pytest.raises(PreconditionNotBaseMso):
            translate_announcement(ActionDiamond("a0", p), q)

    def test_rejects_event_nodes(self):
        with pytest.raises(InputNotSentenceFragment):
            translate_announcement(p, ActionDiamond("a0", q))


class TestEliminateAll:
    def test_identity_on_base(self):
        a = two_event_model()
        phi = parse_formula("exists p. (p & U(p -> q))")
        report = eliminate_all(a, phi)
        assert report.output == phi
        assert report.steps == []

    def test_nested_diamonds_inner_first(self):
        a = two_event_model()
        phi = ActionDiamond("a0", ActionDiamond("a1", p))
        report = eliminate_all(a, phi)
        assert classify(report.output) is LanguageTag.BASE_MSO
        cfg = FuzzConfig(seed=46, cases=1)
        for i in range(25):
            m = random_model(cfg, i)
            # direct route: evaluate on the double product
            ev = Evaluator(m, events=a)
            lhs = ev.extension(phi)
            assert extension(m, report.output) == lhs

    def test_fixpoint_encoding(self):
        a = two_event_model()
        phi = Nu("p", Box(p))
        report = eliminate_all(a, phi)
        expected = ExistsProp("p", And(p, Global(Implies(p, Box(p)))))
        assert report.output == expected
        cfg = FuzzConfig(seed=47, cases=1)
        for i in range(20):
            m = random_model(cfg, i)
            assert extension(m, report.output) == extension(m, phi)

    def test_sentence_only_rejected(self):
        a = two_event_model()
        with pytest.raises(InputNotSentenceFragment):
            eliminate_all(a, And(Nominal(0), p))

    def test_announce_under_action(self):
        a = two_event_model()
        phi = ActionDiamond("a0", Announce(q, Nominal(0)))
        report = eliminate_all(a, phi)
        assert classify(report.output) is LanguageTag.BASE_MSO
        cfg = FuzzConfig(seed=48, cases=1)
        for i in range(20):
            m = random_model(cfg, i)
            assert extension(m, phi, events=a) == extension(m, report.output)

    def test_report_fields(self):
        a = two_event_model()
        phi = ActionDiamond("a0", ExistsProp("p", p))
        report = eliminate_all(a, phi)
        assert report.input == phi
        assert report.input_size == 3
        assert report.input_eps == 1
        assert report.output_eps == 2
        assert report.steps
        data = report.to_jsonable()
        assert set(data) == {
            "input", "output", "input_size", "output_size",
            "input_eps", "output_eps", "steps",
        }
        assert all(set(s) == {"rule", "at"} for s in data["steps"])

    def test_simplify_folds_constants(self):
        a = two_event_model()
        phi = ActionDiamond("a1", p)
        plain = eliminate_all(a, phi)
        assert plain.output == And(TOP, p)
        simplified = eliminate_all(a, phi, simplify=True)
        assert simplified.output == p

    def test_cross_construction_agreement(self):
        from produpd import announcement_event_model

        cfg = FuzzConfig(seed=49, cases=1)
        for i in range(25):
            m = random_model(cfg, i)
            announced = random_formula(cfg, i, LanguageTag.BASE_MSO, label="a", max_eps=0)
            psi = random_formula(cfg, i, LanguageTag.BASE_MSO, label="psi", max_eps=1)
            one_event = announcement_event_model(announced)
            via_ann = translate_announcement(announced, psi)
            via_event = translate_event(one_event, "a0", psi)
            assert extension(m, via_ann) == extension(m, via_event)


class TestSingletonPointSchema:
    def test_corrected_schema_full_domain(self):
        phi = singleton_point_schema("p", p)
        checked = 0
        for bare, n in all_small_models(3, ("p",)):
            ev = Evaluator(bare)
            for pbits in range(1 << n):
                assert ev.extension_mask(phi, {"p": pbits}) == ev.full
                checked += 1
        assert checked > 0

    def test_literal_schema_unsatisfiable(self):
        phi = singleton_point_schema("p", p, literal=True)
        one = KripkeModel(("w0",), frozenset(), {})
        assert extension(one, phi) == frozenset()

    def test_false_body_empty(self):
        phi = singleton_point_schema("p", Bottom())
        m = KripkeModel(("w0", "w1"), frozenset(), {})
        assert extension(m, phi) == frozenset()

    def test_corrected_schema_picks_singletons(self):
        # E p with the schema guard holds exactly at worlds in some
        # singleton subset satisfying the body; body = E p makes it true
        # everywhere, body = ~p makes it true everywhere except nowhere of
        # relevance: cross-check against a direct singleton search
        m = KripkeModel(("w0", "w1", "w2"), frozenset({("w0", "w1")}), {})
        phi = singleton_point_schema("p", ExistsGlobal(p))
        assert extension(m, phi) == set(m.worlds)


class TestFoldConstants:
    def test_folds(self):
        assert fold_constants(And(TOP, p)) == p
        assert fold_constants(Or(p, Bottom())) == p
        assert fold_constants(Implies(p, Bottom())) == Not(p)
        assert fold_constants(Not(TOP)) == Bottom()

    def test_does_not_touch_modal_structure(self):
        assert fold_constants(Box(TOP)) == Box(TOP)
