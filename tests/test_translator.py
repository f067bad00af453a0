import pytest

from produpd import (
    BOTTOM,
    TOP,
    ActionDiamond,
    And,
    Announce,
    Atom,
    Bottom,
    Box,
    Diamond,
    EventModel,
    ExistsGlobal,
    ExistsProp,
    ForallProp,
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
    Top,
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
from produpd import translator
from produpd.syntax import (
    FRESH_PREFIX,
    RAISING,
    alpha_equal,
    children,
    contains_node,
    free_props,
    rebuild,
)
from produpd.translator import _FOLDED, build, fold_constants
from test_rewrite_outcomes import family_cases, translation_cases
from test_syntax import _distinct_nodes

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

    def test_out_of_range_nominal_raises(self):
        # the checker's error, not a mismatch's `false`; of two such
        # nominals, the first in pre-order, which the checker meets first
        a = two_event_model()
        message = "nominal j7 has no event in a model with 2 events"
        with pytest.raises(UnknownEvent, match=message):
            translate_event(a, "a0", Nominal(7))
        for psi in (Or(Nominal(7), q), Or(Nominal(7), Nominal(9))):
            with pytest.raises(UnknownEvent, match=message):
                eliminate_all(a, ActionDiamond("a0", psi))
            with pytest.raises(UnknownEvent, match=message):
                extension(KripkeModel(("w0",), frozenset(), {}), ActionDiamond("a0", psi), events=a)


class TestQuantifierRule:
    def test_transcript_shape(self):
        # j1 does not match a0, so its disjunct folds away; then _f1 occurs
        # nowhere, and its guard, with precondition true, is left out.  j0
        # matches, so `_f0 & j0` is _f0, and a0's precondition q is stated
        # once, at the top
        a = two_event_model()
        chi = translate_event(a, "a0", ExistsProp("p", p))
        expected = And(q, ExistsProp("_f0", And(Global(Implies(Atom("_f0"), q)), Atom("_f0"))))
        assert chi == expected
        assert print_formula(chi) == "(q & (exists _f0. (U (_f0 -> q) & _f0)))"

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


def _expand_reference(phi):
    """`expand_foralls` as a plain walk of the tree."""
    out = rebuild(phi, tuple(_expand_reference(c) for c in children(phi)))
    if isinstance(out, ForallProp):
        return Not(ExistsProp(out.var, Not(out.body)))
    return out


class TestExpandForalls:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_each_distinct_node_once(self, monkeypatch, k):
        # the `forall` precondition is copied into each inner rewrite,
        # whose output the outer `<a0>` expands again: as k goes from 1 to
        # 5, a walk of the tree made 111 to 1,706 calls on inputs of 60 to
        # 103 distinct nodes
        a = EventModel(
            ("a0", "a1", "a2"),
            frozenset({("a0", "a0"), ("a0", "a1"), ("a1", "a1"),
                       ("a1", "a2"), ("a2", "a0"), ("a2", "a2")}),
            {"a0": parse_formula("forall s. (s -> q)"), "a1": TOP, "a2": parse_formula("~q")},
        )
        boxes = "[] " * k
        phi = parse_formula(f"<a0> {boxes}<a0> {boxes}<a0> <> p")
        expand, calls, visits, inside = translator.expand_foralls, [], [], []

        def counting_expand(psi):
            calls.append(psi)
            inside.append(psi)
            try:
                out = expand(psi)
            finally:
                inside.pop()
            assert out is _expand_reference(psi)
            return out

        def counting_children(f):
            if inside:
                visits.append(f)
            return children(f)

        monkeypatch.setattr(translator, "expand_foralls", counting_expand)
        monkeypatch.setattr(translator, "children", counting_children)
        eliminate_all(a, phi)
        distinct = {id(f) for psi in calls for f in _distinct_nodes(psi)}
        assert len(calls) <= len(distinct)
        assert 0 < len(visits) <= len(distinct)


class TestTranslateAnnouncement:
    def test_records_forall_expansion(self):
        # as `translate_event` does, the expansion is the first step
        phi = parse_formula("<a0> <!p> (forall r. (r -> q))")
        steps = eliminate_all(two_event_model(), phi).steps
        assert (steps[0].rule, steps[0].at) == ("expand-forall", "<!p> (forall r. (r -> q))")
        assert [s.rule for s in steps].count("expand-forall") == 1
        steps = []
        translate_announcement(p, parse_formula("exists r. (r -> q)"), steps=steps)
        assert "expand-forall" not in [s.rule for s in steps]

    def test_atomic(self):
        announced = parse_formula("p | q")
        assert translate_announcement(announced, p) == And(announced, p)

    def test_quantifier_clause_shape(self):
        announced = q
        out = translate_announcement(announced, ExistsProp("p", Box(p)))
        # the announced formula, then the binder with its guard first
        assert isinstance(out, And) and out.left == announced
        binder = out.right
        assert isinstance(binder, ExistsProp) and binder.var == "p"
        guard, rest = binder.body.left, binder.body.right
        assert guard == Global(Implies(p, q))
        assert rest == Box(Implies(q, p))

    def test_quantifier_clause_renames_on_capture(self):
        announced = p
        out = translate_announcement(announced, ExistsProp("p", Box(p)))
        assert isinstance(out, And) and out.left == announced
        binder = out.right
        assert isinstance(binder, ExistsProp)
        assert binder.var != "p"
        assert binder.body.left == Global(Implies(Atom(binder.var), p))

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

    def test_quantified_is_the_one_event_product_update(self):
        # with binders, an announcement's rewrite is its one-event model's
        # up to the names of bound props: one binder rule serves both
        cfg = FuzzConfig(seed=3, cases=1)
        for i in range(3000):
            announced = random_formula(cfg, i, LanguageTag.BASE_MSO, label="a", max_eps=1)
            psi = random_formula(cfg, i, LanguageTag.BASE_MSO, label="psi", max_eps=2)
            out = translate_announcement(announced, psi)
            event = translate_event(announcement_event_model(announced), "a0", psi)
            assert alpha_equal(out, event), (i, print_formula(out), print_formula(event))

    @pytest.mark.parametrize(
        "announced,psi,expected",
        [
            # the body does not read r, so its binder and guard go
            ("q", "exists r. true", "q"),
            # a guard `U (r -> true)` says nothing and is left out
            ("true", "exists r. <> r", "exists r. <> r"),
        ],
    )
    def test_binder_rule(self, announced, psi, expected):
        announced, psi = parse_formula(announced), parse_formula(psi)
        out = translate_announcement(announced, psi)
        assert print_formula(out) == expected
        assert alpha_equal(out, translate_event(announcement_event_model(announced), "a0", psi))

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
        assert report.output_eps == 1
        assert report.steps
        data = report.to_jsonable()
        assert set(data) == {
            "input", "output", "input_size", "output_size",
            "input_eps", "output_eps", "steps",
        }
        assert all(set(s) == {"rule", "at"} for s in data["steps"])

    def test_simplify_folds_constants(self):
        # the rewrite folds its own constants, but copies preconditions
        # verbatim, so only --simplify folds the one inside `q & true`
        a = EventModel(("a0",), frozenset(), {"a0": And(q, TOP)})
        phi = ActionDiamond("a0", p)
        plain = eliminate_all(a, phi)
        assert plain.output == And(And(q, TOP), p)
        assert "simplify" not in [s.rule for s in plain.steps]
        simplified = eliminate_all(a, phi, simplify=True)
        assert simplified.output == And(q, p)
        assert simplified.steps[-1].rule == "simplify"

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
        # only the four modal constants below fold: `<> true` is false at
        # a dead end, `[] false` true there
        for kept in (Box(p), Diamond(TOP), Box(BOTTOM), Global(p), ExistsGlobal(TOP)):
            assert fold_constants(kept) is kept

    def test_folds_modal_constants(self):
        assert fold_constants(Box(TOP)) is TOP
        assert fold_constants(Global(TOP)) is TOP
        assert fold_constants(Diamond(BOTTOM)) is BOTTOM
        assert fold_constants(ExistsGlobal(BOTTOM)) is BOTTOM
        # through the boolean folds, inside out
        assert fold_constants(parse_formula("[] (p | true) & <> (q & <> false)")) is BOTTOM

    @pytest.mark.parametrize(
        "x",
        [ExistsProp("r", r), Nominal(0), ActionDiamond("a0", p), Announce(p, q), Nu("r", r)],
        ids=lambda x: type(x).__name__,
    )
    def test_keeps_operands_that_can_raise(self, x):
        # the evaluator reads these operands, and they can raise
        for kept in (And(x, BOTTOM), Or(x, TOP), Implies(x, TOP), Implies(BOTTOM, x)):
            assert fold_constants(kept) is kept
        # it never reads the right operand of these
        assert fold_constants(And(BOTTOM, x)) is BOTTOM
        assert fold_constants(Or(TOP, x)) is TOP
        # while p can raise nothing
        assert fold_constants(And(p, BOTTOM)) is BOTTOM
        for folded in (Or(p, TOP), Implies(p, TOP), Implies(BOTTOM, p)):
            assert fold_constants(folded) is TOP


class TestFoldedOutput:
    """The rewriters build their output through `build`, so it carries no
    foldable constant: `true` preconditions, mismatched nominals and dead
    fresh props leave nothing behind."""

    # the model-check benchmark's event model
    TWO_EVENTS = EventModel(
        ("a0", "a1"),
        frozenset({("a0", "a0"), ("a0", "a1"), ("a1", "a0")}),
        {"a0": TOP, "a1": p},
    )

    @pytest.mark.parametrize(
        "text,rewrite",
        [
            (
                "<a0> (exists r. (r & <> ~r & j0))",
                "exists _f0. exists _f1. (U (_f1 -> p) & "
                "(_f0 & (<> ~_f0 | <> (p & ~_f1))))",
            ),
            # the `[] (r | j0)` conjunct holds at once, since j0 matches a0
            # and a0's precondition is true, so _f0 is not read under it;
            # a1's precondition p is stated once, at the top
            (
                "<a1> (exists r. (r & <> ~r & [] (r | j0)))",
                "(p & (exists _f0. exists _f1. (U (_f1 -> p) & (_f1 & <> ~_f0))))",
            ),
            # an announcement's binder goes with the guard `U (r -> p)`
            # when the body it conjoins folds to false
            ("<!p> (exists r. false)", "false"),
            ("<!p> (exists r. (r & false))", "false"),
            # an announced binder can raise, so `a & false`, the binder
            # and its guard stay
            (
                "<!(exists s. s)> (exists r. false)",
                "((exists s. s) & (exists r. (U (r -> (exists s. s)) & false)))",
            ),
        ],
    )
    def test_printed_rewrites(self, text, rewrite):
        # the first two are model-check's event templates
        assert print_formula(eliminate_all(self.TWO_EVENTS, parse_formula(text)).output) == rewrite

    def test_raising_precondition_is_not_absorbed(self):
        # a0's precondition can raise, so it stays at the top, where
        # `<a0>` states it, and in _f0's guard; under a0, `_f1 & j1` is
        # `_f1 & false`, which folds away, and _f1 with it, since its own
        # precondition p cannot raise
        pre = {"a0": parse_formula("exists s. s"), "a1": p}
        a = EventModel(("a0", "a1"), frozenset({("a0", "a0")}), pre)
        assert print_formula(eliminate_all(a, parse_formula("<a0> (exists r. r)")).output) == (
            "((exists s. s) & (exists _f0. (U (_f0 -> (exists s. s)) & _f0)))"
        )

    @pytest.mark.parametrize(
        "text,rewrite",
        [
            # no clause inside a product step restates the precondition
            ("<a1> ~q", "(p & ~q)"),
            ("<a1> (q -> r)", "(p & (q -> r))"),
            # a matching nominal is true
            ("<a1> j1", "p"),
            # a modality guards each event's body with its precondition
            ("<!p> [] q", "(p & [] (p -> q))"),
            # a nested announcement is translated in full, then relativised
            ("<!p> <!q> r", "(p & (q & r))"),
            # model-check's announcement template; its event templates are
            # pinned in `test_printed_rewrites`
            (
                "<!p> (exists r. (r & [] r & <> q))",
                "(p & (exists r. (U (r -> p) & ((r & [] (p -> r)) & <> (p & q)))))",
            ),
        ],
    )
    def test_relativised_rules(self, text, rewrite):
        phi = parse_formula(text)
        out = eliminate_all(self.TWO_EVENTS, phi).output
        assert print_formula(out) == rewrite
        m = KripkeModel(
            ("w0", "w1", "w2"),
            frozenset({("w0", "w1"), ("w1", "w2"), ("w2", "w0"), ("w2", "w2")}),
            {"p": frozenset({"w0", "w2"}), "q": frozenset({"w1", "w2"}), "r": frozenset({"w2"})},
        )
        assert extension(m, out) == extension(m, phi, events=self.TWO_EVENTS)

    @pytest.mark.parametrize(
        "pre,relation,rewrite",
        [
            # under a1's precondition false, `_f1 & j1` and `<> false` fold
            # away, and _f1 with its guard `U (_f1 -> false)`
            ("false", {("a0", "a0"), ("a0", "a1")}, "exists _f0. (_f0 & <> _f0)"),
            # a0 reaches no a1, so `_f1 & j1` folds away; a precondition
            # that can raise keeps its guard and binder
            ("q", {("a0", "a0")}, "exists _f0. (_f0 & <> _f0)"),
            (
                "exists s. (s & false)",
                {("a0", "a0")},
                "exists _f0. exists _f1. (U (_f1 -> (exists s. (s & false))) & (_f0 & <> _f0))",
            ),
        ],
        ids=["false", "unreached", "raising"],
    )
    def test_unread_fresh_prop_goes_with_its_guard(self, pre, relation, rewrite):
        a = EventModel(("a0", "a1"), frozenset(relation), {"a0": TOP, "a1": parse_formula(pre)})
        phi = parse_formula("<a0> (exists r. (r & <> r))")
        out = eliminate_all(a, phi).output
        assert print_formula(out) == rewrite
        m = KripkeModel(("w0", "w1", "w2"), frozenset({("w0", "w0"), ("w1", "w2")}), {})
        assert extension(m, out) == extension(m, phi, events=a) == {"w0", "w1"}

    def test_folded_guard_is_still_read(self):
        # under precondition q, `U false` rewrites to `q & U (q -> false)`,
        # which folds to `q & U ~q`; a binder of q still reads it as a guard
        a = EventModel(("a0",), frozenset({("a0", "a0")}), {"a0": q})
        out = eliminate_all(a, parse_formula("exists q. <a0> U false")).output
        assert print_formula(out) == "exists q. (q & U ~q)"
        ev = Evaluator(KripkeModel(tuple(f"w{i}" for i in range(6)), frozenset(), {}))
        assert ev.extension(out) == set()
        assert ev._work.ticks == 1

    @staticmethod
    def golden_rewrites():
        for _, events, e, psi in [*translation_cases(), *family_cases()]:
            yield events, psi, eliminate_all(events, ActionDiamond(e, psi)).output

    def test_no_fresh_binder_is_vacuous(self):
        # a fresh prop is read outside its guard `U (f -> pre)`, unless pre
        # can raise
        for _, _, out in self.golden_rewrites():
            for f in _distinct_nodes(out):
                if isinstance(f, ExistsProp) and f.var.startswith(FRESH_PREFIX):
                    assert f.var in free_props(f.body), print_formula(f)
                    body, pre = self.past_guards(f)
                    assert f.var in free_props(body) or contains_node(pre, RAISING)

    @staticmethod
    def past_guards(binder):
        """The conjunction under `binder`'s chain of `exists` past the
        guards `U (f -> pre)` of the chain's props that lead it, and the
        precondition of `binder`'s own guard (`true` if it has none)."""
        names, f = {binder.var}, binder.body
        while isinstance(f, ExistsProp):
            names.add(f.var)
            f = f.body
        pre = TOP
        while isinstance(f, And) and isinstance(f.left, Global) and isinstance(
            f.left.body, Implies
        ) and getattr(f.left.body.left, "name", None) in names:
            if f.left.body.left.name == binder.var:
                pre = f.left.body.right
            f = f.right
        return f, pre

    def test_nothing_left_to_fold(self):
        # every node is one that `build` leaves as it is, except inside the
        # preconditions and announced formulas copied verbatim and the
        # `U (f -> false)` guards that the evaluator reads; so
        # `fold_constants` changes only outputs that copy a constant
        exact = 0
        for events, psi, out in self.golden_rewrites():
            copied = set()
            for f in [*events.pre.values(), *(g.announced for g in _distinct_nodes(psi)
                                               if isinstance(g, Announce))]:
                copied.update(_distinct_nodes(f))
            for f in set(_distinct_nodes(out)) - copied:
                if isinstance(f, _FOLDED) and not (
                    isinstance(f, Implies) and f.right is BOTTOM
                    and isinstance(f.left, Atom) and f.left.name.startswith(FRESH_PREFIX)
                ):
                    assert build(type(f), *children(f)) is f, print_formula(f)
            if fold_constants(out) is out:
                exact += 1
            else:
                assert any(
                    isinstance(g, (Top, Bottom)) for g in copied
                ), print_formula(out)
        assert exact >= 1000
