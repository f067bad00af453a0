import gc
import random
import tracemalloc

import pytest

from produpd import (
    TOP,
    ActionDiamond,
    And,
    Announce,
    Atom,
    Bottom,
    Box,
    BudgetExceeded,
    Diamond,
    EvalBudget,
    EventModel,
    ExistsProp,
    ForallProp,
    Formula,
    Global,
    Implies,
    KripkeModel,
    NominalOutsideProductContext,
    Not,
    Nu,
    Nominal,
    Or,
    PositivityViolation,
    TaggedModel,
    UnknownEvent,
    announcement_event_model,
    eliminate_all,
    extension,
    gfp_oracle,
    holds,
    parse_formula,
    print_formula,
    product_update,
    relativise,
    run_fuzz,
    singleton_point_schema,
    translate_event,
    with_valuation,
)
from produpd.harness import (
    FuzzConfig,
    _gen_formula,
    random_event_model,
    random_formula,
    random_model,
)
from produpd.models import pair_world
from produpd import semantics
from produpd.semantics import Evaluator
from produpd.syntax import LanguageTag, contains_node
from test_rewrite_outcomes import family_cases

p, q = Atom("p"), Atom("q")


def two_chain():
    return KripkeModel(("w0", "w1"), frozenset({("w0", "w1")}), {"p": frozenset({"w1"})})


class TestExtensionExamples:
    def test_box(self):
        assert extension(two_chain(), Box(p)) == {"w0", "w1"}

    def test_witness_quantifier_names_the_extension(self):
        cfg = FuzzConfig(seed=31, cases=1)
        phi = parse_formula("exists q. (q & U(q -> p))")
        for i in range(20):
            m = random_model(cfg, i)
            assert extension(m, phi) == m.valuation.get("p", frozenset())

    def test_fixpoint_iteration(self):
        m = KripkeModel(
            ("w0", "w1"), frozenset({("w0", "w0"), ("w0", "w1")}), {"q": frozenset({"w0"})}
        )
        body = And(q, Box(p))
        assert extension(m, Nu("p", body)) == frozenset()
        assert gfp_oracle(m, "p", body) == frozenset()

    def test_product_examples(self):
        m = KripkeModel(
            ("w0", "w1"),
            frozenset({("w0", "w1"), ("w1", "w1")}),
            {"p": frozenset({"w0"})},
        )
        a = EventModel(
            ("a0", "a1"),
            frozenset({("a0", "a0"), ("a0", "a1"), ("a1", "a1")}),
            {"a0": p, "a1": TOP},
        )
        assert extension(m, ActionDiamond("a0", p), events=a) == {"w0"}
        # frozen from the brute-force product evaluation below
        assert extension(m, ActionDiamond("a1", Box(p)), events=a) == frozenset()
        # independent route: build the product and evaluate there directly
        prod = product_update(m, a)
        box_ext = extension(prod, Box(p), events=a)
        derived = {
            w
            for w in m.worlds
            if w in extension(m, a.pre["a1"]) and f"({w},a1)" in box_ext
        }
        assert extension(m, ActionDiamond("a1", Box(p)), events=a) == derived


class TestHolds:
    def test_top(self):
        assert holds(two_chain(), "w0", TOP)

    def test_negation(self):
        m = two_chain()
        for w in m.worlds:
            assert holds(m, w, Not(p)) == (not holds(m, w, p))

    def test_global(self):
        m = two_chain()
        assert holds(m, "w0", Global(p)) == (extension(m, p) == set(m.worlds))


class TestGfpOracle:
    def test_var_body_gives_domain(self):
        m = two_chain()
        assert gfp_oracle(m, "p", p) == set(m.worlds)

    def test_false_body(self):
        assert gfp_oracle(two_chain(), "p", Bottom()) == frozenset()

    def test_rejects_negative_body(self):
        with pytest.raises(PositivityViolation):
            gfp_oracle(two_chain(), "p", Not(p))


class TestBooleanStructure:
    def test_duality_and_global_shape(self):
        cfg = FuzzConfig(seed=32, cases=1)
        for i in range(40):
            m = random_model(cfg, i)
            phi = random_formula(cfg, i, LanguageTag.BASE_MSO)
            psi = random_formula(cfg, i, LanguageTag.BASE_MSO, label="formula2")
            worlds = set(m.worlds)
            assert extension(m, Not(phi)) == worlds - extension(m, phi)
            assert extension(m, And(phi, psi)) == extension(m, phi) & extension(m, psi)
            g = extension(m, Global(phi))
            assert g in (frozenset(), frozenset(worlds))
            assert (g == worlds) == (extension(m, phi) == worlds)


class TestFixpointAgreement:
    def test_triple_agreement(self):
        cfg = FuzzConfig(seed=33, cases=1)
        for i in range(50):
            m = random_model(cfg, i)
            body = random_formula(cfg, i, LanguageTag.MU_FRAGMENT)
            var = body.var
            inner = body.body
            iterative = extension(m, Nu(var, inner))
            oracle = gfp_oracle(m, var, inner)
            encoding = extension(
                m, ExistsProp(var, And(Atom(var), Global(Implies(Atom(var), inner))))
            )
            assert iterative == oracle == encoding


class TestDynamicClauses:
    def test_action_clause_consistency(self):
        cfg = FuzzConfig(seed=34, cases=1)
        for i in range(25):
            m = random_model(cfg, i)
            a = random_event_model(cfg, i)
            psi = random_formula(
                cfg, i, LanguageTag.SCOPED_NOMINALS, n_events=len(a.events), max_eps=1
            )
            prod = product_update(m, a)
            for alpha in a.events:
                lhs = extension(m, ActionDiamond(alpha, psi), events=a)
                pre_ext = extension(m, a.pre[alpha])
                body_ext = extension(prod, psi, events=a)
                rhs = {
                    w for w in pre_ext if f"({w},{alpha})" in body_ext
                }
                assert lhs == rhs

    def test_announcement_as_product(self):
        cfg = FuzzConfig(seed=35, cases=1)
        for i in range(25):
            m = random_model(cfg, i)
            announced = random_formula(cfg, i, LanguageTag.BASE_MSO, max_eps=0)
            psi = random_formula(cfg, i, LanguageTag.BASE_MSO, label="psi", max_eps=1)
            direct = extension(m, Announce(announced, psi))
            one_event = announcement_event_model(announced)
            via_product = extension(m, ActionDiamond("a0", psi), events=one_event)
            assert direct == via_product


class TestErrors:
    def test_nominal_needs_tags(self):
        with pytest.raises(NominalOutsideProductContext):
            extension(two_chain(), Nominal(0))

    def test_unknown_event(self):
        a = EventModel(("a0",), frozenset(), {"a0": TOP})
        with pytest.raises(UnknownEvent):
            extension(two_chain(), ActionDiamond("a7", p), events=a)

    def test_no_ambient_event_model(self):
        with pytest.raises(UnknownEvent):
            extension(two_chain(), ActionDiamond("a0", p))

    def test_nominal_index_out_of_range(self):
        m = two_chain()
        a = EventModel(("a0",), frozenset({("a0", "a0")}), {"a0": TOP})
        with pytest.raises(UnknownEvent):
            extension(m, ActionDiamond("a0", Nominal(3)), events=a)

    def test_quantifier_world_budget(self):
        worlds = tuple(f"w{i}" for i in range(5))
        m = KripkeModel(worlds, frozenset(), {})
        budget = EvalBudget(max_worlds_for_quantifier=4)
        with pytest.raises(BudgetExceeded):
            extension(m, ExistsProp("p", p), budget=budget)
        # a vacuous binder enumerates nothing, so its domain is not
        # checked: it is its body, as in a rewrite that drops it
        for binder in (ExistsProp, ForallProp):
            assert extension(m, binder("q", p), budget=budget) == frozenset()

    def test_vacuous_binder_on_both_routes(self):
        # 30 product worlds, over the 16 of the default budget: the direct
        # route enumerates nothing, and the rewrite is `false`
        worlds = tuple(f"w{i}" for i in range(30))
        m = KripkeModel(worlds, frozenset(), {})
        a = EventModel(("a0",), frozenset({("a0", "a0")}), {"a0": TOP})
        phi = parse_formula("<a0> (exists r. false)")
        rewritten = eliminate_all(a, phi).output
        assert print_formula(rewritten) == "false"
        assert extension(m, phi, events=a) == extension(m, rewritten) == frozenset()

    def test_total_enumeration_budget(self):
        m = KripkeModel(("w0", "w1", "w2"), frozenset(), {})
        budget = EvalBudget(max_total_subset_enumerations=10)
        # the message names the binder that hit the limit and the work done.
        # A block is enumerated jointly and named by its first binder: the
        # 8 triples within w0, then the 7 new ones within w1, so the 11th
        # tuple tried is one of w1's.  The body is false everywhere, so no
        # world is decided early, every conjunct names a member, so no
        # ceiling decides one, and no member is read as a conjunct, so none
        # is pointed (with `p | q | r` each world would stop at its second
        # triple, with `p & q & r` try only the one that holds it, and with
        # `~(p | q | r)` only the one that misses it)
        block = parse_formula(
            "exists p. exists q. exists r. ((p | q | r) & ((p | q | r) -> ~(p | q | r)))"
        )
        with pytest.raises(BudgetExceeded) as got:
            extension(m, block, budget=budget)
        assert str(got.value) == (
            "subset enumeration budget exhausted (10 subsets) while enumerating "
            "`exists p`: 10 subsets tried so far"
        )
        # under E neither binder has a radius, so they nest: the empty p is
        # followed by the 8 subsets q tries under it, and the 8th subset
        # tried is q's 7th
        nested = parse_formula("exists p. exists q. E (p & q)")
        with pytest.raises(BudgetExceeded) as got:
            extension(m, nested, budget=EvalBudget(max_total_subset_enumerations=7))
        assert str(got.value).endswith("while enumerating `exists q`: 7 subsets tried so far")
        with pytest.raises(BudgetExceeded) as got:
            gfp_oracle(m, "p", p, budget=EvalBudget(max_total_subset_enumerations=5))
        assert str(got.value) == (
            "subset enumeration budget exhausted (5 subsets) while enumerating "
            "`nu p`: 5 subsets tried so far"
        )

    def test_block_reads_its_witnesses_lazily(self, monkeypatch):
        # every neighbourhood is the whole domain, so the block's one part
        # holds 2^12 * 2^12 pairs; p = {w0} with a nonempty q makes the
        # result full after 2^12 + 2 of them, and only the submasks those
        # pairs read are built: p's first two, the 2^12 q's under the empty
        # p and the two under p = {w0}
        built = []
        submasks = semantics._submasks

        def counted(mask, base=0):
            for x in submasks(mask, base):
                built.append(x)
                yield x

        monkeypatch.setattr(semantics, "_submasks", counted)
        worlds = tuple(f"w{i}" for i in range(12))
        m = KripkeModel(worlds, frozenset((v, w) for v in worlds for w in worlds), {})
        block = parse_formula("exists p. exists q. (<> p & <> q)")
        ev = Evaluator(m)
        assert ev.extension(block) == set(worlds)
        assert ev._work.ticks == 2**12 + 2
        assert len(built) == ev._work.ticks + 2
        # under a small budget it stops as early, at 16 worlds too
        built.clear()
        worlds = tuple(f"w{i}" for i in range(16))
        m = KripkeModel(worlds, frozenset((v, w) for v in worlds for w in worlds), {})
        ev = Evaluator(m, budget=EvalBudget(max_total_subset_enumerations=1000))
        with pytest.raises(BudgetExceeded):
            ev.extension(block)
        assert len(built) == 1001 + 1

    @pytest.mark.parametrize(
        "n,edges,text",
        [
            # no radius under U: one part, the whole domain, for every world
            (22, False, "exists r. U r"),
            # a block whose members' neighbourhoods are the whole domain
            (20, True, "exists r. exists s. (<> (r & s & ~r))"),
        ],
    )
    def test_budget_bounds_a_witness_pool(self, n, edges, text):
        # a part of n worlds has 2^n submasks, which are built only as
        # far as the 1,000 subsets of the budget read them
        worlds = tuple(f"w{i}" for i in range(n))
        relation = frozenset((v, w) for v in worlds for w in worlds) if edges else frozenset()
        m = KripkeModel(worlds, relation, {})
        budget = EvalBudget(max_worlds_for_quantifier=n, max_total_subset_enumerations=1000)
        phi = parse_formula(text)
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded) as got:
                Evaluator(m, budget=budget).extension(phi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(got.value) == (
            "subset enumeration budget exhausted (1000 subsets) while enumerating "
            "`exists r`: 1000 subsets tried so far"
        )
        assert peak < 5 * 2**20

    @pytest.mark.parametrize("obj", ["p", None, 3, (Atom("p"),)])
    def test_non_node_is_a_type_error(self, obj):
        ev = Evaluator(two_chain())
        with pytest.raises(TypeError, match="not a formula node"):
            ev.extension(obj)
        with pytest.raises(TypeError, match="not a formula node"):
            ev.extension_mask(obj)
        with pytest.raises(TypeError, match="not a formula node"):
            ev.holds("w0", obj)

    @pytest.mark.parametrize("q_worlds", [frozenset(), frozenset({"w0"})])
    def test_non_positive_nu_is_refused(self, q_worlds):
        # built through the API, so no parser checked it; iterated, it gave
        # the empty set on one model and "not descending" on the other
        m = KripkeModel(("w0",), frozenset(), {"q": q_worlds})
        phi = Nu("x", And(q, Not(Atom("x"))))
        ev = Evaluator(m)
        for call in (ev.extension, ev.extension_mask, lambda f: ev.holds("w0", f)):
            with pytest.raises(PositivityViolation, match="not positive in 'x'"):
                call(phi)
        with pytest.raises(PositivityViolation, match="not positive in 'x'"):
            extension(m, phi)

    def test_fixpoint_that_does_not_descend(self):
        # positive in p, but the precondition reads p negatively: from the
        # full set the body gives the empty set, and from there the full set
        a = EventModel(("a0",), frozenset({("a0", "a0")}), {"a0": Not(p)})
        with pytest.raises(
            PositivityViolation,
            match="fixpoint iteration for 'p' is not descending; the body is not monotone here",
        ):
            extension(two_chain(), parse_formula("nu p. <a0> true"), events=a)

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            EvalBudget(max_worlds_for_quantifier=0)


class TestEmptyModels:
    def test_global_vacuous_through_announcement(self):
        m = KripkeModel(("w0",), frozenset(), {})
        # relativising to nothing: the body is evaluated on the empty model
        assert extension(m, Announce(Bottom(), Global(p))) == frozenset()
        assert holds(m, "w0", Not(Announce(Bottom(), TOP)))


class TestEvaluatorSessions:
    def test_env_overrides_act_as_valuations(self):
        m = KripkeModel(("w0", "w1"), frozenset({("w0", "w1")}), {})
        ev = Evaluator(m)
        assert ev.extension_mask(Box(p), {"p": 0b10}) == 0b11
        assert ev.extension_mask(Box(p), {"p": 0b00}) == 0b10

    def test_sessions_reuse_products(self):
        m = two_chain()
        a = EventModel(("a0", "a1"), frozenset(), {"a0": p, "a1": TOP})
        ev = Evaluator(m, events=a)
        ev.extension(ActionDiamond("a0", p))
        ev.extension(ActionDiamond("a1", p))
        assert len(ev._products) == 1


def three_cycle(**valuation):
    return KripkeModel(
        ("w0", "w1", "w2"),
        frozenset({("w0", "w0"), ("w0", "w1"), ("w1", "w2"), ("w2", "w0")}),
        {"p": frozenset({"w1"}), "q": frozenset({"w0", "w2"}), **valuation},
    )


def two_events():
    return EventModel(
        ("a0", "a1"),
        frozenset({("a0", "a0"), ("a0", "a1"), ("a1", "a1")}),
        {"a0": parse_formula("p | q"), "a1": parse_formula("~p")},
    )


# the formula of the n-family (`n_family`)
N_FAMILY = "<a0> (exists r. (r & <> ~r & j0))"
# `exists r. (E r & ((forall q. ((E q & U (q -> r)) -> U (r -> q))) & <> r))`
SINGLETON_SCHEMA = print_formula(singleton_point_schema("r", parse_formula("<> r")))


class TestMemoKey:
    """The memo keys a node on the values of its deps, where an unbound
    prop (its model valuation) and a prop bound to the empty set differ."""

    def test_shared_node_inside_and_outside_its_binder(self):
        m, a = three_cycle(r=frozenset({"w1"})), two_events()
        shared = Diamond(Atom("r"))  # {w0} in the model, empty when r = {}

        def under_empty_r(f):
            # ~f with r bound to the empty set, its only value under the
            # guard U(r -> false): everything, for each f below
            guard = Global(Implies(Atom("r"), Bottom()))
            return ExistsProp("r", And(guard, Not(f)))

        keep = Or(p, Diamond(p))  # relativises to {w0, w1}
        in_product = ActionDiamond("a0", shared)
        in_announcement = Announce(keep, shared)
        formulas = [
            And(shared, under_empty_r(shared)),
            And(under_empty_r(shared), shared),
            ActionDiamond("a0", And(shared, under_empty_r(shared))),
            Announce(keep, And(under_empty_r(shared), shared)),
            And(in_product, under_empty_r(in_product)),
            And(under_empty_r(in_announcement), in_announcement),
        ]
        # equal formulas are one object, so the reference cannot be a
        # re-parsed copy: these are the extensions of such copies, each
        # taken on its own evaluator, before nodes were hash-consed
        expected = [{"w0"}] * 6
        ev = Evaluator(m, events=a)
        for phi, want in zip(formulas, expected, strict=True):
            assert parse_formula(print_formula(phi)) is phi
            assert Evaluator(m, events=a).extension(phi) == want
            assert ev.extension(phi) == want


    def test_nodes_built_and_dropped(self):
        # memo keys start with the node, so a node built after another was
        # dropped cannot meet the dropped node's entries, even where it
        # takes over its address
        cfg = FuzzConfig(seed=41, cases=1)
        m = random_model(cfg, 0)
        ev = Evaluator(m)
        for i in range(60):
            phi = random_formula(cfg, i, LanguageTag.BASE_MSO)
            assert ev.extension(phi) == Evaluator(m).extension(phi)
            del phi
            gc.collect()


class TestWorkCounters:
    """Work done by fixed small evaluations, pinned: subsets enumerated,
    memo entries over the session tree, product and relativised sessions.
    Equal subterms are one node, so they share memo entries."""

    @staticmethod
    def counters(ev):
        memo = products = relativised = 0
        stack = [ev]
        while stack:
            s = stack.pop()
            memo += len(s._memo)
            products += len(s._products)
            relativised += len(s._relativised)
            stack.extend(s._products.values())
            stack.extend(s._relativised.values())
        return ev._work.ticks, memo, products, relativised

    @pytest.mark.parametrize(
        "text,ext,work",
        [
            # r is pointed: each world tries only the witnesses holding it,
            # until it is decided
            ("<a0> (exists r. (r & [] ~r))", {"w1", "w2"}, (7, 34, 1, 0)),
            ("exists p. <a1> (<> p & [] q)", set(), (8, 70, 8, 0)),
            ("<!p | q> (~p & [!<> q] <> q)", {"w0", "w2"}, (0, 14, 0, 2)),
            ("nu x. (q & <> x)", {"w0", "w2"}, (0, 8, 0, 0)),
            # a node over four props is memoised while at most three are bound
            ("exists r. (<> r & (r | p | q | s))", {"w0", "w1", "w2"}, (4, 24, 0, 0)),
            # a block of four, enumerated jointly
            (
                "exists r. exists s. exists t. exists u. (<> (r & s & t & u) | p)",
                {"w0", "w1", "w2"},
                (86, 38, 0, 0),
            ),
            # no locality radius, so every subset is tried, as it always was:
            # r under U but not in guard form, under nu, in an announced
            # formula, and a bound precondition prop
            ("exists r. (~r & U (p -> <> r))", {"w0", "w1"}, (8, 47, 0, 0)),
            ("exists r. (~r & (nu x. ([] r & <> x)))", {"w2"}, (8, 70, 0, 0)),
            # under an event diamond r keeps its depth, radius 1, and with
            # ~r a conjunct each world tries only the witnesses missing it
            ("exists r. (~r & <a0> [] r)", {"w1", "w2"}, (4, 29, 1, 0)),
            ("exists r. (~r & <!<> r> q)", {"w0", "w2"}, (8, 45, 0, 6)),
            ("exists p. (p & <a1> true)", set(), (8, 46, 7, 0)),
            # the nu encoding, by iteration, and a guarded block
            ("exists x. (x & U (x -> (q & [] x)))", set(), (4, 14, 0, 0)),
            (
                "exists r. exists s. (U (r -> q) & U (s -> ~q) & <> (r | s) & ~r & ~s)",
                {"w0", "w1", "w2"},
                (4, 47, 0, 0),
            ),
            # forall, with a radius, and under an event diamond with a
            # nominal, where ~j1, read from the body's disjunct j1, is the
            # ceiling, so the j1 worlds hold without a witness (18 ticks and
            # 107 memo entries when a `forall` read only an antecedent)
            ("forall r. (<> r | [] ~r)", {"w0", "w1", "w2"}, (7, 34, 0, 0)),
            ("<a1> (forall r. (j1 | <> r | [] ~r))", {"w0", "w2"}, (17, 104, 1, 0)),
            # a vacuous binder is its body, evaluated once without a tick
            ("exists q. <> p", {"w0"}, (0, 3, 0, 0)),
            ("forall q. <> p", {"w0"}, (0, 3, 0, 0)),
            # p is its ceiling: only w1 is searched
            ("exists r. exists q. (<> r & p)", {"w1"}, (3, 14, 0, 0)),
            # U ~r is the guard U (r -> false): only the empty r is tried
            ("exists r. (U ~r & <> ~r & p)", {"w1"}, (1, 9, 0, 0)),
            # p is not free, but the product reads it: no vacuous binder
            ("exists p. <a1> true", {"w0", "w1", "w2"}, (1, 7, 1, 0)),
            ("forall p. <a1> true", set(), (5, 27, 5, 0)),
            # pointed with an empty guard: no world is listed, and the
            # empty witness is tried once
            ("exists r. (U ~r & r & <> p)", set(), (1, 7, 0, 0)),
            # `singleton_point_schema("r", <> r)`: its `forall` reads the
            # guard U (q -> r) of its antecedent (31 ticks and 191 memo
            # entries when it read none)
            (SINGLETON_SCHEMA, {"w0", "w1", "w2"}, (13, 75, 0, 0)),
        ],
    )
    def test_direct(self, text, ext, work):
        ev = Evaluator(three_cycle(), events=two_events())
        assert ev.extension(parse_formula(text)) == ext
        assert self.counters(ev) == work

    def test_rewritten(self):
        chi = translate_event(two_events(), "a0", parse_formula("exists r. (r & <> ~r)"))
        ev = Evaluator(three_cycle())
        assert ev.extension(chi) == {"w0", "w1", "w2"}
        # a block of the pointed _f0, a conjunct, and _f1, under a diamond,
        # each world searched until it is decided (7 ticks and 73 memo
        # entries when each world tried every witness its part holds)
        assert self.counters(ev) == (3, 42, 0, 0)

    def test_translated_n12(self):
        # nesting each block of three fresh props took 264,033 subsets
        # here, unpointed blocks 15,526, and trying every witness of each
        # world's part 4,864
        m, events, phi = n_family(12)
        ev = Evaluator(m)
        # the direct route quantifies over the 24-world product
        direct = Evaluator(m, events, EvalBudget(max_worlds_for_quantifier=24))
        assert ev.extension(translate_event(events, "a0", phi.body)) == direct.extension(phi)
        assert ev._work.ticks == 6

    @pytest.mark.parametrize(
        "text,n,route,ticks",
        [
            # the n-family at n = 16: 277,126 subsets direct and 76,276
            # translated when each world tried every witness of its part,
            # and the j0-false product worlds every witness holding them
            (N_FAMILY, 16, "direct", 8),
            (N_FAMILY, 16, "translated", 8),
            # the nu-family: the nu encoding's fresh props all sit under U,
            # so its block is one part; 69,648 subsets before each
            # evaluation stopped at the whole domain
            ("<a0> (nu x. (q | <> x))", 8, "translated", 48),
        ],
    )
    def test_family_ticks(self, text, n, route, ticks):
        m, events, _ = n_family(n)
        phi = parse_formula(text)
        # the direct route quantifies over a product of up to 2n worlds
        direct = Evaluator(m, events, EvalBudget(max_worlds_for_quantifier=2 * n))
        want = direct.extension(phi)
        ev = direct if route == "direct" else Evaluator(m)
        if route == "translated":
            assert ev.extension(eliminate_all(events, phi).output) == want
        assert ev._work.ticks == ticks


def n_family(n):
    """The n-family: `<a0> (exists r. (r & <> ~r & j0))` over three events
    with preconditions q, true and ~q and a full event relation, on a
    random n-world model with edge probability 0.3."""
    rng = random.Random(5)
    worlds = tuple(f"w{i}" for i in range(n))
    relation = frozenset((u, v) for u in worlds for v in worlds if rng.random() < 0.3)
    valuation = {
        "q": frozenset(rng.sample(worlds, n // 2)),
        "p": frozenset(rng.sample(worlds, n // 3)),
    }
    names = ("a0", "a1", "a2")
    events = EventModel(
        names,
        frozenset((x, y) for x in names for y in names),
        {"a0": q, "a1": TOP, "a2": Not(q)},
    )
    return KripkeModel(worlds, relation, valuation), events, parse_formula(N_FAMILY)


# the sign of each binder of the `exists` (or `forall`) chain, outermost
# first: 1 when it is pointed, its body (a `forall`'s antecedent) implying
# its variable, -1 when that implies the variable's negation, and 0 when
# neither does or it has no radius
POINTED = {
    # r a conjunct under an inner `exists s.`, and under an inner `exists
    # r.` that shadows it
    "exists r. (<> ~r & (exists s. (s & r & [] ~s)))": [1],
    "exists r. (<> r & (exists r. (r & [] ~r)))": [0],
    # a block with one pointed and one unpointed member
    "exists r. exists s. (r & <> s & [] (~r | ~s))": [1, 0],
    # r under U leaves it no radius, so it is not pointed
    "exists r. (r & U (q -> r))": [0],
    # an empty guard: one tick
    "exists r. (U ~r & r & <> p)": [1],
    # p is a precondition prop, so it has no radius; r has radius 1
    "exists p. (p & <a1> [] q)": [0],
    "exists r. (r & <a1> [] ~r)": [1],
    # `~(r -> C)` is `r & ~C`, and `forall r. (A -> C)` with r a conjunct of
    # A holds at every world outside the witness
    "exists r. ~(r -> <> [] r)": [1],
    "exists r. ~((q & r) -> <> r)": [1],
    "forall r. ((q & r) -> <> r)": [1],
    # a `forall` is read at -, as its expansion `~ exists r. ~B` is: it
    # fails only where r does
    "forall r. (<> r -> r)": [-1],
    "forall r. (r | <> ~r)": [-1],
    # under U r has no radius; `U (r -> q)` in a `forall`'s antecedent is
    # a guard, so no occurrence
    "forall r. (r -> U (q -> r))": [0],
    "forall r. ((r & U (r -> q)) -> <> r)": [1],
    # ~r as a conjunct: world w tries only the witnesses missing w
    "exists r. (~r & <> r)": [-1],
    "exists r. exists s. (~r & <> (r & s) & ~s)": [-1, -1],
    "forall r. (~r -> [] r)": [-1],
    "exists r. (~r & E r)": [0],
    # both: the body never holds, and either sign is exact
    "exists r. (r & ~r & <> r)": [1],
}

# the three spellings of one universal formula, which each tick 39 times
# on `ten_worlds()`: 392 when each world tried every witness holding it,
# and 576 for the first two when a `forall` and `~(A -> B)` under `exists`
# were not pointed
UNIVERSAL_FORMS = (
    "forall r. (r -> <> [] r)",
    "~ (exists r. ~(r -> <> [] r))",
    "~ (exists r. (r & ~<> [] r))",
)


def ten_worlds():
    """A random 10-world model, edges row-major with probability 0.3."""
    rng = random.Random(3)
    worlds = tuple(f"w{i}" for i in range(10))
    relation = frozenset((u, v) for u in worlds for v in worlds if rng.random() < 0.3)
    return KripkeModel(worlds, relation, {})


class TestNeighbourhoodEnumeration:
    """Trying only the witnesses within each world's neighbourhood of the
    binder's locality radius gives exactly the extensions that trying
    every subset of the guard gives, which is what the evaluator does when
    the radius is forced to none.  Likewise, enumerating a block of
    `exists` jointly and iterating the nu encoding `exists x. (x & U (x ->
    B))` give exactly what nesting the block and enumerating x give, which
    is what it does when both shapes are forced off.  Both forced
    references keep the per-world exits and the ceilings, so the plain
    reference, which tries every subset of the domain, checks those."""

    @staticmethod
    def flat(monkeypatch):
        scan = Evaluator._scan

        def flat_scan(self, phi):
            bodies, _, _, ceiling, _ = scan(self, phi)
            return bodies, None, 0, ceiling, None

        monkeypatch.setattr(Evaluator, "_scan", flat_scan)

    @staticmethod
    def shapes_off(monkeypatch):
        scan = Evaluator._scan
        monkeypatch.setattr(Evaluator, "_scan", lambda self, phi: (*scan(self, phi)[:4], None))

    @staticmethod
    def plain(monkeypatch):
        """Every `exists` and `forall` tries every subset of the domain, in
        ascending order, with no guard, radius, pointing, early exit or
        ceiling, and no block or nu encoding: a reference that shares none
        of the evaluator's quantifier code."""

        def every_subset(self, phi, env):
            forall = type(phi) is ForallProp
            out, sub_env = self.full if forall else 0, dict(env)
            for x in range(1 << self.n):
                self._tick(phi)
                sub_env[phi.var] = x
                got = self._eval(phi.body, sub_env)
                out = out & got if forall else out | got
            return out

        for binder in (ExistsProp, ForallProp):
            monkeypatch.setitem(semantics._HANDLERS, binder, every_subset)

    def evaluations(self, monkeypatch, force, run):
        """The evaluations that `run()` asks of any session, in order, as
        (method, model, events, arguments, result), and its return value,
        with `force(mp)` applied first unless it is None."""
        calls = []
        with monkeypatch.context() as mp:
            if force is not None:
                force(mp)
            for name in ("extension", "extension_mask", "holds"):
                method = getattr(Evaluator, name)

                def recorded(self, *args, _name=name, _method=method):
                    out = _method(self, *args)
                    calls.append((_name, self.model, self.events, args, out))
                    return out

                mp.setattr(Evaluator, name, recorded)
            return calls, run()

    @staticmethod
    def quantified(calls):
        """The (model, events, formula) of each recorded evaluation of a
        formula that holds a quantifier."""
        for _, model, events, args, _ in calls:
            phi = args[-1] if isinstance(args[-1], Formula) else args[0]
            if contains_node(phi, (ExistsProp, ForallProp)):
                yield model, events, phi

    def cross_check(self, monkeypatch, session, formula, plain=True):
        """`formula`'s extension on a fresh `session()`, equal with the
        radius and with the shapes forced off, and (with `plain`) by the
        plain reference, each at no less work."""
        ev = session()
        ext = ev.extension(formula)
        for force in (self.flat, self.shapes_off, self.plain)[: 2 + plain]:
            with monkeypatch.context() as mp:
                force(mp)
                forced = session()
                assert forced.extension(formula) == ext
            assert TestWorkCounters.counters(ev) <= TestWorkCounters.counters(forced)

    def test_harness_inputs(self, monkeypatch):
        # only the first three suites generate quantifiers; a few cases of
        # the others show that their evaluations are untouched
        cases = {"translation": 700, "announcement": 700, "fixpoint": 700,
                 "nominals": 50, "bisim_lift": 50, "degree": 50}
        quantified = set()
        shaped = {"_eval_block": 0, "_eval_nu": 0}
        # `_eval_block` serves a lone binder too, as a block of one, and
        # `_eval_nu` serves `nu` nodes too, while the encoding is an `exists`
        is_shape = {
            "_eval_block": lambda phi, env, block: len(block[0]) >= 2,
            "_eval_nu": lambda phi, env, body=None: type(phi) is ExistsProp,
        }

        def counted(mp):
            for name in shaped:
                method = getattr(Evaluator, name)

                def counting(self, phi, *args, _name=name, _method=method):
                    shaped[_name] += is_shape[_name](phi, *args)
                    return _method(self, phi, *args)

                mp.setattr(Evaluator, name, counting)

        for suite, n in cases.items():
            cfg = FuzzConfig(seed=9, cases=n, suites=(suite,))
            got, report = self.evaluations(monkeypatch, counted, lambda: run_fuzz(cfg))
            assert got and report.ok, suite
            for force in (self.flat, self.shapes_off, self.plain):
                want, forced_report = self.evaluations(monkeypatch, force, lambda: run_fuzz(cfg))
                assert got == want, (suite, force.__name__)
                assert report.payload() == forced_report.payload()
            quantified.update(self.quantified(got))
        # the rewrite golden's box towers and announcement nests, rewritten
        # under every event and evaluated on eight harness models: folding
        # leaves fewer blocks, and fewer binders, in the translation suite's
        # rewrites
        models = [random_model(FuzzConfig(seed=9, cases=1), i) for i in range(8)]
        outputs = [
            eliminate_all(events, ActionDiamond(e, psi)).output
            for _, events, e, psi in family_cases()
        ]
        run = lambda: [Evaluator(m).extension(chi) for m in models for chi in outputs]
        got, _ = self.evaluations(monkeypatch, counted, run)
        for force in (self.flat, self.shapes_off, self.plain):
            assert self.evaluations(monkeypatch, force, run)[0] == got, force.__name__
        quantified.update(self.quantified(got))
        assert len(quantified) >= 2000
        # the translation suite and the families build blocks, the fixpoint
        # suite encodings
        assert shaped["_eval_block"] >= 250 and shaped["_eval_nu"] >= 700, shaped

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_n_family(self, monkeypatch, n):
        m, events, phi = n_family(n)
        chi = translate_event(events, "a0", phi.body)
        self.cross_check(monkeypatch, lambda: Evaluator(m, events), phi)
        # the plain reference would nest the block of three fresh props,
        # 2^(3n) subsets; the direct route, checked by it, has the same
        # extension
        self.cross_check(monkeypatch, lambda: Evaluator(m), chi, plain=False)
        assert Evaluator(m).extension(chi) == Evaluator(m, events).extension(phi)

    @pytest.mark.parametrize(
        "text",
        [
            # the one node r, reached first at depth 0, then at depth 1
            "exists r. (<> r & r)",
            # an inner binder shadows r
            "exists r. (<> r & (exists r. ([] r & ~r)))",
            "exists r. ([] r & (forall r. (r | <> ~r)) & ~r)",
            # the U conjunct names an inner binder, so it is no guard, but
            # it still holds of every subset of a witness
            "exists r. (exists s. (U (r -> s) & <> r & [] ~s))",
            "exists r. (U (r -> q) & <> <> r & ~r)",
            "forall r. (<> r | [] ~r)",
            "forall r. (r -> <> [] r)",
            "exists r. forall s. (<> (r & s) | [] (~r | ~s))",
            # nominals under the binder
            "<a0> (exists r. (r & j0 & <> ~r))",
            "<a1> (forall r. (j1 | <> r | [] ~r))",
            # witnesses that no one world's neighbourhood holds: r under U
            # and E, and a U (r -> A) conjunct under a negation
            "exists r. (~r & U (q -> r))",
            "exists r. (~r & E (r & p) & E (r & q))",
            "exists r. (~r & ~U (r -> q) & ~U (r -> p))",
            # U ~r is a guard, U r and U ~~r are not
            "exists r. (U ~r & <> ~r & p)",
            "exists r. (U r & <> ~r)",
            "exists r. (U ~~r & p)",
            # the nu encoding, with x not free in B, nested, and two that
            # are not it: x negative in B, and B with an announcement
            "exists x. (x & U (x -> (q & [] x)))",
            "exists x. (x & U (x -> (q & <> x)))",
            "exists x. (x & U (x -> <> q))",
            "exists x. (x & U (x -> (exists y. (y & U (y -> (x & <> y))))))",
            "exists x. (x & U (x -> (q & ~[] x)))",
            "exists x. (x & U (x -> <!q> <> x))",
            # blocks: guarded, with a radius through an event diamond, with
            # a guard naming a member (so they nest), and one that a
            # repeated variable ends
            "exists r. exists s. (U (r -> q) & U (s -> ~q) & <> (r | s) & ~r & ~s)",
            "exists r. exists s. (<a0> [] (r | s) & ~r & ~s)",
            "exists r. exists s. (U (s -> r) & <> s & ~r)",
            "exists r. exists s. exists r. (<> r & s)",
            # ceilings: a nominal in a product, where it resolves, and at
            # the root, where it would raise and the body never reads it; an
            # index past the events; a prop an outer binder bounds; and
            # conjuncts that could raise, which are none
            "<a1> (exists r. (<> r & j1 & ~r))",
            "<a1> (forall r. ((j1 & r) -> <> r))",
            "<a0> (forall r. ((<> r & ~j1) -> [] r))",
            "exists r. ((r & ~r) & j0)",
            "forall r. ((<> (r & ~r) & j1) -> r)",
            "<a0> (exists r. ((r & ~r) & j5))",
            "exists s. (<> ~s & (exists r. (s & r & <> ~r)))",
            "exists s. (<> s & (forall r. ((s & r) -> <> r)))",
            "forall s. (s -> (exists r. (<> r & ~s & ~r)))",
            "exists r. (<> (r & ~r) & <a7> q)",
            "exists r. ((r & ~r) & (exists s. (s & <a7> q)))",
            "forall r. ((<> (r & ~r) & <!(<a7> q)> q) -> r)",
            # the binders of `test_pointed`, and the rewriter's expansions
            # of `forall r. (r -> <> [] r)` above (`UNIVERSAL_FORMS`)
            *POINTED,
            *UNIVERSAL_FORMS[1:],
            SINGLETON_SCHEMA,
        ],
    )
    def test_hand_cases(self, monkeypatch, text):
        phi = parse_formula(text)
        self.cross_check(monkeypatch, lambda: Evaluator(three_cycle(), events=two_events()), phi)

    @pytest.mark.parametrize("text", POINTED)
    def test_pointed(self, text):
        # each binder of the `exists` chain, outermost first
        ev = Evaluator(three_cycle(), events=two_events())
        phi, signs = parse_formula(text), []
        while isinstance(phi, (ExistsProp, ForallProp)):
            signs.append(ev._scan(phi)[2])
            phi = phi.body
        assert signs == POINTED[text]

    @pytest.mark.parametrize("text", UNIVERSAL_FORMS)
    def test_universal_forms(self, monkeypatch, text):
        # only the witnesses holding w can falsify the body at w, on both
        # routes: the `forall` and its expansion by the rewriter
        phi = parse_formula(text)
        self.cross_check(monkeypatch, lambda: Evaluator(ten_worlds()), phi)
        ev = Evaluator(ten_worlds())
        assert ev.extension(phi) == {"w5", "w6"}
        assert ev._work.ticks == 39

    @pytest.mark.parametrize(
        "antecedent,consequent,ticks",
        [
            # the guard U (r -> q) bounds the falsifying witnesses to
            # subsets of q: 1,024 subsets when a `forall` read no guards,
            # and 16 for its expansion when each world tried every witness
            # holding it
            ("r & U (r -> q)", "<> [] r", 5),
            # q is the expansion's ceiling and the `forall`'s floor
            ("q & r", "<> [] r", 5),
            ("q & <> r", "[] r", 8),
            # a conjunct holding a binder is no ceiling
            ("(exists s. (s & q)) & r & U (r -> ~q)", "<> r", 17),
        ],
    )
    def test_forall_reads_its_antecedent(self, monkeypatch, antecedent, consequent, ticks):
        # `forall r. (A -> B)` reads the guards, the pointing and the
        # ceiling of A as its expansion `~ exists r. ~(A -> B)` does, so
        # both do equal work
        m = ten_worlds()
        m = KripkeModel(m.worlds, m.relation, {"q": frozenset(m.worlds[:5])})
        forms = [
            parse_formula(f"forall r. (({antecedent}) -> {consequent})"),
            parse_formula(f"~ (exists r. ~(({antecedent}) -> {consequent}))"),
        ]
        work = set()
        for phi in forms:
            self.cross_check(monkeypatch, lambda: Evaluator(m), phi)
            ev = Evaluator(m)
            ev.extension(phi)
            work.add(TestWorkCounters.counters(ev)[0])
        assert work == {ticks}

    def test_bound_precondition_props(self, monkeypatch):
        # p is a precondition prop of both events, so an event diamond in
        # the body depends on p through the product at any distance
        cfg = FuzzConfig(seed=77, cases=1, max_worlds=5)
        events = two_events()
        cases = []
        for i in range(1000):
            rng = cfg.stream(i, "precondition")
            body = _gen_formula(
                rng, rng.randint(3, 9), ("p", "q"), dyn_events=events.events,
                allow_global=False,
            )
            binder = ExistsProp if i % 2 else ForallProp
            cases.append((random_model(cfg, i), binder("p", body)))
        got = [Evaluator(m, events=events).extension(phi) for m, phi in cases]
        for force in (self.flat, self.plain):
            with monkeypatch.context() as mp:
                force(mp)
                assert [Evaluator(m, events=events).extension(phi) for m, phi in cases] == got

    def test_empty_model(self, monkeypatch):
        # announcing false leaves an empty model, where the one subset,
        # the empty one, is still tried
        phi = parse_formula("~ <!false> (exists r. (r | <> ~r))")
        ev = Evaluator(three_cycle(), events=two_events())
        with monkeypatch.context() as mp:
            self.flat(mp)
            flat_ev = Evaluator(three_cycle(), events=two_events())
            assert flat_ev.extension(phi) == {"w0", "w1", "w2"}
        assert ev.extension(phi) == {"w0", "w1", "w2"}
        assert TestWorkCounters.counters(ev) == TestWorkCounters.counters(flat_ev) == (1, 6, 0, 1)

    @pytest.mark.parametrize(
        "text", ["exists r. exists s. (r | <> ~s)", "exists x. (x & U (x -> [] x))"]
    )
    def test_empty_model_shapes(self, text):
        # a block and the nu encoding also try the empty witness once
        ev = Evaluator(three_cycle(), events=two_events())
        assert ev.extension(parse_formula(f"~ <!false> ({text})")) == {"w0", "w1", "w2"}
        assert ev._work.ticks == 1


class TestChildSessions:
    """Product and relativised sessions, built from their parent's masks,
    equal sessions over the named reference models: `product_update` of
    the parent's model for a product, `relativise` with the tags kept for
    a relativisation, at every depth of the session tree.  A child session
    names no worlds; the test names them from its parent's names, its
    parent index and, in a product, its tags."""

    @staticmethod
    def layout(names, ev, skip):
        # the named models drop empty valuations and tags; a prop bound
        # above a product is read from the env there, not from `base_val`
        return (
            names,
            ev.succ,
            {p: m for p, m in ev.base_val.items() if m and p not in skip},
            {e: m for e, m in ev.tag_mask.items() if m},
        )

    @staticmethod
    def child_names(names, child, product):
        out = [names[i] for i in child._parent_index]
        if product:
            for e, mask in child.tag_mask.items():
                for c in range(child.n):
                    if (mask >> c) & 1:
                        out[c] = pair_world(out[c], e)
        return out

    def check_children(self, ev, names, named, a, seen, skip=frozenset()):
        """Compare every child below `ev`, whose worlds are `names` and
        whose named model is `named`."""
        index = {w: i for i, w in enumerate(names)}

        def worlds_of(mask):
            return frozenset(w for i, w in enumerate(names) if (mask >> i) & 1)

        for key, child in ev._products.items():
            base = named.model
            for prop, mask in key:
                base = with_valuation(base, prop, worlds_of(mask))
            ref = product_update(base, a)
            bound = skip | {prop for prop, _ in key}
            ref_index = Evaluator(ref, a).index
            parents = [
                i for i, w in enumerate(names) for e in a.events
                if pair_world(w, e) in ref_index
            ]
            child_names = self.child_names(names, child, True)
            self.compare(child, child_names, ref, a, parents, bound)
            seen["product" if child.n else "empty product"] += 1
            seen["bound precondition prop"] += bool(key)
            self.check_children(child, child_names, ref, a, seen, bound)
        for a_mask, child in ev._relativised.items():
            sub = relativise(named.model, worlds_of(a_mask))
            tags = {w: named.tags[w] for w in sub.worlds} if named.tags else {}
            ref = TaggedModel(sub, tags)
            child_names = self.child_names(names, child, False)
            self.compare(child, child_names, ref, a, [index[w] for w in sub.worlds], skip)
            seen["relativised" if child.n else "empty relativised"] += 1
            if named.tags:
                seen["relativised product"] += 1
            self.check_children(child, child_names, ref, a, seen, skip)

    def compare(self, child, names, ref, a, parents, skip):
        assert not hasattr(child, "worlds") and not hasattr(child, "index")
        named = Evaluator(ref, a)
        assert self.layout(names, child, skip) == self.layout(named.worlds, named, skip)
        assert child._parent_index == parents

    def test_harness_inputs(self):
        cfg = FuzzConfig(seed=21, cases=150, max_worlds=5)
        seen = dict.fromkeys(
            ("product", "empty product", "relativised", "empty relativised",
             "relativised product", "bound precondition prop"),
            0,
        )
        for i in range(cfg.cases):
            m, a = random_model(cfg, i), random_event_model(cfg, i)
            announced = _gen_formula(cfg.stream(i, "announced"), 4, cfg.props)
            # quantifier-free: a product of a product may outgrow the budget
            psi = random_formula(
                cfg, i, LanguageTag.SCOPED_NOMINALS, n_events=len(a.events), max_eps=0
            )
            formulas = []
            for k, e in enumerate(a.events):
                then = a.events[(k + 1) % len(a.events)]
                formulas += [
                    ActionDiamond(e, Announce(announced, ActionDiamond(then, psi))),
                    Announce(announced, ActionDiamond(e, Box(psi))),
                    Announce(Bottom(), ActionDiamond(e, TOP)),
                    ExistsProp("p", ActionDiamond(e, Diamond(Announce(p, Not(p))))),
                ]
            cases = [(a, formulas)]
            if i % 10 == 0:  # no precondition holds: the product is empty
                never = EventModel(a.events, a.relation, dict.fromkeys(a.events, Bottom()))
                cases.append((never, [ActionDiamond(e, TOP) for e in a.events]))
            for events, phis in cases:
                ev = Evaluator(m, events=events)
                for phi in phis:
                    ev.extension(phi)
                self.check_children(ev, ev.worlds, TaggedModel(m, {}), events, seen)
        assert min(seen.values()) >= 20, seen
