import copy
import dataclasses
import gc
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import produpd
from produpd import syntax
from produpd import (
    TOP,
    ActionDiamond,
    And,
    Announce,
    Atom,
    Box,
    ExistsProp,
    Global,
    Implies,
    InputNotSentenceFragment,
    LanguageTag,
    Nominal,
    Not,
    Nu,
    Or,
    PositivityViolation,
    alpha_equal,
    classify,
    eliminate_all,
    formula_size,
    free_props,
    fresh_props,
    parse_formula,
    quantifier_count,
    substitute,
)
from produpd.harness import (
    _SUITES,
    FuzzConfig,
    _positive_body,
    random_event_model,
    random_formula,
    translation_case_inputs,
)
from produpd.syntax import (
    _BINDERS,
    _NODE_KINDS,
    _NONPOSITIVE_BIT,
    _UNSCOPED_BIT,
    Diamond,
    Formula,
    ForallProp,
    all_props,
    check_nu_positivity,
    children,
    contains_node,
    is_positive_in,
    modal_depth,
    nu_encoding,
    rebuild,
    replace_subformula,
    subformula_at,
    subformula_positions,
)
from produpd.models import EventModel
from produpd.parser import print_formula
from produpd.translator import translate_event

p, q, r = Atom("p"), Atom("q"), Atom("r")


class TestFreeProps:
    def test_quantifier_binds(self):
        assert free_props(ExistsProp("p", And(p, q))) == {"q"}

    def test_fixpoint_binds(self):
        assert free_props(Nu("p", Box(p))) == frozenset()

    def test_nominals_are_not_propositions(self):
        assert free_props(ActionDiamond("a0", And(p, Nominal(0)))) == {"p"}

    def test_announced_counts(self):
        assert free_props(Announce(q, p)) == {"p", "q"}


class TestQuantifierCount:
    def test_nested(self):
        assert quantifier_count(ExistsProp("p", ExistsProp("q", And(p, q)))) == 2

    def test_none(self):
        assert quantifier_count(Box(p)) == 0

    def test_counts_under_negation(self):
        phi = ExistsProp("p", And(p, Not(ExistsProp("q", q))))
        assert quantifier_count(phi) == 2

    def test_forall_counts_through_expansion(self):
        assert quantifier_count(parse_formula("forall p. p")) == 1

    def test_rejects_nu(self):
        with pytest.raises(InputNotSentenceFragment):
            quantifier_count(Nu("p", p))

    def test_rejects_announce(self):
        with pytest.raises(InputNotSentenceFragment):
            quantifier_count(Announce(p, q))


class TestSubstitute:
    def test_plain(self):
        assert substitute(Box(p), "p", And(q, Nominal(0))) == Box(And(q, Nominal(0)))

    def test_capture_avoided(self):
        phi = ExistsProp("q", And(p, q))
        out = substitute(phi, "p", q)
        assert isinstance(out, ExistsProp)
        assert out.var != "q"
        assert out.body == And(q, Atom(out.var))

    def test_no_free_occurrence(self):
        phi = ExistsProp("p", p)
        assert substitute(phi, "p", q) == phi

    def test_identity_substitution_alpha_equal(self):
        cfg = FuzzConfig(seed=5, cases=1)
        for i in range(80):
            phi = random_formula(cfg, i, LanguageTag.BASE_MSO)
            for name in ("p", "q"):
                assert alpha_equal(substitute(phi, name, Atom(name)), phi)

    def test_count_arithmetic(self):
        # substituting rho for the free occurrences of p adds one count of
        # rho's quantifiers per occurrence
        def free_occurrences(phi, name):
            if phi == Atom(name):
                return 1
            from produpd.syntax import _BINDERS, children

            if isinstance(phi, _BINDERS) and phi.var == name:
                return 0
            return sum(free_occurrences(c, name) for c in children(phi))

        rho = ExistsProp("q", And(q, r))
        cfg = FuzzConfig(seed=6, cases=1)
        for i in range(80):
            phi = random_formula(cfg, i, LanguageTag.BASE_MSO)
            occurrences = free_occurrences(phi, "p")
            expected = quantifier_count(phi) + occurrences * quantifier_count(rho)
            assert quantifier_count(substitute(phi, "p", rho)) == expected

    def test_quantifier_free_replacement_preserves_count(self):
        cfg = FuzzConfig(seed=7, cases=1)
        for i in range(80):
            phi = random_formula(cfg, i, LanguageTag.BASE_MSO)
            assert quantifier_count(substitute(phi, "p", And(q, r))) == quantifier_count(phi)

    def test_shared_map_matches_reference(self):
        # generated binders bind p, q and r, so a replacement that reads one
        # of them renames the binders that capture it; in `nested` both
        # binders capture `r | q` when p is replaced
        replacements = [TOP, r, Or(r, q), And(Atom("s"), Nominal(0)), Or(p, Atom("_f0")),
                        ExistsProp("q", q)]
        nested = ExistsProp("q", And(q, ExistsProp("r", And(p, Or(q, r)))))
        renamed = 0
        for phi in [nested, *harness_formulas(1)]:
            for f in _distinct_nodes(phi):
                for target in ("p", "q", "r"):
                    for rho in replacements:
                        out = substitute(f, target, rho)
                        assert out is ref_substitute(f, target, rho)
                        renamed += not all_props(out) <= all_props(f) | all_props(rho)
        assert renamed > 0


def ref_substitute(phi, target, replacement):
    """`substitute` as a walk of its own, memoised per call."""
    repl_free = free_props(replacement)
    done = {}

    def go(f):
        if target not in free_props(f):
            return f
        out = done.get(f)
        if out is not None:
            return out
        if isinstance(f, Atom):
            out = replacement if f.name == target else f
        elif isinstance(f, _BINDERS):
            if f.var in repl_free:
                avoid = all_props(f.body) | repl_free | {target, f.var}
                fresh = fresh_props(1, avoid)[0]
                renamed = ref_substitute(f.body, f.var, Atom(fresh))
                out = type(f)(fresh, go(renamed))
            else:
                out = type(f)(f.var, go(f.body))
        else:
            out = rebuild(f, tuple(go(c) for c in children(f)))
        done[f] = out
        return out

    return go(phi)


class TestAlphaEqual:
    @pytest.mark.parametrize(
        "f,g",
        [
            (Box(p), Diamond(p)),
            (Nu("x", Box(Atom("x"))), ExistsProp("x", Box(Atom("x")))),
            (ActionDiamond("a0", Nominal(0)), ActionDiamond("a0", Nominal(1))),
            (ActionDiamond("a0", p), ActionDiamond("a1", p)),
            # y is free on the left and bound on the right
            (ExistsProp("x", And(Atom("x"), Atom("y"))), ExistsProp("y", And(Atom("y"), Atom("y")))),
            (parse_formula("exists x. exists x. x"), parse_formula("exists x. exists y. x")),
            # a free name that starts with the first canonical prefix: both
            # sides would read `exists _c1. _c1` under that prefix
            (ExistsProp("x", Atom("_c1")), ExistsProp("y", Atom("y"))),
        ],
    )
    def test_unequal(self, f, g):
        assert not alpha_equal(f, g)
        assert not alpha_equal(g, f)

    def test_equal_beside_a_free_name_with_the_prefix(self):
        f = ExistsProp("x", And(Atom("x"), Atom("_c1")))
        assert alpha_equal(f, ExistsProp("y", And(Atom("y"), Atom("_c1"))))
        assert alpha_equal(Nu("x", Box(Atom("x"))), Nu("y", Box(Atom("y"))))


class TestFreshProps:
    def test_basic(self):
        assert fresh_props(2, {"p", "q"}) == ["_f0", "_f1"]

    def test_empty(self):
        assert fresh_props(0, set()) == []

    def test_skips_collisions(self):
        assert fresh_props(1, {"_f0"}) == ["_f1"]


class TestClassify:
    def test_base(self):
        assert classify(ExistsProp("p", Global(p))) is LanguageTag.BASE_MSO

    def test_scoped_nominal(self):
        assert classify(ActionDiamond("a0", Nominal(0))) is LanguageTag.SCOPED_NOMINALS

    def test_unscoped_nominal(self):
        assert classify(And(Nominal(0), p)) is LanguageTag.SENTENCE_ONLY

    def test_action(self):
        assert classify(ActionDiamond("a0", p)) is LanguageTag.ACTION_MSO

    def test_announce_is_action_tier(self):
        assert classify(Announce(p, q)) is LanguageTag.ACTION_MSO

    def test_mu(self):
        assert classify(Nu("p", Box(p))) is LanguageTag.MU_FRAGMENT

    def test_positivity_violation(self):
        with pytest.raises(PositivityViolation):
            classify(Nu("p", Not(p)))

    def test_implication_antecedent_is_negative(self):
        with pytest.raises(PositivityViolation):
            classify(Nu("p", Implies(p, q)))
        assert classify(Nu("p", Implies(q, p))) is LanguageTag.MU_FRAGMENT

    def test_base_classification_means_static(self):
        cfg = FuzzConfig(seed=8, cases=1)
        for i in range(100):
            phi = random_formula(cfg, i, LanguageTag.BASE_MSO)
            assert classify(phi) is LanguageTag.BASE_MSO
            assert not contains_node(phi, (Nominal, ActionDiamond, Announce))

    def test_monotone_under_same_tag_replacement(self):
        phi = And(ActionDiamond("a0", Nominal(0)), p)
        assert classify(phi) is LanguageTag.SCOPED_NOMINALS
        swapped = And(ActionDiamond("a0", Nominal(1)), p)
        assert classify(swapped) is LanguageTag.SCOPED_NOMINALS


class TestPositivity:
    def test_even_negations(self):
        assert is_positive_in(Not(Not(p)), "p")

    def test_announced_occurrence_blocks(self):
        assert not is_positive_in(Announce(p, q), "p")
        assert is_positive_in(Announce(q, p), "p")

    def test_shadowing(self):
        assert is_positive_in(ExistsProp("p", Not(p)), "p")


class TestTreeUtilities:
    def test_positions_and_replace(self):
        phi = And(p, Box(q))
        positions = subformula_positions(phi)
        assert () in positions and (1, 0) in positions
        assert subformula_at(phi, (1, 0)) == q
        assert replace_subformula(phi, (1, 0), TOP) == And(p, Box(TOP))

    def test_size(self):
        assert formula_size(And(p, Box(q))) == 4

    def test_nu_encoding(self):
        body = And(q, Box(Atom("x")))
        assert nu_encoding("x", body) is parse_formula("exists x. (x & U (x -> (q & [] x)))")


# -- the cached facts against their recursive definitions ------------------


def ref_free_props(phi):
    if isinstance(phi, Atom):
        return frozenset((phi.name,))
    if isinstance(phi, _BINDERS):
        return ref_free_props(phi.body) - {phi.var}
    out = frozenset()
    for c in children(phi):
        out |= ref_free_props(c)
    return out


def ref_formula_size(phi):
    return 1 + sum(ref_formula_size(c) for c in children(phi))


def ref_quantifier_count(phi):
    if isinstance(phi, (Nu, Announce)):
        raise InputNotSentenceFragment(
            f"quantifier count undefined on {type(phi).__name__} nodes"
        )
    base = 1 if isinstance(phi, (ExistsProp, ForallProp)) else 0
    return base + sum(ref_quantifier_count(c) for c in children(phi))


def ref_contains_node(phi, kinds):
    if isinstance(phi, kinds):
        return True
    return any(ref_contains_node(c, kinds) for c in children(phi))


def ref_polarity_ok(phi, var, positive):
    if isinstance(phi, Atom):
        return positive if phi.name == var else True
    if isinstance(phi, Not):
        return ref_polarity_ok(phi.body, var, not positive)
    if isinstance(phi, Implies):
        return ref_polarity_ok(phi.left, var, not positive) and ref_polarity_ok(
            phi.right, var, positive
        )
    if isinstance(phi, _BINDERS):
        return phi.var == var or ref_polarity_ok(phi.body, var, positive)
    if isinstance(phi, Announce):
        if var in ref_free_props(phi.announced):
            return False
        return ref_polarity_ok(phi.body, var, positive)
    return all(ref_polarity_ok(c, var, positive) for c in children(phi))


def ref_modal_depth(phi):
    step = 1 if isinstance(phi, (Box, Diamond)) else 0
    return step + max((ref_modal_depth(c) for c in children(phi)), default=0)


def ref_nominals_read(phi):
    """One more than the highest nominal index, 0 with none."""
    if isinstance(phi, Nominal):
        return phi.index + 1
    return max((ref_nominals_read(c) for c in children(phi)), default=0)


def ref_has_unscoped_nominal(phi, scoped=False):
    if isinstance(phi, Nominal):
        return not scoped
    if isinstance(phi, ActionDiamond):
        return ref_has_unscoped_nominal(phi.body, True)
    # an announced formula is evaluated on the current model, so an
    # announcement does not scope nominals
    return any(ref_has_unscoped_nominal(c, scoped) for c in children(phi))


def ref_check_nu_positivity(phi):
    if isinstance(phi, Nu) and not ref_polarity_ok(phi.body, phi.var, True):
        raise PositivityViolation(f"fixpoint body is not positive in {phi.var!r}")
    for c in children(phi):
        ref_check_nu_positivity(c)


def _positivity_error(check, phi):
    try:
        check(phi)
    except PositivityViolation as e:
        return str(e)
    return None


KIND_QUERIES = [
    *_NODE_KINDS, (ActionDiamond, Announce, Nu), (ExistsProp, ForallProp), Formula
]
GENERATED_TAGS = (
    LanguageTag.BASE_MSO, LanguageTag.SCOPED_NOMINALS, LanguageTag.MU_FRAGMENT
)


def _quantifiers_or_error(count, phi):
    try:
        return count(phi)
    except InputNotSentenceFragment as e:
        return str(e)


def assert_facts_agree(phi):
    """Every distinct node object below `phi` answers as the reference."""
    seen = set()
    stack = [phi]
    while stack:
        f = stack.pop()
        if id(f) in seen:
            continue
        seen.add(id(f))
        stack.extend(children(f))
        assert free_props(f) == ref_free_props(f)
        assert f._facts.deps == tuple(sorted(ref_free_props(f)))
        assert formula_size(f) == ref_formula_size(f)
        assert _quantifiers_or_error(quantifier_count, f) == _quantifiers_or_error(
            ref_quantifier_count, f
        )
        for kinds in KIND_QUERIES:
            assert contains_node(f, kinds) == ref_contains_node(f, kinds)
        for var in ("p", "q", "r", "s"):
            assert is_positive_in(f, var) == ref_polarity_ok(f, var, True)
        assert modal_depth(f) == ref_modal_depth(f)
        assert f._facts.nominals == ref_nominals_read(f)
        assert bool(f._facts.kinds & _UNSCOPED_BIT) == ref_has_unscoped_nominal(f)
        error = _positivity_error(ref_check_nu_positivity, f)
        assert bool(f._facts.kinds & _NONPOSITIVE_BIT) == (error is not None)
        assert _positivity_error(check_nu_positivity, f) == error


def harness_formulas(seed):
    """Formulas from every generator of the harness, the translator's
    output on them, and nests of them under fixpoints and announcements."""
    cfg = FuzzConfig(seed=seed, cases=1)
    for i in range(6):
        made = [random_formula(cfg, i, tag) for tag in GENERATED_TAGS]
        made += random_event_model(cfg, i).pre.values()
        made.append(_positive_body(cfg, i, "p"))
        _, a, psi = translation_case_inputs(cfg, i)
        made += [translate_event(a, e, psi) for e in a.events]
        for build in _SUITES.values():
            case = build(cfg, i)
            made += [case.formula, case.recorded[2], *case.extra.values()]
        made = [f for f in made if f is not None]
        yield from made
        for f, g in zip(made, made[1:]):
            yield And(Box(Announce(f, g)), Nu("p", And(g, f)))
            yield Not(ActionDiamond("a0", Implies(Nu("q", f), Announce(g, f))))


@pytest.mark.parametrize("seed", [1, 7, 42, 2024])
def test_cached_facts_match_reference(seed):
    for phi in harness_formulas(seed):
        assert_facts_agree(phi)


@pytest.mark.parametrize("seed", [1, 7])
def test_str_is_the_printer(seed):
    # `parser` re-exports the printer that `syntax` defines
    assert print_formula is syntax.print_formula
    assert str(And(Atom("str_probe"), Nu("x", Box(Atom("x"))))) == "(str_probe & (nu x. [] x))"
    for phi in harness_formulas(seed):
        for f in _distinct_nodes(phi):
            assert str(f) == print_formula(f)


class TestCachedFacts:
    def test_quantifier_count_names_first_in_preorder(self):
        nested = And(Box(Announce(p, Nu("q", q))), Nu("r", r))
        with pytest.raises(InputNotSentenceFragment, match="on Announce nodes"):
            quantifier_count(nested)
        nested = And(Not(ExistsProp("p", Nu("r", Announce(p, r)))), Announce(q, q))
        with pytest.raises(InputNotSentenceFragment, match="on Nu nodes"):
            quantifier_count(nested)

    def test_shared_subterm_counts_per_occurrence(self):
        shared = ExistsProp("p", And(p, q))
        phi = And(shared, Box(shared))
        assert formula_size(phi) == 2 * formula_size(shared) + 2 == 10
        assert quantifier_count(phi) == 2

    def test_deps_reuse_a_child_tuple(self):
        pq = And(q, p)
        assert Atom("p")._facts.deps == ("p",)
        assert pq._facts.deps == ("p", "q")
        # a node whose free props are a child's keeps that child's tuple
        for f in (Box(pq), And(p, pq), And(pq, q), ExistsProp("r", pq), Announce(p, pq)):
            assert f._facts.deps is pq._facts.deps
        assert ExistsProp("p", p)._facts.deps == () == TOP._facts.deps

    def test_pickle_round_trip(self):
        for phi in harness_formulas(3):
            free_props(phi)
            copy = pickle.loads(pickle.dumps(phi))
            assert copy == phi and hash(copy) == hash(phi)
            assert_facts_agree(copy)

    def test_replace_recomputes(self):
        phi = ExistsProp("p", And(p, Not(q)))
        assert free_props(phi) == {"q"}
        assert not is_positive_in(phi, "q")
        renamed = dataclasses.replace(phi, var="q")
        assert free_props(renamed) == {"p"}
        assert is_positive_in(renamed, "q")
        swapped = dataclasses.replace(phi, body=Nu("r", r))
        assert free_props(swapped) == frozenset()
        assert contains_node(swapped, Nu)
        with pytest.raises(InputNotSentenceFragment):
            quantifier_count(swapped)
        for f in (renamed, swapped):
            assert_facts_agree(f)

    def test_positivity_names_first_fixpoint_in_preorder(self):
        cases = [
            (And(Nu("q", Not(q)), Nu("p", Not(p))), "q"),
            # the outer fixpoint comes first, also when an inner one fails
            (Nu("p", And(Not(p), Nu("q", Not(q)))), "p"),
            (Nu("p", Box(And(p, Nu("q", Implies(q, r))))), "q"),
        ]
        for phi, var in cases:
            assert phi._facts.kinds & _NONPOSITIVE_BIT
            with pytest.raises(PositivityViolation, match=f"not positive in '{var}'"):
                check_nu_positivity(phi)
        assert not Nu("p", Box(p))._facts.kinds & _NONPOSITIVE_BIT

    def test_facts_stay_out_of_equality_and_repr(self):
        fresh = And(p, Box(q))
        asked = And(p, Box(q))
        formula_size(asked)
        assert fresh == asked and hash(fresh) == hash(asked)
        assert repr(fresh) == repr(asked)
        assert repr(asked) == "And(left=Atom(name='p'), right=Box(body=Atom(name='q')))"


def _distinct_nodes(phi):
    seen, stack = {}, [phi]
    while stack:
        f = stack.pop()
        if id(f) not in seen:
            seen[id(f)] = f
            stack.extend(children(f))
    return list(seen.values())


# the k-family event model: three events, full relation, preconditions
# q, true and ~q
E3 = EventModel(
    ("a0", "a1", "a2"),
    frozenset((x, y) for x in ("a0", "a1", "a2") for y in ("a0", "a1", "a2")),
    {"a0": parse_formula("q"), "a1": TOP, "a2": parse_formula("~q")},
)


def _counting_children(monkeypatch):
    """The nodes that `syntax.children` is called on from here on."""
    calls = []

    def counting(f):
        calls.append(f)
        return children(f)

    monkeypatch.setattr(syntax, "children", counting)
    return calls


class TestWalksRetired:
    def test_depth_and_classify_read_the_facts(self, monkeypatch):
        # 2,007,663 tree nodes at k = 10, so a tree walk took seconds
        tower = parse_formula("<a0> " + "[] " * 8 + "(exists r. (r & <> r))")
        out = eliminate_all(E3, tower).output
        calls = _counting_children(monkeypatch)
        assert modal_depth(out) == 9
        assert classify(out) is LanguageTag.BASE_MSO
        assert calls == []

    def test_positivity_walk_follows_the_dag(self, monkeypatch):
        # the encoded fixpoint: 354,293 tree nodes in the encoded body and
        # 75 distinct, each read once per polarity at most
        phi = parse_formula("nu x. (q & <a0> " + "[] " * 10 + "x)")
        out = eliminate_all(E3, phi).output
        body = out.body.right.body.right
        assert out is nu_encoding("x", body)
        calls = _counting_children(monkeypatch)
        assert is_positive_in(body, "x")
        assert 0 < len(calls) <= 2 * len(_distinct_nodes(body))


class TestHashConsing:
    def test_equal_constructions_are_one_object(self):
        for phi in harness_formulas(5):
            fields = [getattr(phi, f.name) for f in dataclasses.fields(phi)]
            assert type(phi)(*fields) is phi
            assert rebuild(phi, children(phi)) is phi
            try:
                assert parse_formula(print_formula(phi)) is phi
            except PositivityViolation:  # generated non-positive fixpoints
                pass
        assert And(Atom("p"), Box(Atom("q"))) is And(p, Box(q))
        assert Nu("x", Atom("x")) is not ExistsProp("x", Atom("x"))
        assert Nominal(0) is Nominal(0) and Nominal(0) is not Nominal(1)

    def test_copies_return_the_interned_node(self):
        for phi in harness_formulas(9):
            assert pickle.loads(pickle.dumps(phi)) is phi
            assert copy.deepcopy(phi) is phi
            assert copy.copy(phi) is phi
        phi = ExistsProp("p", And(p, Not(q)))
        assert dataclasses.replace(phi, var="q") is ExistsProp("q", And(p, Not(q)))
        assert dataclasses.replace(phi) is phi
        assert dataclasses.replace(And(p, q), right=p) is And(p, p)
        with pytest.raises(TypeError):
            dataclasses.replace(phi, name="p")
        with pytest.raises(TypeError):
            Atom()

    def test_entry_goes_with_its_node(self):
        phi = Atom("hash_consing_probe")
        assert Atom._nodes[("hash_consing_probe",)]() is phi
        del phi
        gc.collect()
        assert ("hash_consing_probe",) not in Atom._nodes

    def test_facts_once_per_distinct_subterm(self, monkeypatch):
        # facts are built only by the constructor, once per new node
        tower = parse_formula("[] " * 6 + "(exists r. (r & <> r))")
        built = []
        build = syntax._Facts

        def counting(*fields):
            built.append(fields)
            return build(*fields)

        monkeypatch.setattr(syntax, "_Facts", counting)
        out = translate_event(E3, "a0", tower)
        dag = _distinct_nodes(out)
        assert formula_size(out) == 24783
        assert len(dag) == 77
        # the output's distinct nodes, and the ten of the nominal-tagged
        # body that the quantifier clause rewrites but does not output: the
        # nominals j0..j2, the three `f & j`, the two `|` joining them, and
        # `<> tagged` and `tagged & <> tagged`, the body with r substituted
        assert 0 < len(built) <= len(dag) + 10
        assert all(hasattr(f, "_facts") for f in dag)

    def test_caches_stay_out_of_equality_hash_and_repr(self):
        phi = And(Atom("caches_probe"), Box(q))
        fields = [f.name for f in dataclasses.fields(phi)]
        h, text = hash(phi), repr(phi)
        formula_size(phi)
        print_formula(phi)
        assert phi._facts and phi._text
        assert fields == ["left", "right"]
        assert hash(phi) == h and repr(phi) == text
        assert phi == And(Atom("caches_probe"), Box(q))
        assert text == "And(left=Atom(name='caches_probe'), right=Box(body=Atom(name='q')))"

    @pytest.mark.parametrize("hash_seed", ["0", "1", "12345"])
    def test_injected_failures_independent_of_hash_seed(self, hash_seed):
        # regenerated in a fresh process, where string hashes and object
        # addresses differ, the golden comes out byte-identical: no output
        # depends on hash or id order
        tests = Path(__file__).parent
        done = subprocess.run(
            [sys.executable, str(tests / "test_harness_failures.py")],
            capture_output=True,
            env={
                **os.environ,
                "PYTHONHASHSEED": hash_seed,
                "PYTHONPATH": str(Path(produpd.__file__).resolve().parent.parent),
            },
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == (tests / "data" / "injected_failures.json").read_bytes()
