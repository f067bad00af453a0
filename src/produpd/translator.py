"""Rewrites dynamic modalities into the static quantified base language.

Event diamonds are pushed through every connective by one reduction
clause per connective, and one table (`_CONNECTIVES`) holds those
clauses.  The quantifier case routes through action nominals: the bound
proposition is replaced by a disjunction of fresh propositions paired
with nominals, one per event, guarded by conjuncts tying each fresh
proposition to the corresponding precondition.  An announcement is the
product update with one reflexive event whose precondition is the
announced formula, so announcements reduce by the same table; only their
leaf, nested-announcement and quantifier clauses are their own, the last
guarded by the announced formula.  Greatest fixpoints are encoded with
the propositional quantifier first.

Every recursive event-translation call strictly decreases the pair
(quantifier count, size) lexicographically: the quantifier case trades
one binder for a quantifier-free disjunction, all other cases recurse on
smaller formulas.  The check is enforced at run time.

The rules repeat the same subproblem for every path through the event
model, so the output is a tree far larger than its set of distinct
subterms.  Nodes are hash-consed (see `syntax`), and within one call each
(event, node) or (announced formula, node) pair is rewritten once: a
repeat returns the memoised result and replays the span of the steps
trace that the first rewrite recorded, so output and trace are those of
the unshared tree while the work follows the shared graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (
    InputNotSentenceFragment,
    PreconditionNotBaseMso,
    ProdupdError,
    UnknownEvent,
)
from .models import EventModel
from .parser import print_dynamic, print_formula
from .syntax import (
    ActionDiamond,
    And,
    Announce,
    Atom,
    Bottom,
    Box,
    Diamond,
    ExistsGlobal,
    ExistsProp,
    ForallProp,
    Formula,
    Global,
    Implies,
    LanguageTag,
    Nominal,
    Not,
    Nu,
    Or,
    Top,
    all_props,
    children,
    classify,
    conj,
    contains_node,
    disj,
    formula_size,
    free_props,
    fresh_props,
    quantifier_count,
    rebuild,
    substitute,
)

# the nodes that `eliminate_all` rewrites away
_DYNAMIC = (Nu, Announce, ActionDiamond)


@dataclass
class TranslationStep:
    rule: str
    at: str

    def to_jsonable(self) -> dict:
        return {"rule": self.rule, "at": self.at}


@dataclass
class TranslationReport:
    """Witness of one elimination run: the formulas, the size and
    quantifier metrics, and the trace of rewrite rules applied."""

    input: Formula
    output: Formula
    input_size: int
    output_size: int
    input_eps: int
    output_eps: int
    steps: list[TranslationStep] = field(default_factory=list)

    def to_jsonable(self) -> dict:
        """The report as JSON data.

        A replayed span repeats the same `TranslationStep` objects, and each
        distinct step gets one dict that every occurrence shares, so
        `parser.dump_json` encodes it once.  Callers must treat the step
        dicts as read-only.
        """
        distinct = {id(s): s for s in self.steps}
        as_dict = {k: s.to_jsonable() for k, s in distinct.items()}
        return {
            "input": print_formula(self.input),
            "output": print_formula(self.output),
            "input_size": self.input_size,
            "output_size": self.output_size,
            "input_eps": self.input_eps,
            "output_eps": self.output_eps,
            "steps": [as_dict[id(s)] for s in self.steps],
        }


def expand_foralls(phi: Formula) -> Formula:
    """Replace every universal propositional quantifier by its negation
    expansion, so downstream rules only meet the existential binder."""
    if not contains_node(phi, ForallProp):
        return phi
    parts = tuple(expand_foralls(c) for c in children(phi))
    out = rebuild(phi, parts)
    if isinstance(out, ForallProp):
        return Not(ExistsProp(out.var, Not(out.body)))
    return out


def fold_constants(phi: Formula) -> Formula:
    """Boolean constant folding, nothing else."""
    done: dict[Formula, Formula] = {}

    def go(f: Formula) -> Formula:
        out = done.get(f)
        if out is None:
            out = done[f] = _fold(rebuild(f, tuple(go(c) for c in children(f))))
        return out

    return go(phi)


def _fold(out: Formula) -> Formula:
    if isinstance(out, Not):
        if isinstance(out.body, Top):
            return Bottom()
        if isinstance(out.body, Bottom):
            return Top()
    elif isinstance(out, And):
        if isinstance(out.left, Bottom) or isinstance(out.right, Bottom):
            return Bottom()
        if isinstance(out.left, Top):
            return out.right
        if isinstance(out.right, Top):
            return out.left
    elif isinstance(out, Or):
        if isinstance(out.left, Top) or isinstance(out.right, Top):
            return Top()
        if isinstance(out.left, Bottom):
            return out.right
        if isinstance(out.right, Bottom):
            return out.left
    elif isinstance(out, Implies):
        if isinstance(out.left, Bottom) or isinstance(out.right, Top):
            return Top()
        if isinstance(out.left, Top):
            return out.right
        if isinstance(out.right, Bottom):
            return Not(out.left)
    return out


# The reduction clause of each connective, read by both rewriters: the
# rule name, whether the result is conjoined with the precondition, and
# for a modality which events its body is rewritten under, those "related"
# to the current one or "every" event.  An announcement is the product
# update with one reflexive event whose precondition is the announced
# formula, so its clauses are these with the rule names prefixed "ann-".
_CONNECTIVES = {
    Not: ("negation", True, None),
    And: ("conjunction", False, None),
    Or: ("disjunction", False, None),
    Implies: ("implication", True, None),
    Box: ("box", True, "related"),
    Diamond: ("diamond", True, "related"),
    Global: ("global", True, "every"),
    ExistsGlobal: ("somewhere", True, "every"),
}
_UNIVERSAL = (Box, Global)


def _connect(psi: Formula, pre: Formula, parts: list) -> Formula:
    """`psi`'s connective over its rewritten parts by its `_CONNECTIVES`
    clause, under precondition `pre`.  A modality's parts are (precondition,
    rewritten body) pairs, one per event: a universal one guards each body
    with its precondition and joins them with `conj`, an existential one
    joins them with `disj`."""
    cls = type(psi)
    _, guarded, scope = _CONNECTIVES[cls]
    if scope is None:
        out = cls(*parts)
    elif cls in _UNIVERSAL:
        out = conj([cls(Implies(pre_b, body)) for pre_b, body in parts])
    else:
        out = disj([cls(body) for _, body in parts])
    return And(pre, out) if guarded else out


def _measure(phi: Formula) -> tuple[int, int]:
    return (quantifier_count(phi), formula_size(phi))


def _record(steps, rule: str, modality: str | Formula, psi: Formula):
    # the step's text is `<modality> psi`, or `<!modality> psi` for an
    # announced formula, printed without building that node
    if steps is not None:
        steps.append(TranslationStep(rule, print_dynamic(modality, psi)))


def translate_event(
    a: EventModel,
    alpha: str,
    psi: Formula,
    *,
    steps: list | None = None,
    measure_log: list | None = None,
) -> Formula:
    """Base-language formula equivalent to `<alpha> psi`.

    `psi` may contain nominals but no event diamonds, announcements or
    fixpoints.  `measure_log` collects (parent, child) measure pairs for
    every recursive call; the strict lexicographic decrease is checked
    regardless.

    Each (event, node) pair is rewritten once per call: a repeat returns
    the memoised result and replays the slice of `steps` that the first
    rewrite recorded, so the trace is that of the unshared tree.
    """
    if alpha not in a.pre:
        raise UnknownEvent(f"unknown event {alpha!r}")
    if contains_node(psi, _DYNAMIC):
        raise InputNotSentenceFragment(
            "event translation takes formulas without dynamic or fixpoint nodes"
        )
    prepared = expand_foralls(psi)
    if prepared is not psi:
        _record(steps, "expand-forall", alpha, psi)
    return _tr_event(a, alpha, prepared, steps, measure_log, None, {})


def _tr_event(a, alpha, psi, steps, log, parent, memo) -> Formula:
    m = _measure(psi)
    if parent is not None:
        if log is not None:
            log.append((parent, m))
        if not m < parent:
            raise ProdupdError(
                f"translation measure did not decrease: {parent} -> {m}"
            )
    key = (alpha, psi)
    done = memo.get(key)
    if done is not None:
        return _replay(steps, done)
    start = None if steps is None else len(steps)
    pre = a.pre[alpha]
    clause = _CONNECTIVES.get(type(psi))
    if clause is not None:
        rule, _, scope = clause
        _record(steps, rule, alpha, psi)
        parts = []
        if scope is None:
            for c in children(psi):
                parts.append(_tr_event(a, alpha, c, steps, log, m, memo))
        else:
            for b in a.events:
                if scope == "every" or (alpha, b) in a.relation:
                    body = _tr_event(a, b, psi.body, steps, log, m, memo)
                    parts.append((a.pre[b], body))
        out = _connect(psi, pre, parts)
    elif isinstance(psi, (Atom, Top, Bottom)):
        _record(steps, "atom", alpha, psi)
        out = And(pre, psi)
    elif isinstance(psi, Nominal):
        if psi.index == a.index_of(alpha):
            _record(steps, "nominal-match", alpha, psi)
            out = pre
        else:
            _record(steps, "nominal-mismatch", alpha, psi)
            out = Bottom()
    elif isinstance(psi, ExistsProp):
        _record(steps, "quantifier", alpha, psi)
        n = len(a.events)
        avoid = set(all_props(psi))
        for f in a.pre.values():
            avoid |= all_props(f)
        names = fresh_props(n, avoid)
        tagged = disj([And(Atom(names[i]), Nominal(i)) for i in range(n)])
        body = substitute(psi.body, psi.var, tagged)
        guards = [
            Global(Implies(Atom(names[i]), a.pre[a.events[i]])) for i in range(n)
        ]
        inner = _tr_event(a, alpha, body, steps, log, m, memo)
        out = conj(guards + [inner])
        for name in reversed(names):
            out = ExistsProp(name, out)
    else:
        raise InputNotSentenceFragment(f"unsupported node {type(psi).__name__}")
    memo[key] = (out, start, None if steps is None else len(steps))
    return out


def _replay(steps, done) -> Formula:
    """A memoised rewrite's output, re-recording the steps it recorded."""
    out, start, end = done
    if steps is not None:
        steps.extend(steps[start:end])
    return out


def translate_announcement(
    announced: Formula, psi: Formula, *, steps: list | None = None
) -> Formula:
    """Base-language formula equivalent to `<!announced> psi`.

    The announced formula must be in the base language.  `psi` may contain
    nominals (they are untouched by relativisation) and nested
    announcements, but no event diamonds or fixpoints.  As in
    `translate_event`, each (announced, node) pair is rewritten once per
    call and a repeat replays its steps.
    """
    if classify(announced) is not LanguageTag.BASE_MSO:
        raise PreconditionNotBaseMso("announced formula is not in the base language")
    if contains_node(psi, (ActionDiamond, Nu)):
        raise InputNotSentenceFragment(
            "announcement translation takes formulas without event or fixpoint nodes"
        )
    prepared = expand_foralls(psi)
    return _tr_ann(announced, prepared, steps, {})


def _tr_ann(a: Formula, psi: Formula, steps, memo) -> Formula:
    key = (a, psi)
    done = memo.get(key)
    if done is not None:
        return _replay(steps, done)
    start = None if steps is None else len(steps)
    clause = _CONNECTIVES.get(type(psi))
    if clause is not None:
        rule, _, scope = clause
        _record(steps, "ann-" + rule, a, psi)
        parts = []
        if scope is None:
            for c in children(psi):
                parts.append(_tr_ann(a, c, steps, memo))
        else:
            parts.append((a, _tr_ann(a, psi.body, steps, memo)))
        out = _connect(psi, a, parts)
    elif isinstance(psi, (Atom, Top, Bottom, Nominal)):
        _record(steps, "ann-atom", a, psi)
        out = And(a, psi)
    elif isinstance(psi, ExistsProp):
        var, body = psi.var, psi.body
        if var in free_props(a):
            fresh = fresh_props(1, all_props(a) | all_props(psi))[0]
            body = substitute(body, var, Atom(fresh))
            _record(steps, "alpha-rename", a, psi)
            var = fresh
        _record(steps, "ann-quantifier", a, psi)
        out = ExistsProp(
            var, And(Global(Implies(Atom(var), a)), _tr_ann(a, body, steps, memo))
        )
    elif isinstance(psi, Announce):
        # rewrite the inner announcement first; the equivalence it produces
        # holds in every model, the relativised one included
        _record(steps, "ann-nested", a, psi)
        inner = _tr_ann(psi.announced, psi.body, steps, memo)
        out = _tr_ann(a, inner, steps, memo)
    else:
        raise InputNotSentenceFragment(f"unsupported node {type(psi).__name__}")
    memo[key] = (out, start, None if steps is None else len(steps))
    return out


def eliminate_all(a: EventModel, phi: Formula, *, simplify: bool = False) -> TranslationReport:
    """Eliminate every fixpoint, announcement and event diamond, innermost
    first, producing a base-language formula and a full rewrite trace."""
    tag = classify(phi)
    if tag is LanguageTag.SENTENCE_ONLY:
        raise InputNotSentenceFragment(
            "nominals outside the scope of an event diamond cannot be evaluated"
        )
    steps: list[TranslationStep] = []

    def rec(f: Formula) -> Formula:
        if not contains_node(f, _DYNAMIC):
            return f
        if isinstance(f, Nu):
            body = rec(f.body)
            steps.append(TranslationStep("nu-encode", print_formula(f)))
            return ExistsProp(
                f.var, And(Atom(f.var), Global(Implies(Atom(f.var), body)))
            )
        if isinstance(f, Announce):
            announced = rec(f.announced)
            body = rec(f.body)
            return translate_announcement(announced, body, steps=steps)
        if isinstance(f, ActionDiamond):
            body = rec(f.body)
            return translate_event(a, f.event, body, steps=steps)
        return rebuild(f, tuple(rec(c) for c in children(f)))

    out = rec(phi)
    if simplify:
        folded = fold_constants(out)
        if folded != out:
            steps.append(TranslationStep("simplify", "boolean constant folding"))
        out = folded
    if classify(out) is not LanguageTag.BASE_MSO or contains_node(out, Nominal):
        raise ProdupdError("elimination produced a non-base formula")
    return TranslationReport(
        input=phi,
        output=out,
        input_size=formula_size(phi),
        output_size=formula_size(out),
        # lenient binder count for reporting: fixpoints and announcements
        # are still present before elimination, where the strict measure is
        # not yet defined.  Counted per tree occurrence.
        input_eps=phi._facts.binders,
        output_eps=quantifier_count(out),
        steps=steps,
    )


def singleton_point_schema(var: str, body: Formula, *, literal: bool = False) -> Formula:
    """Schema asserting a singleton witness set for `var` making the body
    true: the witness is non-empty and every non-empty subset of it is the
    whole of it.

    With `literal=True` the subset premise drops the non-emptiness guard;
    that variant is unsatisfiable (the empty subset forces the witness
    empty against its own non-emptiness) and is kept only as a pinned
    regression target.
    """
    avoid = all_props(body) | {var}
    q = "q" if ("q" not in avoid) else fresh_props(1, avoid)[0]
    p = Atom(var)
    qa = Atom(q)
    if literal:
        premise: Formula = Global(Implies(qa, p))
    else:
        premise = And(ExistsGlobal(qa), Global(Implies(qa, p)))
    guard = ForallProp(q, Implies(premise, Global(Implies(p, qa))))
    return ExistsProp(var, And(ExistsGlobal(p), And(guard, body)))
