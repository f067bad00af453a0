"""Rewrites dynamic modalities into the static quantified base language.

The rewrite is relativised: `<alpha> psi` becomes `pre_alpha &
t_alpha(psi)`, where t_b(psi) is psi read at the product world (w, b),
which exists only where pre_b holds.  Each world has at most one such
product world, so t_b commutes with every boolean connective and maps an
atom to itself, a matching nominal to true and another to false.  A
modality steps to the related events c (every event, for `U` and `E`):
a universal one reads each t_c(phi) under `pre_c ->`, an existential one
under `pre_c &`.  Every context that reads a t_b first states pre_b, so
each precondition is stated once per product step and never inside it.
One table (`_CONNECTIVES`) holds the clause of each connective.  The
quantifier case routes through action nominals: the bound proposition is
replaced by a disjunction of fresh propositions paired with nominals,
one per event, guarded by conjuncts `U (f -> pre)` tying each fresh
proposition to the corresponding precondition.  An announcement is the
product update with one reflexive event whose precondition is the
announced formula, so announcements reduce by the same table; only their
leaf, nested-announcement and quantifier clauses are their own, and the
last binds by the event clause's rule (`_bind`).  A nested announcement
is translated in full before it is relativised to the outer one.
Greatest fixpoints are encoded with the propositional quantifier first.

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

Every output node is built through `build`, which folds boolean
constants, and `[] true`, `<> false`, `U true` and `E false`, as the
rules produce them: a `true` precondition, a mismatched nominal's
`false` and what they decide leave nothing behind, so the evaluator
spends no memo entry or call on them, and a fresh proposition read only
by a dead branch takes no locality radius from it.  A fold that would
skip an operand able to raise (a binder, nominal, event diamond or
announcement) is not made.  Preconditions and announced formulas are
copied verbatim, and the guards `U (f -> pre)` stay unfolded, since the
evaluator reads them as guards; a guard whose precondition is `true` is
left out, and a binder whose proposition the folded body no longer reads
is not emitted, nor is its guard, unless the precondition can raise.
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
from .syntax import (
    BOTTOM,
    RAISING,
    TOP,
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
    check_nominals,
    children,
    classify,
    contains_node,
    formula_size,
    free_props,
    fresh_props,
    nu_encoding,
    print_dynamic,
    print_formula,
    quantifier_count,
    rebuild,
    rename,
    rewrite_up,
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
    expansion, so downstream rules only meet the existential binder.  A
    clause of `rewrite_up`: each distinct node with a universal quantifier
    below it is rewritten once."""

    def clause(f: Formula, parts: tuple[Formula, ...]) -> Formula:
        out = rebuild(f, parts)
        return Not(ExistsProp(out.var, Not(out.body))) if type(out) is ForallProp else out

    return rewrite_up(phi, lambda f: contains_node(f, ForallProp) and f, clause)


def fold_constants(phi: Formula) -> Formula:
    """Constant folding, nothing else: every boolean node and every box,
    diamond, `U` and `E` rebuilt through `build`.  The rewriters already
    build their output that way, so this folds only the constants that they
    copy verbatim: in preconditions, announced formulas, static parts of
    the input and `U (f -> false)` guards.  A clause of `rewrite_up`, so
    each distinct node is rebuilt once."""

    def clause(f: Formula, parts: tuple[Formula, ...]) -> Formula:
        return build(type(f), *parts) if type(f) in _CONNECTIVES else rebuild(f, parts)

    return rewrite_up(phi, lambda f: f, clause)


# The reduction clause of each connective, read by both rewriters and by
# `build`: the rule name and, for a modality, which events its body is
# rewritten under, those "related" to the current one or "every" event,
# and the join of its per-event parts.  An announcement is the product
# update with one reflexive event whose precondition is the announced
# formula, so its clauses are these with the rule names prefixed "ann-".
_CONNECTIVES = {
    Not: ("negation", None, None),
    And: ("conjunction", None, None),
    Or: ("disjunction", None, None),
    Implies: ("implication", None, None),
    Box: ("box", "related", And),
    Diamond: ("diamond", "related", Or),
    Global: ("global", "every", And),
    ExistsGlobal: ("somewhere", "every", Or),
}
# for `&` and `|`: the constant that leaves the other operand as it is, and
# the one that decides the node
_UNIT_ZERO = {And: (TOP, BOTTOM), Or: (BOTTOM, TOP)}


def build(cls, *parts) -> Formula:
    """`cls(*parts)` with its constants folded.

    `~true` and `~false` become constants, and so do `[] true` and `U true`
    (true) and `<> false` and `E false` (false).  `true & X`, `X & true`,
    `X | false`, `false | X` and `true -> X` become X, and `X -> false`
    becomes `~X`.  `false & X` is false and `true | X` true: the evaluator
    never reads X there.  `X & false`, `X | true`, `X -> true` and
    `false -> X` fold only when X can raise nothing, so that no
    evaluation loses an exception it raises unfolded.  `cls` is a
    `_CONNECTIVES` key; a modality over its join's unit is that unit.
    """
    join = _CONNECTIVES[cls][2]
    if join is not None:
        if parts[0] is _UNIT_ZERO[join][0]:
            return parts[0]
    elif cls is Not:
        if parts[0] is TOP:
            return BOTTOM
        if parts[0] is BOTTOM:
            return TOP
    elif cls is Implies:
        left, right = parts
        if left is TOP:
            return right
        if right is BOTTOM:
            return build(Not, left)
        if (right is TOP and not contains_node(left, RAISING)) or (
            left is BOTTOM and not contains_node(right, RAISING)
        ):
            return TOP
    elif cls in _UNIT_ZERO:
        unit, zero = _UNIT_ZERO[cls]
        left, right = parts
        if left is unit:
            return right
        if right is unit:
            return left
        if left is zero or (right is zero and not contains_node(left, RAISING)):
            return zero
    return cls(*parts)


def _join(cls, parts) -> Formula:
    """Right-nested `&` or `|` of `parts` through `build`; an empty join is
    the unit."""
    out = _UNIT_ZERO[cls][0]
    for part in reversed(parts):
        out = build(cls, part, out)
    return out


def _connect(psi: Formula, parts: list) -> Formula:
    """`psi`'s connective over its rewritten parts by its `_CONNECTIVES`
    clause, built through `build`.  A modality's parts are (precondition,
    rewritten body) pairs, one per event, joined by the modality's join,
    and each body is read only where its precondition holds: under `&` it
    is guarded with `pre ->`, under `|` with `pre &`."""
    cls = type(psi)
    join = _CONNECTIVES[cls][2]
    if join is None:
        return build(cls, *parts)
    guard = Implies if join is And else And
    return _join(join, [build(cls, build(guard, pre, body)) for pre, body in parts])


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
    fixpoints, and a nominal with no event in `a` raises `UnknownEvent`,
    as the evaluator does.  `measure_log` collects (parent, child) measure
    pairs for every recursive call; the strict lexicographic decrease is
    checked regardless.

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
    check_nominals(psi, len(a.events))
    prepared = expand_foralls(psi)
    if prepared is not psi:
        _record(steps, "expand-forall", alpha, psi)
    return build(And, a.pre[alpha], _tr_event(a, alpha, prepared, steps, measure_log, None, {}))


def _tr_event(a, alpha, psi, steps, log, parent, memo) -> Formula:
    """`psi` read at the product world (w, alpha) of a world w where
    alpha's precondition holds: `<alpha> psi` is the precondition and this."""
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
    clause = _CONNECTIVES.get(type(psi))
    if clause is not None:
        rule, scope, _ = clause
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
        out = _connect(psi, parts)
    elif isinstance(psi, (Atom, Top, Bottom)):
        _record(steps, "atom", alpha, psi)
        out = psi
    elif isinstance(psi, Nominal):
        if psi.index == a.index_of(alpha):
            _record(steps, "nominal-match", alpha, psi)
            out = TOP
        else:
            _record(steps, "nominal-mismatch", alpha, psi)
            out = BOTTOM
    elif isinstance(psi, ExistsProp):
        _record(steps, "quantifier", alpha, psi)
        avoid = set(all_props(psi))
        for f in a.pre.values():
            avoid |= all_props(f)
        names = fresh_props(len(a.events), avoid)
        tagged = _join(Or, [And(Atom(f), Nominal(i)) for i, f in enumerate(names)])
        body = _tr_event(a, alpha, substitute(psi.body, psi.var, tagged), steps, log, m, memo)
        out = _bind(zip(names, [a.pre[e] for e in a.events]), body)
    else:
        raise InputNotSentenceFragment(f"unsupported node {type(psi).__name__}")
    memo[key] = (out, start, None if steps is None else len(steps))
    return out


def _bind(pairs, body: Formula) -> Formula:
    """Both quantifier clauses' output: `exists f.` for each (f, pre) of
    `pairs` over the guards `U (f -> pre)` and `body`, without the props
    that `body` does not read unless pre can raise (see the module
    docstring), and without the guards whose pre is `true`."""
    kept = [(f, pre) for f, pre in pairs if f in body._facts.free or contains_node(pre, RAISING)]
    guards = [Global(Implies(Atom(f), pre)) for f, pre in kept if pre is not TOP]
    out = _join(And, guards + [body])
    for f, _ in reversed(kept):
        out = ExistsProp(f, out)
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
    if prepared is not psi:
        _record(steps, "expand-forall", announced, psi)
    return build(And, announced, _tr_ann(announced, prepared, steps, {}))


def _tr_ann(a: Formula, psi: Formula, steps, memo) -> Formula:
    """`psi` read in the model relativised to `a`, at a world where `a`
    holds: `<!a> psi` is `a` and this."""
    key = (a, psi)
    done = memo.get(key)
    if done is not None:
        return _replay(steps, done)
    start = None if steps is None else len(steps)
    clause = _CONNECTIVES.get(type(psi))
    if clause is not None:
        rule, scope, _ = clause
        _record(steps, "ann-" + rule, a, psi)
        parts = []
        if scope is None:
            for c in children(psi):
                parts.append(_tr_ann(a, c, steps, memo))
        else:
            parts.append((a, _tr_ann(a, psi.body, steps, memo)))
        out = _connect(psi, parts)
    elif isinstance(psi, (Atom, Top, Bottom, Nominal)):
        _record(steps, "ann-atom", a, psi)
        out = psi
    elif isinstance(psi, ExistsProp):
        bound = psi
        if psi.var in free_props(a):
            bound = rename(psi, fresh_props(1, all_props(a) | all_props(psi))[0])
            _record(steps, "alpha-rename", a, psi)
        _record(steps, "ann-quantifier", a, psi)
        out = _bind([(bound.var, a)], _tr_ann(a, bound.body, steps, memo))
    elif isinstance(psi, Announce):
        # rewrite the inner announcement first; the equivalence it produces
        # holds in every model, the relativised one included
        _record(steps, "ann-nested", a, psi)
        inner = build(And, psi.announced, _tr_ann(psi.announced, psi.body, steps, memo))
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
        parts = [rec(c) for c in children(f)]
        cls = type(f)
        if cls is Nu:
            steps.append(TranslationStep("nu-encode", print_formula(f)))
            return nu_encoding(f.var, *parts)
        if cls is Announce:
            return translate_announcement(*parts, steps=steps)
        if cls is ActionDiamond:
            return translate_event(a, f.event, *parts, steps=steps)
        return rebuild(f, tuple(parts))

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
