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
An announcement is the product update with one reflexive event whose
precondition is the announced formula, so one walk serves both rewrites:
a context is an event or an announced formula, whose only related
context is itself.  The walk holds the measure check, the memo and the
clause of each connective (`_CONNECTIVES`); each rewrite adds a
rule-name prefix (`ann-` for an announcement) and a table of clauses for
the other node kinds.  Under an event a quantifier routes through action
nominals: the bound proposition is replaced by a disjunction of fresh
propositions paired with nominals, one per event, guarded by conjuncts
`U (f -> pre)` tying each fresh proposition to the corresponding
precondition.  Under an announcement a nominal is left as it is, a
binder is kept, renamed away from the announced formula's props, and
both bind by one rule (`_bind`); a nested announcement is translated in
full before it is relativised to the outer one.  Greatest fixpoints are
encoded with the propositional quantifier first.

Every recursive call of the walk strictly decreases the pair (binder
count, size) lexicographically, checked at run time: a quantifier clause
recurses on a body with one binder fewer, every other clause on smaller
formulas, but a translated nested announcement, which can be larger,
starts a new descent.

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


# The reduction clause of each connective, read by the reduction walk and
# by `build`: the rule name and, for a modality, which contexts its body
# is rewritten under, those "related" to the current one or "every" one,
# and the join of its per-context parts.  An announcement's clauses are
# these with the rule names prefixed "ann-".
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
    return _EventWalk(steps, measure_log, a).reduce(alpha, a.pre[alpha], psi)


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
    return _AnnouncementWalk(steps).reduce(announced, announced, psi)


class _Walk:
    """The reduction walk of one rewrite call (see the module docstring).
    A subclass gives the rule-name `PREFIX`, the modal step `related` and
    `CLAUSES`, the clause of each node kind that is not a connective."""

    PREFIX = ""

    def __init__(self, steps, log=None, a: EventModel | None = None):
        self.steps, self.log, self.a, self.memo = steps, log, a, {}

    def reduce(self, ctx, pre: Formula, psi: Formula) -> Formula:
        """`pre & t_ctx(psi)`, with psi's universal quantifiers expanded."""
        prepared = expand_foralls(psi)
        if prepared is not psi:
            _record(self.steps, "expand-forall", ctx, psi)
        return build(And, pre, self.walk(ctx, prepared, None))

    def walk(self, ctx, psi: Formula, parent) -> Formula:
        """t_ctx(psi): psi read at the product world of ctx, an event or an
        announced formula, where ctx's precondition holds.  `parent` is the
        caller's measure, None where a measured descent starts."""
        m = (psi._facts.binders, psi._facts.size)
        if parent is not None:
            if self.log is not None:
                self.log.append((parent, m))
            if not m < parent:
                raise ProdupdError(f"translation measure did not decrease: {parent} -> {m}")
        steps = self.steps
        done = self.memo.get((ctx, psi))
        if done is not None:
            out, start, end = done
            if steps is not None:
                steps.extend(steps[start:end])
            return out
        start = None if steps is None else len(steps)
        cls = type(psi)
        clause = _CONNECTIVES.get(cls)
        if clause is None:
            out = self.CLAUSES[cls](self, ctx, psi, m)
        else:
            rule, scope, join = clause
            _record(steps, self.PREFIX + rule, ctx, psi)
            parts = []
            if scope is None:
                for c in children(psi):
                    parts.append(self.walk(ctx, c, m))
                out = build(cls, *parts)
            else:
                guard = Implies if join is And else And
                for b, pre in self.related(ctx, scope):
                    parts.append(build(cls, build(guard, pre, self.walk(b, psi.body, m))))
                out = _join(join, parts)
        self.memo[ctx, psi] = (out, start, None if steps is None else len(steps))
        return out

    def _atom(self, ctx, psi: Formula, m) -> Formula:
        _record(self.steps, self.PREFIX + "atom", ctx, psi)
        return psi

    CLAUSES = {Atom: _atom, Top: _atom, Bottom: _atom}


class _EventWalk(_Walk):
    """`<alpha> psi` over the event model `a`: a context is an event."""

    def related(self, alpha: str, scope: str):
        a = self.a
        return [(b, a.pre[b]) for b in a.events if scope == "every" or (alpha, b) in a.relation]

    def _nominal(self, alpha: str, psi: Nominal, m) -> Formula:
        match = psi.index == self.a.index_of(alpha)
        _record(self.steps, "nominal-match" if match else "nominal-mismatch", alpha, psi)
        return TOP if match else BOTTOM

    def _quantifier(self, alpha: str, psi: ExistsProp, m) -> Formula:
        _record(self.steps, "quantifier", alpha, psi)
        a = self.a
        avoid = set(all_props(psi))
        for f in a.pre.values():
            avoid |= all_props(f)
        names = fresh_props(len(a.events), avoid)
        tagged = _join(Or, [And(Atom(f), Nominal(i)) for i, f in enumerate(names)])
        body = self.walk(alpha, substitute(psi.body, psi.var, tagged), m)
        return _bind(zip(names, [a.pre[e] for e in a.events]), body)

    CLAUSES = {**_Walk.CLAUSES, Nominal: _nominal, ExistsProp: _quantifier}


class _AnnouncementWalk(_Walk):
    """`<!a> psi`: a context is an announced formula, which steps to itself."""

    PREFIX = "ann-"

    def related(self, a: Formula, scope: str):
        return ((a, a),)

    def _quantifier(self, a: Formula, psi: ExistsProp, m) -> Formula:
        bound = psi
        if psi.var in free_props(a):
            bound = rename(psi, fresh_props(1, all_props(a) | all_props(psi))[0])
            _record(self.steps, "alpha-rename", a, psi)
        _record(self.steps, "ann-quantifier", a, psi)
        return _bind([(bound.var, a)], self.walk(a, bound.body, m))

    def _nested(self, a: Formula, psi: Announce, m) -> Formula:
        # rewrite the inner announcement first; the equivalence it produces
        # holds in every model, the relativised one included
        _record(self.steps, "ann-nested", a, psi)
        inner = build(And, psi.announced, self.walk(psi.announced, psi.body, m))
        return self.walk(a, inner, None)

    CLAUSES = {**_Walk.CLAUSES, Nominal: _Walk._atom, ExistsProp: _quantifier, Announce: _nested}


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
