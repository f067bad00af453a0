"""Finite Kripke models, event models and the model-level operations:
valuation override, relativisation, product update and bounded generated
submodels.

All model values are immutable.  Internally-empty models (the result of
relativising to nothing, or of a product whose preconditions fail
everywhere) are representable; only top-level parsed input models are
required to be non-empty.  The evaluator builds its product and
relativised sessions from bitmasks; the named operations here are their
reference, and what the `product` and `announce` commands print.

The constructors of `KripkeModel`, `TaggedModel` and `EventModel` are the
one place where structural invariants are checked (unique names, edges,
valuations and total tags inside the domain, a base-language precondition
for each of at least one event and for nothing else).  A fault raises the
`ParseError` subclass that names it, except a precondition outside the
base language, which raises `PreconditionNotBaseMso`, a plain
`ProdupdError` (exit 1 in the CLI, not 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (
    EmptyEventSet,
    ParseError,
    PreconditionNotBaseMso,
    UnknownWorldInRelation,
    UnknownWorldInValuation,
    WorldOutOfModel,
)
from .syntax import Formula, LanguageTag, classify


@dataclass(frozen=True)
class KripkeModel:
    worlds: tuple[str, ...]
    relation: frozenset[tuple[str, str]] = frozenset()
    valuation: dict[str, frozenset[str]] = field(default_factory=dict)

    def __post_init__(self):
        worlds = tuple(self.worlds)
        wset = set(worlds)
        if len(wset) != len(worlds):
            raise ParseError("duplicate world identifiers")
        relation = _edges(self.relation, wset, UnknownWorldInRelation)
        val = {}
        for p, given in self.valuation.items():
            xs = frozenset(given)
            if not xs <= wset:  # report the first unknown world given
                x = next(x for x in given if x not in wset)
                raise UnknownWorldInValuation(
                    f"valuation of {p!r} mentions unknown world {x!r}"
                )
            if xs:
                val[p] = xs
        object.__setattr__(self, "worlds", worlds)
        object.__setattr__(self, "relation", relation)
        object.__setattr__(self, "valuation", dict(sorted(val.items())))

    def __hash__(self):
        return hash((self.worlds, self.relation, tuple(sorted(self.valuation.items()))))

    def successors(self, w: str) -> frozenset[str]:
        return frozenset(v for u, v in self.relation if u == w)


def _edges(pairs, members, error_cls) -> frozenset[tuple[str, str]]:
    # checked in the order given, so the first bad edge is reported
    for u, v in pairs:
        if u not in members or v not in members:
            raise error_cls(f"relation edge ({u},{v}) mentions an unknown member")
    return frozenset(pairs)


@dataclass(frozen=True)
class PointedModel:
    model: KripkeModel
    point: str

    def __post_init__(self):
        if self.point not in self.model.worlds:
            raise WorldOutOfModel(f"point {self.point!r} not in the model")


@dataclass(frozen=True)
class EventModel:
    events: tuple[str, ...]
    relation: frozenset[tuple[str, str]]
    pre: dict[str, Formula]

    def __post_init__(self):
        events = tuple(self.events)
        if not events:
            raise EmptyEventSet("an event model needs at least one event")
        if len(set(events)) != len(events):
            raise ParseError("duplicate event identifiers")
        relation = _edges(self.relation, set(events), ParseError)
        pre = dict(self.pre)
        for e in events:
            if e not in pre:
                raise ParseError(f"missing precondition for event {e!r}")
            if classify(pre[e]) is not LanguageTag.BASE_MSO:
                raise PreconditionNotBaseMso(
                    f"precondition of event {e!r} is not in the base language"
                )
        for e in pre:
            if e not in events:
                raise ParseError(f"precondition for unknown event {e!r}")
        object.__setattr__(self, "events", events)
        object.__setattr__(self, "relation", relation)
        object.__setattr__(self, "pre", pre)

    def __hash__(self):
        return hash((self.events, self.relation))

    def index_of(self, event: str) -> int:
        return self.events.index(event)


@dataclass(frozen=True)
class TaggedModel:
    """A Kripke model plus a map from worlds to the events that built them.

    The tag map is empty for base models and total on the domain for
    products; it is what makes action nominals evaluable.
    """

    model: KripkeModel
    tags: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        tags = dict(self.tags)
        if tags and set(tags) != set(self.model.worlds):
            raise ParseError("'tags' must be empty or total on the domain")
        object.__setattr__(self, "tags", tags)

    def __hash__(self):
        return hash((self.model, tuple(sorted(self.tags.items()))))


def as_tagged(m) -> TaggedModel:
    if isinstance(m, TaggedModel):
        return m
    return TaggedModel(m, {})


def with_valuation(m: KripkeModel, p: str, xs) -> KripkeModel:
    """The same model with the extension of `p` overridden to `xs`."""
    xs = frozenset(xs)
    if not xs <= set(m.worlds):
        raise WorldOutOfModel(f"override of {p!r} mentions worlds outside the model")
    val = dict(m.valuation)
    if xs:
        val[p] = xs
    else:
        val.pop(p, None)
    return KripkeModel(m.worlds, m.relation, val)


def relativise(m: KripkeModel, keep) -> KripkeModel:
    """Restriction of the model to `keep`: relation and valuation are
    intersected with the surviving domain.  May be internally empty."""
    keep = frozenset(keep)
    if not keep <= set(m.worlds):
        raise WorldOutOfModel("relativisation set outside the domain")
    worlds = tuple(w for w in m.worlds if w in keep)
    relation = frozenset((u, v) for u, v in m.relation if u in keep and v in keep)
    valuation = {p: xs & keep for p, xs in m.valuation.items()}
    return KripkeModel(worlds, relation, valuation)


def pair_world(w: str, e: str) -> str:
    return f"({w},{e})"


def product_from_extensions(m: KripkeModel, a: EventModel, pre_ext) -> TaggedModel:
    """Product model from precomputed precondition extensions.

    `pre_ext` maps each event to the set of worlds where its precondition
    holds.  Pair worlds are named deterministically "(w,e)" in world-major
    order so that output is diffable.
    """
    pairs = [(w, e) for w in m.worlds for e in a.events if w in pre_ext[e]]
    tags = {pair_world(w, e): e for w, e in pairs}  # its keys are the worlds, in order
    relation = set()
    for u, v in m.relation:
        for e1, e2 in a.relation:
            p1, p2 = pair_world(u, e1), pair_world(v, e2)
            if p1 in tags and p2 in tags:
                relation.add((p1, p2))
    valuation = {
        p: frozenset(pair_world(w, e) for (w, e) in pairs if w in xs)
        for p, xs in m.valuation.items()
    }
    return TaggedModel(KripkeModel(tuple(tags), frozenset(relation), valuation), tags)


def product_update(m: KripkeModel, a: EventModel, budget=None) -> TaggedModel:
    """Product of a model with an event model: worlds are (world, event)
    pairs where the precondition holds, edges need edges in both
    components, and the valuation is lifted along the first component."""
    from .semantics import Evaluator  # semantics imports models

    ev = Evaluator(m, budget=budget)
    pre_ext = {e: ev.extension(a.pre[e]) for e in a.events}
    return product_from_extensions(m, a, pre_ext)


def generated_submodel_k(m: KripkeModel, w: str, k: int) -> PointedModel:
    """Restriction (`relativise`) to the worlds reachable from `w` in at
    most `k` relation steps.  At radius zero the submodel sees no edges at
    all; for positive radius the relation is fully restricted to the ball."""
    if w not in m.worlds:
        raise WorldOutOfModel(f"world {w!r} not in the model")
    if k < 0:
        raise ValueError("radius must be non-negative")
    ball, frontier = {w}, {w}
    for _ in range(k):
        frontier = {v for u, v in m.relation if u in frontier} - ball
        if not frontier:
            break
        ball |= frontier
    sub = relativise(m, ball)
    if k == 0:
        sub = KripkeModel(sub.worlds, frozenset(), sub.valuation)
    return PointedModel(sub, w)


def announcement_event_model(a: Formula) -> EventModel:
    """One-event reflexive event model whose precondition is the announced
    formula; its product with any model is the relativisation to it."""
    return EventModel(("a0",), frozenset({("a0", "a0")}), {"a0": a})
