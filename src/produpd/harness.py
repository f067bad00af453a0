"""Seeded random generation of models, event models and formulas, and the
oracle equivalence suites built on them.

Randomness is counter-based: every draw comes from a generator seeded by
hashing (seed, case index, stream label), so cases are independent,
reproducible bit-for-bit, and regenerable individually.

Each suite is one case builder in `_SUITES`: it generates the inputs of
case `i` and returns a `_Case` holding the check to run, and `run_fuzz`
runs every check.  Failures are data, not errors: a wrong result or a
raised `ProdupdError` becomes an unrendered `_Failure`.  Each suite
reports its first one, the only one `_report` renders into a failure
record (`case_index`, `model`, `event_model`, `formula`, `message`,
optional `lhs`/`rhs`, the suite-specific `announced`/`point`, and
`shrunk`) and the only one it shrinks.  `shrunk` is a locally minimal
version of the case: worlds are removed one at a time and subformulas
replaced by constants while the same check still fails.
"""

from __future__ import annotations

import hashlib
import math
import random
import time
from collections.abc import Callable
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

from .analysis import (
    check_degree,
    greatest_bisimulation,
    is_bisimulation,
    k_star,
    lift_bisimulation,
)
from .errors import ProdupdError
from .models import (
    EventModel,
    KripkeModel,
    PointedModel,
    announcement_event_model,
    product_update,
    relativise,
)
from .parser import event_model_to_jsonable, model_to_jsonable, print_formula
from .semantics import Evaluator, gfp_oracle
from .syntax import (
    CONNECTIVES,
    FLIPS,
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
    children,
    classify,
    contains_node,
    formula_size,
    free_props,
    modal_depth,
    nu_encoding,
    quantifier_count,
    replace_subformula,
    subformula_at,
    subformula_positions,
)
from .translator import translate_event, translate_announcement

SUITE_NAMES = (
    "translation",
    "announcement",
    "nominals",
    "fixpoint",
    "bisim_lift",
    "degree",
)

_PROP_POOL = ("p", "q", "r", "s", "t", "u", "v", "x", "y", "z")


@dataclass(frozen=True)
class FuzzConfig:
    seed: int
    cases: int
    max_worlds: int = 4
    max_events: int = 3
    max_props: int = 3
    max_formula_size: int = 12
    max_eps: int = 2
    edge_probability: float = 0.5
    suites: tuple[str, ...] = SUITE_NAMES

    def __post_init__(self):
        if not (0 <= self.seed < 2**64):
            raise ValueError("seed must be an unsigned 64-bit integer")
        if self.cases < 1:
            raise ValueError("cases must be at least 1")
        if self.max_worlds < 1 or self.max_events < 1 or self.max_props < 1:
            raise ValueError("size bounds must be at least 1")
        if self.max_formula_size < 1:
            raise ValueError("max_formula_size must be at least 1")
        if self.max_eps < 0:
            raise ValueError("max_eps must be non-negative")
        if not (0.0 <= self.edge_probability <= 1.0):
            raise ValueError("edge_probability must lie in [0,1]")
        if self.max_props > len(_PROP_POOL):
            raise ValueError(f"max_props is capped at {len(_PROP_POOL)}")
        suites = tuple(self.suites)
        unknown = [s for s in suites if s not in SUITE_NAMES]
        if unknown:
            raise ValueError(f"unknown suites: {unknown}")
        if not suites:
            raise ValueError("at least one suite must be selected")
        repeated = sorted({s for s in suites if suites.count(s) > 1})
        if repeated:
            raise ValueError(f"repeated suites: {repeated}")
        object.__setattr__(self, "suites", suites)

    def stream(self, case_index: int, label: str) -> random.Random:
        digest = hashlib.sha256(
            f"{self.seed}/{case_index}/{label}".encode()
        ).digest()
        return random.Random(int.from_bytes(digest[:8], "big"))

    @property
    def props(self) -> tuple[str, ...]:
        return _PROP_POOL[: self.max_props]

    def to_jsonable(self) -> dict:
        return {**asdict(self), "suites": list(self.suites)}


def _pick(rng: random.Random, options):
    total = sum(w for _, w in options)
    r = rng.random() * total
    for value, w in options:
        r -= w
        if r < 0:
            return value
    return options[-1][0]


def random_model(cfg: FuzzConfig, case_index: int, *, label="model", max_worlds=None) -> KripkeModel:
    """Random model: world count uniform, each edge independent with the
    configured probability, each proposition a uniform subset."""
    rng = cfg.stream(case_index, label)
    n = rng.randint(1, max_worlds if max_worlds is not None else cfg.max_worlds)
    worlds = tuple(f"w{i}" for i in range(n))
    relation = frozenset(
        (u, v) for u in worlds for v in worlds if rng.random() < cfg.edge_probability
    )
    valuation = {}
    for p in cfg.props:
        xs = frozenset(w for w in worlds if rng.random() < 0.5)
        if xs:
            valuation[p] = xs
    return KripkeModel(worlds, relation, valuation)


def random_event_model(
    cfg: FuzzConfig,
    case_index: int,
    *,
    label="events",
    n_events=None,
    pre_kind="base",
) -> EventModel:
    """Random event model with quantifier-free preconditions of size at
    most 4, one of which is always the true constant so that products are
    rarely empty.  `pre_kind="local"` drops the global modalities from the
    preconditions, for the fragments that need finite degree."""
    rng = cfg.stream(case_index, label)
    n = n_events if n_events is not None else rng.randint(1, cfg.max_events)
    events = tuple(f"a{i}" for i in range(n))
    relation = frozenset(
        (u, v) for u in events for v in events if rng.random() < cfg.edge_probability
    )
    top_at = rng.randrange(n)
    pre: dict[str, Formula] = {}
    for i, e in enumerate(events):
        if i == top_at:
            pre[e] = TOP
        else:
            pre[e] = _gen_formula(
                rng, rng.randint(1, 4), cfg.props, allow_global=(pre_kind == "base")
            )
    return EventModel(events, relation, pre)


def _gen_formula(
    rng,
    size,
    props,
    *,
    nominal_count=0,
    allow_global=True,
    eps=None,
    allow_nu=False,
    dyn_events=(),
    nu_avoid=frozenset(),
    positive_var=None,
) -> Formula:
    """Random formula of the given size.  `positive_var`, when given, occurs
    only positively (it is about to be bound by a fixpoint) and is the
    preferred atom."""
    eps = eps if eps is not None else [0]
    nu_vars = [p for p in props if p not in nu_avoid]

    def leaf(parity, pos):
        atoms = [p for p in props if p not in pos or pos[p] == parity]
        options = [("top", 1), ("bottom", 1)]
        if atoms:
            options.append(("atom", 6))
        if nominal_count:
            options.append(("nominal", 2))
        kind = _pick(rng, options)
        if kind == "atom":
            if positive_var in atoms and rng.random() < 0.4:
                return Atom(positive_var)
            return Atom(rng.choice(atoms))
        if kind == "nominal":
            return Nominal(rng.randrange(nominal_count))
        return TOP if kind == "top" else Bottom()

    def gen(size, parity, pos):
        if size <= 1:
            return leaf(parity, pos)
        # each kind but a leaf is drawn as its node class
        options = [("leaf", 2), (Not, 2), (Box, 2), (Diamond, 2)]
        if size >= 3:
            options += [(And, 3), (Or, 2), (Implies, 2)]
        if allow_global:
            options += [(Global, 1), (ExistsGlobal, 1)]
        if eps[0] > 0 and size >= 2:
            options += [(ExistsProp, 3), (ForallProp, 1)]
        if allow_nu and nu_vars and size >= 3:
            options.append((Nu, 2))
        if dyn_events and size >= 2:
            options.append((ActionDiamond, 2))
        node = _pick(rng, options)
        if node == "leaf":
            return leaf(parity, pos)
        # the first operand of a `FLIPS` connective has the opposite parity
        if node in CONNECTIVES["prefix"]:
            return node(gen(size - 1, parity != (node in FLIPS), pos))
        if node in CONNECTIVES["infix"]:
            left_size = rng.randint(1, size - 2)
            left = gen(left_size, parity != (node in FLIPS), pos)
            return node(left, gen(size - 1 - left_size, parity, pos))
        if node is ActionDiamond:
            return node(rng.choice(dyn_events), gen(size - 1, parity, pos))
        if node is Nu:
            var = rng.choice(nu_vars)
        else:
            eps[0] -= 1
            var = rng.choice(props)
        inner = {k: v for k, v in pos.items() if k != var}
        if node is Nu:
            inner[var] = parity
        return node(var, gen(size - 1, parity, inner))

    return gen(size, True, {} if positive_var is None else {positive_var: True})


def random_formula(
    cfg: FuzzConfig,
    case_index: int,
    language: LanguageTag,
    *,
    label="formula",
    n_events=None,
    max_eps=None,
) -> Formula:
    """Random formula in the requested fragment, within the configured
    size and quantifier bounds.  Nominal indices stay below `n_events`
    (the configured event bound when not given)."""
    rng = cfg.stream(case_index, label)
    size = rng.randint(1, cfg.max_formula_size)
    eps_cap = cfg.max_eps if max_eps is None else max_eps
    eps = [rng.randint(0, eps_cap)]
    if language is LanguageTag.BASE_MSO:
        return _gen_formula(rng, size, cfg.props, eps=eps)
    if language is LanguageTag.SCOPED_NOMINALS:
        count = n_events if n_events is not None else cfg.max_events
        return _gen_formula(rng, size, cfg.props, nominal_count=count, eps=eps)
    if language is LanguageTag.MU_FRAGMENT:
        var = rng.choice(cfg.props)
        body = _gen_formula(
            rng,
            max(1, size - 1),
            cfg.props,
            allow_global=False,
            allow_nu=True,
            positive_var=var,
        )
        return Nu(var, body)
    raise ValueError(f"unsupported generation fragment: {language}")


def _positive_body(cfg, case_index, var, *, label="body") -> Formula:
    rng = cfg.stream(case_index, label)
    size = rng.randint(1, min(8, cfg.max_formula_size))
    return _gen_formula(
        rng,
        size,
        cfg.props,
        allow_global=False,
        allow_nu=True,
        positive_var=var,
    )


# -- enumeration-cost capping ------------------------------------------


def _quant_nesting(phi: Formula) -> int:
    step = 1 if isinstance(phi, (ExistsProp, ForallProp)) else 0
    return step + max((_quant_nesting(c) for c in children(phi)), default=0)


def _modal_op_count(phi: Formula) -> int:
    step = 1 if isinstance(phi, (Box, Diamond, Global, ExistsGlobal)) else 0
    return step + sum(_modal_op_count(c) for c in children(phi))


def _domain_size(m: KripkeModel, a: EventModel) -> int:
    ev = Evaluator(m, events=a)
    return sum(len(ev.extension(a.pre[e])) for e in a.events)


def translation_case_inputs(cfg: FuzzConfig, case_index: int):
    """The (model, event model, formula) triple of one translation case.

    Quantifiers make both evaluation routes exponential in the product
    domain, so quantified formulas get their event model redrawn
    (deterministically) until the estimated enumeration cost is small
    enough to keep the case under the per-case time bound.
    """
    m = random_model(cfg, case_index)
    a = random_event_model(cfg, case_index)
    psi = random_formula(
        cfg, case_index, LanguageTag.SCOPED_NOMINALS, n_events=len(a.events)
    )
    # log2 of the brute-force work, at most 13.5 bits: each quantifier layer
    # enumerates the product domain (guard restriction makes the rewritten
    # side match), and each modal operator multiplies rewritten blocks by
    # the event count, which the redraws keep
    nesting, n = _quant_nesting(psi), len(a.events)
    if nesting:
        modal_bits = _modal_op_count(psi) * math.log2(n)
        for t in range(60):
            if nesting * _domain_size(m, a) + modal_bits <= 13.5:
                break
            a = random_event_model(cfg, case_index, label=f"events-retry{t}", n_events=n)
        else:
            psi = random_formula(
                cfg,
                case_index,
                LanguageTag.SCOPED_NOMINALS,
                n_events=n,
                label="formula-flat",
                max_eps=0,
            )
    return m, a, psi


# -- suite cases ---------------------------------------------------------


@dataclass
class _Case:
    """One generated oracle instance.

    `check(model, formula)` returns a `_Failure`, or None when the oracle
    holds.  The runner calls it on `model` and `formula`; on the reported
    failure it calls it again to shrink them, never removing a `protected`
    world.  With no model there is nothing to shrink.  A check that raises
    is recorded against `recorded`, a (model, event model, formula) triple.
    The formulas in `extra` are printed into the reported record, and
    `stats` collects (size ratio, output quantifiers) per translation.
    """

    check: Callable[[KripkeModel | None, Formula | None], _Failure | None]
    model: KripkeModel | None
    formula: Formula | None
    recorded: tuple
    protected: tuple = ()
    extra: dict[str, Formula] = field(default_factory=dict)
    stats: list = field(default_factory=list)


class _Failure(NamedTuple):
    """A failed check, kept unrendered: the runner renders only the
    failure it reports (`_render_failure`)."""

    model: KripkeModel | None
    event_model: EventModel | None
    formula: Formula | None
    message: str
    lhs: frozenset[str] | None = None
    rhs: frozenset[str] | None = None
    point: str | None = None


def _render_failure(f: _Failure) -> dict:
    m, a, phi = f.model, f.event_model, f.formula
    out = {
        "model": model_to_jsonable(m) if m is not None else None,
        "event_model": event_model_to_jsonable(a) if a is not None else None,
        "formula": print_formula(phi) if phi is not None else None,
        "message": f.message,
    }
    if f.lhs is not None:
        out["lhs"] = sorted(f.lhs)
    if f.rhs is not None:
        out["rhs"] = sorted(f.rhs)
    if f.point is not None:
        out["point"] = f.point
    return out


def _shrink(recheck, m: KripkeModel, phi: Formula | None, *, protected=()):
    """Greedy local minimisation: drop worlds one at a time, then replace
    subformulas by constants, keeping every mutation that still fails."""

    def still_fails(m2, phi2):
        try:
            return not recheck(m2, phi2)
        except ProdupdError:
            return True

    changed = True
    while changed:
        changed = False
        if len(m.worlds) > 1:
            for w in m.worlds:
                if w in protected:
                    continue
                m2 = relativise(m, set(m.worlds) - {w})
                if still_fails(m2, phi):
                    m = m2
                    changed = True
                    break
        if changed:
            continue
        if phi is not None:
            for pos in subformula_positions(phi):
                cur = subformula_at(phi, pos)
                if isinstance(cur, (Top, Bottom)):
                    continue
                for const in (TOP, Bottom()):
                    phi2 = replace_subformula(phi, pos, const)
                    if still_fails(m, phi2):
                        phi = phi2
                        changed = True
                        break
                if changed:
                    break
    return m, phi


def _report(case: _Case, i: int, failure: _Failure) -> dict:
    """The failure record of case `i`, carrying the shrunk counterexample."""
    record = {"case_index": i, **_render_failure(failure)}
    record.update((k, print_formula(v)) for k, v in case.extra.items())
    if case.model is not None:
        m, phi = _shrink(
            lambda m2, phi2: case.check(m2, phi2) is None,
            case.model,
            case.formula,
            protected=case.protected,
        )
        record["shrunk"] = {
            "model": model_to_jsonable(m),
            "formula": print_formula(phi) if phi is not None else None,
        }
    return record


def _check_translation(m, a, psi, stats):
    ev = Evaluator(m, events=a)
    for alpha in a.events:
        chi = translate_event(a, alpha, psi)
        if classify(chi) is not LanguageTag.BASE_MSO or contains_node(chi, Nominal):
            return _Failure(
                m, a, psi, f"output for <{alpha}> is not in the base language"
            )
        lhs = ev.extension(ActionDiamond(alpha, psi))
        rhs = ev.extension(chi)
        if lhs != rhs:
            return _Failure(m, a, psi, f"extension mismatch for <{alpha}>", lhs, rhs)
        stats.append(
            (formula_size(chi) / (1 + formula_size(psi)), quantifier_count(chi))
        )
    return None


def _translation_case(cfg, i) -> _Case:
    m, a, psi = translation_case_inputs(cfg, i)
    stats: list = []
    return _Case(
        lambda m2, psi2: _check_translation(m2, a, psi2, stats),
        m,
        psi,
        (m, a, psi),
        stats=stats,
    )


def _check_announcement(m, announced, psi):
    ev = Evaluator(m)
    lhs = ev.extension(Announce(announced, psi))
    chi = translate_announcement(announced, psi)
    if classify(chi) is not LanguageTag.BASE_MSO:
        return _Failure(m, None, psi, "output is not in the base language")
    rhs = ev.extension(chi)
    if lhs != rhs:
        return _Failure(m, None, psi, "translation mismatch", lhs, rhs)
    one_event = announcement_event_model(announced)
    ev2 = Evaluator(m, events=one_event)
    via_product = ev2.extension(ActionDiamond("a0", psi))
    if via_product != lhs:
        return _Failure(
            m, one_event, psi, "product route disagrees", lhs, via_product
        )
    cross = translate_event(one_event, "a0", psi)
    cross_ext = ev.extension(cross)
    if cross_ext != lhs:
        return _Failure(
            m, one_event, psi, "event-translation route disagrees", lhs, cross_ext
        )
    return None


def _announcement_case(cfg, i) -> _Case:
    m = random_model(cfg, i)
    psi = random_formula(cfg, i, LanguageTag.BASE_MSO)
    announced = _gen_formula(cfg.stream(i, "announced"), 4, cfg.props)
    return _Case(
        lambda m2, psi2: _check_announcement(m2, announced, psi2),
        m,
        psi,
        (m, None, psi),
        extra={"announced": announced},
    )


def _check_nominals(m, a):
    ev = Evaluator(m, events=a)
    for idx, e in enumerate(a.events):
        pre_ext = ev.extension(a.pre[e])
        for k in range(len(a.events)):
            expected = pre_ext if idx == k else frozenset()
            got = ev.extension(ActionDiamond(e, Nominal(k)))
            if got != expected:
                return _Failure(
                    m, a, ActionDiamond(e, Nominal(k)),
                    "nominal axiom fails semantically", expected, got,
                )
            via_translation = ev.extension(translate_event(a, e, Nominal(k)))
            if via_translation != expected:
                return _Failure(
                    m, a, ActionDiamond(e, Nominal(k)),
                    "nominal axiom fails through translation", expected, via_translation,
                )
    return None


def _nominals_case(cfg, i) -> _Case:
    m = random_model(cfg, i)
    a = random_event_model(cfg, i)
    return _Case(lambda m2, _: _check_nominals(m2, a), m, None, (m, a, None))


def _check_fixpoint(m, var, body):
    ev = Evaluator(m)
    iterative = ev.extension(Nu(var, body))
    oracle = gfp_oracle(m, var, body)
    encoded = ev.extension(nu_encoding(var, body))
    if not (iterative == oracle == encoded):
        return _Failure(
            m, None, Nu(var, body),
            f"fixpoint routes disagree: iterative={sorted(iterative)} "
            f"oracle={sorted(oracle)} encoded={sorted(encoded)}",
        )
    fixed = ev.extension(body, {var: ev.mask_of(iterative)})
    if fixed != iterative:
        return _Failure(
            m, None, Nu(var, body), "result is not a fixpoint", iterative, fixed
        )
    return None


def _fixpoint_case(cfg, i) -> _Case:
    m = random_model(cfg, i)
    var = cfg.stream(i, "var").choice(cfg.props)
    body = _positive_body(cfg, i, var)
    return _Case(
        lambda m2, body2: _check_fixpoint(m2, var, body2),
        m,
        body,
        (m, None, Nu(var, body)),
    )


def duplicate_world(m: KripkeModel, w: str, clone: str) -> KripkeModel:
    """Clone a world, copying its valuation and its in- and out-edges
    (pointed at the originals), so the identity plus (original, clone) is
    a bisimulation by construction."""
    worlds = m.worlds + (clone,)
    relation = set(m.relation)
    for u, v in m.relation:
        if v == w:
            relation.add((u, clone))
        if u == w:
            relation.add((clone, v))
    valuation = {
        p: xs | ({clone} if w in xs else set()) for p, xs in m.valuation.items()
    }
    return KripkeModel(worlds, frozenset(relation), valuation)


def _invariant_formula(cfg, i, a: EventModel, *, label="invformula") -> Formula:
    # bisimulation-invariant fragment: no quantifiers, no global
    # modalities; fixpoints and event diamonds are fine, but a fixpoint
    # variable must stay clear of the precondition vocabulary, through
    # which it would act non-monotonically
    rng = cfg.stream(i, label)
    size = rng.randint(1, cfg.max_formula_size)
    pre_props: frozenset[str] = frozenset()
    for e in a.events:
        pre_props |= free_props(a.pre[e])
    phi = _gen_formula(
        rng,
        size,
        cfg.props,
        allow_global=False,
        allow_nu=True,
        dyn_events=a.events,
        nu_avoid=pre_props,
    )
    if rng.random() < 0.3:
        announced = _gen_formula(rng, 3, cfg.props, allow_global=False)
        phi = Announce(announced, phi)
    return phi


def _check_bisim(m1, target, a, phi):
    clone = f"{target}_c"
    m2 = duplicate_world(m1, target, clone)
    z = greatest_bisimulation(m1, m2)
    expected = {(w, w) for w in m1.worlds} | {(target, clone)}
    if not expected <= z.pairs:
        return _Failure(
            m1, a, phi, "duplication pairs missing from greatest bisimulation"
        )
    if not is_bisimulation(m1, m2, z):
        return _Failure(m1, a, phi, "refinement output fails the checks")
    y = lift_bisimulation(z, a, m1, m2)
    p1 = product_update(m1, a)
    p2 = product_update(m2, a)
    if not is_bisimulation(p1.model, p2.model, y):
        return _Failure(m1, a, phi, "lifted relation is not a bisimulation")
    ev1 = Evaluator(m1, events=a)
    ev2 = Evaluator(m2, events=a)
    for u, v in sorted(z.pairs):
        if ev1.holds(u, phi) != ev2.holds(v, phi):
            return _Failure(m1, a, phi, f"bisimilar points ({u},{v}) disagree")
    return None


def _bisim_lift_case(cfg, i) -> _Case:
    m1 = random_model(cfg, i)
    target = cfg.stream(i, "dup").choice(m1.worlds)
    a = random_event_model(cfg, i, pre_kind="local")
    phi = _invariant_formula(cfg, i, a)
    return _Case(
        lambda m2, phi2: _check_bisim(m2, target, a, phi2),
        m1,
        phi,
        (m1, a, phi),
        protected=(target,),
    )


def _degree_case(cfg, i) -> _Case:
    """The case starts with no model: its check runs over the whole test
    set, and the first counterexample becomes the model to shrink, checked
    at its point from then on.  A raised error leaves the model unset, so
    its record carries no shrink."""
    rng = cfg.stream(i, "pick")
    phi = _gen_formula(
        cfg.stream(i, "formula"),
        rng.randint(1, cfg.max_formula_size),
        cfg.props,
        allow_global=False,
    )
    a = random_event_model(cfg, i, pre_kind="local")
    alpha = rng.choice(a.events)
    k = k_star([modal_depth(a.pre[e]) for e in a.events], modal_depth(phi))
    testset = []
    for j in range(20):
        tm = random_model(cfg, i, label=f"testmodel{j}", max_worlds=5)
        point = cfg.stream(i, f"testpoint{j}").choice(tm.worlds)
        testset.append(PointedModel(tm, point))

    def check(m, phi2):
        pointed = testset if m is None else [PointedModel(m, case.protected[0])]
        result = check_degree(ActionDiamond(alpha, phi2), k, pointed, events=a)
        if result.consistent:
            return None
        pm = result.counterexample
        if m is None:
            case.model, case.protected = pm.model, (pm.point,)
        return _Failure(
            pm.model,
            a,
            ActionDiamond(alpha, phi2),
            f"degree check fails at {pm.point!r} with radius {k}: "
            f"full={result.full_value} submodel={result.submodel_value}",
            point=pm.point,
        )

    case = _Case(check, None, phi, (None, a, phi))
    return case


_SUITES = {
    "translation": _translation_case,
    "announcement": _announcement_case,
    "nominals": _nominals_case,
    "fixpoint": _fixpoint_case,
    "bisim_lift": _bisim_lift_case,
    "degree": _degree_case,
}


@dataclass
class FuzzReport:
    """Aggregated suite outcomes.  The payload is a pure function of the
    configuration; wall-clock timing is kept to the side."""

    config: FuzzConfig
    suites: dict[str, dict]
    blowup: dict | None
    ok: bool
    timing: dict[str, dict] = field(default_factory=dict)

    def payload(self) -> dict:
        return {
            "config": self.config.to_jsonable(),
            "suites": self.suites,
            "blowup": self.blowup,
            "ok": self.ok,
        }

    def to_jsonable(self) -> dict:
        return {**self.payload(), "timing": self.timing}


def run_fuzz(cfg: FuzzConfig) -> FuzzReport:
    """Run the selected suites over `cases` generated instances each."""
    suites_out: dict[str, dict] = {}
    timing: dict[str, dict] = {}
    stats: list = []
    ok = True
    for name in cfg.suites:
        build = _SUITES[name]
        passed = failed = 0
        first_failure = None
        max_case = 0.0
        t0 = time.perf_counter()
        for i in range(cfg.cases):
            c0 = time.perf_counter()
            case = build(cfg, i)
            try:
                failure = case.check(case.model, case.formula)
            except ProdupdError as e:
                failure = _Failure(*case.recorded, f"error: {e}")
            if failure is None:
                passed += 1
                stats += case.stats
            else:
                failed += 1
                # only the first failure is reported, so only it is
                # rendered and shrunk
                if first_failure is None:
                    first_failure = _report(case, i, failure)
            max_case = max(max_case, time.perf_counter() - c0)
        total = time.perf_counter() - t0
        suites_out[name] = {
            "cases": cfg.cases,
            "passed": passed,
            "failed": failed,
            "first_failure": first_failure,
        }
        timing[name] = {
            "total_seconds": round(total, 3),
            "max_case_seconds": round(max_case, 3),
        }
        ok = ok and failed == 0
    blowup = None
    if stats:
        ratios = [ratio for ratio, _ in stats]
        epses = [eps for _, eps in stats]
        blowup = {
            "translations": len(stats),
            "mean_size_ratio": round(sum(ratios) / len(ratios), 3),
            "max_size_ratio": round(max(ratios), 3),
            "mean_output_eps": round(sum(epses) / len(epses), 3),
            "max_output_eps": max(epses),
        }
    return FuzzReport(cfg, suites_out, blowup, ok, timing)
