"""Bisimulations, their lift along product update, and empirical degree
checks against bounded generated submodels."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotABisimulation, WorldOutOfModel
from .models import (
    EventModel,
    KripkeModel,
    PointedModel,
    generated_submodel_k,
    pair_world,
    product_update,
)
from .semantics import holds
from .syntax import Formula

CONSISTENT = "ConsistentOnTestSet"
COUNTEREXAMPLE = "Counterexample"


@dataclass(frozen=True)
class Bisimulation:
    pairs: frozenset[tuple[str, str]]

    def to_jsonable(self) -> list[list[str]]:
        return [[u, v] for u, v in sorted(self.pairs)]


def _atoms_agree(m1: KripkeModel, m2: KripkeModel, u: str, v: str) -> bool:
    for p in set(m1.valuation) | set(m2.valuation):
        if (u in m1.valuation.get(p, frozenset())) != (
            v in m2.valuation.get(p, frozenset())
        ):
            return False
    return True


def _forth_back(m1: KripkeModel, m2: KripkeModel, pairs, u: str, v: str) -> bool:
    """Every successor of u is related by `pairs` to some successor of v
    (forth), and every successor of v to some successor of u (back)."""
    s1, s2 = m1.successors(u), m2.successors(v)
    return all(any((u2, v2) in pairs for v2 in s2) for u2 in s1) and all(
        any((u2, v2) in pairs for u2 in s1) for v2 in s2
    )


def is_bisimulation(m1: KripkeModel, m2: KripkeModel, z: Bisimulation) -> bool:
    """Atom agreement plus the forth and back simulation conditions for
    every pair.  The empty relation qualifies vacuously."""
    w1, w2 = set(m1.worlds), set(m2.worlds)
    for u, v in z.pairs:
        if u not in w1 or v not in w2:
            raise WorldOutOfModel(f"pair ({u},{v}) outside the models")
    return all(
        _atoms_agree(m1, m2, u, v) and _forth_back(m1, m2, z.pairs, u, v) for u, v in z.pairs
    )


def greatest_bisimulation(m1: KripkeModel, m2: KripkeModel) -> Bisimulation:
    """Largest bisimulation between the models, by iterated refinement of
    the atom-agreeing full relation; it contains every bisimulation."""
    pairs = {
        (u, v)
        for u in m1.worlds
        for v in m2.worlds
        if _atoms_agree(m1, m2, u, v)
    }
    changed = True
    while changed:
        changed = False
        for u, v in list(pairs):
            if not _forth_back(m1, m2, pairs, u, v):
                pairs.discard((u, v))
                changed = True
    return Bisimulation(frozenset(pairs))


def lift_bisimulation(
    z: Bisimulation, a: EventModel, m1: KripkeModel, m2: KripkeModel
) -> Bisimulation:
    """Lift of a bisimulation to the products: related base worlds paired
    with one and the same event, restricted to the surviving pair worlds."""
    if not is_bisimulation(m1, m2, z):
        raise NotABisimulation("the relation fails the bisimulation conditions")
    p1 = product_update(m1, a)
    p2 = product_update(m2, a)
    w1, w2 = set(p1.model.worlds), set(p2.model.worlds)
    lifted = set()
    for s, t in z.pairs:
        for e in a.events:
            ps, pt = pair_world(s, e), pair_world(t, e)
            if ps in w1 and pt in w2:
                lifted.add((ps, pt))
    return Bisimulation(frozenset(lifted))


@dataclass
class DegreeCheckResult:
    """Outcome of comparing truth on full models against truth on their
    radius-k generated submodels over a supplied test set."""

    formula: Formula
    k: int
    verdict: str
    counterexample: PointedModel | None = None
    full_value: bool | None = None
    submodel_value: bool | None = None

    @property
    def consistent(self) -> bool:
        return self.verdict == CONSISTENT


def check_degree(
    phi: Formula,
    k: int,
    testset,
    budget=None,
    events: EventModel | None = None,
) -> DegreeCheckResult:
    """Evaluate the formula at each pointed model on the full model and on
    its radius-k generated submodel; report the first disagreement."""
    for pm in testset:
        full_value = holds(pm.model, pm.point, phi, budget=budget, events=events)
        sub = generated_submodel_k(pm.model, pm.point, k)
        sub_value = holds(sub.model, sub.point, phi, budget=budget, events=events)
        if full_value != sub_value:
            return DegreeCheckResult(
                phi, k, COUNTEREXAMPLE, pm, full_value, sub_value
            )
    return DegreeCheckResult(phi, k, CONSISTENT)


def k_star(deg_pres, deg_phi: int) -> int:
    """Radius bound for an event diamond: the largest claimed precondition
    degree plus the body's claimed degree."""
    deg_pres = list(deg_pres)
    if not deg_pres:
        raise ValueError("need at least one precondition degree")
    return max(deg_pres) + deg_phi
