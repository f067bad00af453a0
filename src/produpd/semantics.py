"""Exhaustive model checking over finite (tagged) models.

Quantifiers search witness subsets a world at a time, the universal
modality checks the whole domain, event diamonds evaluate their body in
a product session and announcements in a relativised one, and the
greatest fixpoint is computed by descending iteration.  World sets are
integer bitmasks, and a child session is built from its parent's masks,
in index space, without naming a model or its worlds.

A quantifier does not always need every subset of the domain.  One
static scan of each binder's body, cached for the session tree, reads
the guard path of its body with a polarity, as conjunctions at + and
disjunctions at - (an `exists` body starts at +, a `forall` body at -,
as in its expansion `~ exists r. ~B`; `~` flips the polarity and `A ->
B` at - passes A at + and B at -), and finds:

- the `U (r -> B)` guard conjuncts at + (`U ~r` is one with B false): a
  subset outside the extension of B falsifies the guard outright, so
  only subsets of that extension are tried;
- the ceiling, the parts free of r and of every binder passed, each read
  at - entering as its negation, and holding no binder, event diamond or
  announcement (so evaluating one never raises or ticks; the entry
  points refuse a nominal that would not resolve).  An `exists` body holds,
  and a `forall` body fails, only inside the ceiling, so an `exists` is
  false outside it without a witness, and a `forall` true there (its
  floor): `forall r. B` and its expansion `~ exists r. ~B` search the
  same worlds;
- the binder's locality radius d, the deepest box or diamond nesting
  above a free occurrence of its variable.  The body's truth at a world w
  then depends on the variable only within N_d(w), the worlds reachable
  from w in at most d steps, so world w tries only the subsets of the
  guard within N_d(w): every witness agrees on N_d(w) with one of them.
  There is no radius when an occurrence sits under `U`, `E` or `nu`, in
  an announced formula, or under an event diamond when the variable is
  a precondition prop.  Then every world tries every subset of the guard;
- the binder's sign, with a radius: r itself read at + makes the body
  imply r, so only witnesses holding w decide w (the binder is pointed,
  and a world outside the guard is decided at once), and r read at -
  makes only witnesses missing w decide it;
- the binder's extreme witness.  The guard conjuncts hold of every
  subset of the guard, so with them left out, r read at + only makes
  the guard decide every world at once, and r read at - only the empty
  set (Ackermann's lemma; the pure-literal rule of QBF).  There is none
  when r is in an announced formula or is a precondition prop under an
  event diamond, where the domain depends on r.

The search (`_eval_block`) decides one world at a time.  The worlds left
are grouped by the part they would search, a group tries the submasks of
its part in ascending order only until each of its worlds is decided,
and a group already decided is skipped; no witness is tried twice in
one evaluation.  If no world has a part, the all-empty witness is tried
once, so the body is still evaluated.  The submasks are built one at a
time, never listed, so the early exits and the subset budget bound the
memory too.

The scan also picks out the rewriter's two binder shapes (`_shape`).  A
block `exists f0. exists f1. ...`, one fresh prop per event, is searched
jointly, not nested: a world's part is then a tuple, one part per
member.  A lone `exists` or `forall` is a block of one.  A quantifier
whose body does not depend on its variable is its body, and its domain
goes unchecked: the variable is not free there, nor a precondition prop
under an event diamond.  `exists x. (x & U (x -> B))`, the encoding of
`nu x. B`, holds on the union of the X <= B(X), the greatest fixpoint
(Knaster-Tarski), so it is iterated instead of enumerated.

A node's deps are its free props, sorted once in its facts, plus the
precondition props when it holds an event diamond.  Every subformula's
extension is memoised under a flat key: the node when it has no deps,
else `(node, value of each dep)`, with None for an unbound prop, so a
prop bound to the empty set (mask 0) and an unbound one differ.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import (
    BudgetExceeded,
    NominalOutsideProductContext,
    PositivityViolation,
    UnknownEvent,
    WorldOutOfModel,
)
from .models import EventModel, KripkeModel, as_tagged
from .syntax import (
    BOTTOM,
    CONNECTIVES,
    RAISING,
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
    Nominal,
    Not,
    Nu,
    Or,
    Top,
    _KIND_BIT,
    _UNSCOPED_BIT,
    _first,
    check_nominals,
    check_nu_positivity,
    children,
    contains_node,
    free_props,
    is_positive_in,
    nu_encoding,
    polarities,
)

DEFAULT_QUANTIFIER_WORLDS = 16
DEFAULT_TOTAL_ENUMERATIONS = 2_000_000

# memoise a node only while its valuation key stays small
_MEMO_ARITY_CAP = 3

# a free occurrence of a binder's variable under one of these leaves it no
# locality radius (an announcement: in its announced formula)
_NONLOCAL = frozenset({Global, ExistsGlobal, Nu, Announce})
_EVENT_BIT = _KIND_BIT[ActionDiamond]
# a conjunct that could raise or tick bounds no search (a nominal cannot: see `_check`)
_NO_CEILING = sum(_KIND_BIT[k] for k in RAISING if k is not Nominal)


@dataclass(frozen=True)
class EvalBudget:
    """Caps on the exponential parts of evaluation.

    `max_worlds_for_quantifier` bounds the domain size any single subset
    enumeration may range over; `max_total_subset_enumerations` bounds the
    number of subsets tried across one evaluation, nested quantifiers and
    built submodels included.
    """

    max_worlds_for_quantifier: int = DEFAULT_QUANTIFIER_WORLDS
    max_total_subset_enumerations: int = DEFAULT_TOTAL_ENUMERATIONS

    def __post_init__(self):
        if self.max_worlds_for_quantifier <= 0:
            raise ValueError("max_worlds_for_quantifier must be positive")
        if self.max_total_subset_enumerations <= 0:
            raise ValueError("max_total_subset_enumerations must be positive")


def _submasks(mask: int, base: int = 0):
    """`base` joined with each submask of `mask`, in ascending order of
    submask, each built as it is read."""
    s = 0
    yield base
    while s != mask:
        s = (s - mask) & mask
        yield base | s


def _submask_tuples(parts: tuple):
    """Each tuple of `_submasks(*part)` over the (mask, base) `parts`, in
    `itertools.product` order, built lazily."""
    if len(parts) == 1:
        return zip(_submasks(*parts[0]))
    return itertools.chain.from_iterable(
        map((x,).__add__, _submask_tuples(parts[1:])) for x in _submasks(*parts[0])
    )


class _Work:
    __slots__ = ("ticks",)

    def __init__(self):
        self.ticks = 0


class Evaluator:
    """Evaluation session over one (tagged) model.

    Holds the bitmask encoding, the memo and the product / relativised
    child sessions, so repeated queries against the same model share all
    intermediate work.  `_eval` keys the memo on the node and the values
    of its deps, read from its facts (for a node holding an event
    diamond, from a table the session tree shares), and calls the handler
    of the node's kind.  A node is memoised while at most
    `_MEMO_ARITY_CAP` of its deps are bound.  A quantifier searches
    only the worlds inside its ceiling (outside a `forall`'s floor), each
    only until it is decided, and tries for it only the witnesses that its
    guard, its radius and its sign leave, or its extreme witness alone,
    which decides every world at once; a lone `exists` or `forall` is a
    block of one, and the nu encoding is iterated (see the module
    docstring).  `events` supplies the ambient event model that event
    diamonds and nominals refer to.

    With `_pairs`, `model` is the parent session and the new session is
    its child over the listed (parent world index, event) pairs: the
    product worlds (w, e), or, with the event None, the worlds w that a
    relativisation keeps.  All of it comes from the parent's masks: the
    valuation lifted along w, one tag mask per event of a product, and an
    edge wherever both w and e have one.  A child has no `worlds` or
    `index`: `extension`, `holds` and `mask_of` are for root sessions.
    """

    def __init__(self, model, events: EventModel | None = None, budget=None, _pairs=None):
        if _pairs is None:
            tagged = as_tagged(model)
            self.model: KripkeModel = tagged.model
            self.events = events
            self.budget = budget if budget is not None else EvalBudget()
            self._work = _Work()
            self._pre_props: frozenset[str] = frozenset()
            for f in events.pre.values() if events is not None else ():
                self._pre_props |= free_props(f)
            # the session tree shares these: they depend on nodes and precondition props
            self._scans, self._event_deps = {}, {}
            self.worlds = list(self.model.worlds)
            self.index = {w: i for i, w in enumerate(self.worlds)}
            self.n = len(self.worlds)
            self.succ = [0] * self.n
            for u, v in self.model.relation:
                self.succ[self.index[u]] |= 1 << self.index[v]
            self.base_val = {p: self.mask_of(xs) for p, xs in self.model.valuation.items()}
            self.tag_mask: dict[str, int] = {}
            for w, e in tagged.tags.items():
                self.tag_mask[e] = self.tag_mask.get(e, 0) | (1 << self.index[w])
        else:
            parent = model
            self.events, self.budget, self._work = parent.events, parent.budget, parent._work
            self._pre_props = parent._pre_props
            self._scans, self._event_deps = parent._scans, parent._event_deps
            self._parent_index: list[int] = [i for i, _ in _pairs]
            self.n = len(_pairs)
            self.base_val = {p: self._from_parent(m) for p, m in parent.base_val.items()}
            # per event, the tags its edges lead to; a relativisation keeps
            # every edge, and an empty child has no worlds to tag
            reach = {None: -1}
            if _pairs and _pairs[0][1] is not None:
                self.tag_mask = dict.fromkeys(self.events.events, 0)
                for c, (_, e) in enumerate(_pairs):
                    self.tag_mask[e] |= 1 << c
                reach = dict.fromkeys(self.events.events, 0)
                for e1, e2 in self.events.relation:
                    reach[e1] |= self.tag_mask[e2]
            else:
                self.tag_mask = {e: self._from_parent(m) for e, m in parent.tag_mask.items()}
            self.succ = [self._from_parent(parent.succ[i]) & reach[e] for i, e in _pairs]
        self.full = (1 << self.n) - 1
        self._memo: dict = {}
        self._products: dict = {}
        self._relativised: dict = {}
        self._hoods: dict = {}

    # -- mask plumbing -------------------------------------------------

    def mask_of(self, worlds) -> int:
        m = 0
        for w in worlds:
            i = self.index.get(w)
            if i is None:
                raise WorldOutOfModel(f"world {w!r} not in the model")
            m |= 1 << i
        return m

    def worlds_of(self, mask: int) -> frozenset[str]:
        return frozenset(w for i, w in enumerate(self.worlds) if (mask >> i) & 1)

    def _from_parent(self, mask: int) -> int:
        out = 0
        for i, pi in enumerate(self._parent_index):
            if (mask >> pi) & 1:
                out |= 1 << i
        return out

    def _to_parent(self, mask: int) -> int:
        out = 0
        for i, pi in enumerate(self._parent_index):
            if (mask >> i) & 1:
                out |= 1 << pi
        return out

    def _tick(self, binder: Formula):
        """Count one subset tried by `binder`, a quantifier or fixpoint."""
        self._work.ticks += 1
        if self._work.ticks > self.budget.max_total_subset_enumerations:
            raise BudgetExceeded(
                "subset enumeration budget exhausted "
                f"({self.budget.max_total_subset_enumerations} subsets) while "
                f"enumerating `{CONNECTIVES['binder'][type(binder)]} {binder.var}`: "
                f"{self._work.ticks - 1} subsets tried so far"
            )

    def _hood(self, radius: int) -> list[int]:
        """N_radius(w) for each world w: the worlds reachable from w in at
        most `radius` steps."""
        radius = min(radius, self.n)  # within n steps reach is complete
        got = self._hoods.get(radius)
        if got is None:
            got = [1 << i for i in range(self.n)]
            for _ in range(radius):
                step = []
                for reach in got:
                    out = reach
                    for j in range(self.n):
                        if (reach >> j) & 1:
                            out |= self.succ[j]
                    step.append(out)
                got = step
            self._hoods[radius] = got
        return got

    # -- public surface --------------------------------------------------

    def extension(self, phi: Formula, env=None) -> frozenset[str]:
        return self.worlds_of(self._root(phi, env))

    def extension_mask(self, phi: Formula, env=None) -> int:
        return self._root(phi, env)

    def holds(self, world: str, phi: Formula) -> bool:
        if world not in self.index:
            raise WorldOutOfModel(f"world {world!r} not in the model")
        return bool((self._root(phi, None) >> self.index[world]) & 1)

    def _root(self, phi: Formula, env) -> int:
        """`phi`'s mask for the public entry points, after `_check`; a
        non-node is left to `_eval`, which names it."""
        if isinstance(phi, Formula):
            self._check(phi)
        return self._eval(phi, dict(env) if env else {})

    def _check(self, phi: Formula) -> None:
        """Refuse, before evaluating anything, a `nu` whose body is not
        positive, as `parse_formula` does, and a nominal that would not
        resolve: one with no event, or one outside every event diamond with
        no tags or no event model here.  The first such node is named."""
        check_nu_positivity(phi)
        if self.events is not None:
            check_nominals(phi, len(self.events.events))
        if phi._facts.kinds & _UNSCOPED_BIT and not (self.tag_mask and self.events):
            nominal = _first(
                phi, lambda f: f._facts.kinds & _UNSCOPED_BIT, lambda f: type(f) is Nominal
            )
            why = "evaluated on a model without event tags"
            if self.tag_mask:
                why = "needs an ambient event model to resolve"
            raise NominalOutsideProductContext(f"nominal j{nominal.index} {why}")

    # -- the evaluator ---------------------------------------------------

    def _eval(self, phi: Formula, env: dict) -> int:
        try:
            facts = phi._facts
        except AttributeError:
            raise TypeError(f"not a formula node: {phi!r}") from None
        deps = facts.deps
        if facts.kinds & _EVENT_BIT:
            # the product domain also varies with precondition props
            deps = self._event_deps.get(phi)
            if deps is None:
                deps = self._event_deps[phi] = tuple(sorted(facts.free | self._pre_props))
        arity = len(deps)
        # (node, value of each dep), None where unbound; spelled out up to
        # three deps, which covers nearly every node and beats map()
        if arity == 0:
            key = phi
        elif arity == 1:
            key = (phi, env.get(deps[0]))
        elif arity == 2:
            key = (phi, env.get(deps[0]), env.get(deps[1]))
        elif arity == 3:
            key = (phi, env.get(deps[0]), env.get(deps[1]), env.get(deps[2]))
        else:
            key = (phi, *map(env.get, deps))
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        result = _HANDLERS[type(phi)](self, phi, env)
        # the cap counts bound deps only
        if arity <= _MEMO_ARITY_CAP or arity - key.count(None) <= _MEMO_ARITY_CAP:
            self._memo[key] = result
        return result

    def _eval_atom(self, phi: Atom, env: dict) -> int:
        got = env.get(phi.name)
        if got is not None:
            return got
        return self.base_val.get(phi.name, 0)

    def _eval_and(self, phi: And, env: dict) -> int:
        left = self._eval(phi.left, env)
        if left == 0:
            return 0
        return left & self._eval(phi.right, env)

    def _eval_not(self, phi: Not, env: dict) -> int:
        return self.full & ~self._eval(phi.body, env)

    def _eval_or(self, phi: Or, env: dict) -> int:
        left = self._eval(phi.left, env)
        if left == self.full:
            return left
        return left | self._eval(phi.right, env)

    def _eval_implies(self, phi: Implies, env: dict) -> int:
        return (self.full & ~self._eval(phi.left, env)) | self._eval(phi.right, env)

    def _eval_box(self, phi: Box, env: dict) -> int:
        body = self._eval(phi.body, env)
        out = 0
        for i in range(self.n):
            if self.succ[i] & ~body == 0:
                out |= 1 << i
        return out

    def _eval_diamond(self, phi: Diamond, env: dict) -> int:
        body = self._eval(phi.body, env)
        out = 0
        for i in range(self.n):
            if self.succ[i] & body:
                out |= 1 << i
        return out

    def _eval_global(self, phi: Global, env: dict) -> int:
        return self.full if self._eval(phi.body, env) == self.full else 0

    def _eval_exists_global(self, phi: ExistsGlobal, env: dict) -> int:
        return self.full if self._eval(phi.body, env) != 0 else 0

    def _eval_top(self, phi: Top, env: dict) -> int:
        return self.full

    def _eval_bottom(self, phi: Bottom, env: dict) -> int:
        return 0

    def _check_quantifier_domain(self):
        if self.n > self.budget.max_worlds_for_quantifier:
            raise BudgetExceeded(
                f"quantifier over {self.n} worlds exceeds the budget of "
                f"{self.budget.max_worlds_for_quantifier}"
            )

    def _scan(self, phi: ExistsProp | ForallProp) -> tuple:
        """The binder's member (guard bodies, locality radius, None when it
        has none, sign and extreme witness; see the module docstring), its
        ceiling and its fast path: `_eval_vacuous` when its body does not
        depend on var, else `_shape`.  One walk finds all but the witness,
        which `polarities` reads with the guards left out: 1 for the
        guard, -1 for the empty set, 0 for none.

        Guards, var's sign and the ceiling are read on the guard path, with
        a polarity (see the module docstring); at + it also passes an
        intermediate `exists` of another variable.  A guard conjunct that
        mentions no intervening binder falsifies the whole inner body for
        oversized witnesses regardless of the inner choices.  The sign,
        with a radius, is 1 (pointed) when var itself is read at +, else -1
        when it is read at -, else 0.  A ceiling part holding a binder, an
        event diamond or an announcement is left out, since it could raise
        or tick.

        Under U, E, nu or in an announced formula, truth at a world can
        depend on var at any distance.  So can an event diamond anywhere
        in the body when var is a precondition prop, since the product
        depends on it.  A U (var -> A) conjunct (or U ~var) where guards
        are looked for, with var not free in A, is no occurrence: it holds of
        every subset of a set it holds of, so cutting a witness down to
        N_d(w) keeps it one.
        """
        got = self._scans.get(phi)
        if got is not None:
            return got
        var = phi.var
        bodies: list[Formula] = []
        guards: list[Formula] = []
        ceiling: list[Formula] = []
        # the polarities var itself is read at on the guard path
        signs = set()
        pre_bound = var in self._pre_props and contains_node(phi.body, ActionDiamond)
        radius = None if pre_bound else 0
        # (node, modal depth, binders passed on the guard path or None off
        # it, and there the polarity: a `forall` body is read at -)
        start = 1 if type(phi) is ExistsProp else -1
        stack = [(phi.body, 0, frozenset(), start)]
        # off the guard path, the deepest depth each node was walked at: a
        # shared subterm is walked again only deeper, not once per occurrence
        deepest: dict[Formula, int] = {}
        while stack:
            f, depth, shadowed, sign = stack.pop()
            if var not in f._facts.free:
                if shadowed is not None and not (
                    f._facts.free & shadowed or f._facts.kinds & _NO_CEILING
                ):
                    ceiling.append(f if sign > 0 else Not(f))
                continue
            cls = type(f)
            if shadowed is not None:
                if cls is Not:
                    stack.append((f.body, depth, shadowed, -sign))
                    continue
                if cls is Atom:
                    signs.add(sign)
                elif (cls is And and sign > 0) or (cls is Or and sign < 0):
                    stack.append((f.left, depth, shadowed, sign))
                    stack.append((f.right, depth, shadowed, sign))
                    continue
                elif cls is Implies and sign < 0:
                    # `~(A -> B)` is `A & ~B`
                    stack.append((f.left, depth, shadowed, 1))
                    stack.append((f.right, depth, shadowed, -1))
                    continue
                # guards and shadowing are read only at +
                elif sign > 0 and cls is ExistsProp:
                    stack.append((f.body, depth, shadowed | {f.var}, 1))
                    continue
                elif sign > 0 and cls is Global and type(f.body) in (Implies, Not):
                    # U (var -> A), or U ~var, which is U (var -> false)
                    g = f.body
                    head, rhs = (g.left, g.right) if type(g) is Implies else (g.body, BOTTOM)
                    if type(head) is Atom and head.name == var and var not in rhs._facts.free:
                        if not rhs._facts.free & shadowed:
                            bodies.append(rhs)
                            guards.append(f)
                        continue
            if radius is None or deepest.get(f, -1) >= depth:
                continue  # only guards are left to find, or nothing new
            deepest[f] = depth
            if cls is Atom:
                radius = max(radius, depth)
            elif cls is Box or cls is Diamond:
                stack.append((f.body, depth + 1, None, 0))
            # a step in a product or relativised model projects onto one here
            elif cls is ActionDiamond or (cls is Announce and var not in f.announced._facts.free):
                stack.append((f.body, depth, None, 0))
            elif cls in _NONLOCAL:
                radius = None
            else:
                for part in children(f):
                    stack.append((part, depth, None, 0))
        # with no radius each world would try every witness anyway; with
        # both signs the body never holds, and either one is exact
        sign = 0 if radius is None or not signs else max(signs)
        # var read at one polarity off its guards: 1 at +, -1 at -
        witness = 0
        if not pre_bound:
            met = polarities(phi.body, var, frozenset(guards))
            if len(met) < 2:
                witness = -start if -1 in met else start
        member = bodies, radius, sign, witness
        # with var not free the walk reads nothing, so no radius there
        # means a precondition prop that an event diamond's product reads
        if var not in phi.body._facts.free and radius is not None:
            shape = Evaluator._eval_vacuous, None
        elif type(phi) is ExistsProp:
            shape = self._shape(phi, member, ceiling)
        else:
            shape = None
        return self._scans.setdefault(phi, (member, ceiling, shape))

    def _shape(self, phi: ExistsProp, member: tuple, ceiling: list):
        """(handler, argument) of `phi`'s fast path, or None: the nu encoding
        with B positive in x and free of dynamic operators, or the head of a
        block whose members all have a radius.  `member` is `phi`'s
        (guard bodies, radius, sign, witness), and its ceiling the block's."""
        var, body = phi.var, phi.body
        match body:
            case And(right=Global(body=Implies(right=rhs))) if phi is nu_encoding(var, rhs):
                if is_positive_in(rhs, var) and not contains_node(rhs, (ActionDiamond, Announce)):
                    return Evaluator._eval_nu, rhs
        names, members = [var], [member]
        # the chain ends at a repeated variable or at a binder whose body
        # ignores its variable (nested, one memo entry serves every witness)
        while type(body) is ExistsProp and body.var in body.body._facts.free.difference(names):
            names.append(body.var)
            members.append(self._scan(body)[0])
            body = body.body
        # a guard naming a member puts that member under U, leaving it no
        # radius, so every guard can be evaluated once, outside the block
        if len(names) > 1 and var in phi.body._facts.free and all(
            member[1] is not None for member in members
        ):
            return Evaluator._eval_block, (names, members, body, ceiling)
        return None

    def _guard(self, bodies: list[Formula], env: dict) -> int:
        guard = self.full
        for rhs in bodies:
            guard &= self._eval(rhs, env)
        return guard

    def _eval_quantifier(self, phi: ExistsProp | ForallProp, env: dict) -> int:
        member, ceiling, shape = self._scan(phi)
        if shape is not None:
            return shape[0](self, phi, env, shape[1])
        return self._eval_block(phi, env, ((phi.var,), (member,), phi.body, ceiling))

    def _eval_vacuous(self, phi: ExistsProp | ForallProp, env: dict, _) -> int:
        """The body: a binder that enumerates nothing leaves its domain
        unchecked, like the rewrite that drops it."""
        return self._eval(phi.body, env)

    def _eval_block(self, phi: ExistsProp | ForallProp, env: dict, block) -> int:
        """Decide a block of `exists`, or a lone `exists` or `forall` as a
        block of one, a world at a time, one tick per witness tuple tried.

        Only the worlds inside the ceiling are searched (for `forall`, the
        worlds outside its floor), and of those only the ones inside each
        pointed member's guard; the rest are decided.  They are grouped by
        their part, per member guard_i & N_{d_i}(w) (guard_i when d_i is
        None), holding w where member i's sign is 1 and missing w where it
        is -1, or member i's extreme witness alone.  Each group tries the
        tuples of submasks of its part until all its worlds are decided,
        and a group already decided is skipped; `tried` keeps any tuple
        from being tried twice.  `forall` collects the worlds each witness
        falsifies.  When no world has a part, the all-empty tuple is tried
        once (as a group that is never decided), on an empty domain too,
        so the body is still evaluated."""
        self._check_quantifier_domain()
        names, members, body, ceiling = block
        members = [
            (self._guard(bodies, env), None if radius is None else self._hood(radius), *rest)
            for bodies, radius, *rest in members
        ]
        # the worlds left to decide: inside each pointed member's guard
        # and the ceiling, evaluated only while some world is left
        todo = self.full
        for guard, _, sign, _ in members:
            if sign > 0:
                todo &= guard
        for f in ceiling:
            if todo:
                todo &= self._eval(f, env)
        groups: dict = {}
        for i in range(self.n):
            bit = 1 << i
            if not todo & bit:
                continue
            part = []
            for guard, hood, sign, witness in members:
                if witness:
                    part.append((0, guard if witness > 0 else 0))
                    continue
                mask = guard if hood is None else guard & hood[i]
                part.append((mask & ~bit, bit) if sign > 0 else (mask & ~bit if sign else mask, 0))
            part = tuple(part)
            groups[part] = groups.get(part, 0) | bit
        # what a witness decides: the worlds where the body holds, or
        # for `forall` where it fails
        flip = self.full if type(phi) is ForallProp else 0
        found, tried = 0, set()
        sub_env = dict(env)
        # binding a lone binder's variable directly beats update(zip(...))
        var = names[0] if len(names) == 1 else None
        for part, worlds in (groups or {((0, 0),) * len(names): -1}).items():
            if not worlds & ~found:
                continue
            for xs in _submasks(*part[0]) if var is not None else _submask_tuples(part):
                if xs in tried:
                    continue
                tried.add(xs)
                self._tick(phi)
                if var is None:
                    sub_env.update(zip(names, xs))
                else:
                    sub_env[var] = xs
                found |= self._eval(body, sub_env) ^ flip
                if not worlds & ~found:
                    break
        return found ^ flip

    def _eval_nu(self, phi: Nu | ExistsProp, env: dict, body: Formula | None = None) -> int:
        """Descending iteration from the full set, of `nu x. B` or, given
        B, of its encoding, which ticks once per iteration."""
        encoded = body is not None
        if encoded:
            self._check_quantifier_domain()
        body = body if encoded else phi.body
        x = self.full
        sub_env = dict(env)
        while True:
            if encoded:
                self._tick(phi)
            sub_env[phi.var] = x
            y = self._eval(body, sub_env)
            if y == x:
                return x
            if y & ~x:
                raise PositivityViolation(
                    f"fixpoint iteration for {phi.var!r} is not descending; "
                    "the body is not monotone here"
                )
            x = y

    def _eval_nominal(self, phi: Nominal, env: dict) -> int:
        # an event that tags no world has no mask (none in an empty product)
        return self.tag_mask.get(self.events.events[phi.index], 0)

    def _product_session(self, env: dict) -> "Evaluator":
        key = tuple((p, env[p]) for p in sorted(self._pre_props) if p in env)
        sess = self._products.get(key)
        if sess is None:
            pre = [(e, self._eval(self.events.pre[e], env)) for e in self.events.events]
            pairs = [(i, e) for i in range(self.n) for e, mask in pre if (mask >> i) & 1]
            sess = self._products[key] = Evaluator(self, _pairs=pairs)
        return sess

    def _eval_action(self, phi: ActionDiamond, env: dict) -> int:
        if self.events is None:
            raise UnknownEvent(
                f"event diamond <{phi.event}> needs an ambient event model"
            )
        if phi.event not in self.events.pre:
            raise UnknownEvent(f"unknown event {phi.event!r}")
        prod = self._product_session(env)
        child_env = {p: prod._from_parent(m) for p, m in env.items()}
        body = prod._eval(phi.body, child_env)
        return prod._to_parent(body & prod.tag_mask.get(phi.event, 0))

    def _eval_announce(self, phi: Announce, env: dict) -> int:
        a_mask = self._eval(phi.announced, env)
        sess = self._relativised.get(a_mask)
        if sess is None:
            keep = [(i, None) for i in range(self.n) if (a_mask >> i) & 1]
            sess = self._relativised[a_mask] = Evaluator(self, _pairs=keep)
        child_env = {p: sess._from_parent(m) for p, m in env.items()}
        body = sess._eval(phi.body, child_env)
        return a_mask & sess._to_parent(body)


# one handler per node kind; `_eval` dispatches through this table
_HANDLERS = {
    Atom: Evaluator._eval_atom,
    And: Evaluator._eval_and,
    Not: Evaluator._eval_not,
    Or: Evaluator._eval_or,
    Implies: Evaluator._eval_implies,
    Box: Evaluator._eval_box,
    Diamond: Evaluator._eval_diamond,
    Global: Evaluator._eval_global,
    ExistsGlobal: Evaluator._eval_exists_global,
    Top: Evaluator._eval_top,
    Bottom: Evaluator._eval_bottom,
    ExistsProp: Evaluator._eval_quantifier,
    ForallProp: Evaluator._eval_quantifier,
    Nu: Evaluator._eval_nu,
    Nominal: Evaluator._eval_nominal,
    ActionDiamond: Evaluator._eval_action,
    Announce: Evaluator._eval_announce,
}


def extension(model, phi: Formula, budget=None, events: EventModel | None = None):
    """The set of worlds where the formula holds."""
    return Evaluator(model, events=events, budget=budget).extension(phi)


def holds(model, world: str, phi: Formula, budget=None, events: EventModel | None = None):
    """Membership of `world` in the formula's extension."""
    ev = Evaluator(model, events=events, budget=budget)
    return ev.holds(world, phi)


def gfp_oracle(model: KripkeModel, var: str, body: Formula, budget=None):
    """Union of every subset on which the body holds throughout under the
    corresponding valuation override: the greatest-fixpoint extension,
    computed by flat subset enumeration as an independent cross-check."""
    binder = Nu(var, body)
    ev = Evaluator(model, budget=budget)
    ev._check(binder)
    ev._check_quantifier_domain()
    total = 0
    for x in _submasks(ev.full):
        ev._tick(binder)
        if x & ~ev._eval(body, {var: x}) == 0:
            total |= x
    return ev.worlds_of(total)
