"""Formula AST and the syntactic toolbox built on it.

The core connectives are atoms, action nominals, negation, conjunction,
the relational box, the propositional existential quantifier, the global
modality, event diamonds, announcements and the greatest fixpoint.  The
usual derived connectives (or, implication, diamond, the universal
propositional quantifier, the "somewhere" modality, the constants) are
first-class display nodes so that rewritten output stays readable; every
measure and every semantic clause treats them by their expansions.

Rewritten output is a tree that grows much faster than its set of distinct
subterms, so nodes are hash-consed: structurally equal formulas are one
object (see `Formula`).  A node's children always exist before it, so the
constructor builds the node's facts record from its children's records
when it creates the node: free props (also sorted, the evaluator's memo
deps, shared with a child whose free props are the same), size, binder
count, modal depth, nominal reach and the kinds of node below it, with a
bit for a nominal outside every event diamond and one for a `nu` whose
body is not positive in its variable.  Facts are built once per distinct
subterm, so `free_props`, `formula_size`, `quantifier_count`,
`contains_node`, `modal_depth` and `classify` answer in O(1).  One table,
`_CHILD_FIELDS`, names each node class's child fields; `children`,
`rebuild` and the constructor read it.  `substitute`, `alpha_equal` and
the translator's forall expansion and constant folding are clauses of
one memoised bottom-up map, `rewrite_up`.  It and the walks that remain,
`polarities` and `all_props`, visit each distinct subterm once
(`polarities` once per polarity and skip set), and an error that names
a node descends to it along the records that hold it (`_first`).

Formula text is written here.  `CONNECTIVES` is the one place where a
connective is spelled; `print_formula` reads it, and `parser` reads it
back to lex and parse.  A node's text does not depend on where the node
occurs, so the printer keeps it in the node's `_text` slot, and a
rewritten tree is rendered once per distinct subterm.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, fields
from enum import Enum
from functools import cache, partial
from typing import NamedTuple

from .errors import InputNotSentenceFragment, PositivityViolation, UnknownEvent

FRESH_PREFIX = "_f"


class Formula:
    """Base class for formula nodes.  Instances are immutable and hash-consed.

    Constructing a node returns the live node with the same class and
    fields if there is one, so structurally equal formulas are one object,
    and `==` and `hash` are identity.  Each class keeps a table from the
    field tuple (children by identity) to a weak reference to its node; an
    entry goes when its node does.  Pickling, copying and
    `dataclasses.replace` return the interned node.

    The `_facts` slot holds the node's `_Facts`, built from its children's
    when the node is created; the `_text` slot caches its printed text once
    computed.  They are not dataclass fields, so repr and pickling ignore
    them.
    """

    __slots__ = ("_facts", "_text", "__weakref__")

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._nodes = {}

    def __new__(cls, *args, **fields):
        if fields:  # dataclasses.replace passes every field by name
            names = cls.__match_args__[len(args):]
            args = (*args, *[fields.pop(f) for f in names if f in fields])
            if fields:
                raise TypeError(f"{cls.__name__}() has no fields {sorted(fields)}")
        nodes = cls._nodes
        ref = nodes.get(args)
        if ref is not None:
            node = ref()
            if node is not None:
                return node
        if len(args) != len(cls.__match_args__):
            raise TypeError(f"{cls.__name__}() takes fields {cls.__match_args__}")
        node = _new(cls)
        for name, value in zip(cls.__match_args__, args):
            _set(node, name, value)
        size, binders, kinds, depth, nominals = 1, 0, _KIND_BIT[cls], 0, 0
        free, deps = _NO_PROPS, ()
        for name in _CHILD_FIELDS[cls]:
            part = getattr(node, name)._facts
            size += part.size
            binders += part.binders
            kinds |= part.kinds
            if part.depth > depth:
                depth = part.depth
            if part.nominals > nominals:
                nominals = part.nominals
            if free <= part.free:  # a child's set that holds the rest lends its tuple
                free, deps = part.free, part.deps
            elif not part.free <= free:
                free, deps = free | part.free, None
        if cls is Atom:
            free, deps = frozenset(args), args
        elif cls is Box or cls is Diamond:
            depth += 1
        elif cls in _BINDERS:
            binders += 1
            if args[0] in free:
                free, deps = free - {args[0]}, None
                if cls is Nu and not is_positive_in(args[1], args[0]):
                    kinds |= _NONPOSITIVE_BIT
        elif cls is ActionDiamond:
            kinds &= ~_UNSCOPED_BIT
        elif cls is Nominal:
            kinds |= _UNSCOPED_BIT
            nominals = args[0] + 1
        facts = _Facts(free, deps or tuple(sorted(free)), size, binders, kinds, depth, nominals)
        _set(node, "_facts", facts)
        nodes[args] = _ref(node, partial(_forget, nodes, args))
        return node

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self.__match_args__)

    def __deepcopy__(self, memo):
        return self  # immutable, and a walk would recurse once per level

    def __str__(self) -> str:
        return print_formula(self)


_new = object.__new__
_set = object.__setattr__
_ref = weakref.ref


def _forget(nodes: dict, args: tuple, ref) -> None:
    # a later node with the same fields may already hold the entry
    if nodes.get(args) is ref:
        del nodes[args]


def _node(cls):
    """Slotted frozen dataclass whose construction is `Formula.__new__`."""
    return dataclass(frozen=True, slots=True, eq=False, init=False)(cls)


@_node
class Atom(Formula):
    name: str


@_node
class Nominal(Formula):
    """Nullary modality true at product worlds built from the i-th event."""

    index: int


@_node
class Top(Formula):
    pass


@_node
class Bottom(Formula):
    pass


@_node
class Not(Formula):
    body: Formula


@_node
class And(Formula):
    left: Formula
    right: Formula


@_node
class Or(Formula):
    left: Formula
    right: Formula


@_node
class Implies(Formula):
    left: Formula
    right: Formula


@_node
class Box(Formula):
    body: Formula


@_node
class Diamond(Formula):
    body: Formula


@_node
class Global(Formula):
    """Universal modality: true iff the body holds at every world."""

    body: Formula


@_node
class ExistsGlobal(Formula):
    """Somewhere modality, the dual of Global."""

    body: Formula


@_node
class ExistsProp(Formula):
    """Second-order quantifier over subsets of the domain."""

    var: str
    body: Formula


@_node
class ForallProp(Formula):
    var: str
    body: Formula


@_node
class Nu(Formula):
    """Greatest fixpoint binder; the body must be positive in the variable."""

    var: str
    body: Formula


@_node
class ActionDiamond(Formula):
    """Event modality <e>: the event's precondition holds here and the body
    holds at the corresponding world of the product model."""

    event: str
    body: Formula


@_node
class Announce(Formula):
    """Announcement modality <!A>: A holds here and the body holds at the
    same world of the model relativised to A."""

    announced: Formula
    body: Formula


_BINDERS = (ExistsProp, ForallProp, Nu)
# the connectives whose first operand has the opposite polarity
FLIPS = (Not, Implies)
# the nodes whose evaluation can raise or tick: a binder can exhaust its
# budget, a nominal, event diamond or announcement can lack an event model
RAISING = (*_BINDERS, Nominal, ActionDiamond, Announce)
_MU_NODES = (Atom, Top, Bottom, Not, And, Or, Implies, Box, Diamond, Nu)
_NODE_KINDS = (
    Atom, Nominal, Top, Bottom, Not, Box, Diamond, Global, ExistsGlobal,
    And, Or, Implies, *_BINDERS, ActionDiamond, Announce,
)
_KIND_BIT = {cls: 1 << i for i, cls in enumerate(_NODE_KINDS)}
# the child fields of each node class, which come after its other fields
_CHILD_FIELDS = {
    cls: tuple(f.name for f in fields(cls) if f.type == "Formula")
    for cls in _NODE_KINDS
}


# in `_Facts.kinds`: a nominal outside every event diamond, a `nu` whose
# body is not positive in its variable
_UNSCOPED_BIT = 1 << len(_NODE_KINDS)
_NONPOSITIVE_BIT = _UNSCOPED_BIT << 1


class _Facts(NamedTuple):
    """Facts about a whole subtree, kept on its root node."""

    free: frozenset[str]  # free propositions
    deps: tuple[str, ...]  # the same, sorted
    size: int  # node count
    binders: int  # ExistsProp, ForallProp and Nu nodes
    kinds: int  # union of the `_KIND_BIT` of every node, and the two bits above
    depth: int  # Box and Diamond nesting
    nominals: int  # one more than the highest nominal index, 0 with none


_NO_PROPS: frozenset[str] = frozenset()
TOP = Top()
BOTTOM = Bottom()


# The connective table: for each group (prefix, infix loosest first,
# binder, constant), node class -> lexeme.
CONNECTIVES = {
    "prefix": {Not: "~", Box: "[]", Diamond: "<>", Global: "U", ExistsGlobal: "E"},
    "infix": {Implies: "->", Or: "|", And: "&"},
    "binder": {ExistsProp: "exists", ForallProp: "forall", Nu: "nu"},
    "constant": {Top: "true", Bottom: "false"},
}
_PREFIX, _INFIX, _BINDER, _CONSTANT = CONNECTIVES.values()
# node class -> (its group in the connective table, printed text); a prefix
# is printed with one space before its operand, except `~`
_SPELLING = {
    node: (group, lexeme + " " if group is _PREFIX and lexeme != "~" else lexeme)
    for group in CONNECTIVES.values()
    for node, lexeme in group.items()
}


def _operand(phi: Formula) -> str:
    # binaries print their own parentheses; only binder scopes need help
    s = print_formula(phi)
    return f"({s})" if type(phi) in _BINDER else s


def print_formula(phi: Formula) -> str:
    """Fully parenthesised rendering; reparsing yields the same tree.

    A node's text does not depend on where the node occurs, so it is kept
    on the node and each distinct subterm is rendered once.
    """
    text = getattr(phi, "_text", None)
    if text is not None:
        return text
    cls = type(phi)
    group, text = _SPELLING.get(cls, (None, None))
    if group is _INFIX:
        text = f"({_operand(phi.left)} {text} {_operand(phi.right)})"
    elif group is _PREFIX:
        text = text + _operand(phi.body)
    elif group is _BINDER:
        text = f"{text} {phi.var}. {print_formula(phi.body)}"
    elif group is _CONSTANT:
        pass  # the spelling is the text
    elif cls is Atom:
        text = phi.name
    elif cls is Nominal:
        text = f"j{phi.index}"
    elif cls is ActionDiamond:
        text = print_dynamic(phi.event, phi.body)
    elif cls is Announce:
        text = print_dynamic(phi.announced, phi.body)
    else:
        raise TypeError(f"not a formula node: {phi!r}")
    _set(phi, "_text", text)
    return text


def print_dynamic(modality: str | Formula, body: Formula) -> str:
    """The text of `<modality> body` for an event name, or of
    `<!modality> body` for an announced formula, without building the node."""
    if isinstance(modality, str):
        return f"<{modality}> " + _operand(body)
    return f"<!{print_formula(modality)}> " + _operand(body)


class LanguageTag(Enum):
    BASE_MSO = "BaseMso"
    ACTION_MSO = "ActionMso"
    SCOPED_NOMINALS = "ScopedNominals"
    SENTENCE_ONLY = "SentenceOnly"
    MU_FRAGMENT = "MuFragment"


def children(phi: Formula) -> tuple[Formula, ...]:
    try:
        names = _CHILD_FIELDS[type(phi)]
    except KeyError:
        raise TypeError(f"not a formula node: {phi!r}") from None
    out = []
    for name in names:
        out.append(getattr(phi, name))
    return tuple(out)


def rebuild(phi: Formula, parts: tuple[Formula, ...]) -> Formula:
    """Rebuild a node with new children, reusing the original when unchanged
    (the parts compare by identity, as nodes do)."""
    if parts == tuple([getattr(phi, name) for name in _CHILD_FIELDS[type(phi)]]):
        return phi
    fixed = phi.__match_args__[: len(phi.__match_args__) - len(parts)]
    return type(phi)(*[getattr(phi, name) for name in fixed], *parts)


def nu_encoding(var: str, body: Formula) -> Formula:
    """`exists var. (var & U (var -> body))`, the encoding of `nu var. body`."""
    return ExistsProp(var, And(Atom(var), Global(Implies(Atom(var), body))))


@cache
def _kind_mask(kinds) -> int:
    """The bits of the node classes that `isinstance(node, kinds)` accepts."""
    return sum(bit for cls, bit in _KIND_BIT.items() if issubclass(cls, kinds))


_NOT_MU_MASK = _kind_mask(Formula) & ~_kind_mask(_MU_NODES)
_UNCOUNTED_MASK = _kind_mask((Nu, Announce))


def contains_node(phi: Formula, kinds) -> bool:
    """True iff some node of `phi` is an instance of `kinds`."""
    return bool(phi._facts.kinds & _kind_mask(kinds))


def free_props(phi: Formula) -> frozenset[str]:
    """Propositions occurring free; quantifiers and fixpoints bind."""
    return phi._facts.free


def all_props(phi: Formula) -> frozenset[str]:
    """Every proposition name occurring anywhere, bound or free."""
    out: set[str] = set()
    seen: set[Formula] = set()
    stack = [phi]
    while stack:
        f = stack.pop()
        if f in seen:
            continue
        seen.add(f)
        if isinstance(f, Atom):
            out.add(f.name)
        elif isinstance(f, _BINDERS):
            out.add(f.var)
        stack.extend(children(f))
    return frozenset(out)


def formula_size(phi: Formula) -> int:
    return phi._facts.size


def quantifier_count(phi: Formula) -> int:
    """Number of propositional existential quantifiers, counting the
    universal quantifier through its negation expansion.

    Fixpoint and announcement nodes are rejected: the measure is only
    defined once they have been rewritten away.  The error names the first
    such node in pre-order.
    """
    facts = phi._facts
    if facts.kinds & _UNCOUNTED_MASK:
        phi = _first(
            phi, lambda f: f._facts.kinds & _UNCOUNTED_MASK, lambda f: isinstance(f, (Nu, Announce))
        )
        raise InputNotSentenceFragment(
            f"quantifier count undefined on {type(phi).__name__} nodes"
        )
    return facts.binders


def _first(phi: Formula, enter, found) -> Formula:
    """The first node in pre-order that `found` accepts, descending into
    the first child that `enter` accepts; `enter` must accept the found
    node and every node above it."""
    while not found(phi):
        phi = next(c for c in children(phi) if enter(c))
    return phi


def modal_depth(phi: Formula) -> int:
    """Nesting depth of the relational modalities (box and diamond)."""
    return phi._facts.depth


def fresh_props(count: int, avoid) -> list[str]:
    """`count` pairwise-distinct reserved names disjoint from `avoid`.

    User-visible propositions may not begin with an underscore, so names
    drawn from the reserved pool can only collide with earlier fresh names.
    """
    avoid = set(avoid)
    out: list[str] = []
    k = 0
    while len(out) < count:
        name = f"{FRESH_PREFIX}{k}"
        k += 1
        if name in avoid:
            continue
        out.append(name)
        avoid.add(name)
    return out


def rewrite_up(phi: Formula, enter, clause) -> Formula:
    """The memoised bottom-up map of `clause` over `phi`.

    `enter(node)` is falsy for a node returned as it is, and otherwise the
    node to rewrite in its place, usually the node itself.  Each distinct
    node is rewritten once: the children of what `enter` gave first, then
    `clause(that node, its rewritten children)`.
    """
    done: dict[Formula, Formula] = {}

    def go(f: Formula) -> Formula:
        g = enter(f)
        if not g:
            return f
        out = done.get(f)
        if out is None:
            out = done[f] = clause(g, tuple(go(c) for c in children(g)))
        return out

    return go(phi)


def substitute(phi: Formula, target: str, replacement: Formula) -> Formula:
    """Capture-avoiding substitution of `replacement` for free `target`.

    Binders that would capture a free proposition of the replacement are
    renamed deterministically to reserved fresh names, before their body is
    rewritten.
    """
    repl_free = free_props(replacement)

    def enter(f: Formula) -> Formula | None:
        if target not in free_props(f):
            return None
        if type(f) in _BINDERS and f.var in repl_free:
            return rename(f, fresh_props(1, all_props(f.body) | repl_free | {target, f.var})[0])
        return f

    # target is free in an entered atom, so the atom is the target
    return rewrite_up(
        phi, enter, lambda f, parts: replacement if type(f) is Atom else rebuild(f, parts)
    )


def rename(binder: Formula, name: str) -> Formula:
    """`binder` with its variable renamed to `name`, which must not be free
    in its body; `substitute` keeps the renaming free of capture."""
    return type(binder)(name, substitute(binder.body, binder.var, Atom(name)))


def alpha_equal(f: Formula, g: Formula) -> bool:
    """Structural equality up to renaming of bound propositions: the
    canonical forms, each binder renamed to a prefix plus its binder count,
    are one node.  That count exceeds the count of every binder below it,
    so no renaming captures, and the prefix starts no name of f or g."""
    names = all_props(f) | all_props(g)
    prefix = "_c"
    while any(name.startswith(prefix) for name in names):
        prefix += "_"

    def canonical(h: Formula, parts: tuple[Formula, ...]) -> Formula:
        h = rebuild(h, parts)
        return rename(h, f"{prefix}{h._facts.binders}") if type(h) in _BINDERS else h

    def enter(h: Formula) -> Formula | None:
        return h if h._facts.binders else None

    return rewrite_up(f, enter, canonical) is rewrite_up(g, enter, canonical)


def polarities(phi: Formula, var: str, skip=frozenset()) -> set[int]:
    """The signs of the free occurrences of `var` outside the `skip` nodes:
    1 under an even number of flips, the first operands of the `FLIPS`
    connectives, -1 under an odd number, and both in an announced formula,
    which shapes the surviving domain.  A skipped node is skipped only
    where it means what it means at `phi`: below a binder of one of its
    free props, an event diamond or an announcement it is read.  Each
    (node, sign, skip) triple is visited once, until both signs are met."""
    met, seen, stack = set(), set(), [(phi, 1, skip)]
    while stack and len(met) < 2:
        item = stack.pop()
        f, sign, skip = item
        if var not in f._facts.free or f in skip or item in seen:
            continue
        seen.add(item)
        cls = type(f)
        # var is free in f: an atom is var itself, a binder binds another name
        if cls is Atom:
            met.add(sign)
        elif cls is Announce and var in f.announced._facts.free:
            return {1, -1}
        if skip and (cls in _BINDERS or cls is ActionDiamond or cls is Announce):
            skip = frozenset(g for g in skip if cls in _BINDERS and f.var not in g._facts.free)
        flip = cls in FLIPS  # the first operand only
        for c in children(f):
            stack.append((c, -sign if flip else sign, skip))
            flip = False
    return met


def is_positive_in(phi: Formula, var: str, skip=frozenset()) -> bool:
    """True iff `var` occurs free outside `skip` at sign 1 only (`polarities`)."""
    return -1 not in polarities(phi, var, skip)


def check_nu_positivity(phi: Formula) -> None:
    """Raise PositivityViolation naming the variable of the first fixpoint
    in pre-order whose body is not positive in it."""
    if phi._facts.kinds & _NONPOSITIVE_BIT:
        phi = _first(
            phi,
            lambda f: f._facts.kinds & _NONPOSITIVE_BIT,
            lambda f: type(f) is Nu and not is_positive_in(f.body, f.var),
        )
        raise PositivityViolation(f"fixpoint body is not positive in {phi.var!r}")


def check_nominals(phi: Formula, n: int) -> None:
    """Raise UnknownEvent naming the first nominal in pre-order with no
    event in a model of `n` events."""
    if phi._facts.nominals > n:
        phi = _first(
            phi, lambda f: f._facts.nominals > n, lambda f: type(f) is Nominal and f.index >= n
        )
        raise UnknownEvent(f"nominal j{phi.index} has no event in a model with {n} events")


def classify(phi: Formula) -> LanguageTag:
    """Least language stratum admitting the formula.

    Raises PositivityViolation when some fixpoint body is not positive in
    its variable.  Pure fixpoint formulas (fixpoints over box/boolean/atom
    material only) report the fixpoint fragment; otherwise placement in
    the chain depends on nominals and dynamic modalities alone, since
    fixpoints and announcements are always eliminable.
    """
    check_nu_positivity(phi)
    if contains_node(phi, Nu) and not phi._facts.kinds & _NOT_MU_MASK:
        return LanguageTag.MU_FRAGMENT
    if phi._facts.kinds & _UNSCOPED_BIT:
        return LanguageTag.SENTENCE_ONLY
    if contains_node(phi, Nominal):
        return LanguageTag.SCOPED_NOMINALS
    if contains_node(phi, (ActionDiamond, Announce)):
        return LanguageTag.ACTION_MSO
    return LanguageTag.BASE_MSO


def subformula_positions(phi: Formula) -> list[tuple[int, ...]]:
    """Pre-order paths of all subformulas; the root is the empty path."""
    out: list[tuple[int, ...]] = []

    def go(f, path):
        out.append(path)
        for i, c in enumerate(children(f)):
            go(c, path + (i,))

    go(phi, ())
    return out


def subformula_at(phi: Formula, path: tuple[int, ...]) -> Formula:
    for i in path:
        phi = children(phi)[i]
    return phi


def replace_subformula(phi: Formula, path: tuple[int, ...], new: Formula) -> Formula:
    if not path:
        return new
    parts = list(children(phi))
    parts[path[0]] = replace_subformula(parts[path[0]], path[1:], new)
    return rebuild(phi, tuple(parts))
