"""Concrete syntax: formula text in both directions, and JSON files for
models, event models and tagged products.

Grammar (quantifier scopes extend maximally to the right, unary operators
bind tightest, `&` over `|` over right-associative `->`):

    formula := quant | implied
    quant   := ("exists"|"forall"|"nu") IDENT "." formula
    implied := ored ("->" implied)?
    ored    := anded ("|" anded)*
    anded   := unary ("&" unary)*
    unary   := "~" unary | "[]" unary | "<>" unary | "U" unary | "E" unary
             | "<" EVENT ">" unary | "<!" formula ">" unary
             | "[!" formula "]" unary | atom
    atom    := "true" | "false" | IDENT | NOMINAL | "(" formula ")"

Identifiers start with a lowercase letter and may not look like a nominal
("j" followed by digits).  Names starting with "_" are reserved for the
rewriter's fresh propositions; only those ("_f0", "_f1", ...) are accepted
back, so that printed rewrite output always re-parses.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

from .errors import (
    EmptyDomain,
    EmptyEventSet,
    ParseError,
    UnknownWorldInRelation,
    UnknownWorldInValuation,
)
from .models import EventModel, KripkeModel, TaggedModel
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
    Nominal,
    Not,
    Nu,
    Or,
    Top,
    check_nu_positivity,
)


@dataclass(frozen=True)
class SourceSpan:
    start: int
    end: int
    line: int


_KEYWORDS = {"exists", "forall", "nu", "true", "false"}
_NOMINAL_RE = re.compile(r"^j[0-9]+$")
_IDENT_RE = re.compile(r"^[a-z][a-zA-Z0-9_]*$")
_FRESH_RE = re.compile(r"^_f[0-9]+$")
_WORD_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def valid_prop_name(name: str) -> bool:
    if _FRESH_RE.match(name):
        return True
    return bool(
        _IDENT_RE.match(name) and name not in _KEYWORDS and not _NOMINAL_RE.match(name)
    )


@dataclass(frozen=True)
class _Token:
    kind: str
    value: str
    span: SourceSpan


def _lex(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    line = 1
    n = len(text)

    def tok(kind, value, start):
        tokens.append(_Token(kind, value, SourceSpan(start, i, line)))

    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
            continue
        if c.isspace():
            i += 1
            continue
        start = i
        if c == "-":
            if text[i : i + 2] == "->":
                i += 2
                tok("ARROW", "->", start)
                continue
            raise ParseError("expected '->'", SourceSpan(start, i + 1, line))
        if c == "[":
            nxt = text[i + 1 : i + 2]
            if nxt == "]":
                i += 2
                tok("BOX", "[]", start)
                continue
            if nxt == "!":
                i += 2
                tok("LANN_BOX", "[!", start)
                continue
            raise ParseError("expected '[]' or '[!'", SourceSpan(start, i + 1, line))
        if c == "<":
            nxt = text[i + 1 : i + 2]
            if nxt == ">":
                i += 2
                tok("DIAMOND", "<>", start)
                continue
            if nxt == "!":
                i += 2
                tok("LANN", "<!", start)
                continue
            i += 1
            tok("LANGLE", "<", start)
            continue
        if c in "]>().&|~":
            i += 1
            kinds = {
                "]": "RBRACKET",
                ">": "RANGLE",
                "(": "LPAREN",
                ")": "RPAREN",
                ".": "DOT",
                "&": "AND",
                "|": "OR",
                "~": "NOT",
            }
            tok(kinds[c], c, start)
            continue
        m = _WORD_RE.match(text, i)
        if m:
            word = m.group(0)
            i = m.end()
            span = SourceSpan(start, i, line)
            if word == "U":
                tokens.append(_Token("GLOBAL", word, span))
            elif word == "E":
                tokens.append(_Token("EGLOBAL", word, span))
            elif word in _KEYWORDS:
                tokens.append(_Token(word.upper(), word, span))
            elif _NOMINAL_RE.match(word):
                tokens.append(_Token("NOMINAL", word, span))
            elif word.startswith("_"):
                if not _FRESH_RE.match(word):
                    raise ParseError(
                        f"names starting with '_' are reserved: {word!r}", span
                    )
                tokens.append(_Token("IDENT", word, span))
            elif _IDENT_RE.match(word):
                tokens.append(_Token("IDENT", word, span))
            else:
                raise ParseError(f"bad identifier {word!r}", span)
            continue
        raise ParseError(f"unexpected character {c!r}", SourceSpan(start, i + 1, line))
    tokens.append(_Token("EOF", "", SourceSpan(n, n, line)))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self, kind: str) -> _Token:
        t = self.tokens[self.pos]
        if t.kind != kind:
            raise ParseError(
                f"expected {kind} but found {t.value!r}", t.span, expected=(kind,)
            )
        self.pos += 1
        return t

    def formula(self) -> Formula:
        t = self.peek()
        if t.kind in ("EXISTS", "FORALL", "NU"):
            self.pos += 1
            var = self.take("IDENT").value
            self.take("DOT")
            body = self.formula()
            node = {"EXISTS": ExistsProp, "FORALL": ForallProp, "NU": Nu}[t.kind]
            return node(var, body)
        return self.implied()

    def implied(self) -> Formula:
        left = self.ored()
        if self.peek().kind == "ARROW":
            self.pos += 1
            return Implies(left, self.implied())
        return left

    def ored(self) -> Formula:
        out = self.anded()
        while self.peek().kind == "OR":
            self.pos += 1
            out = Or(out, self.anded())
        return out

    def anded(self) -> Formula:
        out = self.unary()
        while self.peek().kind == "AND":
            self.pos += 1
            out = And(out, self.unary())
        return out

    def unary(self) -> Formula:
        t = self.peek()
        if t.kind == "NOT":
            self.pos += 1
            return Not(self.unary())
        if t.kind == "BOX":
            self.pos += 1
            return Box(self.unary())
        if t.kind == "DIAMOND":
            self.pos += 1
            return Diamond(self.unary())
        if t.kind == "GLOBAL":
            self.pos += 1
            return Global(self.unary())
        if t.kind == "EGLOBAL":
            self.pos += 1
            return ExistsGlobal(self.unary())
        if t.kind == "LANGLE":
            self.pos += 1
            event = self.take("IDENT").value
            self.take("RANGLE")
            return ActionDiamond(event, self.unary())
        if t.kind == "LANN":
            self.pos += 1
            announced = self.formula()
            self.take("RANGLE")
            return Announce(announced, self.unary())
        if t.kind == "LANN_BOX":
            self.pos += 1
            announced = self.formula()
            self.take("RBRACKET")
            return Not(Announce(announced, Not(self.unary())))
        return self.atom()

    def atom(self) -> Formula:
        t = self.peek()
        if t.kind == "TRUE":
            self.pos += 1
            return Top()
        if t.kind == "FALSE":
            self.pos += 1
            return Bottom()
        if t.kind == "IDENT":
            self.pos += 1
            return Atom(t.value)
        if t.kind == "NOMINAL":
            self.pos += 1
            return Nominal(int(t.value[1:]))
        if t.kind == "LPAREN":
            self.pos += 1
            out = self.formula()
            self.take("RPAREN")
            return out
        raise ParseError(
            f"expected a formula but found {t.value!r}",
            t.span,
            expected=("true", "false", "IDENT", "NOMINAL", "("),
        )


def parse_formula(text: str) -> Formula:
    parser = _Parser(_lex(text))
    phi = parser.formula()
    trailing = parser.peek()
    if trailing.kind != "EOF":
        raise ParseError(
            f"unexpected trailing input {trailing.value!r}", trailing.span
        )
    check_nu_positivity(phi)
    return phi


_QUANT_NODES = (ExistsProp, ForallProp, Nu)


def _operand(phi: Formula) -> str:
    # binaries print their own parentheses; only binder scopes need help
    s = print_formula(phi)
    return f"({s})" if isinstance(phi, _QUANT_NODES) else s


def print_formula(phi: Formula) -> str:
    """Fully parenthesised rendering; reparsing yields the same tree."""
    if isinstance(phi, Atom):
        return phi.name
    if isinstance(phi, Nominal):
        return f"j{phi.index}"
    if isinstance(phi, Top):
        return "true"
    if isinstance(phi, Bottom):
        return "false"
    if isinstance(phi, Not):
        return "~" + _operand(phi.body)
    if isinstance(phi, Box):
        return "[] " + _operand(phi.body)
    if isinstance(phi, Diamond):
        return "<> " + _operand(phi.body)
    if isinstance(phi, Global):
        return "U " + _operand(phi.body)
    if isinstance(phi, ExistsGlobal):
        return "E " + _operand(phi.body)
    if isinstance(phi, ActionDiamond):
        return f"<{phi.event}> " + _operand(phi.body)
    if isinstance(phi, Announce):
        return f"<!{print_formula(phi.announced)}> " + _operand(phi.body)
    if isinstance(phi, And):
        return f"({_operand(phi.left)} & {_operand(phi.right)})"
    if isinstance(phi, Or):
        return f"({_operand(phi.left)} | {_operand(phi.right)})"
    if isinstance(phi, Implies):
        return f"({_operand(phi.left)} -> {_operand(phi.right)})"
    if isinstance(phi, ExistsProp):
        return f"exists {phi.var}. {print_formula(phi.body)}"
    if isinstance(phi, ForallProp):
        return f"forall {phi.var}. {print_formula(phi.body)}"
    if isinstance(phi, Nu):
        return f"nu {phi.var}. {print_formula(phi.body)}"
    raise TypeError(f"not a formula node: {phi!r}")


def _load_json(text: str) -> dict:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e}") from e
    if not isinstance(data, dict):
        raise ParseError("expected a JSON object")
    return data


def _string_list(data, key) -> list[str]:
    xs = data.get(key, [])
    if not isinstance(xs, list) or not all(isinstance(x, str) for x in xs):
        raise ParseError(f"{key!r} must be a list of strings")
    return xs


def _edge_list(data, members, error_cls) -> frozenset[tuple[str, str]]:
    edges = data.get("rel", [])
    if not isinstance(edges, list):
        raise ParseError("'rel' must be a list of pairs")
    out = set()
    for e in edges:
        if not (isinstance(e, list) and len(e) == 2 and all(isinstance(x, str) for x in e)):
            raise ParseError(f"bad relation entry {e!r}")
        u, v = e
        if u not in members or v not in members:
            raise error_cls(f"relation edge ({u},{v}) mentions an unknown member")
        out.add((u, v))
    return frozenset(out)


def parse_model(text: str) -> KripkeModel:
    data = _load_json(text)
    worlds = _string_list(data, "worlds")
    if not worlds:
        raise EmptyDomain("a model needs at least one world")
    if len(set(worlds)) != len(worlds):
        raise ParseError("duplicate world identifiers")
    wset = set(worlds)
    relation = _edge_list(data, wset, UnknownWorldInRelation)
    raw_val = data.get("val", {})
    if not isinstance(raw_val, dict):
        raise ParseError("'val' must be an object mapping propositions to worlds")
    valuation: dict[str, frozenset[str]] = {}
    for p, xs in raw_val.items():
        if not valid_prop_name(p):
            raise ParseError(f"bad proposition name {p!r}")
        if not isinstance(xs, list) or not all(isinstance(x, str) for x in xs):
            raise ParseError(f"valuation of {p!r} must be a list of worlds")
        for x in xs:
            if x not in wset:
                raise UnknownWorldInValuation(
                    f"valuation of {p!r} mentions unknown world {x!r}"
                )
        valuation[p] = frozenset(xs)
    return KripkeModel(tuple(worlds), relation, valuation)


def parse_tagged_model(text: str) -> TaggedModel:
    """Model JSON with an optional "tags" object mapping worlds to events."""
    m = parse_model(text)
    data = _load_json(text)
    raw_tags = data.get("tags", {})
    if not isinstance(raw_tags, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in raw_tags.items()
    ):
        raise ParseError("'tags' must map worlds to event names")
    if raw_tags and set(raw_tags) != set(m.worlds):
        raise ParseError("'tags' must be empty or total on the domain")
    return TaggedModel(m, dict(raw_tags))


def parse_event_model(text: str) -> EventModel:
    data = _load_json(text)
    events = _string_list(data, "events")
    if not events:
        raise EmptyEventSet("an event model needs at least one event")
    if len(set(events)) != len(events):
        raise ParseError("duplicate event identifiers")
    for e in events:
        if not (_IDENT_RE.match(e) and e not in _KEYWORDS and not _NOMINAL_RE.match(e)):
            raise ParseError(f"bad event name {e!r}")
    eset = set(events)
    relation = _edge_list(data, eset, ParseError)
    raw_pre = data.get("pre", {})
    if not isinstance(raw_pre, dict):
        raise ParseError("'pre' must map events to formula strings")
    pre: dict[str, Formula] = {}
    for e in events:
        if e not in raw_pre:
            raise ParseError(f"missing precondition for event {e!r}")
        if not isinstance(raw_pre[e], str):
            raise ParseError(f"precondition of {e!r} must be a formula string")
        pre[e] = parse_formula(raw_pre[e])
    return EventModel(tuple(events), relation, pre)


def model_to_jsonable(m: KripkeModel) -> dict:
    return {
        "worlds": list(m.worlds),
        "rel": [[u, v] for u, v in sorted(m.relation)],
        "val": {p: [w for w in m.worlds if w in m.valuation[p]] for p in sorted(m.valuation)},
    }


def tagged_to_jsonable(tm: TaggedModel) -> dict:
    out = model_to_jsonable(tm.model)
    out["tags"] = {w: tm.tags[w] for w in tm.model.worlds} if tm.tags else {}
    return out


def event_model_to_jsonable(a: EventModel) -> dict:
    return {
        "events": list(a.events),
        "rel": [[u, v] for u, v in sorted(a.relation)],
        "pre": {e: print_formula(a.pre[e]) for e in a.events},
    }


def dump_model(m: KripkeModel) -> str:
    return json.dumps(model_to_jsonable(m), indent=2) + "\n"


def dump_tagged_model(tm: TaggedModel) -> str:
    return json.dumps(tagged_to_jsonable(tm), indent=2) + "\n"


def dump_event_model(a: EventModel) -> str:
    return json.dumps(event_model_to_jsonable(a), indent=2) + "\n"
