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

The connective table `_CONNECTIVES` is the one place where a connective
is spelled: for each group (prefix, infix loosest first, binder, constant)
it maps token kind -> (lexeme, node class).  The lexer, the parser and the
printer all read it.

Parsed nodes are hash-consed like all nodes, so re-parsing printed text
returns the very formula that was printed.  The printer keeps each node's
text on the node, so a rewritten tree is rendered once per distinct
subterm.  Names in JSON files must match their pattern in full (no
trailing newline).

The JSON readers check only a file's shape, its names and a top-level
model's non-empty domain; the model constructors in `models` check the
structural invariants.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import NamedTuple

from .errors import EmptyDomain, ParseError
from .models import EventModel, KripkeModel, TaggedModel
from .syntax import (
    FRESH_PREFIX,
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


_CONNECTIVES = {
    "prefix": {
        "NOT": ("~", Not),
        "BOX": ("[]", Box),
        "DIAMOND": ("<>", Diamond),
        "GLOBAL": ("U", Global),
        "EGLOBAL": ("E", ExistsGlobal),
    },
    "infix": {"ARROW": ("->", Implies), "OR": ("|", Or), "AND": ("&", And)},
    "binder": {
        "EXISTS": ("exists", ExistsProp),
        "FORALL": ("forall", ForallProp),
        "NU": ("nu", Nu),
    },
    "constant": {"TRUE": ("true", Top), "FALSE": ("false", Bottom)},
}
_PREFIX, _INFIX, _BINDER, _CONSTANT = _CONNECTIVES.values()
_INFIX_LEVELS = list(_INFIX.items())

# lexeme -> token kind: the connectives, then the brackets
_LEXEMES = {
    lexeme: kind for group in _CONNECTIVES.values() for kind, (lexeme, _) in group.items()
} | {
    "[!": "LANN_BOX",
    "<!": "LANN",
    "<": "LANGLE",
    ">": "RANGLE",
    "]": "RBRACKET",
    "(": "LPAREN",
    ")": "RPAREN",
    ".": "DOT",
}
_KEYWORDS = frozenset(lexeme for lexeme in _LEXEMES if lexeme.isalpha())
_PUNCTUATION = sorted(set(_LEXEMES) - _KEYWORDS, key=lambda p: (-len(p), p))
_TOKEN_RE = re.compile(
    r"(?P<space>\s+)|(?P<word>[A-Za-z_][A-Za-z0-9_]*)|"
    + "|".join(map(re.escape, _PUNCTUATION))
    + "|."
)
# the first character of a two-character lexeme, alone
_UNFINISHED = {"-": "expected '->'", "[": "expected '[]' or '[!'"}
_ATOM_STARTS = (*(lexeme for lexeme, _ in _CONSTANT.values()), "IDENT", "NOMINAL", "(")
# names are checked with `fullmatch`: `$` would also match before a final
# newline and admit "p\n", a name no formula can mention
_NOMINAL_RE = re.compile(r"j[0-9]+")
_IDENT_RE = re.compile(r"[a-z][a-zA-Z0-9_]*")
_FRESH_RE = re.compile(re.escape(FRESH_PREFIX) + "[0-9]+")


def _plain_name(name: str) -> bool:
    return bool(
        _IDENT_RE.fullmatch(name)
        and name not in _KEYWORDS
        and not _NOMINAL_RE.fullmatch(name)
    )


def valid_prop_name(name: str) -> bool:
    return bool(_FRESH_RE.fullmatch(name)) or _plain_name(name)


class _Token(NamedTuple):
    kind: str
    value: str
    span: SourceSpan


def _lex(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line = 1
    for m in _TOKEN_RE.finditer(text):
        value = m.group()
        group = m.lastgroup
        if group == "space":
            line += value.count("\n")
            continue
        span = SourceSpan(m.start(), m.end(), line)
        kind = _LEXEMES.get(value)
        if kind is None:
            if group != "word":
                message = _UNFINISHED.get(value, f"unexpected character {value!r}")
                raise ParseError(message, span)
            if _NOMINAL_RE.fullmatch(value):
                kind = "NOMINAL"
            elif valid_prop_name(value):
                kind = "IDENT"
            elif value.startswith("_"):
                raise ParseError(f"names starting with '_' are reserved: {value!r}", span)
            else:
                raise ParseError(f"bad identifier {value!r}", span)
        tokens.append(_Token(kind, value, span))
    tokens.append(_Token("EOF", "", SourceSpan(len(text), len(text), line)))
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
        binder = _BINDER.get(self.peek().kind)
        if binder:
            self.pos += 1
            var = self.take("IDENT").value
            self.take("DOT")
            return binder[1](var, self.formula())
        return self.infix()

    def infix(self, level: int = 0) -> Formula:
        # implied, ored and anded of the grammar: one level of `_INFIX`
        # each, loosest first; `->` groups to the right, the others left
        kind, (_, node) = _INFIX_LEVELS[level]
        tighter = level + 1 < len(_INFIX_LEVELS)
        out = self.infix(level + 1) if tighter else self.unary()
        if kind == "ARROW" and self.peek().kind == kind:
            self.pos += 1
            return node(out, self.infix(level))
        while self.peek().kind == kind:
            self.pos += 1
            out = node(out, self.infix(level + 1) if tighter else self.unary())
        return out

    def unary(self) -> Formula:
        kind = self.peek().kind
        prefix = _PREFIX.get(kind)
        if prefix:
            self.pos += 1
            return prefix[1](self.unary())
        if kind == "LANGLE":
            self.pos += 1
            event = self.take("IDENT").value
            self.take("RANGLE")
            return ActionDiamond(event, self.unary())
        if kind == "LANN" or kind == "LANN_BOX":
            self.pos += 1
            announced = self.formula()
            if kind == "LANN":
                self.take("RANGLE")
                return Announce(announced, self.unary())
            self.take("RBRACKET")
            return Not(Announce(announced, Not(self.unary())))
        return self.atom()

    def atom(self) -> Formula:
        t = self.peek()
        constant = _CONSTANT.get(t.kind)
        if constant:
            self.pos += 1
            return constant[1]()
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
            f"expected a formula but found {t.value!r}", t.span, expected=_ATOM_STARTS
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


# node class -> (its group in the connective table, printed text); a prefix
# is printed with one space before its operand, except `~`
_SPELLING = {
    node: (group, lexeme + " " if group is _PREFIX and lexeme != "~" else lexeme)
    for group in _CONNECTIVES.values()
    for lexeme, node in group.values()
}
_BINDER_NODES = frozenset(node for _, node in _BINDER.values())


def _operand(phi: Formula) -> str:
    # binaries print their own parentheses; only binder scopes need help
    s = print_formula(phi)
    return f"({s})" if type(phi) in _BINDER_NODES else s


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
    object.__setattr__(phi, "_text", text)
    return text


def print_dynamic(modality: str | Formula, body: Formula) -> str:
    """The text of `<modality> body` for an event name, or of
    `<!modality> body` for an announced formula, without building the node."""
    if isinstance(modality, str):
        return f"<{modality}> " + _operand(body)
    return f"<!{print_formula(modality)}> " + _operand(body)


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


def _edge_list(data) -> list[tuple[str, str]]:
    edges = data.get("rel", [])
    if not isinstance(edges, list):
        raise ParseError("'rel' must be a list of pairs")
    for e in edges:
        if not (isinstance(e, list) and len(e) == 2 and all(isinstance(x, str) for x in e)):
            raise ParseError(f"bad relation entry {e!r}")
    return [tuple(e) for e in edges]


def parse_model(text: str) -> KripkeModel:
    return _model_from(_load_json(text))


def _model_from(data: dict) -> KripkeModel:
    worlds = _string_list(data, "worlds")
    if not worlds:
        raise EmptyDomain("a model needs at least one world")
    relation = _edge_list(data)
    raw_val = data.get("val", {})
    if not isinstance(raw_val, dict):
        raise ParseError("'val' must be an object mapping propositions to worlds")
    for p, xs in raw_val.items():
        if not valid_prop_name(p):
            raise ParseError(f"bad proposition name {p!r}")
        if not isinstance(xs, list) or not all(isinstance(x, str) for x in xs):
            raise ParseError(f"valuation of {p!r} must be a list of worlds")
    return KripkeModel(tuple(worlds), relation, raw_val)


def parse_tagged_model(text: str) -> TaggedModel:
    """Model JSON with an optional "tags" object mapping worlds to events."""
    data = _load_json(text)
    m = _model_from(data)
    raw_tags = data.get("tags", {})
    if not isinstance(raw_tags, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in raw_tags.items()
    ):
        raise ParseError("'tags' must map worlds to event names")
    return TaggedModel(m, raw_tags)


def parse_event_model(text: str) -> EventModel:
    data = _load_json(text)
    events = _string_list(data, "events")
    for e in events:
        if not _plain_name(e):
            raise ParseError(f"bad event name {e!r}")
    relation = _edge_list(data)
    raw_pre = data.get("pre", {})
    if not isinstance(raw_pre, dict):
        raise ParseError("'pre' must map events to formula strings")
    pre: dict[str, Formula] = {}
    for e in events:
        if e in raw_pre:
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


_encode_str = json.encoder.encode_basestring_ascii
_encode_leaf = json.JSONEncoder().encode


def dump_json(value) -> str:
    """`json.dumps(value, indent=2)`, byte for byte, but faster.

    Any indent makes `json` fall back to its pure-Python encoder.  Here the
    leaves go through the C encoder, and a dict or list object met again
    at the same depth reuses the text written the first time (the cache
    lives for one call), so a rewrite trace whose repeated steps share one
    dict is encoded once per distinct step.  Non-`str` keys are converted
    as `json` converts them.  The value must not contain itself.
    """
    done: dict[tuple[int, int], str] = {}

    def write(v, depth: int) -> str:
        if isinstance(v, str):
            return _encode_str(v)
        if not isinstance(v, (dict, list, tuple)) or not v:
            return _encode_leaf(v)
        key = (id(v), depth)
        text = done.get(key)
        if text is not None:
            return text
        inner = "\n" + "  " * (depth + 1)
        if isinstance(v, dict):
            parts = [_key(k) + ": " + write(x, depth + 1) for k, x in v.items()]
            text = "{" + inner + ("," + inner).join(parts) + inner[:-2] + "}"
        else:
            parts = [write(x, depth + 1) for x in v]
            text = "[" + inner + ("," + inner).join(parts) + inner[:-2] + "]"
        done[key] = text
        return text

    return write(value, 0)


def _key(k) -> str:
    if isinstance(k, str):
        return _encode_str(k)
    if k is None or isinstance(k, (int, float)):
        return _encode_str(_encode_leaf(k))
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")


def dump_model(m: KripkeModel) -> str:
    return dump_json(model_to_jsonable(m)) + "\n"


def dump_tagged_model(tm: TaggedModel) -> str:
    return dump_json(tagged_to_jsonable(tm)) + "\n"


def dump_event_model(a: EventModel) -> str:
    return dump_json(event_model_to_jsonable(a)) + "\n"
