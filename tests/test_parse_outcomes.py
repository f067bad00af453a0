"""Formula parser outcomes pinned against a golden file.

For every input text, `tests/data/parse_outcomes.json` holds either the
printed tree or the error: its class, message, span (start, end, line)
and `expected`.  The inputs are hand-written texts that reach every
formula `ParseError` message, errors after embedded newlines (to pin
`line`), seeded single-character mutations of printed random formulas,
and seeded random strings over the token alphabet.  Regenerate the
golden with

    PYTHONPATH=src python tests/test_parse_outcomes.py > tests/data/parse_outcomes.json

and only for a change that is meant to alter what the parser accepts,
what it prints or how it reports an error.
"""

import json
import random
from pathlib import Path

import pytest

from produpd.errors import ProdupdError
from produpd.parser import parse_formula, print_formula
from produpd.syntax import (
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
    Global,
    Implies,
    Nominal,
    Not,
    Nu,
    Or,
    Top,
)

GOLDEN = Path(__file__).parent / "data" / "parse_outcomes.json"

HAND_WRITTEN = [
    # one text per formula error message, and then some
    "-",
    "[",
    "@",
    "_x",
    "X",
    "<a0 p",
    "<!p q",
    "[!p q",
    "exists . p",
    "p q",
    "p & ",
    "",
    "   ",
    "exists p p",
    "exists exists. p",
    "forall 0. p",
    "nu p. ~p",
    "(p",
    "(p & q))",
    "<> ",
    "<>",
    "[]",
    "[!p]",
    "<!p>",
    "<a0>",
    "<A> p",
    "< > p",
    "p -",
    "p - q",
    "p -> ",
    "p & 0",
    "p1\xe9",
    "\xe9",
    "Ub",
    "U",
    "E",
    "Exists p. p",
    "true1 & false_",
    "j0x | jX | jay | j00",
    "_f0 & _f12 & _fx",
    "__f0",
    "p\xa0&\u2003q\x1c|\x1fr",
    "p\r\n& q",
    "p . q",
    "p ] q",
    "p > q",
    "p ! q",
    "!p",
    "U E [] <> ~ <a1> <!j0 & _f0> [!true] p",
    "exists p. forall q. nu r. (r & p) -> q | p",
    "[]p&<>q|~r->p->q",
]

NEWLINE_TEXTS = [
    "p &\n\n q @",
    "p\n&\n",
    "exists\n p\n q",
    "<a0\n p",
    "p\n\n\n-",
    "(p\n& q\n",
    "p\n q",
    "\n\n",
    "[\n]p",
    "_x\n",
    "p\n\nX",
    "<!p\n>\n[!q\n\n",
    "p\n-\n>",
    "\n\xe9",
]

PROPS = ("p", "q", "r", "_f0", "jay")
EVENTS = ("a0", "a1")
ALPHABET = "~[]<>!()&|-.UEjapq0_ \nX\xe9"
UNARY = (Not, Box, Diamond, Global, ExistsGlobal)
BINARY = (And, Or, Implies)
BINDERS = (ExistsProp, ForallProp, Nu)


def _random_tree(rng, size):
    if size <= 1:
        kind = rng.randrange(4)
        if kind == 0:
            return Top()
        if kind == 1:
            return Bottom()
        if kind == 2:
            return Nominal(rng.randrange(3))
        return Atom(rng.choice(PROPS))
    kind = rng.randrange(6)
    if kind == 0:
        return rng.choice(UNARY)(_random_tree(rng, size - 1))
    if kind == 1:
        return ActionDiamond(rng.choice(EVENTS), _random_tree(rng, size - 1))
    if kind == 2:
        return Announce(_random_tree(rng, 3), _random_tree(rng, size - 1))
    if kind == 3:
        return rng.choice(BINDERS)(rng.choice(PROPS[:3]), _random_tree(rng, size - 1))
    left = rng.randint(1, max(1, size - 2))
    right = max(1, size - 1 - left)
    return rng.choice(BINARY)(_random_tree(rng, left), _random_tree(rng, right))


def _mutate(rng, text):
    i = rng.randrange(len(text) + 1)
    op = rng.randrange(3)
    if op == 0 or i == len(text):
        return text[:i] + rng.choice(ALPHABET) + text[i:]
    if op == 1:
        return text[:i] + rng.choice(ALPHABET) + text[i + 1 :]
    return text[:i] + text[i + 1 :]


def mutated_texts(seed=2024, formulas=60, mutations=4):
    rng = random.Random(seed)
    out = []
    for _ in range(formulas):
        text = print_formula(_random_tree(rng, rng.randint(1, 9)))
        out.append(text)
        out.extend(_mutate(rng, text) for _ in range(mutations))
    return out


def random_strings(seed=7, count=120):
    rng = random.Random(seed)
    return [
        "".join(rng.choice(ALPHABET) for _ in range(rng.randint(1, 10)))
        for _ in range(count)
    ]


GROUPS = {
    "hand_written": lambda: HAND_WRITTEN,
    "newlines": lambda: NEWLINE_TEXTS,
    "mutated": mutated_texts,
    "random_strings": random_strings,
}


def outcome(text):
    try:
        phi = parse_formula(text)
    except ProdupdError as e:
        span = getattr(e, "span", None)
        return {
            "text": text,
            "error": type(e).__name__,
            "message": str(e),
            "span": None if span is None else [span.start, span.end, span.line],
            "expected": list(getattr(e, "expected", ())),
        }
    return {"text": text, "printed": print_formula(phi)}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_outcomes_match_golden(golden, group):
    texts = GROUPS[group]()
    assert [g["text"] for g in golden[group]] == texts
    for text, want in zip(texts, golden[group]):
        assert outcome(text) == want


MESSAGE_PREFIXES = (
    "expected '->'",
    "expected '[]' or '[!'",
    "unexpected character",
    "names starting with '_' are reserved",
    "bad identifier",
    "expected IDENT but found",
    "expected DOT but found",
    "expected RANGLE but found",
    "expected RBRACKET but found",
    "expected RPAREN but found",
    "expected a formula but found",
    "unexpected trailing input",
)


def test_hand_written_texts_reach_every_error_message(golden):
    messages = [
        g["message"] for g in golden["hand_written"] if g.get("error") == "ParseError"
    ]
    for prefix in MESSAGE_PREFIXES:
        assert any(m.startswith(prefix) for m in messages), prefix


if __name__ == "__main__":
    out = {name: [outcome(t) for t in make()] for name, make in GROUPS.items()}
    print(json.dumps(out, indent=1, sort_keys=True))
