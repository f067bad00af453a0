"""One table of single-fault model and event-model inputs.

The constructors of `KripkeModel`, `TaggedModel` and `EventModel` are the
one place where structural invariants are checked.  Each fault below must
raise the same class and message whether the model comes through a JSON
reader or is built in code, and through `cli.run` it must exit 2 with the
pinned stderr line, byte for byte.
"""

import json

import pytest

from produpd import (
    EmptyEventSet,
    EventModel,
    KripkeModel,
    ParseError,
    TaggedModel,
    UnknownWorldInRelation,
    UnknownWorldInValuation,
    parse_event_model,
    parse_formula,
    parse_tagged_model,
)
from produpd.cli import run

GOOD_MODEL = {"worlds": ["w0", "w1"], "rel": [["w0", "w1"]], "val": {"p": ["w0"]}}
GOOD_EVENTS = {
    "events": ["a0", "a1"],
    "rel": [["a0", "a1"]],
    "pre": {"a0": "p", "a1": "true"},
}

# id -> (file kind, file contents, error class, stderr line)
FAULTS = {
    "duplicate-world": (
        "model",
        {"worlds": ["w0", "w0"], "rel": [], "val": {}},
        ParseError,
        "error: duplicate world identifiers\n",
    ),
    "edge-unknown-world": (
        "model",
        {"worlds": ["w0"], "rel": [["w0", "w1"]], "val": {}},
        UnknownWorldInRelation,
        "error: relation edge (w0,w1) mentions an unknown member\n",
    ),
    "valuation-unknown-world": (
        "model",
        {"worlds": ["w0"], "rel": [], "val": {"p": ["w0", "w1"]}},
        UnknownWorldInValuation,
        "error: valuation of 'p' mentions unknown world 'w1'\n",
    ),
    "tags-not-total": (
        "model",
        {"worlds": ["w0", "w1"], "rel": [], "val": {}, "tags": {"w0": "a0"}},
        ParseError,
        "error: 'tags' must be empty or total on the domain\n",
    ),
    "empty-events": (
        "events",
        {"events": [], "rel": [], "pre": {}},
        EmptyEventSet,
        "error: an event model needs at least one event\n",
    ),
    "duplicate-event": (
        "events",
        {"events": ["a0", "a0"], "rel": [], "pre": {"a0": "true"}},
        ParseError,
        "error: duplicate event identifiers\n",
    ),
    "edge-unknown-event": (
        "events",
        {"events": ["a0"], "rel": [["a0", "b"]], "pre": {"a0": "true"}},
        ParseError,
        "error: relation edge (a0,b) mentions an unknown member\n",
    ),
    "missing-precondition": (
        "events",
        {"events": ["a0", "a1"], "rel": [], "pre": {"a0": "true"}},
        ParseError,
        "error: missing precondition for event 'a1'\n",
    ),
    "precondition-unknown-event": (
        "events",
        {**GOOD_EVENTS, "pre": {**GOOD_EVENTS["pre"], "zz": "p"}},
        ParseError,
        "error: precondition for unknown event 'zz'\n",
    ),
}

# the commands that read each kind of file
COMMANDS = {
    "model": ("eval", "product"),
    "events": ("eval", "product", "translate"),
}


def _argv(command, model, events):
    return {
        "eval": ["eval", "--model", model, "--events", events, "--formula", "p"],
        "product": ["product", "--model", model, "--events", events],
        "translate": ["translate", "--events", events, "--event", "a0", "--formula", "p"],
    }[command]


def _build(kind, data):
    """The faulty input built in code, without a JSON reader."""
    edges = frozenset(tuple(e) for e in data["rel"])
    if kind == "model":
        valuation = {p: frozenset(xs) for p, xs in data["val"].items()}
        m = KripkeModel(tuple(data["worlds"]), edges, valuation)
        return TaggedModel(m, data.get("tags", {}))
    pre = {e: parse_formula(text) for e, text in data["pre"].items()}
    return EventModel(tuple(data["events"]), edges, pre)


def _read(kind, data):
    reader = parse_tagged_model if kind == "model" else parse_event_model
    return reader(json.dumps(data))


@pytest.mark.parametrize(
    "fault, command",
    [(fault, c) for fault, (kind, *_) in FAULTS.items() for c in COMMANDS[kind]],
)
def test_cli_exit_2_with_one_line(fault, command, tmp_path, capsys):
    kind, data, _, line = FAULTS[fault]
    files = {}
    for name, contents in (("model", GOOD_MODEL), ("events", GOOD_EVENTS)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data if name == kind else contents))
        files[name] = str(path)
    assert run(_argv(command, files["model"], files["events"])) == 2
    captured = capsys.readouterr()
    assert captured.err == line
    assert captured.out == ""


@pytest.mark.parametrize("fault", FAULTS)
def test_reader_and_constructor_raise_alike(fault):
    kind, data, cls, line = FAULTS[fault]
    with pytest.raises(ParseError) as via_reader:
        _read(kind, data)
    with pytest.raises(ParseError) as via_constructor:
        _build(kind, data)
    assert type(via_reader.value) is cls
    assert type(via_constructor.value) is cls
    assert str(via_reader.value) == str(via_constructor.value) == line[7:-1]


@pytest.mark.parametrize("kind", COMMANDS)
def test_fault_free_inputs_read(kind):
    data = GOOD_MODEL if kind == "model" else GOOD_EVENTS
    assert _read(kind, data) == _build(kind, data)
