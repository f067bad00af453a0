"""Rewriter outcomes pinned against a golden file.

For every input, `tests/data/rewrite_outcomes.json` holds the sha256 of
`json.dumps(eliminate_all(events, <e> psi).to_jsonable())`: the printed
input and output, the size and quantifier metrics and the whole rewrite
trace.  The inputs are the harness's translation cases (seed 11, 600
cases) under every event of their event model, and box towers
(k = 1..7) and announcement nests (k = 1..4) under every event of a fixed
three-event model.  Regenerate the golden with

    PYTHONPATH=src python tests/test_rewrite_outcomes.py > tests/data/rewrite_outcomes.json

and only for a change that is meant to alter what the rewriter outputs or
which steps it records.
"""

import hashlib
import json
from pathlib import Path

import pytest

from produpd.harness import FuzzConfig, translation_case_inputs
from produpd.parser import parse_event_model, parse_formula
from produpd.syntax import ActionDiamond
from produpd.translator import eliminate_all

GOLDEN = Path(__file__).parent / "data" / "rewrite_outcomes.json"

# every event has a successor, so boxes branch
THREE_EVENTS = {
    "events": ["a0", "a1", "a2"],
    "rel": [["a0", "a0"], ["a0", "a1"], ["a1", "a2"], ["a2", "a0"], ["a2", "a2"]],
    "pre": {"a0": "true", "a1": "p", "a2": "q | ~p"},
}


def digest(events, event, psi) -> str:
    report = eliminate_all(events, ActionDiamond(event, psi))
    return hashlib.sha256(json.dumps(report.to_jsonable()).encode("utf-8")).hexdigest()


def translation_cases():
    cfg = FuzzConfig(seed=11, cases=600, suites=("translation",))
    for i in range(cfg.cases):
        _, events, psi = translation_case_inputs(cfg, i)
        for e in events.events:
            yield f"{i}/{e}", events, e, psi


def box_tower(k):
    return parse_formula("[] " * k + "(exists r. (r & <> r))")


def announcement_nest(k):
    anns = "".join(f"<!(p {'&|'[i % 2]} q)>" for i in range(k))
    return parse_formula(anns + " (exists r. (r & <> r & [] p))")


def family_cases():
    events = parse_event_model(json.dumps(THREE_EVENTS))
    for name, make, ks in (
        ("box_tower", box_tower, range(1, 8)),
        ("announcement_nest", announcement_nest, range(1, 5)),
    ):
        for k in ks:
            for e in events.events:
                yield f"{name}/{k}/{e}", events, e, make(k)


GROUPS = {"translation": translation_cases, "families": family_cases}


def outcomes(group):
    return {key: digest(events, e, psi) for key, events, e, psi in GROUPS[group]()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_outcomes_match_golden(golden, group):
    got = outcomes(group)
    assert sorted(got) == sorted(golden[group])
    assert [k for k in got if got[k] != golden[group][k]] == []


if __name__ == "__main__":
    print(json.dumps({g: outcomes(g) for g in GROUPS}, indent=1, sort_keys=True))
