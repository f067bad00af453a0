"""The failure path of every oracle suite, pinned against a golden file.

Each case swaps one dependency in the `produpd.harness` namespace for a
wrong one (or one that raises) and compares the whole report payload,
first failure and shrunk counterexample included, with
`tests/data/injected_failures.json`.  Regenerate the golden with

    PYTHONPATH=src python tests/test_harness_failures.py > tests/data/injected_failures.json

and only for a change that is meant to alter failure records.
"""

import json
from pathlib import Path

import pytest

from produpd import harness
from produpd.analysis import Bisimulation
from produpd.errors import ProdupdError
from produpd.syntax import Bottom, Top

GOLDEN = Path(__file__).parent / "data" / "injected_failures.json"


def _boom(*args, **kwargs):
    raise ProdupdError("boom")


# (suite, variant) -> (harness attribute, replacement)
INJECTIONS = {
    ("translation", "wrong"): ("translate_event", lambda *a, **k: Bottom()),
    ("translation", "raise"): ("translate_event", _boom),
    ("announcement", "wrong"): ("translate_announcement", lambda *a, **k: Bottom()),
    ("announcement", "raise"): ("translate_announcement", _boom),
    ("nominals", "wrong"): ("translate_event", lambda *a, **k: Top()),
    ("nominals", "raise"): ("translate_event", _boom),
    ("fixpoint", "wrong"): ("gfp_oracle", lambda *a, **k: frozenset()),
    ("fixpoint", "raise"): ("gfp_oracle", _boom),
    ("bisim_lift", "wrong"): (
        "greatest_bisimulation",
        lambda *a, **k: Bisimulation(frozenset()),
    ),
    ("bisim_lift", "raise"): ("greatest_bisimulation", _boom),
    ("degree", "wrong"): ("k_star", lambda *a, **k: 0),
    ("degree", "raise"): ("check_degree", _boom),
}


def _key(suite, variant):
    return f"{suite}/{variant}"


def injected_payload(suite, variant):
    attr, fake = INJECTIONS[(suite, variant)]
    saved = getattr(harness, attr)
    setattr(harness, attr, fake)
    try:
        cfg = harness.FuzzConfig(seed=7, cases=6, suites=(suite,))
        return harness.run_fuzz(cfg).payload()
    finally:
        setattr(harness, attr, saved)


@pytest.mark.parametrize(
    "suite,variant", list(INJECTIONS), ids=[_key(*k) for k in INJECTIONS]
)
def test_injected_failure_payload(suite, variant):
    golden = json.loads(GOLDEN.read_text())
    got = json.loads(json.dumps(injected_payload(suite, variant)))
    assert not got["ok"]
    assert got == golden[_key(suite, variant)]


@pytest.mark.parametrize(
    "suite,variant", list(INJECTIONS), ids=[_key(*k) for k in INJECTIONS]
)
def test_only_the_reported_failure_is_shrunk(suite, variant, monkeypatch):
    calls = []
    shrink = harness._shrink

    def counting_shrink(*args, **kwargs):
        calls.append(args)
        return shrink(*args, **kwargs)

    monkeypatch.setattr(harness, "_shrink", counting_shrink)
    report = injected_payload(suite, variant)["suites"][suite]
    assert report["failed"] >= 1
    assert len(calls) == ("shrunk" in report["first_failure"])


@pytest.mark.parametrize(
    "suite,variant", list(INJECTIONS), ids=[_key(*k) for k in INJECTIONS]
)
def test_only_the_reported_failure_is_rendered(suite, variant, monkeypatch):
    # checks return unrendered failures; model JSON and printed formulas
    # are built once, for the first failure, not for the later failed
    # cases or for the failing rechecks inside the shrink
    calls = []
    render = harness._render_failure

    def counting_render(failure):
        calls.append(failure)
        return render(failure)

    monkeypatch.setattr(harness, "_render_failure", counting_render)
    report = injected_payload(suite, variant)["suites"][suite]
    assert report["failed"] >= 1
    assert len(calls) == 1


if __name__ == "__main__":
    out = {_key(*k): injected_payload(*k) for k in INJECTIONS}
    print(json.dumps(out, indent=1, sort_keys=True))
