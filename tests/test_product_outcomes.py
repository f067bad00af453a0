"""`product` and `announce` outputs pinned against a golden file.

For every harness input (seed 13, 300 cases: a random model, a random
event model and a random base-language formula), `tests/data/product_outcomes.json`
holds the sha256 of the stdout of three `cli.run` calls:

- `product` of the model with the event model;
- `announce` of the formula on the model;
- `announce` of the formula on that product, read back from the first
  call's output, so the tags are relativised too.

Regenerate the golden with

    PYTHONPATH=src python tests/test_product_outcomes.py > tests/data/product_outcomes.json

and only for a change that is meant to alter what these commands print.
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from produpd.cli import run
from produpd.harness import FuzzConfig, random_event_model, random_formula, random_model
from produpd.parser import dump_event_model, dump_model, print_formula
from produpd.syntax import LanguageTag

GOLDEN = Path(__file__).parent / "data" / "product_outcomes.json"
CFG = FuzzConfig(seed=13, cases=300, max_worlds=5)
GROUPS = ("product", "announce", "announce_on_product")


def _stdout(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(argv)
    assert code == 0, argv
    return out.getvalue()


def outcomes() -> dict:
    got = {group: {} for group in GROUPS}
    with tempfile.TemporaryDirectory() as tmp:
        model, events, product = (str(Path(tmp) / f"{n}.json") for n in ("m", "a", "p"))
        for i in range(CFG.cases):
            Path(model).write_text(dump_model(random_model(CFG, i)), encoding="utf-8")
            Path(events).write_text(dump_event_model(random_event_model(CFG, i)), encoding="utf-8")
            phi = print_formula(random_formula(CFG, i, LanguageTag.BASE_MSO))
            texts = {"product": _stdout(["product", "--model", model, "--events", events])}
            Path(product).write_text(texts["product"], encoding="utf-8")
            texts["announce"] = _stdout(["announce", "--model", model, "--formula", phi])
            texts["announce_on_product"] = _stdout(
                ["announce", "--model", product, "--formula", phi]
            )
            for group, text in texts.items():
                got[group][str(i)] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return got


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_outcomes_match_golden(golden):
    got = outcomes()
    for group in GROUPS:
        assert sorted(got[group]) == sorted(golden[group])
        assert [k for k in got[group] if got[group][k] != golden[group][k]] == [], group


if __name__ == "__main__":
    print(json.dumps(outcomes(), indent=1, sort_keys=True))
