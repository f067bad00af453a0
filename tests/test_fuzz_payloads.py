"""The oracle-suite payload of `fuzz --seed 7 --cases 300`, pinned.

`tests/data/fuzz_payloads.json` holds the sha256 of
`json.dumps(run_fuzz(FuzzConfig(seed=7, cases=300)).payload())`: the
configuration, every suite's counts and first failure, and the blowup
figures, without the timings.  A change that leaves every rewrite and
every evaluation as it was leaves it byte-identical.  Regenerate the
golden with

    PYTHONPATH=src python tests/test_fuzz_payloads.py > tests/data/fuzz_payloads.json

and only for a change that is meant to alter what the suites report.
"""

import hashlib
import json
from pathlib import Path

from produpd.harness import FuzzConfig, run_fuzz

GOLDEN = Path(__file__).parent / "data" / "fuzz_payloads.json"
CFG = FuzzConfig(seed=7, cases=300)


def outcomes() -> dict:
    text = json.dumps(run_fuzz(CFG).payload())
    return {"seed=7,cases=300": hashlib.sha256(text.encode("utf-8")).hexdigest()}


def test_payload_matches_golden():
    assert outcomes() == json.loads(GOLDEN.read_text(encoding="utf-8"))


if __name__ == "__main__":
    print(json.dumps(outcomes(), indent=1, sort_keys=True))
