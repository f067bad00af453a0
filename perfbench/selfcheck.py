"""Determinism self-check of the benchmark's work counters.

    python3 perfbench/selfcheck.py          # check; exits 1 on any mismatch
    python3 perfbench/selfcheck.py --pin    # rewrite pinned_counts.json

For each workload it runs one pass over the ops of a tiny configuration,
traced, each time in a fresh process (so string hashing differs): twice
at seed 1 and once at seed 2.  The counters below must be identical in
the two seed-1 runs and equal to the values pinned in
`pinned_counts.json`; the seed-2 run must have different inputs.  It also
checks that BENCHMARK.json names exactly the metrics and workloads that
run.py reports.

A change to the program that legitimately changes a counter (fewer
`free_props` calls, a smaller rewrite) re-pins with `--pin` and says so.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
PINNED = HERE / "pinned_counts.json"

COUNTERS = (
    "semantics.subsets",
    "semantics.sessions.root",
    "semantics.sessions.product",
    "semantics.sessions.relativised",
    "semantics.memo_entries_peak",
    "models.product_worlds",
    "translator.output_tree_nodes",
    "translator.output_dag_nodes",
    "translator.steps",
    "syntax.free_props.calls",
)


def child(workload: str, seed: int) -> dict:
    """One traced pass of the tiny configuration; its counters and inputs."""
    import shutil

    import run
    import tracing

    sys.path.insert(0, str(run.SRC))
    run.OUT.mkdir(exist_ok=True)
    workdir = run.OUT / f"selfcheck-{workload}-{seed}"
    workdir.mkdir(exist_ok=True)
    try:
        wl, _ = run.set_up(workload, seed, str(workdir), tiny=True)
        tracer = tracing.Tracer(wl.P)
        loop = run.Loop()
        tracer.install()
        try:
            loop.run(wl, indices=range(wl.ops_per_pass), tracer=tracer)
        finally:
            tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "fingerprint": wl.fingerprint(),
        "failed": loop.failed,
        "counts": {name: tracer.total(name) for name in COUNTERS},
    }


def spawn(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, __file__, "--child", workload, str(seed)],
        capture_output=True, text=True, timeout=600, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"child {workload} seed {seed} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_benchmark_json(errors: list[str]) -> None:
    import run
    import tracing
    from workloads import WORKLOADS

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    pairs = [
        ("end_to_end", list(run.END_TO_END)),
        ("per_layer", list(tracing.PER_LAYER)),
    ]
    for key, reported in pairs:
        declared = [(m["name"], m["unit"]) for m in spec[key]]
        if declared != reported:
            errors.append(f"BENCHMARK.json {key} differs from what run.py reports")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        errors.append("BENCHMARK.json workloads differ from workloads.py")


def main(argv) -> int:
    if argv[:1] == ["--child"]:
        print(json.dumps(child(argv[1], int(argv[2]))))
        return 0
    from workloads import WORKLOADS

    errors: list[str] = []
    check_benchmark_json(errors)
    pinned = json.loads(PINNED.read_text(encoding="utf-8")) if PINNED.exists() else {}
    fresh = {}
    for name in WORKLOADS:
        a, b, other = spawn(name, 1), spawn(name, 1), spawn(name, 2)
        fresh[name] = a["counts"]
        print(f"{name}: {json.dumps(a['counts'])}")
        if a["failed"] or b["failed"] or other["failed"]:
            errors.append(f"{name}: ops failed in the tiny configuration")
        if a != b:
            errors.append(f"{name}: two runs at seed 1 differ: {a} vs {b}")
        if a["fingerprint"] == other["fingerprint"]:
            errors.append(f"{name}: seeds 1 and 2 give the same inputs")
        if "--pin" not in argv and pinned.get(name) != a["counts"]:
            errors.append(f"{name}: counts differ from pinned {pinned.get(name)}")
    if "--pin" in argv:
        PINNED.write_text(json.dumps(fresh, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        print(f"pinned counts written to {PINNED.name}")
    for e in errors:
        print(f"FAIL {e}", file=sys.stderr)
    print("ok" if not errors else "FAILED")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
