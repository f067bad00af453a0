"""Benchmark of produpd: one workload per run, in a fresh process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each was chosen):

  oracle-suites   closed loop of `harness.run_fuzz` calls, one suite each
  rewrite-deep    `cli.run(["translate", ..., "--json"])` on deep formulas
  model-check     `Evaluator.extension` on the event formula and on its rewrite

Each run is a closed loop with one client and no threads: the next op
starts when the previous one returns.  Inputs come from `--seed` alone.
The loop makes whole passes over the workload's pool of requests while
one more pass, as long as the last, ends within `--seconds`.  Each request's latency is the median over the
passes, which are spread over the whole run, so a few seconds of a slower
or faster host move it little; throughput and the median op latency come
from these per-request figures.  Throughput is printed but not gated:
on oracle-suites one random case in a thousand takes seconds, so the
pool's total time, and with it throughput, depends on whether the seed
drew such a case.  The gated latencies are percentiles of the per-request
figures, which such a case barely moves.  Set-up is timed in this process and in
a few fresh child processes that do nothing else, and the median is
reported.

The speed of a shared host also changes for minutes at a time, by as
much as 1.6 times, which no number of samples inside one run averages
out.  So every REFERENCE_EVERY_S of the timed loop, between two ops, the
run times a short fixed piece of pure-Python work that touches none of
the program (`reference_work`), and the gated figures
are scaled to a host on which that work takes `REFERENCE_S`: a time is
multiplied by REFERENCE_S over the run's median reference time.  A change
to the program moves the scaled figures as it moves the raw ones; the raw
ones are printed too, with the suffix `_raw`.
Every op's output is checked (see workloads.py); a failed check, a budget
failure or a recursion error counts as a failed op, and the process exits
with 1 if any check failed.

With `--trace 0` the run is untraced and reports the end-to-end metrics.
With `--trace 1` it alternates passes with spans installed around the
package's public functions (tracing.py) and untraced runs of the same
ops, which measure the tracing overhead; it writes the spans to
`.perfbench_out/` and reports the per-layer metrics.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path
from statistics import median, quantiles
from types import SimpleNamespace

import tracing
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# A tail percentile needs this many samples beyond it.
TAIL_SAMPLES = 10
# Fresh-process set-ups timed per untraced run, besides the run's own.
CHILD_SETUPS = 6
# Gated times are scaled to a host on which reference_work() takes this.
REFERENCE_S = 0.0004
# reference_work() is timed after the first op that ends this long after
# the last time it was, so its samples spread evenly over the loop.
REFERENCE_EVERY_S = 0.05

# End-to-end metrics in the result line (and in BENCHMARK.json, with
# bounds), scaled to the reference speed.
END_TO_END = (
    ("setup_s", "s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
)
# Printed for every workload but left out of the result line.  On
# oracle-suites throughput, the tail and peak RSS are set by the few
# heaviest random cases of the seed's pool, and across seeds they spread
# further than the largest bound allows.
PRINTED_ONLY = (
    ("ops_per_s", "1/s"),
    ("setup_s_raw", "s"),
    ("ops_per_s_raw", "1/s"),
    ("op_ms_p50_raw", "ms"),
    ("op_ms_p90_raw", "ms"),
    ("reference_ms", "ms"),
    ("op_ms_tail", "ms"),
    ("peak_rss_mb", "MB"),
    ("ops_failed_share", "share"),
)


def reference_work() -> int:
    """Fixed pure-Python work, about 0.4 ms on a 2-vCPU VM: interpreter
    dispatch and small-int arithmetic, which allocate no containers, so
    the program's heap and collector do not change its time."""
    s = 0
    for i in range(6_000):
        s += i * i % 7
    return s


def load_package() -> SimpleNamespace:
    """Import produpd and its modules from the checkout's sources."""
    package = importlib.import_module("produpd")
    mods = {m: importlib.import_module(f"produpd.{m}") for m in tracing.LAYERS + ("errors",)}
    return SimpleNamespace(package=package, **mods)


def set_up_in_child(workload: str, seed: int) -> float:
    """Time of one set-up in a fresh process that does nothing else."""
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--setup-only"],
        capture_output=True, text=True, timeout=120, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up in a child process failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


def set_up(workload: str, seed: int, workdir: str, *, tiny: bool = False):
    """Import the package and build the workload's inputs, event files
    and set-up rewrites; return the workload and the time taken."""
    gc.collect()
    t0 = time.perf_counter()
    wl = WORKLOADS[workload](load_package(), seed, workdir, tiny)
    return wl, time.perf_counter() - t0


class Loop:
    """Latency, kind and verdict of every op run so far."""

    def __init__(self):
        self.latency: list[float] = []
        self.kinds: list[str] = []
        self.failed = 0
        self.passes: list[float] = []
        self.reference: list[float] = []
        self._reported = False

    def time_reference(self) -> float:
        """Time reference_work() once; return when it ended."""
        t0 = time.perf_counter()
        reference_work()
        t1 = time.perf_counter()
        self.reference.append(t1 - t0)
        return t1

    def run(self, wl, *, seconds=None, indices=None, tracer=None) -> None:
        """Run whole passes over the workload's ops while another pass as
        long as the last one ends within `seconds`, or exactly the ops
        `indices`.

        Ending on a pass boundary gives every request the same number of
        samples.  In the timed loop the reference work is timed every
        REFERENCE_EVERY_S, between ops.
        """
        last_reference = self.time_reference() if seconds is not None else None
        pass_start = time.perf_counter()
        deadline = pass_start + seconds if seconds is not None else None
        i = 0
        todo = iter(indices) if indices is not None else None
        while True:
            if todo is not None:
                i = next(todo, None)
                if i is None:
                    break
            elif i % wl.ops_per_pass == 0 and i:
                now = time.perf_counter()
                self.passes.append(now - pass_start)
                if now + self.passes[-1] > deadline:
                    break
                pass_start = time.perf_counter()
            kind, call, check = wl.op(i)
            if tracer is not None:
                tracer.begin_op(i)
            t0 = time.perf_counter()
            try:
                result = call()
            except Exception as e:  # an op boundary: count it and go on
                result = e
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.end_op()
            ok = check(result)
            if isinstance(result, Exception) and not isinstance(
                result, (wl.P.errors.ProdupdError, RecursionError)
            ) and not self._reported:
                self._reported = True
                traceback.print_exception(result, file=sys.stderr)
            self.latency.append(t1 - t0)
            self.kinds.append(kind)
            self.failed += not ok
            if todo is None:
                i += 1
                if time.perf_counter() - last_reference >= REFERENCE_EVERY_S:
                    last_reference = self.time_reference()

    def request_medians(self, ops_per_pass: int) -> list[float]:
        """Median latency of each request of the pool over the whole passes
        run.  The host's speed changes from one second to the next; a
        request's samples are spread over the run, so their median follows
        the speed that most of the run saw."""
        n = len(self.latency) - len(self.latency) % ops_per_pass
        return [median(self.latency[j:n:ops_per_pass]) for j in range(ops_per_pass)]

    def by_kind(self) -> dict[str, list[float]]:
        out: dict[str, list[float]] = {}
        for kind, lat in zip(self.kinds, self.latency):
            out.setdefault(kind, []).append(lat)
        return out


def tail(latency: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with TAIL_SAMPLES samples beyond
    it, and that percentile."""
    xs = sorted(latency)
    n = len(xs)
    if n <= TAIL_SAMPLES:
        return xs[-1], 100.0
    return xs[n - TAIL_SAMPLES - 1], 100.0 * (n - TAIL_SAMPLES) / n


def end_to_end(wl, loop: Loop, setup_times) -> tuple[dict, list[str]]:
    n = len(loop.latency)
    tail_s, tail_pct = tail(loop.latency)
    per_request = loop.request_medians(wl.ops_per_pass)
    reference = median(loop.reference)
    scale = REFERENCE_S / reference
    values = {
        "setup_s_raw": median(setup_times),
        "ops_per_s_raw": wl.ops_per_pass / sum(per_request),
        "op_ms_p50_raw": median(per_request) * 1e3,
        "op_ms_p90_raw": quantiles(per_request, n=10)[-1] * 1e3,
        "reference_ms": reference * 1e3,
        "op_ms_tail": tail_s * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops_failed_share": loop.failed / n,
    }
    values["setup_s"] = values["setup_s_raw"] * scale
    values["ops_per_s"] = values["ops_per_s_raw"] / scale
    values["op_ms_p50"] = values["op_ms_p50_raw"] * scale
    values["op_ms_p90"] = values["op_ms_p90_raw"] * scale
    at_reference = f"at {REFERENCE_S * 1e3:g} ms reference work; raw x {scale:.4f}"
    notes = {
        "setup_s": at_reference,
        "ops_per_s": at_reference,
        "op_ms_p50": at_reference,
        "op_ms_p90": at_reference,
        "setup_s_raw": f"median of {len(setup_times)} set-ups, "
                       f"{len(setup_times) - 1} in fresh processes",
        "ops_per_s_raw": f"pool of {wl.ops_per_pass} ops over the sum of their medians; "
                         f"{len(loop.passes)} passes",
        "op_ms_p50_raw": f"median over the pool of each op's median; {n} samples",
        "op_ms_p90_raw": f"90th percentile over the pool of each op's median; {n} samples",
        "reference_ms": f"median of {len(loop.reference)} runs of reference_work",
        "op_ms_tail": f"p{tail_pct:.2f}, {n} samples, {min(n, TAIL_SAMPLES)} beyond",
        "peak_rss_mb": "ru_maxrss of this process",
        "ops_failed_share": f"{loop.failed} of {n}",
    }
    lines = [f"  {name:<22} {values[name]:>14.6g} {unit:<6} ({notes[name]})"
             for name, unit in END_TO_END + PRINTED_ONLY]
    by_kind = loop.by_kind()
    for name, (value, unit) in wl.extra(by_kind).items():
        kind = name.rsplit("_ms_p50", 1)[0]
        note = f"{len(by_kind[kind])} samples" if kind in by_kind else "deterministic"
        lines.append(f"  {name:<22} {value:>14.6g} {unit:<6} ({note})")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return metrics, lines


def traced_run(wl, seconds: float) -> tuple[dict, list[str], Loop]:
    """Alternate a traced pass and an untraced run of the same ops until
    `seconds` have passed.  Layer metrics come from the traced passes; the
    overhead compares each traced pass with its untraced twin, run right
    after it, so a change in the host's speed shifts both alike."""
    tracer = tracing.Tracer(wl.P)
    span_cost = tracer.span_cost()
    traced, plain = Loop(), Loop()
    n = wl.ops_per_pass
    deadline = time.perf_counter() + seconds
    k = 0
    while k == 0 or time.perf_counter() < deadline:
        ops = range(k * n, (k + 1) * n)
        tracer.install()
        try:
            traced.run(wl, indices=ops, tracer=tracer)
        finally:
            tracer.uninstall()
        plain.run(wl, indices=ops)
        k += 1
    extra = [
        (sum(traced.latency[j * n:(j + 1) * n]) - sum(plain.latency[j * n:(j + 1) * n]),
         sum(plain.latency[j * n:(j + 1) * n]))
        for j in range(k)
    ]
    overhead = (median(d / n * 1e3 for d, _ in extra), median(d / base for d, base in extra))
    values = tracer.layer_metrics(
        len(traced.latency), int(sum(traced.latency) * 1e9), overhead, span_cost
    )
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{wl.name}.tsv.gz"
    tracer.write(spans_path)
    units = dict(tracing.PER_LAYER)
    lines = [f"  {name:<42} {values[name]:>14.6g} {units[name]}" for name, _ in tracing.PER_LAYER]
    lines.append(f"  ({k} passes of {n} ops, traced and untraced; "
                 f"{len(tracer.start)} spans written to {spans_path.relative_to(ROOT)})")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in tracing.PER_LAYER}
    traced.failed += plain.failed
    traced.latency += plain.latency
    return metrics, lines, traced


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (SRC / "produpd" / "__init__.py").is_file():
        print(f"error: no produpd sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"tmp-{os.getpid()}"
    workdir.mkdir()
    try:
        wl, first = set_up(args.workload, args.seed, str(workdir))
        if args.setup_only:
            print(repr(first))
            return 0
        mode = "traced" if args.trace else "untraced"
        print(f"workload {wl.name} seed {args.seed} seconds {args.seconds:g} ({mode})")
        if args.trace:
            metrics, lines, loop = traced_run(wl, args.seconds)
        else:
            setup_times = [first] + [
                set_up_in_child(args.workload, args.seed) for _ in range(CHILD_SETUPS)
            ]
            loop = Loop()
            loop.run(wl, seconds=args.seconds)
            metrics, lines = end_to_end(wl, loop, setup_times)
        errors = wl.verify()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in lines:
        print(line)
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    correct = loop.failed == 0 and not errors
    print(json.dumps({
        "correct": correct,
        "attempted": len(loop.latency),
        "failed": loop.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
