"""The three benchmark workloads: inputs made from the seed, the ops of the
timed loop, and the checks of every op's output.

An op is a `(kind, call, check)` triple: the loop times `call()` alone and
passes its result, or the exception it raised, to `check`, which says
whether the output is right.  `verify()` runs after the loop, untimed,
and returns the checks that need more work than one op should pay for.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
EXPECTED = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))

# Acceptance proportions of the six oracle suites (1000:1000:1000:500:300:300).
SUITE_WEIGHTS = (
    ("translation", 10), ("announcement", 10), ("nominals", 10),
    ("fixpoint", 5), ("bisim_lift", 3), ("degree", 3),
)


def _rng(*parts) -> random.Random:
    return random.Random("/".join(str(p) for p in parts))


def _fingerprint(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def _interleave(weights) -> list[str]:
    """Smooth weighted round robin: one cycle of sum(weights) slots."""
    current = {name: 0 for name, _ in weights}
    total = sum(w for _, w in weights)
    out = []
    for _ in range(total):
        for name, w in weights:
            current[name] += w
        best = max(current, key=lambda k: current[k])
        current[best] -= total
        out.append(best)
    return out


def _failed(result) -> bool:
    return isinstance(result, BaseException)


def _anchor_model(P, name):
    return P.parser.parse_model(json.dumps(EXPECTED["models"][name]))


def _anchor_events(P, name):
    return P.parser.parse_event_model(json.dumps(EXPECTED["event_models"][name]))


def _anchors(P, workload):
    """Hand-computed cases for one workload, parsed."""
    out = []
    for a in EXPECTED["anchors"]:
        if workload in a["workloads"]:
            out.append({
                "model": _anchor_model(P, a["model"]),
                "events": _anchor_events(P, a["events"]) if a["events"] else None,
                "formula": P.parser.parse_formula(a["formula"]),
                "text": a["formula"],
                "extension": frozenset(a["extension"]),
            })
    return out


def _random_model(P, rng, n, p_size, edge_probability, *, dead_end=False):
    """Seeded model on n worlds with |p| = p_size and |q| = n // 2.

    With `dead_end`, the last world has no successors and satisfies p.
    Every formula of model-check is false there, so no quantifier meets a
    full extension early and each request enumerates a number of subsets
    set by its size alone.
    """
    worlds = tuple(f"w{i}" for i in range(n))
    sources = worlds[:-1] if dead_end else worlds
    relation = frozenset(
        (u, v) for u in sources for v in worlds if rng.random() < edge_probability
    )
    if dead_end:
        p = frozenset(rng.sample(worlds[:-1], p_size - 1)) | {worlds[-1]}
    else:
        p = frozenset(rng.sample(worlds, p_size))
    valuation = {"p": p, "q": frozenset(rng.sample(worlds, n // 2))}
    return P.models.KripkeModel(worlds, relation, {k: v for k, v in valuation.items() if v})


class OracleSuites:
    """Closed loop of `run_fuzz` calls, one suite and a few cases each.

    Thousands of tiny models (at most 4 worlds) and short-lived product and
    relativised sessions; rewrite outputs stay small.  Per-session set-up
    and node-kind dispatch dominate.

    A pass is the whole pool, replayed unchanged on every pass: eight
    cycles of the suite interleaving, 3,280 cases in all, so the median and
    90th-percentile op cost move little from seed to seed.  The total does
    not: translation cases are heavy-tailed, and a pool may hold a call
    that takes 300 times the median.
    """

    name = "oracle-suites"
    CYCLES = 8

    def __init__(self, P, seed, workdir, tiny=False):
        self.P = P
        cycle = _interleave(SUITE_WEIGHTS)
        cases = 2 if tiny else 10
        rng = _rng(self.name, seed)
        self.configs = [
            P.harness.FuzzConfig(seed=rng.getrandbits(63), cases=cases, suites=(suite,))
            for rep in range(1 if tiny else self.CYCLES)
            for suite in cycle
        ]
        self.anchors = _anchors(P, self.name)
        self.ops_per_pass = len(self.configs)

    def fingerprint(self) -> str:
        return _fingerprint([c.to_jsonable() for c in self.configs])

    def op(self, i):
        cfg = self.configs[i % self.ops_per_pass]
        suite = cfg.suites[0]

        def call():
            return self.P.harness.run_fuzz(cfg)

        def check(report):
            return not _failed(report) and report.ok and (
                report.suites[suite]["passed"] == cfg.cases
            )

        return suite, call, check

    def verify(self) -> list[str]:
        """The suites' claims on hand-computed cases: the direct extension and
        the rewritten one both equal the expected set."""
        P = self.P
        errors = []
        for a in self.anchors:
            phi, m, events = a["formula"], a["model"], a["events"]
            direct = P.semantics.Evaluator(m, events).extension(phi)
            if isinstance(phi, P.syntax.ActionDiamond):
                chi = P.translator.translate_event(events, phi.event, phi.body)
            elif isinstance(phi, P.syntax.Announce):
                chi = P.translator.translate_announcement(phi.announced, phi.body)
            else:
                chi = P.translator.eliminate_all(events, phi).output
            rewritten = P.semantics.Evaluator(m).extension(chi)
            if not direct == rewritten == a["extension"]:
                errors.append(f"anchor {a['text']}: direct {sorted(direct)}, "
                              f"rewritten {sorted(rewritten)}, expected {sorted(a['extension'])}")
            if isinstance(phi, P.syntax.Nu):
                oracle = P.semantics.gfp_oracle(m, phi.var, phi.body)
                if oracle != a["extension"]:
                    errors.append(f"anchor {a['text']}: gfp oracle {sorted(oracle)}")
        return errors

    def extra(self, latencies) -> dict:
        return {}


# Event model of rewrite-deep: three events with distinct preconditions and
# a relation in which every event has a successor, so boxes branch.
REWRITE_EVENTS = EXPECTED["event_models"]["three-events"]

# The seed picks bound-variable names and the operand order inside the
# announced formulas.  The shape of each request, which sets its cost, is
# fixed, so the figures do not depend on which seed drew the inputs.


def _box_tower(rng, k):
    r = rng.choice("rstu")
    return "[] " * k + f"(exists {r}. ({r} & <> {r}))"


def _announcement_nest(rng, k):
    anns = []
    for i in range(k):
        x, y = rng.sample("pq", 2)
        anns.append(f"<!({x} {'&|'[i % 2]} {y})>")
    r = rng.choice("rstu")
    return "".join(anns) + f" (exists {r}. ({r} & <> {r} & [] p))"


def _nu_nest(rng, depth):
    # Inner fixpoints are closed: with the outer variable free in them the
    # rewrite nests one quantifier block per level, and already at depth 2
    # checking it on the 4-world model needs more than 300k subsets.
    x, y = rng.sample("xyzuvw", 2)
    if depth == 1:
        return f"nu {x}. (q & [] {x})"
    return f"nu {x}. (q & [] {x} & <> (nu {y}. (p | <> {y})))"


class RewriteDeep:
    """`produpd translate --json` on formulas whose rewrite tree blows up
    while their DAG stays small: box towers, announcement nests and nested
    greatest fixpoints, over a fixed three-event model."""

    name = "rewrite-deep"

    def __init__(self, P, seed, workdir, tiny=False):
        self.P = P
        self.events_path = os.path.join(workdir, "rewrite-events.json")
        with open(self.events_path, "w", encoding="utf-8") as fh:
            json.dump(REWRITE_EVENTS, fh)
        self.events = P.parser.parse_event_model(json.dumps(REWRITE_EVENTS))
        rng = _rng(self.name, seed)
        families = (
            [(_box_tower, k) for k in ((1, 2) if tiny else (3, 4, 5, 6, 7))]
            + [(_announcement_nest, k) for k in ((1,) if tiny else (2, 3, 4))]
            + [(_nu_nest, d) for d in ((1,) if tiny else (1, 2))]
        )
        requests = [
            {"event": event, "formula": make(rng, k), "expected": None}
            for make, k in families
            for event in ("a0", "a1")
        ]
        for a in _anchors(P, self.name):
            phi = a["formula"]
            requests.append({
                "event": phi.event,
                "formula": P.parser.print_formula(phi.body),
                "expected": a,
            })
        self.requests = requests
        self.ops_per_pass = len(requests)
        self.check_model = _random_model(P, rng, 4, 2, 0.5)
        self.outputs: dict[int, str] = {}
        self.sizes: dict[int, int] = {}

    def fingerprint(self) -> str:
        return _fingerprint([(r["event"], r["formula"]) for r in self.requests])

    def _argv(self, req):
        return ["translate", "--events", self.events_path, "--event", req["event"],
                "--formula", req["formula"], "--json"]

    def _run(self, req):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = self.P.cli.run(self._argv(req))
        return rc, buf.getvalue()

    def op(self, i):
        j = i % len(self.requests)
        req = self.requests[j]

        def call():
            return self._run(req)

        def check(result):
            return not _failed(result) and self._accept(j, *result)

        return "translate", call, check

    def _accept(self, j, rc, text) -> bool:
        if rc != 0:
            return False
        try:
            out = json.loads(text)
        except ValueError:
            return False
        if out.get("sanity_check", {}).get("match") is not True:
            return False
        seen = self.outputs.setdefault(j, out["output"])
        self.sizes[j] = out["output_size"]
        return seen == out["output"]

    def verify(self) -> list[str]:
        """Every distinct output re-parses to the formula the rewriter
        returns and has the input's extension on a seeded 4-world model;
        anchors also match their hand-computed extensions."""
        errors = []
        for j, req in enumerate(self.requests):
            try:
                errors += self._verify_one(j, req)
            except (self.P.errors.ProdupdError, RecursionError) as e:
                errors.append(f"request {req['formula']!r}: {type(e).__name__}: {e}")
        return errors

    def _verify_one(self, j, req) -> list[str]:
        P = self.P
        text = self.outputs.get(j)
        if text is None:  # every op of this request failed; already counted
            return [f"request {req['formula']!r} has no accepted output"]
        errors = []
        source = P.syntax.ActionDiamond(req["event"], P.parser.parse_formula(req["formula"]))
        printed = P.parser.parse_formula(text)
        if P.parser.print_formula(printed) != text:
            errors.append(f"output of {req['formula']!r} does not re-print to itself")
        if printed != P.translator.eliminate_all(self.events, source).output:
            errors.append(f"output of {req['formula']!r} differs from eliminate_all")
        anchor = req["expected"]
        for m in [self.check_model] + ([anchor["model"]] if anchor else []):
            direct = P.semantics.Evaluator(m, self.events).extension(source)
            rewritten = P.semantics.Evaluator(m).extension(printed)
            if direct != rewritten:
                errors.append(f"output of {req['formula']!r} changes the extension")
        # the last model checked is the anchor's
        if anchor and rewritten != anchor["extension"]:
            errors.append(f"anchor {req['formula']!r}: {sorted(rewritten)}")
        return errors

    def extra(self, latencies) -> dict:
        return {"rewrite_output_nodes": (sum(self.sizes.values()), "count")}


class ModelCheck:
    """Model checking on seeded models of growing size, each request run
    directly (`Evaluator(m, events)` on the event formula) and on its
    rewrite (computed once during set-up)."""

    name = "model-check"

    # (formula, what a size measures, sizes).  "product": the product
    # domain under the event quantifier, kept within the default budget of
    # 16 worlds; "announced": the worlds that survive the announcement;
    # "worlds": the model's worlds.
    # Sizes step by one, so op costs form a continuum without gaps and the
    # median op does not jump between size classes from seed to seed.
    TEMPLATES = (
        ("<a0> (exists r. (r & <> ~r & j0))", "product", (6, 7, 8, 9, 10, 11, 12, 14)),
        ("<a1> (exists r. (r & <> ~r & [] (r | j0)))", "product", (7, 8, 9, 10, 11, 12)),
        ("<!p> (exists r. (r & [] r & <> q))", "announced", (5, 6, 7, 8, 9, 10, 11, 12)),
        ("nu x. (q & [] x)", "worlds", (6, 7, 8, 9, 10, 11, 12, 13)),
    )
    TINY_TEMPLATES = (
        ("<a0> (exists r. (r & <> ~r & j0))", "product", (5, 6)),
        ("<!p> (exists r. (r & [] r & <> q))", "announced", (3,)),
        ("nu x. (q & [] x)", "worlds", (4,)),
    )
    EVENTS = "two-events"

    def __init__(self, P, seed, workdir, tiny=False):
        self.P = P
        self.events = _anchor_events(P, self.EVENTS)
        rng = _rng(self.name, seed)
        requests = []
        for a in _anchors(P, self.name):
            rewritten = P.translator.eliminate_all(self.events, a["formula"]).output
            requests.append({"model": a["model"], "formula": a["formula"],
                             "rewritten": rewritten, "expected": a["extension"]})
        for text, measure, sizes in (self.TINY_TEMPLATES if tiny else self.TEMPLATES):
            phi = P.parser.parse_formula(text)
            rewritten = P.translator.eliminate_all(self.events, phi).output
            for size in sizes:
                if measure == "product":  # n worlds, all under a0, p under a1
                    n = size // 2 + 1
                    p_size = size - n
                elif measure == "announced":
                    n, p_size = size + 2, size
                else:
                    n, p_size = size, size // 2
                m = _random_model(P, rng, n, p_size, 0.35, dead_end=True)
                requests.append({"model": m, "formula": phi, "rewritten": rewritten,
                                 "expected": None})
        self.requests = requests
        self.ops_per_pass = 2 * len(requests)
        self.last_direct: dict[int, object] = {}

    def fingerprint(self) -> str:
        to_json, text = self.P.parser.model_to_jsonable, self.P.parser.print_formula
        return _fingerprint([(to_json(r["model"]), text(r["formula"])) for r in self.requests])

    def op(self, i):
        j = (i // 2) % len(self.requests)
        req = self.requests[j]
        Evaluator = self.P.semantics.Evaluator
        if i % 2 == 0:
            def call():
                return Evaluator(req["model"], self.events).extension(req["formula"])

            def check(result):
                self.last_direct[j] = result
                return not _failed(result) and (
                    req["expected"] is None or result == req["expected"]
                )

            return "eval_direct", call, check

        def call():
            return Evaluator(req["model"]).extension(req["rewritten"])

        def check(result):
            direct = self.last_direct.pop(j, None)
            return not _failed(result) and not _failed(direct) and result == direct

        return "eval_rewritten", call, check

    def verify(self) -> list[str]:
        return []

    def extra(self, latencies) -> dict:
        return {
            f"{kind}_ms_p50": (median(latencies[kind]) * 1e3, "ms")
            for kind in ("eval_direct", "eval_rewritten")
            if latencies.get(kind)
        }


WORKLOADS = {w.name: w for w in (OracleSuites, RewriteDeep, ModelCheck)}
