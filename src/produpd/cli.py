"""Command-line front door.

Exit codes: 0 on success, 1 on property failures or semantic errors
(unresolvable nominals, exhausted budgets, failing fuzz suites), 2 on
usage or parse errors (input that is not valid UTF-8 among them) and on
formulas nested too deeply for the recursive parser, printer, rewriter or
evaluator (`error: formula nested too deeply`).  `product` and `announce`
print a model file; every other subcommand emits machine-readable JSON
with --json and human-readable text otherwise.  Diagnostics go to stderr.
JSON output is `json.dumps(value, indent=2)` byte for byte, written by one writer, `parser.dump_json`, which encodes
each distinct step of a rewrite trace once.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from functools import cache

from .errors import ParseError, PositivityViolation, ProdupdError
from .harness import SUITE_NAMES, FuzzConfig, run_fuzz
from .models import KripkeModel, product_update, relativise
from .parser import (
    dump_json,
    dump_tagged_model,
    model_to_jsonable,
    parse_event_model,
    parse_formula,
    parse_tagged_model,
    print_formula,
)
from .semantics import EvalBudget, Evaluator, extension
from .syntax import ActionDiamond, classify, free_props
from .translator import eliminate_all
from .analysis import greatest_bisimulation

BUDGET_ENV_VAR = "PRODUPD_BUDGET_WORLDS"


def _budget() -> EvalBudget:
    raw = os.environ.get(BUDGET_ENV_VAR)
    if raw is None:
        return EvalBudget()
    try:
        return EvalBudget(max_worlds_for_quantifier=int(raw))
    except ValueError as e:
        raise ParseError(f"bad {BUDGET_ENV_VAR} value {raw!r}: {e}") from e


def _read_formula_arg(value: str):
    if value.startswith("@"):
        path = value[1:]
        text = _decoded("<stdin>", sys.stdin.read) if path == "-" else _read_file(path)
        return parse_formula(text)
    return parse_formula(value)


def _read_file(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return _decoded(path, fh.read)


def _decoded(name: str, read) -> str:
    try:
        return read()
    except UnicodeDecodeError as e:
        raise ParseError(f"cannot decode {name}: {e}") from e


def _sanity_model(props) -> KripkeModel:
    # fixed two-world chain with a loop; valuations derived from the
    # proposition names so the check is deterministic for any vocabulary
    valuation = {}
    for p in sorted(props):
        bits = hashlib.sha256(f"sanity:{p}".encode()).digest()[0]
        xs = frozenset(w for i, w in enumerate(("w0", "w1")) if (bits >> i) & 1)
        if xs:
            valuation[p] = xs
    return KripkeModel(("w0", "w1"), frozenset({("w0", "w1"), ("w1", "w1")}), valuation)


def _emit(args, jsonable, human: str):
    if getattr(args, "json", False):
        print(dump_json(jsonable))
    else:
        print(human)


def _cmd_parse(args) -> int:
    phi = _read_formula_arg(args.formula)
    text = print_formula(phi)
    tag = classify(phi).value
    _emit(args, {"formula": text, "tag": tag}, text)
    return 0


def _cmd_eval(args) -> int:
    tm = parse_tagged_model(_read_file(args.model))
    events = parse_event_model(_read_file(args.events)) if args.events else None
    phi = _read_formula_arg(args.formula)
    ev = Evaluator(tm, events=events, budget=_budget())
    if args.world is not None:
        if args.world not in tm.model.worlds:
            raise ParseError(f"world {args.world!r} not in the model")
        value = ev.holds(args.world, phi)
        _emit(
            args,
            {"formula": print_formula(phi), "world": args.world, "holds": value},
            "true" if value else "false",
        )
        return 0
    ext = ev.extension(phi)
    ordered = [w for w in tm.model.worlds if w in ext]
    _emit(
        args,
        {"formula": print_formula(phi), "extension": ordered},
        " ".join(ordered) if ordered else "(empty)",
    )
    return 0


def _cmd_product(args) -> int:
    tm = parse_tagged_model(_read_file(args.model))
    events = parse_event_model(_read_file(args.events))
    product = product_update(tm.model, events, budget=_budget())
    print(dump_tagged_model(product), end="")
    return 0


def _cmd_announce(args) -> int:
    tm = parse_tagged_model(_read_file(args.model))
    phi = _read_formula_arg(args.formula)
    keep = extension(tm, phi, budget=_budget())
    result = relativise(tm.model, keep)
    jsonable = model_to_jsonable(result)
    if tm.tags:
        jsonable["tags"] = {w: tm.tags[w] for w in result.worlds}
    print(dump_json(jsonable))
    return 0


def _cmd_translate(args) -> int:
    events = parse_event_model(_read_file(args.events))
    if args.event not in events.pre:
        raise ParseError(f"unknown event {args.event!r}")
    phi = _read_formula_arg(args.formula)
    report = eliminate_all(
        events, ActionDiamond(args.event, phi), simplify=args.simplify
    )
    # verify the output against the input on a built-in sanity model
    # before printing anything
    props = free_props(report.input) | free_props(report.output)
    for e in events.events:
        props |= free_props(events.pre[e])
    sanity = _sanity_model(props)
    budget = _budget()
    lhs = extension(sanity, report.input, budget=budget, events=events)
    rhs = extension(sanity, report.output, budget=budget, events=events)
    if lhs != rhs:
        print("sanity check failed: translation output is not equivalent", file=sys.stderr)
        return 1
    if args.json:
        jsonable = report.to_jsonable()
        jsonable["sanity_check"] = {
            "model": model_to_jsonable(sanity),
            "match": True,
        }
        print(dump_json(jsonable))
    else:
        print(print_formula(report.output))
        print(
            f"# size {report.input_size} -> {report.output_size}, "
            f"eps {report.input_eps} -> {report.output_eps}, "
            f"{len(report.steps)} steps, sanity check passed",
            file=sys.stderr,
        )
    return 0


def _cmd_bisim(args) -> int:
    m1 = parse_tagged_model(_read_file(args.model1)).model
    m2 = parse_tagged_model(_read_file(args.model2)).model
    for w, m, flag in ((args.world1, m1, "--world1"), (args.world2, m2, "--world2")):
        if w not in m.worlds:
            raise ParseError(f"{flag}: world {w!r} not in its model")
    z = greatest_bisimulation(m1, m2)
    related = (args.world1, args.world2) in z.pairs
    if args.json:
        print(dump_json({"bisimilar": related, "pairs": z.to_jsonable()}))
    else:
        print("bisimilar" if related else "not bisimilar")
        for u, v in sorted(z.pairs):
            print(f"{u} ~ {v}")
    return 0


def _cmd_fuzz(args) -> int:
    suites = tuple(s.strip() for s in args.suites.split(",")) if args.suites else SUITE_NAMES
    try:
        cfg = FuzzConfig(
            seed=args.seed,
            cases=args.cases,
            max_worlds=args.max_worlds,
            max_events=args.max_events,
            max_props=args.max_props,
            max_formula_size=args.max_formula_size,
            max_eps=args.max_eps,
            edge_probability=args.edge_probability,
            suites=suites,
        )
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    report = run_fuzz(cfg)
    if args.json:
        print(dump_json(report.to_jsonable(include_timing=True)))
    else:
        for name in cfg.suites:
            s = report.suites[name]
            t = report.timing[name]
            print(
                f"suite {name}: {s['passed']}/{s['cases']} passed "
                f"({t['total_seconds']}s, max case {t['max_case_seconds']}s)"
            )
            if s["first_failure"] is not None:
                print(f"  first failure: {json.dumps(s['first_failure'])}")
        if report.blowup:
            b = report.blowup
            print(
                f"blowup over {b['translations']} translations: "
                f"size ratio mean {b['mean_size_ratio']} max {b['max_size_ratio']}, "
                f"output eps mean {b['mean_output_eps']} max {b['max_output_eps']}"
            )
        print("ok" if report.ok else "FAILED")
    return 0 if report.ok else 1


@cache  # built on the first `run` and reused: parsing does not change it
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="produpd",
        description=(
            "Model checking for quantified modal formulas over finite Kripke "
            "models, rewriting of event and announcement modalities into the "
            "static base language, and randomized equivalence suites."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="echo a formula in normalized syntax")
    p.add_argument("formula", help="formula text, or @file, or @- for stdin")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_parse)

    p = sub.add_parser("eval", help="evaluate a formula on a model")
    p.add_argument("--model", required=True, help="model JSON file")
    p.add_argument("--formula", required=True)
    p.add_argument("--world", help="report truth at this world instead of the extension")
    p.add_argument("--events", help="event-model JSON file for <e> modalities")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("product", help="print the product with an event model")
    p.add_argument("--model", required=True)
    p.add_argument("--events", required=True)
    p.set_defaults(fn=_cmd_product)

    p = sub.add_parser("announce", help="print the model relativised to a formula")
    p.add_argument("--model", required=True)
    p.add_argument("--formula", required=True)
    p.set_defaults(fn=_cmd_announce)

    p = sub.add_parser(
        "translate", help="rewrite <event> formula into the base language"
    )
    p.add_argument("--events", required=True)
    p.add_argument("--event", required=True)
    p.add_argument("--formula", required=True)
    p.add_argument("--simplify", action="store_true", help="fold boolean constants")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_translate)

    p = sub.add_parser("bisim", help="greatest bisimulation between two models")
    p.add_argument("--model1", required=True)
    p.add_argument("--world1", required=True)
    p.add_argument("--model2", required=True)
    p.add_argument("--world2", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_bisim)

    p = sub.add_parser("fuzz", help="run the randomized oracle suites")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=int, default=100)
    p.add_argument("--max-worlds", type=int, default=4, dest="max_worlds")
    p.add_argument("--max-events", type=int, default=3, dest="max_events")
    p.add_argument("--max-props", type=int, default=3, dest="max_props")
    p.add_argument(
        "--max-formula-size", type=int, default=12, dest="max_formula_size"
    )
    p.add_argument("--max-eps", type=int, default=2, dest="max_eps")
    p.add_argument(
        "--edge-probability", type=float, default=0.5, dest="edge_probability"
    )
    p.add_argument("--suites", help="comma-separated subset of " + ",".join(SUITE_NAMES))
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_fuzz)

    return parser


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2
    try:
        return args.fn(args)
    except (ParseError, PositivityViolation) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: formula nested too deeply", file=sys.stderr)
        return 2
    except ProdupdError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
