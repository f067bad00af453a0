import dataclasses
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import produpd
from produpd import cli, harness
from produpd.cli import run
from produpd.parser import parse_event_model, print_formula
from produpd.syntax import BOTTOM, ActionDiamond
from produpd.translator import TranslationReport, eliminate_all
from test_rewrite_outcomes import THREE_EVENTS, announcement_nest, box_tower

MODEL = {
    "worlds": ["w0", "w1"],
    "rel": [["w0", "w1"], ["w1", "w1"]],
    "val": {"p": ["w0"]},
}
EVENTS = {
    "events": ["a0", "a1"],
    "rel": [["a0", "a0"], ["a0", "a1"], ["a1", "a1"]],
    "pre": {"a0": "q", "a1": "true"},
}


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(MODEL))
    return str(path)


@pytest.fixture
def events_file(tmp_path):
    path = tmp_path / "events.json"
    path.write_text(json.dumps(EVENTS))
    return str(path)


class TestParseCommand:
    def test_normalizes(self, capsys):
        assert run(["parse", "exists p. p & q"]) == 0
        assert capsys.readouterr().out.strip() == "exists p. (p & q)"

    def test_json(self, capsys):
        assert run(["parse", "nu p. [] p", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data == {"formula": "nu p. [] p", "tag": "MuFragment"}

    def test_parse_error_exit_2(self, capsys):
        assert run(["parse", "p &"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_positivity_error_exit_2(self, capsys):
        assert run(["parse", "nu p. ~p"]) == 2

    def test_file_indirection(self, tmp_path, capsys):
        f = tmp_path / "phi.txt"
        f.write_text("[] (p -> q)")
        assert run(["parse", f"@{f}"]) == 0
        assert capsys.readouterr().out.strip() == "[] (p -> q)"


class TestEvalCommand:
    def test_truth_at_world(self, model_file, capsys):
        one = json.dumps({"worlds": ["w0"], "rel": [], "val": {"p": ["w0"]}})
        import pathlib

        path = pathlib.Path(model_file).parent / "one.json"
        path.write_text(one)
        assert run(["eval", "--model", str(path), "--formula", "U p", "--world", "w0"]) == 0
        assert capsys.readouterr().out.strip() == "true"

    def test_extension(self, model_file, capsys):
        assert run(["eval", "--model", model_file, "--formula", "[] p"]) == 0
        assert capsys.readouterr().out.strip() == "(empty)"

    def test_extension_json(self, model_file, capsys):
        assert run(["eval", "--model", model_file, "--formula", "<> p", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["extension"] == []

    def test_events_supplied(self, model_file, events_file, capsys):
        assert (
            run(
                ["eval", "--model", model_file, "--formula", "<a1> true",
                 "--events", events_file, "--json"]
            )
            == 0
        )
        data = json.loads(capsys.readouterr().out)
        assert data["extension"] == ["w0", "w1"]

    def test_nominal_without_tags_exit_1(self, model_file, capsys):
        assert run(["eval", "--model", model_file, "--formula", "j0", "--world", "w0"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_world_exit_2(self, model_file):
        assert run(["eval", "--model", model_file, "--formula", "p", "--world", "zz"]) == 2

    def test_missing_file_exit_2(self):
        assert run(["eval", "--model", "/nonexistent.json", "--formula", "p"]) == 2

    def test_budget_env_override(self, model_file, capsys, monkeypatch):
        monkeypatch.setenv("PRODUPD_BUDGET_WORLDS", "1")
        assert run(["eval", "--model", model_file, "--formula", "exists p. p"]) == 1
        assert "budget" in capsys.readouterr().err.lower()

    @pytest.mark.parametrize(
        "value,reason",
        [
            ("abc", "invalid literal for int() with base 10: 'abc'"),
            ("0", "max_worlds_for_quantifier must be positive"),
        ],
    )
    def test_bad_budget_env_exit_2(self, value, reason, model_file, capsys, monkeypatch):
        monkeypatch.setenv("PRODUPD_BUDGET_WORLDS", value)
        assert run(["eval", "--model", model_file, "--formula", "p"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: bad PRODUPD_BUDGET_WORLDS value {value!r}: {reason}\n"

    def test_nominal_without_event_model_exit_1(self, tmp_path, capsys):
        # the model is tagged, but no event model resolves the nominal
        path = tmp_path / "tagged.json"
        path.write_text(json.dumps({"worlds": ["w0"], "rel": [], "tags": {"w0": "a0"}}))
        assert run(["eval", "--model", str(path), "--formula", "j0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: nominal j0 needs an ambient event model to resolve\n"

    def test_fixpoint_that_does_not_descend_exit_2(self, model_file, tmp_path, capsys):
        # `nu p. <a0> true` is positive in p, but a0's precondition is `~p`
        path = tmp_path / "events.json"
        path.write_text(json.dumps({"events": ["a0"], "rel": [["a0", "a0"]], "pre": {"a0": "~p"}}))
        argv = ["eval", "--model", model_file, "--events", str(path),
                "--formula", "nu p. <a0> true"]
        assert run(argv) == 2
        assert capsys.readouterr() == (
            "",
            "error: fixpoint iteration for 'p' is not descending; the body is not monotone here\n",
        )


class TestJsonShapeErrors:
    """Each shape fault in a model or event-model file exits 2 with one line."""

    @pytest.mark.parametrize(
        "change,message",
        [
            ({"worlds": "w0"}, "'worlds' must be a list of strings"),
            ({"worlds": ["w0", 1]}, "'worlds' must be a list of strings"),
            ({"rel": {"w0": "w1"}}, "'rel' must be a list of pairs"),
            ({"rel": [["w0"]]}, "bad relation entry ['w0']"),
            ({"val": ["p"]}, "'val' must be an object mapping propositions to worlds"),
            ({"val": {"p": "w0"}}, "valuation of 'p' must be a list of worlds"),
        ],
    )
    def test_model(self, change, message, tmp_path, capsys):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({**MODEL, **change}))
        assert run(["eval", "--model", str(path), "--formula", "p"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "change,message",
        [
            ({"pre": ["q"]}, "'pre' must map events to formula strings"),
            ({"pre": {"a0": 1, "a1": "true"}}, "precondition of 'a0' must be a formula string"),
        ],
    )
    def test_event_model(self, change, message, tmp_path, capsys):
        path = tmp_path / "events.json"
        path.write_text(json.dumps({**EVENTS, **change}))
        assert run(["translate", "--events", str(path), "--event", "a0", "--formula", "p"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"


class TestProductCommand:
    def test_matches_library_output(self, model_file, events_file, capsys):
        assert run(["product", "--model", model_file, "--events", events_file]) == 0
        out = capsys.readouterr().out
        data = json.loads(out)
        assert set(data) == {"worlds", "rel", "val", "tags"}
        # q is false everywhere, so only the a1 column survives
        assert data["worlds"] == ["(w0,a1)", "(w1,a1)"]
        assert data["tags"] == {"(w0,a1)": "a1", "(w1,a1)": "a1"}

    def test_evaluating_dumped_product(self, model_file, events_file, tmp_path, capsys):
        run(["product", "--model", model_file, "--events", events_file])
        product_json = capsys.readouterr().out
        path = tmp_path / "product.json"
        path.write_text(product_json)
        assert (
            run(
                ["eval", "--model", str(path), "--formula", "j1",
                 "--events", events_file, "--json"]
            )
            == 0
        )
        data = json.loads(capsys.readouterr().out)
        assert data["extension"] == ["(w0,a1)", "(w1,a1)"]

    def test_json_flag_refused(self, model_file, events_file, capsys):
        # the output is always a model file; there is no other format
        argv = ["product", "--model", model_file, "--events", events_file, "--json"]
        assert run(argv) == 2
        assert "unrecognized arguments: --json" in capsys.readouterr().err


class TestAnnounceCommand:
    def test_relativises(self, model_file, capsys):
        assert run(["announce", "--model", model_file, "--formula", "p"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["worlds"] == ["w0"]
        assert data["rel"] == []

    def test_json_flag_refused(self, model_file, capsys):
        # the output is always a model file; there is no other format
        assert run(["announce", "--model", model_file, "--formula", "p", "--json"]) == 2
        assert "unrecognized arguments: --json" in capsys.readouterr().err


class TestTranslateCommand:
    def test_pinned_example(self, events_file, capsys):
        assert (
            run(
                ["translate", "--events", events_file, "--event", "a0",
                 "--formula", "exists p. p"]
            )
            == 0
        )
        out = capsys.readouterr().out.strip()
        assert out == "(q & (exists _f0. (U (_f0 -> q) & _f0)))"

    def test_json_includes_sanity_check(self, events_file, capsys):
        assert (
            run(
                ["translate", "--events", events_file, "--event", "a0",
                 "--formula", "nu p. [] p", "--json"]
            )
            == 0
        )
        data = json.loads(capsys.readouterr().out)
        assert data["sanity_check"]["match"] is True
        assert data["steps"]
        assert data["output_eps"] >= 1

    def test_plain_output_builds_no_json(self, tmp_path, monkeypatch, capsys):
        three = tmp_path / "three-events.json"
        three.write_text(json.dumps(THREE_EVENTS))
        argv = ["translate", "--events", str(three), "--event", "a0",
                "--formula", print_formula(box_tower(7))]
        assert run(argv) == 0
        expected = capsys.readouterr().out

        def refuse(*args):
            raise AssertionError("JSON built for plain output")

        monkeypatch.setattr(TranslationReport, "to_jsonable", refuse)
        monkeypatch.setattr(cli, "model_to_jsonable", refuse)
        assert run(argv) == 0
        assert capsys.readouterr().out == expected

    def test_simplify_flag(self, events_file, capsys):
        assert (
            run(
                ["translate", "--events", events_file, "--event", "a1",
                 "--formula", "p", "--simplify"]
            )
            == 0
        )
        assert capsys.readouterr().out.strip() == "p"

    def test_unknown_event_exit_2(self, events_file):
        assert (
            run(["translate", "--events", events_file, "--event", "zz", "--formula", "p"])
            == 2
        )

    @pytest.mark.parametrize("command", ["translate", "eval", "eval-world"])
    def test_unknown_event_in_formula_exit_2(self, model_file, events_file, command, capsys):
        # the same class, code and line as an unknown `--event`
        argv = {
            "translate": ["translate", "--events", events_file, "--event", "a0"],
            "eval": ["eval", "--model", model_file, "--events", events_file],
            "eval-world": ["eval", "--model", model_file, "--events", events_file,
                           "--world", "w0"],
        }[command]
        assert run(argv + ["--formula", "<zz> p"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: unknown event 'zz'\n"
        assert captured.out == ""
        assert run(["translate", "--events", events_file, "--event", "zz", "--formula", "p"]) == 2
        assert capsys.readouterr().err == captured.err

    def test_non_base_precondition_exit_1(self, tmp_path, capsys):
        path = tmp_path / "events.json"
        path.write_text(json.dumps({**EVENTS, "pre": {"a0": "<!p> q", "a1": "true"}}))
        assert (
            run(["translate", "--events", str(path), "--event", "a0", "--formula", "p"])
            == 1
        )
        assert capsys.readouterr().err == (
            "error: precondition of event 'a0' is not in the base language\n"
        )

    def test_failed_sanity_check_exit_1(self, events_file, monkeypatch, capsys):
        # `<a1> true` holds everywhere, so a `false` output fails the check
        def wrong(*args, **kwargs):
            return dataclasses.replace(eliminate_all(*args, **kwargs), output=BOTTOM)

        monkeypatch.setattr(cli, "eliminate_all", wrong)
        argv = ["translate", "--events", events_file, "--event", "a1", "--formula", "true"]
        assert run(argv) == 1
        assert capsys.readouterr() == (
            "", "sanity check failed: translation output is not equivalent\n"
        )


class TestBisimCommand:
    def test_verdict_and_relation(self, tmp_path, capsys):
        m1 = tmp_path / "m1.json"
        m1.write_text(json.dumps({"worlds": ["w"], "rel": [["w", "w"]], "val": {"p": ["w"]}}))
        m2 = tmp_path / "m2.json"
        m2.write_text(
            json.dumps(
                {"worlds": ["u", "v"], "rel": [["u", "v"], ["v", "u"]],
                 "val": {"p": ["u", "v"]}}
            )
        )
        assert (
            run(
                ["bisim", "--model1", str(m1), "--world1", "w",
                 "--model2", str(m2), "--world2", "u", "--json"]
            )
            == 0
        )
        data = json.loads(capsys.readouterr().out)
        assert data["bisimilar"] is True
        assert data["pairs"] == [["w", "u"], ["w", "v"]]

    @pytest.mark.parametrize(
        "world2,out",
        [("u", "bisimilar\nw ~ u\nw ~ v\n"), ("x", "not bisimilar\nw ~ u\nw ~ v\n")],
    )
    def test_human_output(self, world2, out, tmp_path, capsys):
        # x has no p, so it is related to nothing
        m1 = tmp_path / "m1.json"
        m1.write_text(json.dumps({"worlds": ["w"], "rel": [["w", "w"]], "val": {"p": ["w"]}}))
        m2 = tmp_path / "m2.json"
        m2.write_text(
            json.dumps(
                {"worlds": ["u", "v", "x"], "rel": [["u", "v"], ["v", "u"]],
                 "val": {"p": ["u", "v"]}}
            )
        )
        argv = ["bisim", "--model1", str(m1), "--world1", "w",
                "--model2", str(m2), "--world2", world2]
        assert run(argv) == 0
        assert capsys.readouterr() == (out, "")

    def test_world_outside_its_model_exit_2(self, model_file, capsys):
        argv = ["bisim", "--model1", model_file, "--world1", "zz",
                "--model2", model_file, "--world2", "w0"]
        assert run(argv) == 2
        assert capsys.readouterr() == ("", "error: --world1: world 'zz' not in its model\n")


FUZZ_HELP = """\
usage: produpd fuzz [-h] [--seed SEED] [--cases CASES]
                    [--max-worlds MAX_WORLDS] [--max-events MAX_EVENTS]
                    [--max-props MAX_PROPS]
                    [--max-formula-size MAX_FORMULA_SIZE] [--max-eps MAX_EPS]
                    [--edge-probability EDGE_PROBABILITY] [--suites SUITES]
                    [--json]

options:
  -h, --help            show this help message and exit
  --seed SEED
  --cases CASES
  --max-worlds MAX_WORLDS
  --max-events MAX_EVENTS
  --max-props MAX_PROPS
  --max-formula-size MAX_FORMULA_SIZE
  --max-eps MAX_EPS
  --edge-probability EDGE_PROBABILITY
  --suites SUITES       comma-separated subset of translation,announcement,nom
                        inals,fixpoint,bisim_lift,degree
  --json
"""


class TestFuzzCommand:
    def test_small_run(self, capsys):
        assert (
            run(
                ["fuzz", "--seed", "42", "--cases", "5", "--suites",
                 "translation,fixpoint", "--json"]
            )
            == 0
        )
        data = json.loads(capsys.readouterr().out)
        assert data["ok"] is True
        assert data["suites"]["translation"]["passed"] == 5
        assert "timing" in data

    def test_human_output(self, capsys):
        assert run(["fuzz", "--seed", "1", "--cases", "3", "--suites", "nominals"]) == 0
        out = capsys.readouterr().out
        assert "suite nominals: 3/3 passed" in out
        assert out.strip().endswith("ok")

    def test_blowup_line(self, capsys):
        argv = ["fuzz", "--seed", "1", "--cases", "3", "--suites", "translation,nominals"]
        assert run(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-2:] == [
            "blowup over 5 translations: size ratio mean 1.8 max 3.667, "
            "output eps mean 0.0 max 0",
            "ok",
        ]

    def test_failing_suite_exit_1(self, capsys, monkeypatch):
        # a wrong rewriter, injected as in `test_harness_failures`
        monkeypatch.setattr(harness, "translate_event", lambda *a, **k: BOTTOM)
        assert run(["fuzz", "--seed", "7", "--cases", "2", "--suites", "translation"]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        lines = captured.out.splitlines()
        assert lines[0].startswith("suite translation: ") and " passed (" in lines[0]
        assert lines[1].startswith("  first failure: {")
        assert lines[-1] == "FAILED"

    def test_help_bytes(self, capsys, monkeypatch):
        # the size flags are read from `FuzzConfig`; the help text is the
        # one the hand-written flags printed
        monkeypatch.setenv("COLUMNS", "80")
        assert run(["fuzz", "--help"]) == 0
        assert capsys.readouterr().out == FUZZ_HELP

    def test_bad_config_exit_2(self, capsys):
        assert run(["fuzz", "--cases", "0"]) == 2

    @pytest.mark.parametrize(
        "suites,message",
        [
            ("", "error: unknown suites: ['']"),
            ("translation,translation", "error: repeated suites: ['translation']"),
        ],
    )
    def test_bad_suites_exit_2(self, suites, message, capsys):
        assert run(["fuzz", "--cases", "1", "--suites", suites]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == message + "\n"


def _indent2(out: str) -> str:
    """What `json.dumps(..., indent=2)` prints for the JSON in `out`."""
    return json.dumps(json.loads(out), indent=2) + "\n"


class TestJsonOutputBytes:
    """Every JSON output (`--json`, and the model files that `product` and
    `announce` print) is `json.dumps(value, indent=2)` byte for byte."""

    @pytest.fixture
    def files(self, model_file, events_file, tmp_path):
        three = tmp_path / "three-events.json"
        three.write_text(json.dumps(THREE_EVENTS))
        return {"model": model_file, "events": events_file, "three": str(three)}

    @pytest.mark.parametrize(
        "argv",
        [
            ["parse", "exists p. (p & <> ~p)", "--json"],
            ["eval", "--model", "{model}", "--formula", "<> p | [] p", "--json"],
            ["eval", "--model", "{model}", "--formula", "<a1> p", "--events",
             "{events}", "--world", "w0", "--json"],
            ["product", "--model", "{model}", "--events", "{events}"],
            ["announce", "--model", "{model}", "--formula", "~p"],
            ["bisim", "--model1", "{model}", "--world1", "w0", "--model2",
             "{model}", "--world2", "w1", "--json"],
            ["fuzz", "--seed", "3", "--cases", "2", "--suites", "translation,degree",
             "--json"],
            ["translate", "--events", "{events}", "--event", "a0", "--formula",
             "nu p. ([] p & <!q> <> p)", "--simplify", "--json"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_subcommand(self, argv, files, capsys):
        assert run([a.format(**files) for a in argv]) == 0
        out = capsys.readouterr().out
        assert out == _indent2(out)

    @pytest.mark.parametrize("event", ["a0", "a1"])
    @pytest.mark.parametrize(
        "make,k",
        [(box_tower, k) for k in range(1, 8)]
        + [(announcement_nest, k) for k in range(1, 5)],
    )
    def test_translate_families(self, make, k, event, files, capsys):
        formula = print_formula(make(k))
        argv = ["translate", "--events", files["three"], "--event", event,
                "--formula", formula, "--json"]
        assert run(argv) == 0
        out = capsys.readouterr().out
        assert out == _indent2(out)

    def test_one_dict_per_distinct_step(self):
        events = parse_event_model(json.dumps(THREE_EVENTS))
        report = eliminate_all(events, ActionDiamond("a0", box_tower(7)))
        steps = report.to_jsonable()["steps"]
        assert len(steps) == len(report.steps) == 1696
        distinct = len({id(s) for s in report.steps})
        assert distinct == 60
        assert len({id(d) for d in steps}) == distinct

    def test_announcement_nest_size(self, tmp_path, capsys):
        # each announced formula is stated once per announcement, not at
        # every clause under it: restating it gave 5,043 nodes and 3,714 steps
        events = tmp_path / "three-events.json"
        events.write_text(json.dumps(THREE_EVENTS))
        argv = ["translate", "--events", str(events), "--event", "a0",
                "--formula", print_formula(announcement_nest(4)), "--json"]
        assert run(argv) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["sanity_check"]["match"] is True
        assert data["output_size"] == 297
        assert len(data["steps"]) == 542


class TestDeepNesting:
    @pytest.mark.parametrize("command", ["parse", "eval", "translate"])
    def test_exit_2_with_one_line(
        self, command, model_file, events_file, tmp_path, capsys
    ):
        deep = tmp_path / "deep.txt"
        deep.write_text("[] " * 10000 + "p")
        argv = {
            "parse": ["parse", f"@{deep}"],
            "eval": ["eval", "--model", model_file, "--formula", f"@{deep}"],
            "translate": [
                "translate", "--events", events_file, "--event", "a0",
                "--formula", f"@{deep}",
            ],
        }[command]
        assert run(argv) == 2
        assert capsys.readouterr().err == "error: formula nested too deeply\n"

    @pytest.mark.parametrize("command", ["eval", "translate"])
    def test_deep_json_is_a_parse_error(self, command, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000)
        argv = {
            "eval": ["eval", "--model", str(deep), "--formula", "p"],
            "translate": [
                "translate", "--events", str(deep), "--event", "a0", "--formula", "p",
            ],
        }[command]
        assert run(argv) == 2
        assert capsys.readouterr().err == "error: invalid JSON: nested too deeply\n"

    def test_eval_400_boxes(self, tmp_path, capsys):
        # the evaluator takes two frames per nesting level (the memo step
        # and the node's handler); a third would overflow before 400
        model = tmp_path / "loop.json"
        model.write_text(json.dumps({**MODEL, "val": {"p": ["w1"]}}))
        deep = tmp_path / "deep.txt"
        deep.write_text("[] " * 400 + "p")
        assert run(["eval", "--model", str(model), "--formula", f"@{deep}"]) == 0
        assert capsys.readouterr().out == "w0 w1\n"

    def test_translate_400_boxes(self, tmp_path, capsys):
        # with precondition true the rewrite folds to its input, one node
        # per level, so the rewrite and the evaluation of its sanity check
        # go as deep as `eval`; unfolded, `true & [] (true -> ...)` took
        # three nodes per level and overflowed above about 165
        events = tmp_path / "one.json"
        events.write_text(json.dumps({"events": ["a0"], "rel": [["a0", "a0"]],
                                      "pre": {"a0": "true"}}))
        deep = tmp_path / "deep.txt"
        deep.write_text("[] " * 400 + "p")
        argv = ["translate", "--events", str(events), "--event", "a0", "--formula", f"@{deep}"]
        assert run(argv) == 0
        assert capsys.readouterr().out == "[] " * 400 + "p\n"


class TestNamesEndingInNewline:
    @pytest.mark.parametrize("command", ["eval", "translate"])
    def test_exit_2_with_one_line(self, command, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        if command == "eval":
            bad.write_text(json.dumps({**MODEL, "val": {"p\n": ["w0"]}}))
            argv = ["eval", "--model", str(bad), "--formula", "p"]
            name = "bad proposition name 'p\\n'"
        else:
            events = {"events": ["a0\n", "a1"], "pre": {"a0\n": "q", "a1": "true"}}
            bad.write_text(json.dumps(events))
            argv = ["translate", "--events", str(bad), "--event", "a1", "--formula", "p"]
            name = "bad event name 'a0\\n'"
        assert run(argv) == 2
        assert capsys.readouterr().err == f"error: {name}\n"


class TestDepthHeadroom:
    """Sharing must not cost recursion depth: interning, the rewriter's
    memo and the printer's text cache add no call frame per nesting level.
    In a fresh process on Python 3.11.7, `parse` accepts 495 nested boxes,
    and `translate --event a0` 165 on `[]^N p` and 123 on `<!q> []^N p`;
    on both routes the printer, two frames per level of the rewritten
    output, sets the limit.  Each pinned depth keeps a margin below it."""

    @pytest.mark.parametrize(
        "route,depth", [("parse", 490), ("translate", 120), ("announce", 100)]
    )
    def test_deep_boxes_exit_0(self, route, depth, events_file, tmp_path):
        deep = tmp_path / "deep.txt"
        deep.write_text(("<!q> " if route == "announce" else "") + "[] " * depth + "p")
        argv = ["translate", "--events", events_file, "--event", "a0", "--formula", f"@{deep}"]
        if route == "parse":
            argv = ["parse", f"@{deep}"]
        # a fresh process, so that the test runner's frames do not count
        src = Path(produpd.__file__).resolve().parent.parent
        done = subprocess.run(
            [sys.executable, "-m", "produpd.cli", *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert done.returncode == 0, done.stderr
        if route == "parse":
            assert done.stdout == "[] " * depth + "p\n"


class TestStandardLibraryOnly:
    def test_runtime_imports_only_the_standard_library(self):
        # an isolated interpreter without site-packages, so that a
        # third-party import fails in the child or shows in its modules
        src = Path(produpd.__file__).resolve().parent.parent
        child = "\n".join([
            "import json, sys",
            f"sys.path.insert(0, {str(src)!r})",
            "from produpd import cli",
            "code = cli.run(['parse', 'exists p. (p & <> ~p)'])",
            "print(json.dumps([code, sorted(sys.modules)]))",
        ])
        done = subprocess.run(
            [sys.executable, "-I", "-S", "-c", child], capture_output=True, text=True
        )
        assert done.returncode == 0, done.stderr
        code, loaded = json.loads(done.stdout.splitlines()[-1])
        assert code == 0
        tops = {name.partition(".")[0] for name in loaded}
        assert "produpd" in tops
        allowed = {"produpd", "__main__", *sys.stdlib_module_names}
        assert sorted(tops - allowed) == []


class TestUndecodableInput:
    @pytest.mark.parametrize("command", ["parse", "eval", "translate"])
    def test_exit_2_with_one_line(
        self, command, model_file, events_file, tmp_path, capsys
    ):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xff\xfe[] p")
        argv = {
            "parse": ["parse", f"@{bad}"],
            "eval": ["eval", "--model", str(bad), "--formula", "p"],
            "translate": [
                "translate", "--events", str(bad), "--event", "a0", "--formula", "p",
            ],
        }[command]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot decode {bad}: ")
        assert err.count("\n") == 1

    def test_stdin(self, monkeypatch, capsys):
        stdin = io.TextIOWrapper(io.BytesIO(b"\xff\xfe[] p"), encoding="utf-8")
        monkeypatch.setattr(sys, "stdin", stdin)
        assert run(["parse", "@-"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot decode <stdin>: ")
        assert err.count("\n") == 1


class TestUsage:
    def test_no_command_exit_2(self):
        assert run([]) == 2

    def test_help_exit_0(self):
        assert run(["--help"]) == 0

    def test_parser_reused_across_runs(self, model_file, events_file, capsys):
        argvs = [
            ["eval", "--model", model_file],
            ["--help"],
            ["translate", "--events", events_file, "--event", "a0", "--formula", "[] p"],
            ["eval", "--model", model_file, "--formula", "<> p"],
            ["translate", "--bogus"],
        ]

        def outcome(argv):
            code = run(argv)
            out = capsys.readouterr()
            return code, out.out, out.err

        fresh = []
        for argv in argvs:
            cli._build_parser.cache_clear()
            fresh.append(outcome(argv))
        assert [code for code, _, _ in fresh] == [2, 0, 0, 0, 2]
        assert [outcome(argv) for argv in argvs] == fresh
