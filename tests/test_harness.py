import json

import pytest

from produpd import (
    Atom,
    Bottom,
    LanguageTag,
    Top,
    classify,
    formula_size,
    quantifier_count,
)
from produpd.harness import (
    FuzzConfig,
    _shrink,
    random_event_model,
    random_formula,
    random_model,
    run_fuzz,
    translation_case_inputs,
)
from produpd.semantics import extension
from produpd.syntax import Nu, contains_node


class TestFuzzConfig:
    def test_rejects_zero_cases(self):
        with pytest.raises(ValueError):
            FuzzConfig(seed=0, cases=0)

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            FuzzConfig(seed=0, cases=1, edge_probability=1.5)

    def test_rejects_unknown_suite(self):
        with pytest.raises(ValueError):
            FuzzConfig(seed=0, cases=1, suites=("nope",))

    def test_rejects_bad_seed(self):
        with pytest.raises(ValueError):
            FuzzConfig(seed=-1, cases=1)


class TestGenerators:
    def test_model_determinism(self):
        cfg = FuzzConfig(seed=99, cases=1)
        assert random_model(cfg, 3) == random_model(cfg, 3)
        assert random_event_model(cfg, 3) == random_event_model(cfg, 3)
        assert random_formula(cfg, 3, LanguageTag.BASE_MSO) == random_formula(
            cfg, 3, LanguageTag.BASE_MSO
        )

    def test_single_world(self):
        cfg = FuzzConfig(seed=1, cases=1, max_worlds=1)
        m = random_model(cfg, 0)
        assert len(m.worlds) == 1

    def test_zero_edge_probability(self):
        cfg = FuzzConfig(seed=2, cases=1, edge_probability=0.0)
        for i in range(10):
            assert random_model(cfg, i).relation == frozenset()

    def test_event_model_always_has_top_precondition(self):
        cfg = FuzzConfig(seed=3, cases=1)
        for i in range(20):
            a = random_event_model(cfg, i)
            assert any(isinstance(a.pre[e], Top) for e in a.events)
            for e in a.events:
                assert classify(a.pre[e]) is LanguageTag.BASE_MSO
                assert quantifier_count(a.pre[e]) == 0

    def test_formula_bounds(self):
        cfg = FuzzConfig(seed=4, cases=1)
        for i in range(60):
            phi = random_formula(cfg, i, LanguageTag.BASE_MSO)
            assert formula_size(phi) <= cfg.max_formula_size
            assert quantifier_count(phi) <= cfg.max_eps

    def test_quantifier_free_on_zero_eps(self):
        cfg = FuzzConfig(seed=5, cases=1)
        for i in range(20):
            phi = random_formula(cfg, i, LanguageTag.BASE_MSO, max_eps=0)
            assert quantifier_count(phi) == 0

    def test_mu_formulas_classify(self):
        cfg = FuzzConfig(seed=6, cases=1)
        for i in range(40):
            phi = random_formula(cfg, i, LanguageTag.MU_FRAGMENT)
            assert contains_node(phi, Nu)
            assert classify(phi) is LanguageTag.MU_FRAGMENT

    def test_nominal_indices_bounded(self):
        cfg = FuzzConfig(seed=7, cases=1)
        for i in range(30):
            m, a, psi = translation_case_inputs(cfg, i)
            from produpd.syntax import Nominal, children

            def indices(f):
                if isinstance(f, Nominal):
                    yield f.index
                for c in children(f):
                    yield from indices(c)

            assert all(ix < len(a.events) for ix in indices(psi))


class TestRunFuzz:
    def test_report_is_pure_function_of_config(self):
        cfg = FuzzConfig(seed=10, cases=15)
        a = run_fuzz(cfg)
        b = run_fuzz(cfg)
        assert a.payload() == b.payload()
        assert json.dumps(a.payload()) == json.dumps(b.payload())

    def test_pinned_tiny_case_passes(self):
        cfg = FuzzConfig(seed=42, cases=1, suites=("translation",))
        report = run_fuzz(cfg)
        assert report.ok
        assert report.suites["translation"]["passed"] == 1

    def test_suite_selection(self):
        cfg = FuzzConfig(seed=11, cases=2, suites=("fixpoint", "nominals"))
        report = run_fuzz(cfg)
        assert set(report.suites) == {"fixpoint", "nominals"}

    def test_blowup_statistics_present(self):
        cfg = FuzzConfig(seed=12, cases=10, suites=("translation",))
        report = run_fuzz(cfg)
        assert report.blowup is not None
        assert report.blowup["translations"] >= 10
        assert report.blowup["max_size_ratio"] >= report.blowup["mean_size_ratio"]

    def test_timing_not_in_payload(self):
        cfg = FuzzConfig(seed=13, cases=2, suites=("fixpoint",))
        report = run_fuzz(cfg)
        assert "timing" not in report.payload()
        out = report.to_jsonable()
        assert out.pop("timing") is report.timing
        assert out == report.payload()


class TestShrinking:
    def test_shrinks_to_local_minimum(self):
        cfg = FuzzConfig(seed=20, cases=1)
        m = random_model(cfg, 0, max_worlds=4)
        phi = random_formula(cfg, 0, LanguageTag.BASE_MSO)

        # injected bogus invariant: "p holds nowhere"; a minimal failing
        # case keeps one p-world and the atom p
        def recheck(m2, phi2):
            return not extension(m2, Atom("p")) or not contains_node(phi2, Atom)

        if recheck(m, Atom("p")):
            m = m.__class__(("w0",), frozenset(), {"p": frozenset({"w0"})})
        sm, sphi = _shrink(recheck, m, Atom("p"))
        assert not recheck(sm, sphi), "shrunk case must still fail"
        assert len(sm.worlds) == 1

    def test_shrunk_formula_is_minimal(self):
        from produpd import KripkeModel

        m = KripkeModel(("w0",), frozenset(), {"p": frozenset({"w0"})})
        big = random_formula(FuzzConfig(seed=21, cases=1), 0, LanguageTag.BASE_MSO)

        def recheck(m2, phi2):
            return not contains_node(phi2, Atom)

        _, sphi = _shrink(recheck, m, big)
        assert contains_node(sphi, Atom)
        # every single further constant replacement makes it pass
        from produpd.syntax import (
            Top as TopNode,
            replace_subformula,
            subformula_at,
            subformula_positions,
        )

        for pos in subformula_positions(sphi):
            if isinstance(subformula_at(sphi, pos), (TopNode, Bottom)):
                continue
            for const in (TopNode(), Bottom()):
                candidate = replace_subformula(sphi, pos, const)
                if candidate != sphi:
                    assert recheck(m, candidate)

    def test_failure_record_shrinks(self):
        # every suite passes on real inputs; the failure records and their
        # shrinks are pinned with injected faults in test_harness_failures
        cfg = FuzzConfig(seed=22, cases=3)
        report = run_fuzz(cfg)
        assert report.ok
        for suite in report.suites.values():
            assert suite["first_failure"] is None
