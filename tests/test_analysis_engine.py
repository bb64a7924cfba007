"""Analyzer plumbing: suppression parsing, rule registry, module inference."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.corpus import SourceFile, infer_module, load_corpus
from repro.analysis.findings import Finding, Severity
from repro.analysis.rules import Rule, all_rules, get_rule, register_rule, rule_ids
from repro.analysis.runner import Analyzer, resolve_rules
from repro.analysis.suppressions import parse_suppressions
from repro.errors import ParameterError

EXPECTED_RULES = {
    "rng-discipline",
    "no-column-fancy-gather",
    "registry-signature-sync",
    "version-stamp",
    "lock-discipline",
    "no-mutable-default",
    "unused-import",
    "lazy-scipy",
    "suppression-hygiene",
}


class TestRegistry:
    def test_all_expected_rules_registered(self):
        assert EXPECTED_RULES <= set(rule_ids())

    def test_rules_sorted_and_described(self):
        rules = all_rules()
        assert [rule.id for rule in rules] == sorted(rule.id for rule in rules)
        for rule in rules:
            assert rule.summary
            assert rule.invariant
            assert rule.scope in ("file", "project")

    def test_unknown_rule_raises(self):
        with pytest.raises(ParameterError, match="unknown rule"):
            get_rule("no-such-rule")

    def test_duplicate_registration_raises(self):
        with pytest.raises(ParameterError, match="already registered"):

            @register_rule
            class Duplicate(Rule):
                id = "rng-discipline"
                summary = "dup"
                invariant = "dup"

    def test_select_and_ignore(self):
        selected = resolve_rules(select=["rng-discipline", "version-stamp"])
        assert [rule.id for rule in selected] == [
            "rng-discipline",
            "version-stamp",
        ]
        remaining = resolve_rules(ignore=["rng-discipline"])
        assert "rng-discipline" not in [rule.id for rule in remaining]
        with pytest.raises(ParameterError):
            resolve_rules(select=["nope"])
        with pytest.raises(ParameterError):
            resolve_rules(ignore=["nope"])


class TestSuppressionParsing:
    def test_line_allow_with_reason(self):
        s = parse_suppressions(
            "x = 1  # repro: allow[rng-discipline] -- fixture value\n"
        )
        assert s.is_suppressed("rng-discipline", 1)
        assert not s.is_suppressed("rng-discipline", 2)
        assert not s.is_suppressed("other-rule", 1)

    def test_reasonless_allow_suppresses_nothing(self):
        s = parse_suppressions("x = 1  # repro: allow[rng-discipline]\n")
        assert not s.is_suppressed("rng-discipline", 1)
        assert [sup.rule for sup in s.unreasoned] == ["rng-discipline"]

    def test_file_wide_allow(self):
        s = parse_suppressions(
            "# repro: allow-file[lock-discipline] -- stress fixture\nx = 1\n"
        )
        assert s.is_suppressed("lock-discipline", 99)

    def test_multiple_rules_one_comment(self):
        s = parse_suppressions(
            "y = f()  # repro: allow[rule-a, rule-b] -- both fine here\n"
        )
        assert s.is_suppressed("rule-a", 1)
        assert s.is_suppressed("rule-b", 1)

    def test_string_literal_is_not_a_suppression(self):
        s = parse_suppressions(
            'text = "# repro: allow[rng-discipline] -- not a comment"\n'
        )
        assert s.suppressions == []

    def test_colon_separator_also_accepted(self):
        s = parse_suppressions(
            "x = 1  # repro: allow[rule-a]: reason text\n"
        )
        assert s.is_suppressed("rule-a", 1)


class TestModuleInference:
    @pytest.mark.parametrize(
        ("path", "module"),
        [
            ("src/repro/core/kernels.py", "repro.core.kernels"),
            ("src/repro/api/registry.py", "repro.api.registry"),
            ("src/repro/analysis/__init__.py", "repro.analysis"),
            ("repro/serving/server.py", "repro.serving.server"),
            ("standalone.py", "standalone"),
        ],
    )
    def test_infer_module(self, path, module):
        assert infer_module(Path(path)) == module

    def test_explicit_module_override(self, tmp_path):
        file = SourceFile.from_text(
            tmp_path / "whatever.py", "x = 1\n", module="repro.api.registry"
        )
        assert file.module == "repro.api.registry"
        assert file.in_package("repro.api")


class TestAnalyzer:
    def test_missing_path_raises(self):
        with pytest.raises(FileNotFoundError):
            load_corpus(["/no/such/path/anywhere"])

    def test_findings_sorted_by_location(self, tmp_path):
        (tmp_path / "repro" / "core").mkdir(parents=True)
        (tmp_path / "repro" / "core" / "z.py").write_text(
            "import numpy as np\n"
            "a = np.random.rand(3)\n"
            "b = np.random.rand(3)\n"
        )
        corpus = load_corpus([tmp_path])
        findings = Analyzer(resolve_rules(["rng-discipline"])).run(
            corpus
        ).findings
        assert [f.line for f in findings] == [2, 3]

    def test_severity_gates(self):
        assert Severity.ERROR.gates
        assert not Severity.WARNING.gates
        finding = Finding(
            rule="x", path="p.py", line=3, col=1, message="m"
        )
        assert finding.location == "p.py:3:1"
        assert finding.as_dict()["severity"] == "error"
