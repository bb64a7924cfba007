"""CLI surfaces of the checker: ``repro-ppr lint`` and ``python -m``.

The idempotence test — linting the project's own ``src/repro`` exits 0
— is the same gate CI runs; a rule change that flags the shipped tree
must either fix the tree or carry a reasoned allow.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from repro.analysis.reporters import JSON_SCHEMA_VERSION
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_REPRO = REPO_ROOT / "src" / "repro"


def write_flagged_fixture(tmp_path: Path) -> Path:
    path = tmp_path / "repro" / "core" / "sampler.py"
    path.parent.mkdir(parents=True)
    path.write_text(
        "import numpy as np\n\n"
        "def draw(n):\n"
        "    return np.random.rand(n)\n"
    )
    return path


def test_lint_own_tree_is_clean(capsys):
    assert main(["lint", str(SRC_REPRO)]) == 0
    out = capsys.readouterr().out
    assert "no findings" in out


def test_lint_flagged_fixture_exits_nonzero_with_location(tmp_path, capsys):
    path = write_flagged_fixture(tmp_path)
    assert main(["lint", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert f"{path}:4:" in out
    assert "rng-discipline" in out


def test_lint_json_schema(tmp_path, capsys):
    write_flagged_fixture(tmp_path)
    assert main(["lint", "--format", "json", str(tmp_path)]) == 1
    document = json.loads(capsys.readouterr().out)
    assert document["version"] == JSON_SCHEMA_VERSION
    assert document["tool"] == "repro-analysis"
    assert document["checked_files"] == 1
    assert {rule["id"] for rule in document["rules"]} >= {
        "rng-discipline",
        "registry-signature-sync",
    }
    (finding,) = document["findings"]
    assert finding["rule"] == "rng-discipline"
    assert finding["line"] == 4
    assert finding["severity"] == "error"
    assert document["summary"]["total"] == 1
    assert document["summary"]["gating"] == 1
    assert document["summary"]["by_rule"] == {"rng-discipline": 1}


def test_lint_select_restricts_rules(tmp_path, capsys):
    write_flagged_fixture(tmp_path)
    assert main(
        ["lint", "--select", "version-stamp", str(tmp_path)]
    ) == 0
    capsys.readouterr()


def test_lint_list_rules(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in (
        "rng-discipline",
        "registry-signature-sync",
        "version-stamp",
        "lock-discipline",
        "no-mutable-default",
        "no-column-fancy-gather",
        "suppression-hygiene",
    ):
        assert rule_id in out


def test_lint_unknown_rule_exits_2(capsys):
    assert main(["lint", "--select", "no-such-rule", str(SRC_REPRO)]) == 2
    assert "unknown rule" in capsys.readouterr().err


def test_lint_missing_path_exits_2(capsys):
    assert main(["lint", "/no/such/dir"]) == 2
    assert "does not exist" in capsys.readouterr().err


def test_python_dash_m_entry_point(tmp_path):
    write_flagged_fixture(tmp_path)
    flagged = subprocess.run(
        [sys.executable, "-m", "repro.analysis", str(tmp_path)],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert flagged.returncode == 1
    assert "rng-discipline" in flagged.stdout
    clean = subprocess.run(
        [sys.executable, "-m", "repro.analysis", str(SRC_REPRO)],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert clean.returncode == 0
