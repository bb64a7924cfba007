"""Durability rules: atomic-write and fsync discipline.

The durability layer's guarantees are only as strong as their weakest
writer: one ``path.write_text(...)`` of a manifest can leave a torn
JSON file after a crash, and a WAL append that skips ``os.fsync``
acknowledges updates the disk never saw.  Both hazards are structural
— the code still works on every run that doesn't crash — so they live
here as lint rules rather than tests.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.corpus import SourceFile
from repro.analysis.findings import Finding
from repro.analysis.rules import Rule, dotted_name, register_rule

#: Packages whose modules persist artefacts and must therefore route
#: every file write through :mod:`repro.durability.atomic`.
_PERSISTENCE_PACKAGES = (
    "repro.api",
    "repro.serving",
    "repro.durability",
)

#: The one module allowed to touch files directly — it *implements*
#: the sanctioned write path.
_SANCTIONED_MODULE = "repro.durability.atomic"

#: Method names that perform a whole-file write when called on a path.
_RAW_WRITERS = frozenset({"write_text", "write_bytes"})


@register_rule
class DurabilityDisciplineRule(Rule):
    id = "durability-discipline"
    summary = (
        "persistent artefacts go through repro.durability.atomic; "
        "WAL appends fsync before returning"
    )
    invariant = (
        "Modules in repro.api / repro.serving / "
        "repro.durability never call path.write_text, "
        "path.write_bytes, or json.dump directly — a crash mid-write "
        "leaves a torn artefact that atomic_write_* is designed to "
        "make impossible — and every append method of a WAL class "
        "reaches os.fsync so no acknowledged record can predate its "
        "own durability."
    )

    def check_file(self, file: SourceFile) -> Iterable[Finding]:
        if not file.in_package(*_PERSISTENCE_PACKAGES):
            return
        if file.module == _SANCTIONED_MODULE:
            return
        assert file.tree is not None
        yield from self._raw_write_findings(file)
        yield from self._wal_fsync_findings(file)

    # -- raw whole-file writes -----------------------------------------
    def _raw_write_findings(self, file: SourceFile) -> Iterable[Finding]:
        assert file.tree is not None
        for node in ast.walk(file.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            if func.attr in _RAW_WRITERS:
                yield self.finding(
                    file,
                    node,
                    f"direct .{func.attr}() in a persistence-bearing "
                    f"module: a crash mid-write leaves a torn file; "
                    f"use repro.durability.atomic.atomic_write_*",
                )
            elif func.attr == "dump" and dotted_name(func) == "json.dump":
                yield self.finding(
                    file,
                    node,
                    "json.dump() writes incrementally and tears on "
                    "crash; use repro.durability.atomic."
                    "atomic_write_json",
                )

    # -- WAL append fsync reachability ---------------------------------
    def _wal_fsync_findings(self, file: SourceFile) -> Iterable[Finding]:
        if not file.in_package("repro.durability"):
            return
        assert file.tree is not None
        for node in ast.walk(file.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if "Log" not in node.name:
                continue
            for item in node.body:
                if not isinstance(item, ast.FunctionDef):
                    continue
                if not item.name.startswith("append"):
                    continue
                if not self._calls_fsync(item):
                    yield self.finding(
                        file,
                        item,
                        f"{node.name}.{item.name} never reaches "
                        f"os.fsync: records could be acknowledged "
                        f"before they are durable",
                    )

    @staticmethod
    def _calls_fsync(func: ast.FunctionDef) -> bool:
        for node in ast.walk(func):
            if isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if name is not None and name.split(".")[-1] == "fsync":
                    return True
        return False
