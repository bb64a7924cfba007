"""Import hygiene: names a module imports and never uses, and scipy
imported where only BePI should pay for it.

CI's blocking ``ruff`` step reports these as F401, but ruff is not
installed in every environment the code is edited in; this rule makes
``repro-ppr lint`` catch them too, so the gate is reproducible locally.
It follows pyflakes' definition: an import binds a name, and the name
is used when it is read anywhere in the module — as an expression, in
an annotation (quoted annotations included), or by being re-exported
through ``__all__``.  ``__init__.py`` files are skipped (their imports
*are* the package's public surface), as are ``from __future__``
imports and lines carrying ruff's own ``# noqa`` / ``# noqa: F401``.

``lazy-scipy`` keeps ``import repro`` free of scipy: only
:mod:`repro.bepi` (BePI and SlashBurn) imports it at module level.
Everything else that needs scipy imports it inside the function that
uses it, so a process that never runs BePI never loads it.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable, Iterator

from repro.analysis.corpus import SourceFile
from repro.analysis.findings import Finding
from repro.analysis.rules import Rule, dotted_name, register_rule

_NOQA_RE = re.compile(r"#\s*noqa(?::\s*(?P<codes>[A-Z0-9, ]+))?", re.IGNORECASE)


def _bound_names(node: ast.Import | ast.ImportFrom) -> Iterator[tuple[str, str]]:
    """``(bound name, what it imports)`` for each alias of ``node``."""
    for alias in node.names:
        if alias.name == "*":
            continue
        if isinstance(node, ast.Import):
            # ``import a.b`` binds ``a``; ``import a.b as c`` binds ``c``.
            yield alias.asname or alias.name.split(".")[0], alias.name
        else:
            yield alias.asname or alias.name, f"{node.module or '.'}.{alias.name}"


def _names_read(tree: ast.Module) -> set[str]:
    """Every identifier the module reads, quoted annotations included."""
    read: set[str] = set()
    quoted: list[str] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            quoted.extend(_string_constants(node.annotation))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                quoted.extend(_string_constants(node.returns))
        elif isinstance(node, ast.AnnAssign):
            quoted.extend(_string_constants(node.annotation))
    for text in quoted:
        try:
            annotation = ast.parse(text, mode="eval")
        except SyntaxError:
            continue
        read.update(
            node.id for node in ast.walk(annotation) if isinstance(node, ast.Name)
        )
    return read


def _string_constants(node: ast.expr) -> Iterator[str]:
    for child in ast.walk(node):
        if isinstance(child, ast.Constant) and isinstance(child.value, str):
            yield child.value


def _exported(tree: ast.Module) -> set[str]:
    """String entries of every module-level ``__all__`` assignment."""
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in targets
            ) and node.value is not None:
                names.update(_string_constants(node.value))
    return names


@register_rule
class UnusedImportRule(Rule):
    id = "unused-import"
    summary = "no imported name goes unused (pyflakes/ruff F401)"
    invariant = (
        "Every import is read somewhere in its module or re-exported "
        "through __all__, so the import graph says what a module needs "
        "and a removed dependency cannot linger as a dead import."
    )

    def check_file(self, file: SourceFile) -> Iterable[Finding]:
        if file.path.name == "__init__.py":
            return
        assert file.tree is not None
        used = _names_read(file.tree) | _exported(file.tree)
        lines = file.text.splitlines()
        for node in ast.walk(file.tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if self._noqa(lines, node):
                continue
            for bound, target in _bound_names(node):
                if bound not in used:
                    yield self.finding(
                        file,
                        node,
                        f"{target!r} imported as {bound!r} but never used; "
                        f"remove the import (or list it in __all__ if it is "
                        f"a re-export)",
                    )

    @staticmethod
    def _noqa(lines: list[str], node: ast.Import | ast.ImportFrom) -> bool:
        """Whether the statement's first line opts out the way ruff reads it."""
        match = _NOQA_RE.search(lines[node.lineno - 1])
        if match is None:
            return False
        codes = match.group("codes")
        return codes is None or "F401" in codes.upper()


def _module_level_imports(
    nodes: Iterable[ast.AST],
) -> Iterator[ast.Import | ast.ImportFrom]:
    """The imports under ``nodes`` that run when the module is imported.

    Function bodies run later and ``if TYPE_CHECKING:`` bodies never;
    class bodies and every other compound statement run at import time.
    """
    for node in nodes:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        elif isinstance(node, ast.If) and dotted_name(node.test) in (
            "TYPE_CHECKING",
            "typing.TYPE_CHECKING",
        ):
            yield from _module_level_imports(node.orelse)
        else:
            yield from _module_level_imports(ast.iter_child_nodes(node))


def _imported_modules(
    node: ast.Import | ast.ImportFrom, file: SourceFile
) -> Iterator[str]:
    """Every module ``node`` may load, relative imports resolved."""
    if isinstance(node, ast.Import):
        yield from (alias.name for alias in node.names)
        return
    base = node.module or ""
    if node.level:
        package = file.module.split(".")
        if file.path.name != "__init__.py":
            package = package[:-1]
        base = ".".join(filter(None, [*package[: len(package) - node.level + 1], base]))
    yield base
    # ``from repro import bepi`` loads the subpackage ``repro.bepi``.
    yield from (f"{base}.{alias.name}" for alias in node.names)


def _loads_scipy(module: str) -> bool:
    """Whether importing ``module`` loads scipy: scipy or :mod:`repro.bepi`."""
    return any(
        module == root or module.startswith(root + ".")
        for root in ("scipy", "repro.bepi")
    )


@register_rule
class LazyScipyRule(Rule):
    id = "lazy-scipy"
    summary = "scipy (and repro.bepi) imported at module level only in repro.bepi"
    invariant = (
        "Only BePI and SlashBurn need scipy, so only repro.bepi imports it "
        "when loaded; any other module imports scipy or repro.bepi inside "
        "the function that uses it, and `import repro` loads no scipy module."
    )

    def check_file(self, file: SourceFile) -> Iterable[Finding]:
        if not (file.module + ".").startswith("repro.") or _loads_scipy(file.module):
            return
        assert file.tree is not None
        for node in _module_level_imports(file.tree.body):
            loaded = next(filter(_loads_scipy, _imported_modules(node, file)), None)
            if loaded is not None:
                yield self.finding(
                    file,
                    node,
                    f"module-level import of {loaded!r} loads scipy whenever "
                    f"{file.module} is imported; import it inside the "
                    f"function that uses it",
                )
