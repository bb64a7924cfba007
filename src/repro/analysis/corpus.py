"""Source collection: files parsed once, shared by every rule.

The analyzer parses each file a single time into a :class:`SourceFile`
(AST + suppression comments + inferred module name) and hands the whole
:class:`Corpus` to every rule.  Per-file rules walk one tree at a time;
project rules (registry/signature sync) cross-reference
several modules, which is why the corpus indexes files by module name.

Module names are inferred from the path: everything from the last
``repro`` directory component down (``src/repro/core/kernels.py`` ->
``repro.core.kernels``).  Fixture trees used by the tests reproduce the
same layout under a temporary directory, so inference needs no
installed package.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from repro.analysis.findings import Finding, Severity
from repro.analysis.suppressions import SuppressionSet, parse_suppressions

__all__ = ["SourceFile", "Corpus", "infer_module", "load_corpus"]


def infer_module(path: Path) -> str:
    """Dotted module name for ``path`` (see the module docstring).

    Paths outside any ``repro`` directory fall back to the file stem,
    so ad-hoc single-file lint runs still work (module-scoped rules
    simply do not match them).
    """
    parts = list(path.parts)
    stem = path.stem
    if "repro" in parts[:-1]:
        directories = parts[:-1]
        anchor = len(directories) - 1 - directories[::-1].index("repro")
        packages = parts[anchor:-1]
    else:
        packages = []
    if stem == "__init__":
        return ".".join(packages) if packages else stem
    return ".".join([*packages, stem]) if packages else stem


@dataclass
class SourceFile:
    """One parsed source file plus its lint-relevant metadata."""

    path: Path
    text: str
    module: str
    tree: ast.Module | None
    parse_error: Finding | None
    suppressions: SuppressionSet

    @classmethod
    def from_text(
        cls, path: Path, text: str, *, module: str | None = None
    ) -> "SourceFile":
        """Parse ``text`` as ``path``'s contents (tests inject sources)."""
        if module is None:
            module = infer_module(path)
        tree: ast.Module | None = None
        parse_error: Finding | None = None
        try:
            tree = ast.parse(text, filename=str(path))
        except SyntaxError as exc:
            parse_error = Finding(
                rule="parse-error",
                path=str(path),
                line=exc.lineno or 1,
                col=(exc.offset or 1) - 1,
                message=f"cannot parse: {exc.msg}",
                severity=Severity.ERROR,
            )
        return cls(
            path=path,
            text=text,
            module=module,
            tree=tree,
            parse_error=parse_error,
            suppressions=parse_suppressions(text),
        )

    @classmethod
    def from_path(cls, path: Path) -> "SourceFile":
        return cls.from_text(path, path.read_text(encoding="utf-8"))

    def in_package(self, *prefixes: str) -> bool:
        """Whether this file's module sits under any of ``prefixes``."""
        return any(
            self.module == prefix or self.module.startswith(prefix + ".")
            for prefix in prefixes
        )


@dataclass
class Corpus:
    """Every file of one analysis run, indexed by module name."""

    files: list[SourceFile] = field(default_factory=list)

    def __iter__(self) -> Iterator[SourceFile]:
        return iter(self.files)

    def __len__(self) -> int:
        return len(self.files)

    def by_module(self, module: str) -> SourceFile | None:
        for file in self.files:
            if file.module == module:
                return file
        return None


def _iter_python_files(root: Path) -> Iterator[Path]:
    if root.is_file():
        if root.suffix == ".py":
            yield root
        return
    yield from sorted(root.rglob("*.py"))


def load_corpus(paths: Iterable[Path | str]) -> Corpus:
    """Collect and parse every ``.py`` file under ``paths``.

    Missing paths raise :class:`FileNotFoundError` — a lint run over a
    typo'd path must fail loudly, not exit 0 on an empty corpus.
    """
    corpus = Corpus()
    seen: set[Path] = set()
    for given in paths:
        root = Path(given)
        if not root.exists():
            raise FileNotFoundError(f"lint path does not exist: {given}")
        for path in _iter_python_files(root):
            resolved = path.resolve()
            if resolved in seen:
                continue
            seen.add(resolved)
            corpus.files.append(SourceFile.from_path(path))
    return corpus
