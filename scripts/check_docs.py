#!/usr/bin/env python
"""Offline documentation gate.

Three checks, all dependency-free so they run in CI and offline
environments alike (``tests/test_docs.py`` wires them into the tier-1
suite):

1. **Module docstrings** — every module under ``src/repro/`` must open
   with a docstring (the modules are the API reference; an
   undocumented module is a dead end for readers).
2. **No dead docstring paths** — every ``benchmarks/``, ``tests/``,
   ``scripts/`` or ``docs/`` path that a module, class or function
   docstring under ``src/repro/`` names in double backticks must exist
   (a pytest node id is checked up to its ``::``).
3. **No dead doc paths** — every repository path referenced from
   ``README.md`` and ``docs/*.md`` must exist.  References are
   harvested from markdown link targets, inline code spans and fenced
   code blocks; a token counts as a repository path when it lives
   under a known top-level directory (``src/``, ``docs/``, ``tests/``,
   ``benchmarks/``, ``examples/``, ``scripts/``, ``perfbench/``,
   ``.github/``) or is a root-level file name with a
   documentation-ish extension.  Glob patterns (e.g.
   ``BENCH_*.json``) pass when they match at least one file.  Literal
   (non-glob) ``.gitignore`` entries also pass: they name *generated*
   artifacts (coverage reports, build outputs) that the docs may
   legitimately describe even though a fresh checkout does not
   contain them.

Usage: python scripts/check_docs.py   (from anywhere; paths resolve
against the repository root).
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Directories whose prefixed tokens are treated as repository paths.
PATH_ROOTS = (
    "src", "docs", "tests", "benchmarks", "examples", "scripts", "perfbench",
    ".github",
)

#: Extensions a bare root-level file reference may have.
ROOT_FILE_EXTENSIONS = (".md", ".json", ".toml", ".py", ".yml", ".cfg", ".txt")

#: Markdown files whose path references are verified.
DOC_FILES = ("README.md", "docs")

#: Directories whose double-backticked paths in ``src/`` docstrings
#: are verified.
DOCSTRING_PATH_ROOTS = ("benchmarks", "tests", "scripts", "docs")

_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_CODE_SPAN_RE = re.compile(r"`([^`\n]+)`")
_FENCE_RE = re.compile(r"```.*?\n(.*?)```", re.DOTALL)
_TOKEN_RE = re.compile(r"^[\w.*/-]+$")
_DOCSTRING_PATH_RE = re.compile(r"``([^`\s]+)``")
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _display(path: Path) -> str:
    """``path`` relative to the repository root when it lies inside."""
    if path.is_relative_to(REPO_ROOT):
        return str(path.relative_to(REPO_ROOT))
    return str(path)


def check_module_docstrings(src_root: Path) -> list[str]:
    """Every module under ``src_root`` must have a module docstring."""
    messages = []
    for path in sorted(src_root.rglob("*.py")):
        try:
            tree = ast.parse(path.read_text(), filename=str(path))
        except SyntaxError as exc:  # pragma: no cover - tree must parse
            messages.append(f"{_display(path)}: syntax error: {exc.msg}")
            continue
        if ast.get_docstring(tree) is None:
            messages.append(f"{_display(path)}:1: missing module docstring")
    return messages


def check_docstring_paths(src_root: Path) -> list[str]:
    """Every repository path a docstring under ``src_root`` names in
    double backticks (under :data:`DOCSTRING_PATH_ROOTS`) must exist."""
    messages = []
    for path in sorted(src_root.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, _DOCUMENTED):
                continue
            doc = ast.get_docstring(node, clean=False)
            if doc is None:
                continue
            for match in _DOCSTRING_PATH_RE.finditer(doc):
                token = match.group(1).split("::", 1)[0]
                if token.split("/", 1)[0] not in DOCSTRING_PATH_ROOTS:
                    continue
                if not (REPO_ROOT / token).exists():
                    line = node.body[0].lineno + doc.count("\n", 0, match.start())
                    messages.append(f"{_display(path)}:{line}: dead path '{token}'")
    return messages


def _looks_like_path(token: str) -> bool:
    token = token.strip()
    if not token or not _TOKEN_RE.match(token):
        return False
    if "/" in token:
        head = token.split("/", 1)[0]
        return head in PATH_ROOTS
    return token.endswith(ROOT_FILE_EXTENSIONS)


def _generated_artifacts() -> frozenset[str]:
    """Literal (non-glob) ``.gitignore`` entries.

    These name generated artifacts — coverage reports, build outputs —
    that the docs may describe even though a fresh checkout does not
    contain them.  Patterns, comments and negations are skipped: only
    an exactly-named artifact vouches for a doc reference.
    """
    path = REPO_ROOT / ".gitignore"
    if not path.exists():
        return frozenset()
    names = set()
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line or line.startswith(("#", "!")):
            continue
        if any(ch in line for ch in "*?["):
            continue
        names.add(line.strip("/"))
    return frozenset(names)


def _exists(token: str, doc_dir: Path) -> bool:
    """Resolve a referenced path.

    Tokens with a directory component resolve against the repo root
    (with the doc's own directory as fallback, so relative markdown
    links between docs work).  Bare file names — ``camera.py`` named
    inside a table row about its package — may live anywhere in the
    tree.  Glob patterns pass when they match at least one file, and
    known generated artifacts (see :func:`_generated_artifacts`) pass
    by name.
    """
    token = token.rstrip("/")
    if "/" in token:
        if "*" in token:
            found = any(REPO_ROOT.glob(token)) or any(doc_dir.glob(token))
        else:
            found = (REPO_ROOT / token).exists() or (doc_dir / token).exists()
    elif "*" in token:
        found = any(REPO_ROOT.rglob(token))
    else:
        found = (
            (REPO_ROOT / token).exists()
            or (doc_dir / token).exists()
            or any(REPO_ROOT.rglob(token))
        )
    if found:
        return True
    generated = _generated_artifacts()
    return token in generated or token.rsplit("/", 1)[-1] in generated


def referenced_paths(text: str) -> set[str]:
    """Repository-path tokens referenced by one markdown document."""
    tokens: set[str] = set()
    for match in _LINK_RE.finditer(text):
        target = match.group(1)
        if target.startswith(("http://", "https://", "#", "mailto:")):
            continue
        tokens.add(target.split("#", 1)[0])
    for regex in (_CODE_SPAN_RE, _FENCE_RE):
        for match in regex.finditer(text):
            for word in match.group(1).split():
                tokens.add(word.strip(",;:()'\""))
    return {t for t in tokens if _looks_like_path(t)}


def check_doc_paths(doc_files: list[Path]) -> list[str]:
    """Every repository path referenced in the docs must exist."""
    messages = []
    for doc in doc_files:
        text = doc.read_text()
        for token in sorted(referenced_paths(text)):
            if not _exists(token, doc.parent):
                messages.append(
                    f"{doc.relative_to(REPO_ROOT)}: dead path '{token}'"
                )
    return messages


def collect_doc_files() -> list[Path]:
    files = []
    for entry in DOC_FILES:
        path = REPO_ROOT / entry
        if path.is_dir():
            files.extend(sorted(path.rglob("*.md")))
        elif path.exists():
            files.append(path)
    return files


def main() -> int:
    src_root = REPO_ROOT / "src" / "repro"
    failures = check_module_docstrings(src_root)
    failures += check_docstring_paths(src_root)
    failures += check_doc_paths(collect_doc_files())
    for message in failures:
        print(message)
    if failures:
        print(f"{len(failures)} documentation error(s)")
        return 1
    n_docs = len(collect_doc_files())
    print(
        "docs OK: all modules docstringed, no dead paths in src/ "
        f"docstrings or {n_docs} doc file(s)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
