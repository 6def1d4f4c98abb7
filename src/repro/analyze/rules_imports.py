"""Import/definition hygiene lints (IMP0xx).

The offline mirror of the ruff gate, folded into the analysis
framework (``tests/analyze/test_self_check.py`` runs them over the
live tree in the tier-1 suite):

``IMP001`` — **unused import** (ruff ``F401``).  A name bound by an
``import``/``from … import`` statement that is never loaded in the
module and not re-exported through ``__all__``.

``IMP002`` — **mutable default argument** (ruff/bugbear ``B006``).  A
list/dict/set display (or bare ``list()``/``dict()``/``set()``/
``bytearray()`` call) as a parameter default is shared across *every*
call of the function — the classic aliasing trap.  ``ruff.toml``
selects ``B006`` for environments with ruff installed; this native
rule keeps the check alive offline.

Unlike the invariant families, these rules scan **every** module the
project was built over (src, benchmarks, scripts, tests, examples) —
hygiene is not sim-scoped.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analyze.findings import Finding, Severity
from repro.analyze.project import Project
from repro.analyze.registry import rule

UNUSED_IMPORT = "IMP001"
MUTABLE_DEFAULT = "IMP002"


def _imported_names(node: ast.Import | ast.ImportFrom) -> list[tuple[str, str]]:
    """(bound name, display name) pairs introduced by an import node."""
    names = []
    for alias in node.names:
        if alias.name == "*":
            continue
        if alias.asname:
            names.append((alias.asname, alias.name))
        else:
            # "import a.b" binds "a"; "from m import x" binds "x".
            names.append((alias.name.split(".")[0], alias.name))
    return names


def unused_imports(tree: ast.Module) -> list[tuple[int, str, str]]:
    """``(line, bound name, display name)`` of unused imports in ``tree``.

    Mirrors ruff's ``F401`` semantics: ``__future__`` imports are
    exempt, and names re-exported as strings in ``__all__`` count as
    used.
    """
    imports: dict[str, tuple[int, str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for bound, display in _imported_names(node):
                imports[bound] = (node.lineno, display)

    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
            if "__all__" in targets and isinstance(
                node.value, (ast.List, ast.Tuple)
            ):
                for elt in node.value.elts:
                    if isinstance(elt, ast.Constant) and isinstance(
                        elt.value, str
                    ):
                        used.add(elt.value)

    return sorted(
        (lineno, bound, display)
        for bound, (lineno, display) in imports.items()
        if bound not in used
    )


@rule(
    UNUSED_IMPORT,
    title="unused import (F401)",
    severity=Severity.ERROR,
    description="an imported name is never used nor re-exported",
)
def check_unused_imports(project: Project) -> Iterable[Finding]:
    for mod in project.modules:
        for lineno, _bound, display in unused_imports(mod.tree):
            yield Finding(
                path=mod.rel_path,
                line=lineno,
                rule_id=UNUSED_IMPORT,
                severity=Severity.ERROR,
                message=f"'{display}' imported but unused",
                hint="delete the import (or re-export via __all__)",
            )


#: Calls that build a fresh mutable container.
_MUTABLE_CALLS = frozenset({"list", "dict", "set", "bytearray"})


def _is_mutable_default(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in _MUTABLE_CALLS
    )


@rule(
    MUTABLE_DEFAULT,
    title="mutable default argument (B006)",
    severity=Severity.ERROR,
    description=(
        "a list/dict/set default is created once and shared across "
        "every call of the function"
    ),
)
def check_mutable_defaults(project: Project) -> Iterable[Finding]:
    for mod in project.modules:
        for fn in (
            n
            for n in ast.walk(mod.tree)
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        ):
            defaults = list(fn.args.defaults) + [
                d for d in fn.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if _is_mutable_default(default):
                    yield Finding(
                        path=mod.rel_path,
                        line=default.lineno,
                        rule_id=MUTABLE_DEFAULT,
                        severity=Severity.ERROR,
                        message=(
                            f"mutable default argument in {fn.name}()"
                        ),
                        hint="default to None and create inside the body",
                    )
