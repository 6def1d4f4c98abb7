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

``IMP003`` — **undefined name** (ruff ``F821``).  A global load that
nothing binds at module level and no builtin supplies: a ``NameError``
waiting for the first call that reaches it.  Scopes come from the
stdlib :mod:`symtable`, exactly as the compiler resolves them; modules
with a star import are skipped.

Unlike the invariant families, these rules scan **every** module the
project was built over (src, benchmarks, scripts, tests, examples) —
hygiene is not sim-scoped.
"""

from __future__ import annotations

import ast
import builtins
import symtable
from typing import Iterable

from repro.analyze.findings import Finding, Severity
from repro.analyze.project import Project
from repro.analyze.registry import rule

UNUSED_IMPORT = "IMP001"
MUTABLE_DEFAULT = "IMP002"
UNDEFINED_NAME = "IMP003"


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


#: Globals every module has without binding them.
_MODULE_GLOBALS = frozenset(dir(builtins)) | {
    "__annotations__", "__builtins__", "__cached__", "__file__", "__path__",
}


def undefined_names(tree: ast.Module, source: str) -> list[tuple[str, str, int]]:
    """``(scope name, name, scope line)`` of loaded globals nothing binds.

    Empty for a module with a star import or one the compiler rejects.
    """
    if any(
        isinstance(node, ast.ImportFrom) and node.names[0].name == "*"
        for node in ast.walk(tree)
    ):
        return []
    try:
        scopes = [symtable.symtable(source, "<module>", "exec")]
    except SyntaxError:
        return []
    for scope in scopes:  # grows while iterated: every nested scope
        scopes.extend(scope.get_children())
    bound = _MODULE_GLOBALS | {
        sym.get_name()
        for scope in scopes
        for sym in scope.get_symbols()
        if (sym.is_assigned() or sym.is_imported())
        and (scope is scopes[0] or sym.is_declared_global())
    }
    return [
        (scope.get_name(), sym.get_name(), scope.get_lineno())
        for scope in scopes
        for sym in scope.get_symbols()
        if sym.is_referenced() and sym.is_global() and sym.get_name() not in bound
    ]


@rule(
    UNDEFINED_NAME,
    title="undefined name (F821)",
    severity=Severity.ERROR,
    description="a global name is loaded that no statement binds",
)
def check_undefined_names(project: Project) -> Iterable[Finding]:
    for mod in project.modules:
        for scope, name, scope_line in undefined_names(mod.tree, mod.source):
            # Report the first use of the name at or after the scope opens.
            line = min(
                (
                    node.lineno
                    for node in ast.walk(mod.tree)
                    if isinstance(node, ast.Name)
                    and node.id == name
                    and node.lineno >= scope_line
                ),
                default=1,
            )
            where = "at module level" if scope == "top" else f"in {scope}()"
            yield Finding(
                path=mod.rel_path,
                line=line,
                rule_id=UNDEFINED_NAME,
                severity=Severity.ERROR,
                message=f"undefined name '{name}' {where}",
                hint="bind the name, import it, or fix the typo",
            )
