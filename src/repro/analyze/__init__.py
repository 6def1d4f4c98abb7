"""Invariant static analysis for the serving stack.

The repository's correctness story rests on three invariants that used
to be enforced only by hand-written tests and reviewer vigilance:

1. **Determinism** — simulated physics must be a pure function of its
   seeds: chaos and golden replays assert byte-identity, which a single
   unseeded RNG call or wall-clock read silently breaks.
2. **Checkpoint completeness** — every piece of mutable session state
   must round-trip through its export/import (capture/restore) pair;
   PRs 4, 6 and 7 each had to retrofit a forgotten field.
3. **Shared-state discipline** — objects shared across worker
   executors (interned :class:`~repro.scenes.catalog.SceneBundle`\\ s,
   content-cache :class:`~repro.stream.content_cache.CachedFrame`\\ s)
   must never be mutated in place after construction.

This package machine-checks all three (plus the import-hygiene lints,
the offline mirror of ruff) as a dependency-free AST/dataflow
framework:

* :mod:`repro.analyze.findings` — the :class:`Finding` record every
  rule emits (rule id, severity, file:line, message, fix hint);
* :mod:`repro.analyze.project` — the parsed module graph the rules
  walk (one AST per file, import edges, sim-path classification,
  inline-suppression table);
* :mod:`repro.analyze.registry` — the rule-plugin registry
  (:func:`rule` decorator, :func:`all_rules`);
* :mod:`repro.analyze.baseline` — the committed baseline/suppression
  file (per-entry justifications; new findings fail, baselined ones
  report);
* :mod:`repro.analyze.engine` — orchestration: build the project, run
  the rules, apply inline suppressions and the baseline, produce an
  :class:`~repro.analyze.engine.AnalysisReport`;
* ``rules_determinism`` / ``rules_checkpoint`` / ``rules_shared`` /
  ``rules_imports`` — the shipped rule families (importing them
  registers their rules).

Entry point: ``scripts/analyze.py`` (human table or ``--json``; exits
non-zero on new findings).  Rule catalog and suppression syntax:
``docs/static-analysis.md``.
"""

from repro.analyze.baseline import Baseline, BaselineEntry
from repro.analyze.engine import AnalysisReport, run_analysis
from repro.analyze.findings import Finding, Severity
from repro.analyze.project import ModuleInfo, Project
from repro.analyze.registry import Rule, all_rules, get_rule, rule

# Importing the rule modules registers their rules with the registry;
# they are re-exported so callers can reference rule ids (e.g.
# ``rules_determinism.UNSEEDED_RNG``) without knowing module layout.
from repro.analyze import rules_determinism  # noqa: E402
from repro.analyze import rules_checkpoint  # noqa: E402
from repro.analyze import rules_shared  # noqa: E402
from repro.analyze import rules_imports  # noqa: E402

__all__ = [
    "AnalysisReport",
    "Baseline",
    "BaselineEntry",
    "Finding",
    "ModuleInfo",
    "Project",
    "Rule",
    "Severity",
    "all_rules",
    "get_rule",
    "rule",
    "run_analysis",
    "rules_determinism",
    "rules_checkpoint",
    "rules_shared",
    "rules_imports",
]
