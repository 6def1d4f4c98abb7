"""Analysis orchestration: project -> rules -> report.

:func:`run_analysis` is the one entry point both the CLI
(``scripts/analyze.py``) and the self-check test
(``tests/analyze/test_self_check.py``) call: build (or accept) a
:class:`~repro.analyze.project.Project`, run the selected rules,
drop inline-suppressed findings, partition the rest against the
baseline, and return an :class:`AnalysisReport`.

The gate contract lives in :meth:`AnalysisReport.ok`: an analysis
passes iff there are **no new findings** — baselined and
inline-suppressed findings are reported (and counted) but do not
fail, and *stale* baseline entries are surfaced so the baseline can
only shrink.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.analyze.baseline import Baseline, BaselineEntry
from repro.analyze.findings import Finding
from repro.analyze.project import Project
from repro.analyze.registry import Rule, all_rules

#: Default scan roots, repository-relative.  The hygiene rules look at
#: everything; invariant rules self-restrict to sim-scoped modules
#: (``repro.*``).
DEFAULT_PATHS = ("src", "benchmarks", "scripts", "tests", "examples")


@dataclass
class AnalysisReport:
    """Outcome of one analysis run.

    ``new`` findings break the gate; ``baselined`` ones matched a
    justified baseline entry; ``suppressed`` were allowed inline at
    the source line; ``stale_entries`` are baseline entries that no
    longer match any finding (fix committed — delete the entry).
    """

    rules: list[Rule]
    new: list[Finding] = field(default_factory=list)
    baselined: list[Finding] = field(default_factory=list)
    suppressed: list[Finding] = field(default_factory=list)
    stale_entries: list[BaselineEntry] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.new

    @property
    def all_findings(self) -> list[Finding]:
        """Every finding the rules emitted, suppressed or not."""
        return sorted(self.new + self.baselined + self.suppressed)

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "rules": [r.rule_id for r in self.rules],
            "counts": {
                "new": len(self.new),
                "baselined": len(self.baselined),
                "suppressed": len(self.suppressed),
                "stale_baseline_entries": len(self.stale_entries),
            },
            "new": [f.to_dict() for f in sorted(self.new)],
            "baselined": [f.to_dict() for f in sorted(self.baselined)],
            "suppressed": [f.to_dict() for f in sorted(self.suppressed)],
            "stale_baseline_entries": [
                e.to_dict() for e in self.stale_entries
            ],
        }


def run_analysis(
    project: Project | None = None,
    *,
    root: Path | None = None,
    paths: list[str] | None = None,
    rules: list[Rule] | None = None,
    baseline: Baseline | None = None,
) -> AnalysisReport:
    """Run ``rules`` (default: all registered) over ``project``.

    Either pass a prebuilt ``project`` (tests) or ``root`` + optional
    ``paths`` to scan on disk.  Missing default paths are skipped
    silently so the engine works on partial checkouts; explicitly
    passed paths must exist.
    """
    if project is None:
        if root is None:
            raise ValueError("run_analysis needs a project or a root")
        if paths is None:
            scan = [Path(p) for p in DEFAULT_PATHS if (root / p).exists()]
        else:
            scan = [Path(p) for p in paths]
        project = Project.from_paths(root, scan)
    selected = all_rules() if rules is None else rules
    baseline = Baseline.empty() if baseline is None else baseline

    emitted: list[Finding] = []
    for r in selected:
        emitted.extend(r.run(project))

    by_path = {m.rel_path: m for m in project.modules}
    kept: list[Finding] = []
    suppressed: list[Finding] = []
    for finding in emitted:
        mod = by_path.get(finding.path)
        if mod is not None and mod.suppressed(finding.rule_id, finding.line):
            suppressed.append(finding)
        else:
            kept.append(finding)

    new, baselined, stale = baseline.split(kept)
    return AnalysisReport(
        rules=selected,
        new=sorted(new),
        baselined=sorted(baselined),
        suppressed=sorted(suppressed),
        stale_entries=stale,
    )
