"""Framework tests: registry, project model, suppressions, baseline,
and engine report partitioning."""

import json

import pytest

from repro.analyze import (
    AnalysisReport,
    Baseline,
    BaselineEntry,
    Finding,
    ModuleInfo,
    Project,
    Severity,
    all_rules,
    get_rule,
    run_analysis,
)
from repro.analyze.registry import Rule
from repro.errors import ValidationError

pytestmark = pytest.mark.analyze

EXPECTED_RULES = {
    "CKPT201", "CKPT202",
    "DET101", "DET102", "DET103",
    "IMP001", "IMP002", "IMP003",
    "RACE301",
}


def _finding(rule_id="DET101", path="src/repro/x.py", line=3):
    return Finding(
        path=path,
        line=line,
        rule_id=rule_id,
        severity=Severity.ERROR,
        message="m",
    )


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------
def test_all_rule_families_registered():
    ids = {r.rule_id for r in all_rules()}
    assert EXPECTED_RULES <= ids
    # id order is the stable report order
    assert [r.rule_id for r in all_rules()] == sorted(ids)


def test_unknown_rule_id_raises():
    with pytest.raises(ValidationError, match="unknown rule id"):
        get_rule("NOPE999")


def test_rule_metadata_complete():
    for r in all_rules():
        assert r.title and r.description
        assert isinstance(r.severity, Severity)


def test_mislabeled_finding_rejected():
    bad = Rule(
        rule_id="TST901",
        title="t",
        severity=Severity.ERROR,
        description="d",
        check=lambda project: [_finding(rule_id="DET101")],
    )
    project = Project.from_sources({"src/repro/x.py": '"""m."""\n'})
    with pytest.raises(ValidationError, match="labeled 'DET101'"):
        bad.run(project)


# ---------------------------------------------------------------------------
# project model + suppressions
# ---------------------------------------------------------------------------
def test_module_names_and_sim_scope():
    project = Project.from_sources(
        {
            "src/repro/stream/qos.py": '"""m."""\n',
            "src/repro/__init__.py": '"""m."""\n',
            "scripts/analyze.py": '"""m."""\n',
            "tests/test_x.py": '"""m."""\n',
        }
    )
    names = {m.rel_path: m.name for m in project.modules}
    assert names["src/repro/stream/qos.py"] == "repro.stream.qos"
    assert names["src/repro/__init__.py"] == "repro"
    assert names["scripts/analyze.py"] == "scripts.analyze"
    sim = {m.rel_path for m in project.sim_modules}
    assert sim == {"src/repro/stream/qos.py", "src/repro/__init__.py"}


def test_suppression_comment_parsing():
    mod = ModuleInfo.from_source(
        "src/repro/x.py",
        '"""m."""\n'
        "a = 1  # analyze: allow[DET101] reason\n"
        "b = 2  # analyze: allow[DET101,RACE301] two rules\n"
        "c = 3  # analyze: allow[*] anything here\n",
    )
    assert mod.suppressed("DET101", 2)
    assert not mod.suppressed("DET102", 2)
    assert not mod.suppressed("DET101", 1)
    assert mod.suppressed("RACE301", 3)
    assert mod.suppressed("CKPT202", 4)  # wildcard


def test_module_wide_suppression():
    mod = ModuleInfo.from_source(
        "src/repro/x.py",
        '"""m."""\n# analyze: allow-module[DET102] telemetry module\n',
    )
    assert mod.suppressed("DET102", 99)
    assert not mod.suppressed("DET101", 99)


def test_syntax_error_is_loud(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("def broken(:\n")
    with pytest.raises(ValidationError, match="cannot analyze"):
        Project.from_paths(tmp_path, [bad])


def test_missing_path_is_loud(tmp_path):
    with pytest.raises(ValidationError, match="does not exist"):
        Project.from_paths(tmp_path, [tmp_path / "ghost"])


def test_import_graph_edges():
    project = Project.from_sources(
        {
            "src/repro/a.py": '"""m."""\nfrom repro import b\nimport os\n',
            "src/repro/b.py": '"""m."""\nfrom repro.a import thing\n',
            "src/repro/c.py": '"""m."""\nfrom . import a\n',
        }
    )
    graph = project.import_graph()
    assert graph["repro.a"] == {"repro.b"}
    assert graph["repro.b"] == {"repro.a"}
    assert graph["repro.c"] == {"repro.a"}


# ---------------------------------------------------------------------------
# baseline
# ---------------------------------------------------------------------------
def test_baseline_split_new_baselined_stale():
    baseline = Baseline(
        entries=[
            BaselineEntry("DET101", "src/repro/x.py", 3, "known"),
            BaselineEntry("DET102", "src/repro/gone.py", None, "stale"),
        ]
    )
    new, baselined, stale = baseline.split(
        [_finding(), _finding(rule_id="RACE301", line=9)]
    )
    assert [f.rule_id for f in baselined] == ["DET101"]
    assert [f.rule_id for f in new] == ["RACE301"]
    assert [e.rule for e in stale] == ["DET102"]


def test_baseline_null_line_matches_any_line():
    baseline = Baseline(
        entries=[BaselineEntry("DET101", "src/repro/x.py", None, "file-wide")]
    )
    new, baselined, _ = baseline.split([_finding(line=3), _finding(line=40)])
    assert not new and len(baselined) == 2


def test_baseline_load_rejects_empty_justification(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text(
        json.dumps(
            {
                "entries": [
                    {"rule": "DET101", "path": "x.py", "justification": " "}
                ]
            }
        )
    )
    with pytest.raises(ValidationError, match="empty justification"):
        Baseline.load(path)


def test_baseline_load_rejects_missing_keys(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps({"entries": [{"rule": "DET101"}]}))
    with pytest.raises(ValidationError, match="missing"):
        Baseline.load(path)


def test_baseline_missing_file_is_empty(tmp_path):
    assert Baseline.load(tmp_path / "ghost.json").entries == []


def test_baseline_round_trip(tmp_path):
    original = Baseline.from_findings([_finding()], justification="TODO")
    path = tmp_path / "baseline.json"
    original.save(path)
    assert Baseline.load(path) == original


# ---------------------------------------------------------------------------
# engine
# ---------------------------------------------------------------------------
def test_report_partitions_and_ok():
    project = Project.from_sources(
        {
            "src/repro/a.py": (
                '"""m."""\n'
                "import numpy as np\n"
                "bad = np.random.default_rng()\n"
                "meh = np.random.default_rng()  "
                "# analyze: allow[DET101] fixture\n"
            )
        }
    )
    baseline = Baseline(
        entries=[BaselineEntry("DET101", "src/repro/a.py", 3, "adopted")]
    )
    report = run_analysis(
        project=project, rules=[get_rule("DET101")], baseline=baseline
    )
    assert report.ok
    assert [f.line for f in report.baselined] == [3]
    assert [f.line for f in report.suppressed] == [4]
    assert not report.stale_entries
    data = report.to_dict()
    assert data["ok"] is True
    assert data["counts"] == {
        "new": 0,
        "baselined": 1,
        "suppressed": 1,
        "stale_baseline_entries": 0,
    }


def test_new_finding_fails_gate():
    project = Project.from_sources(
        {
            "src/repro/a.py": (
                '"""m."""\nimport random\nx = random.random()\n'
            )
        }
    )
    report = run_analysis(project=project, rules=[get_rule("DET101")])
    assert not report.ok
    assert report.new[0].location() == "src/repro/a.py:3"


def test_run_analysis_requires_project_or_root():
    with pytest.raises(ValueError, match="project or a root"):
        run_analysis()


def test_run_analysis_from_disk(tmp_path):
    (tmp_path / "src" / "repro").mkdir(parents=True)
    (tmp_path / "src" / "repro" / "m.py").write_text(
        '"""m."""\nimport random\nx = random.random()\n'
    )
    report = run_analysis(root=tmp_path, rules=[get_rule("DET101")])
    assert not report.ok
    assert report.new[0].path == "src/repro/m.py"


def test_report_all_findings_sorted():
    report = AnalysisReport(
        rules=[],
        new=[_finding(line=9)],
        baselined=[_finding(line=2)],
        suppressed=[_finding(line=5)],
    )
    assert [f.line for f in report.all_findings] == [2, 5, 9]
