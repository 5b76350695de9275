"""Engine mechanics: module naming, baseline round-trips, reporters."""

from __future__ import annotations

import json
import textwrap

import pytest

from repro.devtools import (
    Finding,
    default_rules,
    filter_baselined,
    lint_paths,
    load_baseline,
    render_json,
    render_text,
    rule_catalog,
    save_baseline,
)
from repro.devtools.engine import module_name_for


def make_finding(**overrides):
    base = dict(
        file="src/repro/x.py",
        line=3,
        rule_id="float-eq",
        severity="warning",
        message="floating-point == comparison",
    )
    base.update(overrides)
    return Finding(**base)


class TestModuleNameFor:
    def test_walks_packages(self, tmp_path):
        pkg = tmp_path / "pkg" / "sub"
        pkg.mkdir(parents=True)
        (tmp_path / "pkg" / "__init__.py").write_text("")
        (pkg / "__init__.py").write_text("")
        (pkg / "mod.py").write_text("")
        assert module_name_for(pkg / "mod.py") == "pkg.sub.mod"

    def test_init_collapses_to_package(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("")
        assert module_name_for(pkg / "__init__.py") == "pkg"

    def test_loose_file_is_bare_stem(self, tmp_path):
        (tmp_path / "loose.py").write_text("")
        assert module_name_for(tmp_path / "loose.py") == "loose"


class TestLintPaths:
    def test_walks_directories_and_relativizes(self, tmp_path):
        sub = tmp_path / "src"
        sub.mkdir()
        (sub / "_a.py").write_text("def f(x=[]):\n    return x\n")
        (sub / "_b.py").write_text("def g(y={}):\n    return y\n")
        cache = sub / "__pycache__"
        cache.mkdir()
        (cache / "_c.py").write_text("def h(z=[]):\n    return z\n")
        findings = lint_paths([sub], default_rules(), root=tmp_path)
        assert [f.file for f in findings] == ["src/_a.py", "src/_b.py"]
        assert all(f.rule_id == "mutable-default" for f in findings)


class TestBaseline:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "baseline.json"
        findings = [make_finding(), make_finding(file="src/repro/y.py", line=9)]
        save_baseline(path, findings, reasons={
            findings[0].baseline_key: "legacy sentinel"
        })
        entries = load_baseline(path)
        assert len(entries) == 2
        by_file = {e["file"]: e for e in entries}
        assert by_file["src/repro/x.py"]["reason"] == "legacy sentinel"
        assert "line" not in by_file["src/repro/x.py"]  # line-independent keys

    def test_absent_file_is_empty(self, tmp_path):
        assert load_baseline(tmp_path / "nope.json") == []

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"version": 99, "entries": []}))
        with pytest.raises(ValueError, match="version"):
            load_baseline(path)

    def test_malformed_entry_rejected(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({
            "version": 1, "entries": [{"file": "a.py", "rule_id": "x"}]
        }))
        with pytest.raises(ValueError, match="message"):
            load_baseline(path)

    def test_filter_splits_fresh_and_stranded(self, tmp_path):
        path = tmp_path / "baseline.json"
        old = make_finding(message="grandfathered")
        save_baseline(path, [old])
        entries = load_baseline(path)
        current = [old, make_finding(message="brand new")]
        fresh, stranded = filter_baselined(current, entries)
        assert [f.message for f in fresh] == ["brand new"]
        assert stranded == []
        # The grandfathered finding is fixed: its entry strands.
        fresh, stranded = filter_baselined([], entries)
        assert fresh == []
        assert [e["message"] for e in stranded] == ["grandfathered"]

    def test_line_changes_do_not_invalidate(self, tmp_path):
        path = tmp_path / "baseline.json"
        save_baseline(path, [make_finding(line=3)])
        moved = make_finding(line=300)
        fresh, stranded = filter_baselined([moved], load_baseline(path))
        assert fresh == [] and stranded == []


class TestReporters:
    def test_text_report_format(self):
        out = render_text([make_finding()], baselined=2, stranded=0)
        assert "src/repro/x.py:3: warning: [float-eq]" in out
        assert "1 finding(s)" in out
        assert "2 baselined" in out

    def test_text_clean_summary(self):
        out = render_text([], baselined=0, stranded=0)
        assert out.startswith("clean:")

    def test_text_stranded_hint(self):
        out = render_text([], baselined=0, stranded=3)
        assert "--update-baseline" in out

    def test_json_schema(self):
        doc = json.loads(render_json(
            [make_finding(), make_finding(rule_id="global-state",
                                          severity="error",
                                          message="bare global")],
            baselined=1,
            stranded=2,
        ))
        assert doc["version"] == 1
        assert doc["counts"] == {"error": 1, "warning": 1}
        assert doc["baselined"] == 1
        assert doc["stranded"] == 2
        assert len(doc["findings"]) == 2
        for item in doc["findings"]:
            assert set(item) == {"file", "line", "rule_id", "severity",
                                 "message"}


class TestRuleCatalog:
    def test_catalog_names_all_ten_rules(self):
        ids = {rule_id for rule_id, _, _ in rule_catalog()}
        assert ids == {
            "rng-global-state",
            "global-state",
            "mutable-default",
            "float-eq",
            "broad-except",
            "missing-all",
            "undocumented-public",
            "shadowed-builtin",
            "raise-outside-taxonomy",
            "adhoc-timing",
            "buffered-take",
        }

    def test_catalog_severities_valid(self):
        for rule_id, severity, description in rule_catalog():
            assert severity in ("error", "warning")
            assert description
