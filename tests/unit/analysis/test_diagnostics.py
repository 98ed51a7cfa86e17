"""Unit tests for the diagnostic value types and their registry."""

import re
from pathlib import Path

import pytest

from vidb.analysis.diagnostics import (
    CODES,
    ERROR,
    INFO,
    WARNING,
    AnalysisResult,
    Diagnostic,
    make,
    sort_diagnostics,
)
from vidb.query.ast import SourceSpan

DOC = Path(__file__).resolve().parents[3] / "docs" / "ANALYSIS.md"


class TestRegistry:
    def test_codes_are_stable_vdb_format(self):
        for code in CODES:
            assert code.startswith("VDB")
            assert len(code) == 6
            assert code[3:].isdigit()

    def test_every_code_has_a_valid_default_severity(self):
        for severity, title in CODES.values():
            assert severity in (ERROR, WARNING, INFO)
            assert title

    def test_error_codes_are_the_00x_block(self):
        for code, (severity, _) in CODES.items():
            if severity == ERROR:
                assert code < "VDB010" or code.startswith("VDB06")

    def test_expected_codes_present(self):
        expected = {"VDB001", "VDB002", "VDB005", "VDB006", "VDB007",
                    "VDB020", "VDB021", "VDB022", "VDB023", "VDB024",
                    "VDB030", "VDB031", "VDB032",
                    "VDB040", "VDB041", "VDB042", "VDB044",
                    "VDB060", "VDB061", "VDB062"}
        assert expected <= set(CODES)

    def test_docs_table_matches_the_registry(self):
        section = DOC.read_text().split("## Diagnostic codes", 1)[1]
        table = dict(re.findall(r"^\| (VDB\d{3}) \| (\w+) +\|", section,
                                re.MULTILINE))
        assert table == {code: severity
                         for code, (severity, _) in CODES.items()}


class TestMake:
    def test_defaults_severity_from_registry(self):
        assert make("VDB020", "dead").severity == WARNING
        assert make("VDB005", "cycle").severity == ERROR
        assert make("VDB024", "rhs").severity == INFO

    def test_severity_override(self):
        diagnostic = make("VDB006", "unknown p", severity=WARNING)
        assert diagnostic.severity == WARNING
        assert not diagnostic.is_error

    def test_unknown_code_rejected(self):
        with pytest.raises(ValueError):
            make("VDB999", "nope")

    def test_unknown_severity_rejected(self):
        with pytest.raises(ValueError):
            make("VDB020", "dead", severity="fatal")

    def test_context_fields_carried(self):
        diagnostic = make("VDB030", "singleton", rule_index=3,
                          rule_name="r", predicate="p")
        assert diagnostic.rule_index == 3
        assert diagnostic.rule_name == "r"
        assert diagnostic.predicate == "p"


class TestRender:
    def test_with_path_and_span(self):
        diagnostic = make("VDB020", "dead rule",
                          span=SourceSpan(7, 3))
        assert diagnostic.render("rules.vdb") == \
            "rules.vdb:7:3: warning[VDB020] dead rule"

    def test_without_span(self):
        diagnostic = make("VDB005", "not stratifiable")
        assert diagnostic.render("rules.vdb") == \
            "rules.vdb: error[VDB005] not stratifiable"

    def test_without_path(self):
        diagnostic = make("VDB030", "singleton", span=SourceSpan(2, 9))
        assert str(diagnostic) == ":2:9: warning[VDB030] singleton"

    def test_as_dict_round_trips_span(self):
        diagnostic = make("VDB023", "redundant", span=SourceSpan(4, 11),
                          rule_index=1)
        out = diagnostic.as_dict()
        assert out["code"] == "VDB023"
        assert out["span"] == {"line": 4, "column": 11}
        assert out["rule_index"] == 1
        assert "predicate" not in out


class TestOrdering:
    def test_source_order_then_severity(self):
        late = make("VDB030", "later", span=SourceSpan(9, 1))
        early_warn = make("VDB020", "early warning", span=SourceSpan(2, 1))
        early_err = make("VDB002", "early error", span=SourceSpan(2, 1))
        spanless = make("VDB005", "program-level")
        ordered = sort_diagnostics([late, early_warn, spanless, early_err])
        assert [d.message for d in ordered] == \
            ["early error", "early warning", "later", "program-level"]


class TestAnalysisResult:
    def _result(self):
        return AnalysisResult((
            make("VDB002", "unsafe", span=SourceSpan(1, 1)),
            make("VDB020", "dead", span=SourceSpan(2, 1)),
            make("VDB024", "rhs unsat", span=SourceSpan(3, 1)),
        ))

    def test_partitions_by_severity(self):
        result = self._result()
        assert [d.code for d in result.errors] == ["VDB002"]
        assert [d.code for d in result.warnings] == ["VDB020"]
        assert [d.code for d in result.infos] == ["VDB024"]
        assert result.has_errors

    def test_codes_set(self):
        assert self._result().codes() == {"VDB002", "VDB020", "VDB024"}

    def test_extend_deduplicates_and_resorts(self):
        result = self._result()
        extra = make("VDB030", "singleton", span=SourceSpan(1, 5))
        merged = result.extend([extra, result.diagnostics[0]])
        assert len(merged.diagnostics) == 4
        assert merged.diagnostics[1].code == "VDB030"  # sorted into place

    def test_as_dicts_and_render(self):
        result = self._result()
        assert [d["code"] for d in result.as_dicts()] == \
            ["VDB002", "VDB020", "VDB024"]
        lines = result.render("f.vdb")
        assert lines[0].startswith("f.vdb:1:1: error[VDB002]")

    def test_empty_result_is_clean(self):
        result = AnalysisResult()
        assert not result.has_errors
        assert result.diagnostics == ()
