"""Unit tests for the report-table formatter."""

import math

import pytest

from repro.obs.report import Table, _fmt, paper_vs_measured


def test_fmt_scalars():
    assert _fmt(None) == "—"
    assert _fmt(float("nan")) == "—"
    assert _fmt(42) == "42"
    assert _fmt("text") == "text"
    assert _fmt(3.14159) == "3.14"
    assert _fmt(2.0) == "2"
    assert _fmt(123456.0) == "1.23e+05"
    assert _fmt(0.0001) == "0.0001"


def test_table_rejects_wrong_arity():
    t = Table("t", ["a", "b"])
    with pytest.raises(ValueError):
        t.add(1)


def test_table_renders_aligned_columns():
    t = Table("title", ["name", "value"])
    t.add("short", 1)
    t.add("a-much-longer-name", 123456)
    text = t.render()
    lines = text.splitlines()
    assert lines[0] == "title"
    assert lines[1] == "====="
    # all body lines have equal width
    widths = {len(l) for l in lines[2:]}
    assert len(widths) == 1
    assert "a-much-longer-name" in text


def test_paper_vs_measured_columns():
    t = paper_vs_measured("x", [("latency", 57, 56.77)])
    assert t.columns == ["quantity", "paper", "measured"]
    assert "56.77" in t.render()
    # a row shorter than the column set is rejected
    with pytest.raises(ValueError):
        paper_vs_measured("x", [("latency", 57)])


def test_paper_vs_measured_basic():
    t = paper_vs_measured("t", [("a", 1, 2), ("b", None, 0.5)])
    text = t.render()
    assert "—" in text and "0.5" in text
