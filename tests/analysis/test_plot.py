"""Unit tests for the ASCII plotter."""

from repro.experiments.latency import ascii_plot


def test_empty_series():
    assert ascii_plot({}) == "(no data)"


def test_single_series_renders_marks_and_axes():
    out = ascii_plot({"lat": [(0, 10.0), (100, 20.0)]}, width=20, height=8)
    assert "o" in out
    assert "o lat" in out
    assert "10" in out and "20" in out
    assert "0" in out and "100" in out


def test_two_series_use_distinct_marks():
    out = ascii_plot(
        {
            "a": [(0, 0.0), (10, 10.0)],
            "b": [(0, 10.0), (10, 0.0)],
        },
        width=20,
        height=8,
    )
    assert "o a" in out and "x b" in out
    body = out.split("+")[0]
    assert "o" in body and "x" in body


def test_constant_series_does_not_divide_by_zero():
    out = ascii_plot({"flat": [(0, 5.0), (10, 5.0)]})
    assert "flat" in out


def test_crossing_curves_shape():
    """Two crossing lines must place their marks at opposite corners."""
    out = ascii_plot(
        {"up": [(0, 0.0), (100, 100.0)], "down": [(0, 100.0), (100, 0.0)]},
        width=30,
        height=10,
    )
    rows = [l for l in out.splitlines() if "|" in l]
    top, bottom = rows[0], rows[-1]
    # 'down' starts top-left; 'up' ends top-right
    left_top = top.split("|")[1][:15]
    right_top = top.split("|")[1][15:]
    assert "x" in left_top
    assert "o" in right_top


def test_labels_present():
    out = ascii_plot(
        {"s": [(0, 1.0), (1, 2.0)]}, x_label="bytes", y_label="ms"
    )
    assert "bytes" in out and out.splitlines()[0] == "ms"
