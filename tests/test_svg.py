"""Chart emitter: well-formed output, scale handling, metadata embedding."""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from mtdiff.svg import _MARGIN_B, _MARGIN_L, _MARGIN_R, _MARGIN_T, Series, line_chart


def _render(**kwargs):
    s = Series("noise", [0.0, 1.0, 2.0, 3.0], [1.0, 0.5, 0.25, 0.125])
    return line_chart([s], title="decay", x_label="t", y_label="p", **kwargs)


def _strip_comment(doc: str) -> str:
    if doc.startswith("<!--"):
        return doc.split("-->", 1)[1]
    return doc


class TestStructure:
    def test_parses_as_xml(self):
        root = ET.fromstring(_strip_comment(_render()))
        assert root.tag.endswith("svg")
        body = ET.tostring(root, encoding="unicode")
        assert "polyline" in body

    def test_marker_series_adds_circles(self):
        doc = line_chart(
            [Series("dots", [0, 1, 2], [1, 2, 3], markers=True)], title="m"
        )
        assert doc.count("<circle") == 3

    def test_dash_pattern_passes_through(self):
        doc = line_chart([Series("ref", [0, 1], [1, 1], dash="6 4")])
        assert 'stroke-dasharray="6 4"' in doc

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            line_chart([Series("bad", [0, 1], [1.0])])

    def test_escapes_markup_in_labels(self):
        doc = line_chart([Series("a<b&c", [0, 1], [1, 2])], title="x<y")
        assert "a&lt;b&amp;c" in doc and "x&lt;y" in doc
        ET.fromstring(_strip_comment(doc))  # still well-formed


class TestScales:
    def test_db_transform_happens_at_render(self):
        # linear values 1.0 and 0.1 are 0 dB and -10 dB on the y axis
        doc = line_chart([Series("s", [0, 1], [1.0, 0.1])], y_db=True, y_label="MSD")
        assert "[dB]" in doc
        assert "-10" in doc  # tick label from the 1-2-5 ladder

    def test_db_drops_nonpositive_points(self):
        doc = line_chart(
            [Series("s", [0, 1, 2], [1.0, 0.0, 0.5])], y_db=True
        )
        poly = next(l for l in doc.splitlines() if "polyline" in l)
        assert poly.count(",") == 2  # only the two positive points survive

    def test_log_x_drops_nonpositive_points(self):
        doc = line_chart(
            [Series("s", [0.0, 0.1, 1.0, 10.0], [1, 2, 3, 4])], x_log=True
        )
        poly = next(l for l in doc.splitlines() if "polyline" in l)
        assert poly.count(",") == 3
        assert "(log)" not in doc or "t (log)" not in doc  # no x_label given

    def test_non_finite_points_are_dropped_and_bridged(self):
        doc = line_chart([Series("s", [0, 1, 2, 3], [1.0, np.nan, 2.0, 3.0])])
        polys = [l for l in doc.splitlines() if "<polyline" in l]
        assert len(polys) == 1
        assert polys[0].split('points="', 1)[1].split('"', 1)[0].count(",") == 3

    def test_log_x_without_a_decade_ticks_its_ends(self):
        doc = line_chart([Series("s", [2.0, 3.0, 5.0], [1.0, 2.0, 3.0])], x_log=True)
        labels = re.findall(r'text-anchor="middle" fill="#333333">([^<]*)<', doc)
        assert labels == ["2", "5"]

    def test_all_points_dropped_still_renders(self):
        doc = line_chart([Series("empty", [0.0], [0.0])], y_db=True)
        assert "<svg" in doc and "polyline" not in doc

    def test_single_point_series_renders_marker(self):
        doc = line_chart([Series("pt", [1.0], [2.0])])
        assert "<circle" in doc and "polyline" not in doc


def _scalar_points(x, y, *, width=720, height=460):
    """Polyline points of a lone series with x_log and y_db on, one point
    at a time through the chart's scalar pixel formula."""
    keep = np.isfinite(x) & np.isfinite(y) & (x > 0.0) & (y > 0.0)
    x, y = np.log10(x[keep]), 10.0 * np.log10(y[keep])
    x_lo, x_hi = float(x.min()), float(x.max())
    y_lo, y_hi = float(y.min()), float(y.max())
    pad = 0.04 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    px0, px1 = _MARGIN_L, width - _MARGIN_R
    py0, py1 = height - _MARGIN_B, _MARGIN_T
    return " ".join(
        f"{px0 + (a - x_lo) / (x_hi - x_lo) * (px1 - px0):.2f},"
        f"{py0 + (b - y_lo) / (y_hi - y_lo) * (py1 - py0):.2f}"
        for a, b in zip(x, y)
    )


class TestPolylinePoints:
    def test_long_series_matches_scalar_formula(self):
        rng = np.random.default_rng(3)
        x = np.arange(40_000, dtype=float)  # x = 0 is dropped on the log axis
        y = np.exp(-x / 9000.0) * rng.uniform(0.5, 2.0, x.size)
        y[::997] = 0.0  # dropped in dB
        doc = line_chart([Series("curve", x, y)], x_log=True, y_db=True)
        poly = next(l for l in doc.splitlines() if "<polyline" in l)
        assert poly.split('points="', 1)[1].split('"', 1)[0] == _scalar_points(x, y)


class TestMetadata:
    def test_comment_carries_prefixed_lines(self):
        doc = _render(metadata=["tool = mtdiff", "seed = 5"])
        head = doc.split("-->", 1)[0]
        assert head.startswith("<!--")
        assert "# tool = mtdiff" in head and "# seed = 5" in head

    def test_double_dash_sanitized_for_xml(self):
        doc = _render(metadata=["command = mtdiff theory --config x.conf"])
        assert "--config" not in doc.split("-->", 1)[0]
        ET.fromstring("<wrap>" + doc + "</wrap>")  # comment must stay legal

    def test_no_metadata_no_comment(self):
        assert not _render().startswith("<!--")

    def test_deterministic_output(self):
        a = _render(metadata=["x = 1"], y_db=True)
        b = _render(metadata=["x = 1"], y_db=True)
        assert a == b
