from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from datetime import date

import numpy as np
import pytest

from csie.analytics import DatedSeries, moving_average
from csie.clustering import LEAF_NAMES, agglomerate
from csie.svg import dendrogram_svg, line_chart, small_multiples

from helpers import weekdays
from test_clustering import duplicate_pm, random_pm, tie_pm


def ds(values, start=date(2022, 3, 1)):
    days = weekdays(start, len(values))
    return DatedSeries(np.array(days, dtype="datetime64[D]"), np.array(values, float))


def tags(svg_text, name):
    root = ET.fromstring(svg_text)
    return [el for el in root.iter() if el.tag.endswith("}" + name)]


def test_line_chart_is_valid_xml_with_one_polyline():
    rng = np.random.default_rng(71)
    text = line_chart(ds(rng.normal(0, 1, 30)), title="series")
    assert text.startswith("<?xml")
    assert len(tags(text, "polyline")) == 1


def test_line_chart_overlay_and_bubbles():
    rng = np.random.default_rng(72)
    s = ds(rng.normal(0, 1, 40))
    ma = moving_average(s, 10)
    sizes = rng.uniform(1, 5, 40)
    text = line_chart(s, ma=ma, ma_label="10-day mean", bubble_sizes=sizes,
                      bubble_label="traded value")
    polys = tags(text, "polyline")
    assert len(polys) == 2
    assert len(polys[1].get("points").split()) == 31  # 40 points, window 10
    assert len(tags(text, "circle")) == 40
    labels = [el.text for el in tags(text, "text")]
    assert "10-day mean" in labels
    assert "bubble: traded value" in labels


def test_line_chart_single_point_and_constant_series():
    assert tags(line_chart(ds([1.5])), "circle")  # one point degrades to a dot
    text = line_chart(ds([2.0, 2.0, 2.0]))  # zero vertical span gets padding
    ET.fromstring(text)


@pytest.mark.parametrize("title, shown", [
    ("a < b & c", "a &lt; b &amp; c"),
    ("ix\x1bq \x00\ud800\ufffe\uffff", "ix\ufffdq \ufffd\ufffd\ufffd\ufffd"),
    ("tab\there \U0001f600\x7f", "tab\there \U0001f600\x7f"),
], ids=["markup", "not-xml", "allowed"])
def test_line_chart_escapes_markup(title, shown):
    """Markup is escaped, and each character XML 1.0 forbids is U+FFFD."""
    text = line_chart(ds([1.0, 2.0]), title=title)
    ET.fromstring(text)
    assert shown in text


def test_small_multiples_panels():
    rng = np.random.default_rng(73)
    panels = [(f"panel {i}", ds(rng.normal(0, 1, 25))) for i in range(3)]
    text = small_multiples(panels, title="stack")
    assert len(tags(text, "polyline")) == 3
    labels = [el.text for el in tags(text, "text")]
    for i in range(3):
        assert f"panel {i}" in labels
    with pytest.raises(ValueError, match="no panels"):
        small_multiples([])


def test_small_multiples_break_the_line_at_a_gap():
    nan = float("nan")
    text = small_multiples(
        [("gaps", ds([1.0, nan, 2.0, 3.0, nan, nan, 4.0, 5.0])), ("empty", ds([nan] * 8))]
    )
    ET.fromstring(text)
    assert "nan" not in text
    assert [len(el.get("points").split()) for el in tags(text, "polyline")] == [2, 2]
    assert len(tags(text, "circle")) == 1  # the run of one value
    labels = [el.text for el in tags(text, "text")]
    assert labels[:4] == ["gaps", "1", "5", "empty"]  # the empty panel has no value labels


def test_dendrogram_svg_layout():
    tree = agglomerate(random_pm(np.random.default_rng(74)))
    text = dendrogram_svg(tree)
    ET.fromstring(text)
    labels = [el.text for el in tags(text, "text")]
    for leaf in ("open", "high", "low", "close"):
        assert leaf in labels
    # three merges, three lines each, plus axis and tick marks
    assert len(tags(text, "line")) == 3 * 3 + 1 + 5


@pytest.mark.parametrize(
    "matrix",
    [tie_pm, duplicate_pm]
    + [lambda seed=seed: random_pm(np.random.default_rng(seed), m=3 + seed % 9)
       for seed in range(200, 230)],
    ids=["ties", "duplicate-columns"] + [f"random-{seed}" for seed in range(200, 230)],
)
@pytest.mark.parametrize("log_prices", [False, True], ids=["raw", "log"])
def test_dendrogram_svg_draws_the_newick_tree(matrix, log_prices):
    """The two renderings of one dendrogram agree: the SVG's leaf labels,
    left to right, are the Newick text's leaves in order, and each merge's
    bar runs between the mean positions of its two children's leaves."""
    tree = agglomerate(matrix(), log_prices=log_prices)
    text = dendrogram_svg(tree)
    leaf_x = {el.text: float(el.get("x")) for el in tags(text, "text") if el.text in LEAF_NAMES}
    assert sorted(leaf_x, key=leaf_x.get) == re.findall("open|high|low|close", tree.newick())
    bars = [el for el in tags(text, "line") if el.get("stroke") == "#1f3d7a"][2::3]
    assert len(bars) == len(tree.steps)
    for bar, step in zip(bars, tree.steps):
        assert bar.get("y1") == bar.get("y2")
        for end, child in (("x1", step.left), ("x2", step.right)):
            mean = sum(leaf_x[leaf] for leaf in child) / len(child)
            assert abs(float(bar.get(end)) - mean) <= 0.01
    assert tree.steps[-1].node == tuple(sorted(LEAF_NAMES))
