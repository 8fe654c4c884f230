"""CSV and SVG rendering of saved report documents."""

import csv
import json
import xml.etree.ElementTree as ET

import pytest

from ineqkit.gridfn import GridSpec, corpus_generate
from ineqkit.render import CSV_COLUMNS, load_report, render_csv, render_svg
from ineqkit.verify import registry_map, run, save_report

from conftest import SEED


@pytest.fixture(scope="module")
def report_doc(tmp_path_factory):
    grid = GridSpec.box(1, 8.0, 128)
    families = corpus_generate(SEED, 3, grid)
    reports = [run([registry_map()[name]], 1, families, grid)[0]
               for name in ("bound", "omega1")]
    path = tmp_path_factory.mktemp("doc") / "report.json"
    save_report(path, reports, {"timestamp": "T"})
    return load_report(path)


def test_load_report_round_trips(report_doc):
    assert report_doc["format_version"] == 1
    assert [r["id"] for r in report_doc["reports"]] == ["bound", "omega1"]


def test_csv_columns_and_rows(report_doc, tmp_path):
    path = tmp_path / "out.csv"
    render_csv(report_doc, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == CSV_COLUMNS
    assert len(rows) == 1 + sum(len(r["rows"]) for r in report_doc["reports"])
    first = dict(zip(CSV_COLUMNS, rows[1]))
    src = report_doc["reports"][0]["rows"][0]
    assert first["id"] == "bound" and first["dim"] == "1"
    assert float(first["ratio_fine"]) == src["ratio_fine"]
    assert first["family"] == src["family"]


def test_svg_is_deterministic_and_well_formed(report_doc, tmp_path):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    render_svg(report_doc, a)
    render_svg(json.loads(json.dumps(report_doc)), b)
    assert a.read_bytes() == b.read_bytes()
    root = ET.parse(a).getroot()
    assert root.tag.endswith("svg")
    ns = {"s": "http://www.w3.org/2000/svg"}
    circles = root.findall(".//s:circle", ns)
    members = sum(len(r["rows"]) for r in report_doc["reports"])
    assert len(circles) >= members
    texts = [t.text for t in root.findall(".//s:text", ns)]
    assert any("bound@n1" in t for t in texts if t)


def test_empty_document_renders(tmp_path):
    doc = {"format_version": 1, "reports": [], "metadata": {}}
    render_csv(doc, tmp_path / "e.csv")
    render_svg(doc, tmp_path / "e.svg")
    with open(tmp_path / "e.csv", newline="") as fh:
        assert list(csv.reader(fh)) == [CSV_COLUMNS]
    ET.parse(tmp_path / "e.svg")
