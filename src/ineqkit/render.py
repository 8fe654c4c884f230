"""Report rendering: CSV rows and static SVG ratio plots.

Input is the report document written by verify.save_report.  Output is
deterministic: identical documents render to identical bytes.
"""

from __future__ import annotations

import csv
import io
import json
import math

from .gridfn import _atomic_write

__all__ = ["load_report", "render_csv", "render_svg", "CSV_COLUMNS"]

CSV_COLUMNS = [
    "id", "dim", "kind", "member", "family",
    "lhs_coarse", "rhs_coarse", "ratio_coarse",
    "lhs_fine", "rhs_fine", "ratio_fine",
    "lhs_refinement", "rhs_refinement",
]

_PALETTE = [
    "#2266aa", "#aa3322", "#228833", "#886622", "#663388",
    "#117788", "#aa2277", "#557722", "#444444", "#7744aa",
]


def load_report(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def render_csv(doc: dict, path) -> None:
    """One row per (id, dim, member), columns CSV_COLUMNS."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for rep in doc["reports"]:
        for row in rep["rows"]:
            writer.writerow([rep["id"], rep["dim"], rep["kind"],
                             row["member"], row["family"],
                             row["lhs_coarse"], row["rhs_coarse"],
                             row["ratio_coarse"],
                             row["lhs_fine"], row["rhs_fine"],
                             row["ratio_fine"],
                             row["lhs_refinement"], row["rhs_refinement"]])
    _atomic_write(path, buf.getvalue())


# ---------------------------------------------------------------------------
# SVG
# ---------------------------------------------------------------------------


def _finite_positive(vals):
    return [v for v in vals if v > 0 and math.isfinite(v)]


def _log_scale(lo, hi):
    """Map value -> [0, 1] on a log axis covering [lo, hi]."""
    la, lb = math.log10(lo), math.log10(hi)
    span = max(lb - la, 1e-9)

    def scale(v):
        if not math.isfinite(v) or v <= 0:
            v = lo if (v <= 0 or math.isnan(v)) else hi
        return (math.log10(min(max(v, lo), hi)) - la) / span

    return scale, la, lb


def _axis_ticks(la, lb):
    return [10.0 ** k for k in range(math.floor(la), math.ceil(lb) + 1)]


def _fmt(v: float) -> str:
    return f"{v:.3g}"


class _Panel:
    """One plot area; collects SVG fragments with y up the usual way."""

    def __init__(self, x, y, width, height, title):
        self.x, self.y, self.w, self.h = x, y, width, height
        self.parts = [
            f'<rect x="{x}" y="{y}" width="{width}" height="{height}" '
            'fill="none" stroke="#999999"/>',
            f'<text x="{x}" y="{y - 8}" font-size="13" fill="#222222">'
            f'{title}</text>',
        ]

    def px(self, u):  # u in [0, 1] left-to-right
        return self.x + u * self.w

    def py(self, u):  # u in [0, 1] bottom-to-top
        return self.y + (1.0 - u) * self.h

    def hline(self, u, label):
        y = self.py(u)
        self.parts.append(f'<line x1="{self.x}" y1="{y:.2f}" '
                          f'x2="{self.x + self.w}" y2="{y:.2f}" '
                          'stroke="#dddddd"/>')
        self.parts.append(f'<text x="{self.x - 6}" y="{y + 4:.2f}" '
                          'font-size="11" fill="#555555" '
                          f'text-anchor="end">{label}</text>')

    def circle(self, ux, uy, color, radius=2.5):
        self.parts.append(f'<circle cx="{self.px(ux):.2f}" cy="{self.py(uy):.2f}" '
                          f'r="{radius}" fill="{color}"/>')

    def line(self, ux0, uy0, ux1, uy1, color, width=1.0):
        self.parts.append(f'<line x1="{self.px(ux0):.2f}" y1="{self.py(uy0):.2f}" '
                          f'x2="{self.px(ux1):.2f}" y2="{self.py(uy1):.2f}" '
                          f'stroke="{color}" stroke-width="{width}"/>')

    def polyline(self, points, color):
        pts = " ".join(f"{self.px(ux):.2f},{self.py(uy):.2f}"
                       for ux, uy in points)
        self.parts.append(f'<polyline points="{pts}" fill="none" '
                          f'stroke="{color}" stroke-width="1"/>')

    def label_below(self, ux, text):
        self.parts.append(f'<text x="{self.px(ux):.2f}" '
                          f'y="{self.y + self.h + 14}" font-size="10" '
                          f'fill="#555555" text-anchor="middle">{text}</text>')


def render_svg(doc: dict, path) -> None:
    """Two panels: fine-grid ratio per member, and max ratio across resolutions."""
    reports = doc["reports"]
    width = 960
    panel_w, panel_x = 700, 70
    panel_h = 280
    legend_x = panel_x + panel_w + 24

    all_ratios = []
    for rep in reports:
        all_ratios.extend(_finite_positive(r["ratio_fine"] for r in rep["rows"]))
        all_ratios.extend(_finite_positive([rep["max_ratio_coarse"],
                                            rep["max_ratio_fine"]]))
    lo = min(all_ratios) / 2 if all_ratios else 0.1
    hi = max(all_ratios) * 2 if all_ratios else 10.0
    scale, la, lb = _log_scale(lo, hi)

    p1 = _Panel(panel_x, 40, panel_w, panel_h, "ratio vs member (fine grid)")
    p2 = _Panel(panel_x, 40 + panel_h + 60, panel_w, panel_h,
                "max ratio vs resolution (coarse -> fine)")
    for panel in (p1, p2):
        for tick in _axis_ticks(la, lb):
            panel.hline(scale(tick), _fmt(tick))

    max_members = max((len(rep["rows"]) for rep in reports), default=1)
    nrep = max(len(reports), 1)
    legend = []
    for i, rep in enumerate(reports):
        color = _PALETTE[i % len(_PALETTE)]
        pts = []
        for row in rep["rows"]:
            ux = (row["member"] + 0.5) / max_members
            pts.append((ux, scale(row["ratio_fine"])))
            p1.circle(ux, scale(row["ratio_fine"]), color)
        if len(pts) > 1:
            p1.polyline(pts, color)

        ux0 = (i + 0.3) / nrep
        ux1 = (i + 0.7) / nrep
        uy0 = scale(rep["max_ratio_coarse"])
        uy1 = scale(rep["max_ratio_fine"])
        p2.line(ux0, uy0, ux1, uy1, color, width=1.5)
        p2.circle(ux0, uy0, color, radius=2.0)
        p2.circle(ux1, uy1, color, radius=3.0)
        if nrep <= 40:
            p2.label_below((i + 0.5) / nrep, str(i))

        tag = f"{rep['id']}@n{rep['dim']}"
        status = "" if rep["passed"] else "  FAILED"
        legend.append((color, f"{i}: {tag}  c={_fmt(rep['empirical_constant'])}"
                              f"{status}"))

    legend_parts = []
    for j, (color, text) in enumerate(legend):
        y = 52 + 14 * j
        legend_parts.append(f'<rect x="{legend_x}" y="{y - 8}" width="9" '
                            f'height="9" fill="{color}"/>')
        legend_parts.append(f'<text x="{legend_x + 14}" y="{y}" font-size="10" '
                            f'fill="#222222">{text}</text>')

    height = max(40 + 2 * panel_h + 100, 60 + 14 * len(legend))
    body = "\n".join(p1.parts + p2.parts + legend_parts)
    svg = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
           f'height="{height}" font-family="sans-serif">\n'
           f'<rect width="{width}" height="{height}" fill="#ffffff"/>\n'
           f"{body}\n</svg>\n")
    _atomic_write(path, svg)
