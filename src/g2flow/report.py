"""Run artifacts: deterministic CSV emission and plain SVG line charts.

Numbers are written with ``repr`` (shortest round-trip form), so reruns of
the same configuration produce byte-identical files.  All writes go
through a temp-file-then-rename so a crash never leaves partial output.
"""

import json
import os

import numpy as np


def fmt(value):
    """Canonical text for one CSV cell."""
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def atomic_write_text(path, text):
    tmp = str(path) + ".tmp"
    with open(tmp, "w") as f:
        f.write(text)
    os.replace(tmp, path)


def atomic_write_json(path, obj):
    atomic_write_text(path, json.dumps(obj, sort_keys=True, indent=1) + "\n")


class CsvWriter:
    """Append-style CSV writer with a frozen column order."""

    def __init__(self, path, columns):
        self.path = path
        self.columns = tuple(columns)
        self._rows = [",".join(self.columns)]

    def add_row(self, record):
        cells = [fmt(record.get(c)) for c in self.columns]
        self._rows.append(",".join(cells))

    def flush(self):
        atomic_write_text(self.path, "\n".join(self._rows) + "\n")


def read_csv(path):
    """Read a run CSV back into {column: list of float-or-None}."""
    with open(path) as f:
        lines = [ln.rstrip("\n") for ln in f if ln.strip()]
    cols = lines[0].split(",")
    data = {c: [] for c in cols}
    for ln in lines[1:]:
        for c, cell in zip(cols, ln.split(",")):
            data[c].append(float(cell) if cell else None)
    return data


WIDTH, HEIGHT = 720, 360   # chart size in pixels


def svg_line_chart(xs, ys, title):
    """Minimal line chart of ``ys`` (None entries skipped) against ``xs``
    as an SVG string, labelled ``title``.  Intended for quick inspection
    of run time series; styling is fixed so output is deterministic.
    """
    margin = 60
    color = "#1f77b4"
    pts = [y for y in ys if y is not None]
    if not pts or not xs:
        return ("<svg xmlns='http://www.w3.org/2000/svg' width='%d' "
                "height='%d'><text x='20' y='30'>%s: no data</text></svg>"
                % (WIDTH, HEIGHT, title))
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(pts), max(pts)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    pad = 0.05 * (y1 - y0)
    y0, y1 = y0 - pad, y1 + pad

    def px(x):
        return margin + (x - x0) / (x1 - x0) * (WIDTH - 2 * margin)

    def py(y):
        return HEIGHT - margin - (y - y0) / (y1 - y0) * (HEIGHT - 2 * margin)

    out = [f"<svg xmlns='http://www.w3.org/2000/svg' width='{WIDTH}' "
           f"height='{HEIGHT}' viewBox='0 0 {WIDTH} {HEIGHT}'>",
           "<rect width='100%' height='100%' fill='white'/>",
           f"<text x='{WIDTH // 2}' y='24' text-anchor='middle' "
           f"font-family='monospace' font-size='14'>{title}</text>"]
    # axes
    out.append(f"<line x1='{margin}' y1='{HEIGHT - margin}' x2='{WIDTH - margin}' "
               f"y2='{HEIGHT - margin}' stroke='black'/>")
    out.append(f"<line x1='{margin}' y1='{margin}' x2='{margin}' "
               f"y2='{HEIGHT - margin}' stroke='black'/>")
    for frac in (0.0, 0.5, 1.0):
        xv = x0 + frac * (x1 - x0)
        yv = y0 + frac * (y1 - y0)
        out.append(f"<text x='{px(xv):.1f}' y='{HEIGHT - margin + 18}' "
                   f"text-anchor='middle' font-family='monospace' "
                   f"font-size='11'>{xv:.4g}</text>")
        out.append(f"<text x='{margin - 6}' y='{py(yv):.1f}' "
                   f"text-anchor='end' font-family='monospace' "
                   f"font-size='11'>{yv:.4g}</text>")
    coords = [(px(x), py(y)) for x, y in zip(xs, ys) if y is not None]
    if coords:
        path = " ".join(f"{cx:.2f},{cy:.2f}" for cx, cy in coords)
        out.append(f"<polyline points='{path}' fill='none' "
                   f"stroke='{color}' stroke-width='1.5'/>")
    out.append(f"<text x='{WIDTH - margin + 4}' y='{margin + 10}' "
               f"font-family='monospace' font-size='11' "
               f"fill='{color}'>{title}</text>")
    out.append("</svg>")
    return "\n".join(out)


def write_run_plots(run_dir, csv_data):
    """One SVG per monitored column, plotted against time."""
    xs = csv_data.get("t", [])
    plot_dir = os.path.join(run_dir, "plots")
    os.makedirs(plot_dir, exist_ok=True)
    skip = {"step", "t"}
    written = []
    for col in csv_data:
        if col in skip:
            continue
        svg = svg_line_chart(xs, csv_data[col], col)
        path = os.path.join(plot_dir, f"{col}.svg")
        atomic_write_text(path, svg)
        written.append(path)
    return written
