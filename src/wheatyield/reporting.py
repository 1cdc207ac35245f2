"""Report rendering: CSV, aligned text table, and a static SVG bar chart.

All output is built from deterministic string formatting only, so a rerun
with the same inputs produces byte-identical files.
"""

from __future__ import annotations

from pathlib import Path

from .evalstat import Report, ReportRow

REPORT_CSV_HEADER = "model,mae_soil,mae_sw,z_soil,p_soil,z_sw,p_sw,t_paired,p_paired"


def _fmt(value: float | None) -> str:
    if value is None:
        return ""
    return f"{value:.6g}"


def _cells(r: ReportRow) -> list[str]:
    """A report row's cells, in ``REPORT_CSV_HEADER`` order."""
    return [r.model] + [_fmt(v) for v in (r.mae_soil, r.mae_sw, r.z_soil, r.p_soil,
                                          r.z_sw, r.p_sw, r.t_paired, r.p_paired)]


def report_csv(report: Report) -> str:
    lines = [REPORT_CSV_HEADER] + [",".join(_cells(r)) for r in report.rows]
    return "\n".join(lines) + "\n"


def write_report_csv(report: Report, path: str | Path) -> None:
    Path(path).write_text(report_csv(report))


def _table(header: list[str], rows: list[list[str]]) -> str:
    widths = [max(len(header[i]), *(len(r[i]) for r in rows)) if rows else len(header[i])
              for i in range(len(header))]
    def line(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
    out = [line(header), line(["-" * w for w in widths])]
    out.extend(line(r) for r in rows)
    return "\n".join(out)


def report_text(report: Report) -> str:
    meta = [
        f"# train years: {', '.join(str(y) for y in report.train_years)}",
        f"# test year:   {report.test_year}",
        f"# instances:   {report.n_train} train / {report.n_test} test",
        f"# seed:        {report.seed}",
        f"# config:      {report.config_digest}",
    ]
    rows = [_cells(r) for r in report.rows]
    return "\n".join(meta) + "\n\n" + _table(REPORT_CSV_HEADER.split(","), rows) + "\n"


def compare_text(report: Report) -> str:
    """Paired-comparison section: per model, both MAEs and the paired p."""
    header = ["model", "mae_soil", "mae_soil_weather", "better", "p_paired"]
    rows = []
    for r in report.rows:
        better = ""
        if r.mae_soil is not None and r.mae_sw is not None:
            better = "soil_weather" if r.mae_sw < r.mae_soil else "soil"
        rows.append([r.model, _fmt(r.mae_soil), _fmt(r.mae_sw), better, _fmt(r.p_paired)])
    return (
        "## paired comparison (one-tailed t-test on absolute errors)\n"
        + _table(header, rows)
        + "\n"
    )


def compare_csv(report: Report) -> str:
    lines = ["model,mae_soil,mae_sw,p_paired"]
    for r in report.rows:
        lines.append(
            ",".join([r.model, _fmt(r.mae_soil), _fmt(r.mae_sw), _fmt(r.p_paired)])
        )
    return "\n".join(lines) + "\n"


def paired(report: Report) -> bool:
    """Whether both feature modes ran, so the report holds the paired test."""
    return all(r.p_paired is not None for r in report.rows)


def full_text(report: Report) -> str:
    """All of ``report.txt``: the report, then the paired section if both modes ran."""
    text = report_text(report)
    if paired(report):
        text = text.rstrip("\n") + "\n\n" + compare_text(report)
    return text


def write_report_txt(report: Report, path: str | Path) -> None:
    Path(path).write_text(full_text(report))


def mae_chart_svg(report: Report, title: str = "MAE by model and feature mode") -> str:
    """Grouped bar chart of per-model MAEs (soil vs. soil+weather)."""
    rows = report.rows
    width, height = 760, 380
    margin_left, margin_bottom, margin_top = 60, 70, 40
    plot_w = width - margin_left - 20
    plot_h = height - margin_top - margin_bottom

    maes = [v for r in rows for v in (r.mae_soil, r.mae_sw) if v is not None]
    top = max(maes) * 1.15 if maes else 1.0

    def ybar(v: float) -> tuple[float, float]:
        h = plot_h * v / top
        return height - margin_bottom - h, h

    group_w = plot_w / max(1, len(rows))
    bar_w = group_w * 0.32

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" font-family="sans-serif" '
        f'font-size="15">{title}</text>',
        f'<line x1="{margin_left}" y1="{height - margin_bottom}" x2="{width - 20}" '
        f'y2="{height - margin_bottom}" stroke="black"/>',
        f'<line x1="{margin_left}" y1="{margin_top}" x2="{margin_left}" '
        f'y2="{height - margin_bottom}" stroke="black"/>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        v = top * frac
        y = height - margin_bottom - plot_h * frac
        parts.append(
            f'<text x="{margin_left - 6}" y="{y + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{v:.2f}</text>'
        )
        parts.append(
            f'<line x1="{margin_left - 4}" y1="{y:.1f}" x2="{margin_left}" y2="{y:.1f}" '
            f'stroke="black"/>'
        )
    soil_fill, sw_fill = "#8c6d31", "#31708c"
    for i, r in enumerate(rows):
        cx = margin_left + group_w * (i + 0.5)
        for value, x, fill in ((r.mae_soil, cx - bar_w, soil_fill), (r.mae_sw, cx, sw_fill)):
            if value is not None:
                y, h = ybar(value)
                parts.append(
                    f'<rect x="{x:.1f}" y="{y:.1f}" width="{bar_w:.1f}" height="{h:.1f}" '
                    f'fill="{fill}"/>'
                )
        parts.append(
            f'<text x="{cx:.1f}" y="{height - margin_bottom + 14}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="10" '
            f'transform="rotate(18 {cx:.1f} {height - margin_bottom + 14})">{r.model}</text>'
        )
    legend_y = height - 22
    for x, fill, label in ((margin_left, soil_fill, "soil only"),
                           (margin_left + 100, sw_fill, "soil + weather")):
        parts.append(f'<rect x="{x}" y="{legend_y - 10}" width="12" height="12" fill="{fill}"/>')
        parts.append(f'<text x="{x + 16}" y="{legend_y}" font-family="sans-serif" '
                     f'font-size="11">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_mae_chart_svg(report: Report, path: str | Path) -> None:
    Path(path).write_text(mae_chart_svg(report))
