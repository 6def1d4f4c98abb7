"""Minimal plain-text table formatting for experiment and CLI output.

Lives below every package layer (it imports only :mod:`repro.errors`)
so the ``repro-stream`` CLI can print tables without loading the
experiment harness and, through it, the paper-analysis layer.
"""

from __future__ import annotations

from repro.errors import ValidationError


def format_cell(value) -> str:
    """Human-friendly cell rendering: floats get 3 significant-ish
    digits, everything else goes through str()."""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        if value != value:  # NaN
            return "-"
        if value == 0:
            return "0"
        if abs(value) >= 100:
            return f"{value:.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.3f}"
    return str(value)


def format_table(headers: list[str], rows: list[list]) -> str:
    """Render an aligned plain-text table.

    Parameters
    ----------
    headers:
        Column names.
    rows:
        Row values (any printable types; floats are compacted).
    """
    if any(len(row) != len(headers) for row in rows):
        raise ValidationError("all rows must match the header width")
    cells = [[format_cell(v) for v in row] for row in rows]
    widths = [
        max(len(headers[c]), *(len(row[c]) for row in cells)) if cells else len(headers[c])
        for c in range(len(headers))
    ]
    def fmt_row(values: list[str]) -> str:
        return "  ".join(v.ljust(w) for v, w in zip(values, widths)).rstrip()

    lines = [fmt_row(headers), fmt_row(["-" * w for w in widths])]
    lines.extend(fmt_row(row) for row in cells)
    return "\n".join(lines)
