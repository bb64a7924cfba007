"""Plain-text rendering of experiment results (tables and ASCII charts).

The benchmark harness prints every reproduced table/figure in a form
directly comparable with the paper: tables mirror the paper's rows and
columns; figures are rendered as log-scale ASCII charts plus the raw
series, since the *shape* of the curves (straight lines in log-error,
crossovers in the eps sweeps) is the reproduction target.  Every report
ends with one ``PASS``/``FAIL`` line per paper claim the result checks
(:func:`format_claims`).
"""

from __future__ import annotations

import math
from collections.abc import Sequence

#: one paper claim a result checks: ``(text, passed)``
Claim = tuple[str, bool]

__all__ = [
    "Claim",
    "format_claims",
    "format_table",
    "format_ratio",
    "format_seconds",
    "format_bytes",
    "ascii_chart",
    "format_series",
]


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    *,
    title: str = "",
) -> str:
    """Render an aligned plain-text table."""
    cells = [[str(h) for h in headers]] + [
        [str(c) for c in row] for row in rows
    ]
    widths = [
        max(len(row[col]) for row in cells) for col in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    separator = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
    lines.append(separator)
    for row in cells[1:]:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_claims(claims: Sequence[Claim]) -> str:
    """One ``PASS``/``FAIL`` line per claim, in order."""
    return "\n".join(
        f"{'PASS' if passed else 'FAIL'}  {text}" for text, passed in claims
    )


def format_ratio(value: float, base: float) -> str:
    """Figure 4's ``c.cx`` annotation: ``value`` as a multiple of ``base``."""
    if base <= 0:
        return "n/a"
    ratio = value / base
    if ratio >= 100:
        return f"{ratio:.0f}x"
    if ratio >= 10:
        return f"{ratio:.0f}x"
    return f"{ratio:.1f}x"


def format_seconds(seconds: float) -> str:
    """Human-readable seconds with 3 significant digits."""
    if seconds < 1e-3:
        return f"{seconds * 1e6:.0f}us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.1f}ms"
    if seconds < 100.0:
        return f"{seconds:.2f}s"
    return f"{seconds:.0f}s"


def format_bytes(num_bytes: float) -> str:
    """Human-readable byte counts (Table 2 style)."""
    value = float(num_bytes)
    for unit in ("B", "KB", "MB", "GB", "TB"):
        if value < 1024.0 or unit == "TB":
            if unit == "B":
                return f"{value:.0f}{unit}"
            return f"{value:.2f}{unit}"
        value /= 1024.0
    raise AssertionError("unreachable")


def ascii_chart(
    series: dict[str, tuple[Sequence[float], Sequence[float]]],
    *,
    title: str = "",
    width: int = 64,
    height: int = 16,
    log_y: bool = True,
    log_x: bool = False,
    x_label: str = "x",
    y_label: str = "y",
) -> str:
    """Render multiple (x, y) series as an ASCII scatter chart.

    Each series gets a distinct marker; the legend maps markers to
    names.  Zero/negative values are clipped to the smallest positive
    value when a log scale is requested.
    """
    markers = "*o+x#@%&"
    all_x: list[float] = []
    all_y: list[float] = []
    for xs, ys in series.values():
        all_x.extend(float(v) for v in xs)
        all_y.extend(float(v) for v in ys)
    if not all_x:
        return f"{title}\n(no data)"

    def _scale(values: list[float], log: bool) -> tuple[float, float]:
        positive = [v for v in values if v > 0]
        floor = min(positive) if positive else 1e-12
        lo = min(values) if not log else min(positive or [floor])
        hi = max(values)
        if log:
            lo, hi = math.log10(max(lo, 1e-300)), math.log10(max(hi, 1e-300))
        if hi <= lo:
            hi = lo + 1.0
        return lo, hi

    x_lo, x_hi = _scale(all_x, log_x)
    y_lo, y_hi = _scale(all_y, log_y)

    grid = [[" "] * width for _ in range(height)]
    for index, (name, (xs, ys)) in enumerate(series.items()):
        marker = markers[index % len(markers)]
        for x, y in zip(xs, ys):
            x, y = float(x), float(y)
            if log_x:
                if x <= 0:
                    continue
                x = math.log10(x)
            if log_y:
                if y <= 0:
                    continue
                y = math.log10(y)
            col = int((x - x_lo) / (x_hi - x_lo) * (width - 1))
            row = int((y - y_lo) / (y_hi - y_lo) * (height - 1))
            row = height - 1 - row
            if 0 <= row < height and 0 <= col < width:
                grid[row][col] = marker

    lines = []
    if title:
        lines.append(title)
    y_hi_label = f"1e{y_hi:.1f}" if log_y else f"{y_hi:.3g}"
    y_lo_label = f"1e{y_lo:.1f}" if log_y else f"{y_lo:.3g}"
    lines.append(f"{y_label} (top={y_hi_label}, bottom={y_lo_label})")
    for row in grid:
        lines.append("|" + "".join(row))
    lines.append("+" + "-" * width)
    x_lo_label = f"1e{x_lo:.1f}" if log_x else f"{x_lo:.3g}"
    x_hi_label = f"1e{x_hi:.1f}" if log_x else f"{x_hi:.3g}"
    lines.append(f" {x_label}: {x_lo_label} .. {x_hi_label}")
    legend = "  ".join(
        f"{markers[i % len(markers)]}={name}"
        for i, name in enumerate(series)
    )
    lines.append(f" legend: {legend}")
    return "\n".join(lines)


def format_series(
    series: dict[str, tuple[Sequence[float], Sequence[float]]],
    *,
    x_name: str = "x",
    y_name: str = "y",
    max_points: int = 12,
) -> str:
    """Tabulate series values (down-sampled) for exact inspection."""
    lines = []
    for name, (xs, ys) in series.items():
        stride = max(1, len(xs) // max_points)
        points = ", ".join(
            f"({float(x):.3g}, {float(y):.3g})"
            for x, y in list(zip(xs, ys))[::stride]
        )
        lines.append(f"{name}: [{x_name}, {y_name}] {points}")
    return "\n".join(lines)
