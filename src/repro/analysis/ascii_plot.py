"""Minimal ASCII plotting for terminal-rendered figures.

The experiment reports and examples render latency–throughput curves and
cost sweeps directly in the terminal; this module provides a dependency-
free scatter/line canvas good enough to *see* the Figure 10 knee without
leaving the shell.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

#: Glyphs assigned to series, in order.
SERIES_GLYPHS = "*o+x#@%&"


class AsciiCanvas:
    """A fixed-size character canvas with data-space plotting.

    Args:
        width / height: plot area size in characters (axes add margins).
        x_range / y_range: data-space extents; computed from data when
            omitted.
    """

    def __init__(
        self,
        width: int = 60,
        height: int = 20,
        x_range: Optional[Tuple[float, float]] = None,
        y_range: Optional[Tuple[float, float]] = None,
    ) -> None:
        if width < 10 or height < 4:
            raise ValueError("canvas too small to be legible")
        self.width = width
        self.height = height
        self._x_range = x_range
        self._y_range = y_range
        self._series: List[Tuple[str, List[Tuple[float, float]], str]] = []

    def add_series(
        self,
        name: str,
        points: Sequence[Tuple[float, float]],
        glyph: Optional[str] = None,
    ) -> None:
        """Add one named series of ``(x, y)`` points."""
        if not points:
            raise ValueError(f"series {name!r} has no points")
        if glyph is None:
            glyph = SERIES_GLYPHS[len(self._series) % len(SERIES_GLYPHS)]
        self._series.append((name, sorted(points), glyph))

    def _extent(self) -> Tuple[float, float, float, float]:
        xs = [x for _, pts, _ in self._series for x, _ in pts]
        ys = [y for _, pts, _ in self._series for _, y in pts]
        x_lo, x_hi = self._x_range or (min(xs), max(xs))
        y_lo, y_hi = self._y_range or (min(ys), max(ys))
        if math.isclose(x_lo, x_hi):
            x_hi = x_lo + 1.0
        if math.isclose(y_lo, y_hi):
            y_hi = y_lo + 1.0
        return x_lo, x_hi, y_lo, y_hi

    def render(
        self,
        title: str = "",
        x_label: str = "",
        y_label: str = "",
    ) -> str:
        """Render the canvas with axes, tick labels and a legend."""
        if not self._series:
            raise ValueError("nothing to plot")
        x_lo, x_hi, y_lo, y_hi = self._extent()
        grid = [[" "] * self.width for _ in range(self.height)]

        def to_cell(x: float, y: float) -> Tuple[int, int]:
            col = round((x - x_lo) / (x_hi - x_lo) * (self.width - 1))
            row = round((y - y_lo) / (y_hi - y_lo) * (self.height - 1))
            return min(max(col, 0), self.width - 1), min(
                max(row, 0), self.height - 1
            )

        for _, points, glyph in self._series:
            # Connect consecutive points with interpolated glyph dots.
            for (x0, y0), (x1, y1) in zip(points, points[1:]):
                steps = max(
                    abs(to_cell(x1, y1)[0] - to_cell(x0, y0)[0]),
                    abs(to_cell(x1, y1)[1] - to_cell(x0, y0)[1]),
                    1,
                )
                for i in range(steps + 1):
                    t = i / steps
                    col, row = to_cell(x0 + (x1 - x0) * t, y0 + (y1 - y0) * t)
                    grid[row][col] = glyph
            for x, y in points:
                col, row = to_cell(x, y)
                grid[row][col] = glyph

        lines: List[str] = []
        if title:
            lines.append(title)
        y_hi_label = f"{y_hi:.4g}"
        y_lo_label = f"{y_lo:.4g}"
        margin = max(len(y_hi_label), len(y_lo_label)) + 1
        for row_idx in range(self.height - 1, -1, -1):
            if row_idx == self.height - 1:
                prefix = y_hi_label.rjust(margin)
            elif row_idx == 0:
                prefix = y_lo_label.rjust(margin)
            else:
                prefix = " " * margin
            lines.append(f"{prefix}|" + "".join(grid[row_idx]))
        lines.append(" " * margin + "+" + "-" * self.width)
        x_axis = f"{x_lo:.4g}".ljust(self.width - 8) + f"{x_hi:.4g}".rjust(8)
        lines.append(" " * (margin + 1) + x_axis)
        if x_label or y_label:
            lines.append(
                " " * (margin + 1)
                + (f"x: {x_label}" if x_label else "")
                + (f"   y: {y_label}" if y_label else "")
            )
        legend = "   ".join(f"{glyph}={name}" for name, _, glyph in self._series)
        lines.append(" " * (margin + 1) + legend)
        return "\n".join(lines)


def plot_curves(
    curves: Dict[str, Sequence],
    x_attr: str = "throughput_rps",
    y_attr: str = "mean_norm_latency",
    y_scale: float = 1e3,
    title: str = "",
    width: int = 60,
    height: int = 18,
) -> str:
    """Plot latency–throughput curves (Figure 10 style) as ASCII.

    Args:
        curves: mapping of system name to :class:`RatePoint` sequences.
        x_attr / y_attr: RatePoint attributes to plot.
        y_scale: multiplier applied to y values (default: s -> ms).
    """
    canvas = AsciiCanvas(width=width, height=height)
    for name, points in curves.items():
        canvas.add_series(
            name,
            [
                (getattr(p, x_attr), getattr(p, y_attr) * y_scale)
                for p in points
            ],
        )
    return canvas.render(
        title=title, x_label=x_attr, y_label=f"{y_attr} (x{y_scale:g})"
    )
