"""Small ASCII chart/table renderers used by the benchmark harnesses.

Benchmarks print the same *series* the paper's figures plot; these
helpers make the shape visible in a terminal without matplotlib.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np


def render_series(
    series: dict,
    width: int = 72,
    height: int = 16,
    title: str = "",
) -> str:
    """Plot one or more ``name -> (times, values)`` series as ASCII.

    Each series gets its own marker character; series are drawn in
    order, later ones overwrite earlier ones at collisions.
    """
    if not series:
        raise ValueError("no series to render")
    # One marker per series, cycling when there are more series than
    # marker glyphs (a plain zip would silently drop the overflow).
    base_markers = "ox+*#@%&"
    markers = [base_markers[i % len(base_markers)] for i in range(len(series))]
    t_min = min(float(np.min(t)) for t, _ in series.values())
    t_max = max(float(np.max(t)) for t, _ in series.values())
    v_max = max(float(np.max(v)) for _, v in series.values())
    # The value axis always includes 0 but extends below it when any
    # series goes negative, so negatives get their own rows instead of
    # being clipped onto the zero line.
    v_min = min(0.0, min(float(np.min(v)) for _, v in series.values()))
    v_max = v_max if v_max > v_min else v_min + 1.0
    vspan = v_max - v_min
    span = (t_max - t_min) or 1.0

    grid = [[" "] * width for _ in range(height)]
    for (name, (times, values)), marker in zip(series.items(), markers):
        times = np.asarray(times, dtype=float)
        values = np.asarray(values, dtype=float)
        cols = np.clip(((times - t_min) / span * (width - 1)).astype(int), 0, width - 1)
        rows = np.clip(
            (height - 1 - (values - v_min) / vspan * (height - 1)).astype(int),
            0,
            height - 1,
        )
        for c, r in zip(cols, rows):
            grid[r][c] = marker

    lines = []
    if title:
        lines.append(title)
    margin = len(f"{v_max:,.0f} ")
    lines.append(f"{v_max:,.0f} ┤" + "".join(grid[0]))
    for row in grid[1:-1]:
        lines.append(" " * margin + "│" + "".join(row))
    lines.append(f"{v_min:,.0f}".rjust(margin) + " └" + "─" * width)
    axis = f"{t_min:,.0f}".ljust(width // 2) + f"{t_max:,.0f}".rjust(width // 2)
    lines.append(" " * (margin + 1) + axis)
    legend = "   ".join(
        f"{m}={name}" for (name, _), m in zip(series.items(), markers)
    )
    lines.append(" " * (margin + 1) + legend)
    return "\n".join(lines)


def render_stacked_bar(
    parts: Sequence[tuple], total: Optional[float] = None, width: int = 60
) -> str:
    """One horizontal stacked bar: ``[(label, value), ...]``.

    Used for the Fig 4 OVH/TTX decomposition.
    """
    if not parts:
        raise ValueError("no parts")
    values = [max(0.0, float(v)) for _, v in parts]
    total = total if total is not None else sum(values)
    if total <= 0:
        raise ValueError("total must be positive")
    fills = "█▓▒░"
    bar = ""
    for (label, value), fill in zip(parts, fills * 3):
        cells = int(round(value / total * width))
        bar += fill * cells
    legend = "  ".join(
        f"{fill}={label} ({value:,.0f})"
        for (label, value), fill in zip(parts, fills * 3)
    )
    return f"|{bar[:width].ljust(width)}|\n {legend}"


def render_dag(workflow, max_width: int = 100) -> str:
    """Topologically-layered text rendering of a workflow DAG.

    One line per depth level, tasks annotated with their parents::

        [0] src
        [1] left(<-src)  right(<-src)
        [2] sink(<-left,right)
    """
    depth: dict = {}
    for node in workflow.topological_order():
        depth[node] = 1 + max(
            (depth[p] for p in workflow.parents(node)), default=-1
        )
    by_level: dict = {}
    for node, d in depth.items():
        by_level.setdefault(d, []).append(node)
    lines = []
    for level in sorted(by_level):
        cells = []
        for node in sorted(by_level[level]):
            parents = workflow.parents(node)
            cells.append(
                node if not parents else f"{node}(<-{','.join(parents)})"
            )
        text = f"[{level}] " + "  ".join(cells)
        if len(text) > max_width:
            text = text[: max_width - 3] + "..."
        lines.append(text)
    return "\n".join(lines)


def render_table(headers: Sequence[str], rows: Sequence[Sequence], pad: int = 2) -> str:
    """Plain monospace table."""
    str_rows = [[str(c) for c in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in str_rows)) if str_rows else len(h)
        for i, h in enumerate(headers)
    ]
    sep = " " * pad

    def fmt(cells):
        return sep.join(c.ljust(w) for c, w in zip(cells, widths))

    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines += [fmt(r) for r in str_rows]
    return "\n".join(lines)
