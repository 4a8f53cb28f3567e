"""Plain-text table reporting for the experiment harness.

Every figure driver prints its series through these helpers so the
benchmark output reads like the paper's tables: one row per measurement,
with the paper's published value next to ours where one exists.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from ..perf.metrics import comm_bandwidth as _comm_bandwidth
from ..perf.timing import ReducedTimingTree

__all__ = [
    "format_table",
    "format_comparison",
    "print_header",
    "format_comm_breakdown",
]


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Render rows as an aligned ASCII table."""
    srows: List[List[str]] = [[_fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in srows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in srows:
        lines.append(" | ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_comparison(
    quantity: str, paper_value: str, ours: str, note: str = ""
) -> str:
    """One paper-vs-reproduction line."""
    line = f"  {quantity:<46s} paper: {paper_value:<18s} ours: {ours}"
    if note:
        line += f"   ({note})"
    return line


def print_header(title: str) -> str:
    bar = "=" * max(len(title), 20)
    return f"\n{bar}\n{title}\n{bar}"


def format_comm_breakdown(reduced: ReducedTimingTree) -> str:
    """Per-sweep share table plus derived communication metrics.

    The "comm fraction" row is the quantity plotted as dotted lines in
    Figure 6 of the paper; the bandwidth row divides the
    ``comm.remote_bytes`` counter by the communication scope's average
    wall seconds (§4's per-message accounting, measured instead of
    modeled).
    """
    total = reduced.total_seconds()
    rows = []
    for name, node in reduced.root.children.items():
        share = node.total_avg / total if total > 0 else 0.0
        rows.append((name, f"{node.total_avg:.4f}", f"{100 * share:.1f}%"))
    lines = [format_table(("sweep", "avg s", "share"), rows,
                          title="per-sweep breakdown (avg over ranks)")]
    comm = reduced.root.children.get("communication")
    if comm is not None:
        lines.append(f"comm fraction (Fig. 6 dotted line): "
                     f"{100 * reduced.fraction('communication'):.1f}%")
        nbytes = reduced.counters.get("comm.remote_bytes", 0.0)
        bw = _comm_bandwidth(nbytes, comm.total_avg * max(reduced.n_ranks, 1))
        if nbytes:
            lines.append(
                f"remote ghost-layer traffic: {nbytes:,.0f} B, "
                f"{bw / 1024**2:.1f} MiB/s per rank"
            )
    return "\n".join(lines)


def _fmt(v: object) -> str:
    if isinstance(v, float):
        if v == 0:
            return "0"
        if abs(v) >= 1e5 or abs(v) < 1e-3:
            return f"{v:.3g}"
        return f"{v:.3f}".rstrip("0").rstrip(".")
    return str(v)
