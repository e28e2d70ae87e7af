"""Funnel summaries reproducing Table 3's presentation.

Table 3 reports, per workload, the number of change points detected and
the "1/N" reduction ratio remaining after each technique runs in
sequence.  These helpers render :class:`~repro.core.pipeline.FunnelCounters`
the same way.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Tuple

from repro.core.pipeline import STAGES, FunnelCounters

__all__ = ["funnel_rows", "format_funnel_table"]

#: Stage key -> Table 3 row label.
_ROW_LABELS = {
    "change_points": "# Change points detected",
    "went_away": "After went-away detection",
    "seasonality": "After seasonality detection",
    "threshold": "After threshold filtering",
    "same_regression": "After SameRegressionMerger",
    "som_dedup": "After SOMDedup",
    "cost_shift": "After cost-shift analysis",
    "pairwise_dedup": "After PairwiseDedup",
}


def funnel_rows(funnel: FunnelCounters) -> List[Tuple[str, str]]:
    """Table 3 rows: (label, value) with "1/N" ratios after the first row."""
    detected = funnel.counts["change_points"]
    ratios = funnel.reduction_ratios()
    rows: List[Tuple[str, str]] = [(_ROW_LABELS["change_points"], f"{detected}")]
    for stage in STAGES[1:]:
        if detected == 0:
            value = "--"
        else:
            # An empty stage's ratio is inf, which formats as "1/inf".
            value = f"1/{ratios[stage]:.0f} ({funnel.counts[stage]} remaining)"
        rows.append((_ROW_LABELS[stage], value))
    return rows


def format_funnel_table(
    funnels: Mapping[str, FunnelCounters],
) -> str:
    """Render one Table 3-style text table for several workload columns."""
    columns = sorted(funnels)
    label_width = max(len(label) for label in _ROW_LABELS.values()) + 2
    col_width = max(22, max(len(c) for c in columns) + 2)

    header = " " * label_width + "".join(c.ljust(col_width) for c in columns)
    lines = [header, "-" * len(header)]
    per_column_rows = {c: dict(funnel_rows(funnels[c])) for c in columns}
    for stage in STAGES:
        label = _ROW_LABELS[stage]
        row = label.ljust(label_width)
        for column in columns:
            row += per_column_rows[column][label].ljust(col_width)
        lines.append(row)
    return "\n".join(lines)
