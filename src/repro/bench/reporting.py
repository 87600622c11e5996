"""Plain-text rendering of experiment results.

The paper presents its evaluation as figures; the harness prints the
same series as aligned text tables (and, where a distribution is the
result, as ASCII histograms via :mod:`repro.stats.histogram`).
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence


def format_table(
    rows: Sequence[Mapping[str, Any]],
    *,
    columns: Sequence[str] | None = None,
    floatfmt: str = ".4g",
) -> str:
    """Render dict rows as an aligned text table.

    :param rows: sequence of mappings; a row without a column leaves
        its cell blank.
    :param columns: column order; defaults to every row key, in
        first-seen order.
    :param floatfmt: format spec applied to float values, also inside
        tuples (rendered ``/``-joined).
    """
    if not rows:
        return "(no rows)"
    cols = list(columns or dict.fromkeys(key for row in rows for key in row))

    def cell(value: Any) -> str:
        if isinstance(value, float):
            return format(value, floatfmt)
        if isinstance(value, tuple):
            return "/".join(cell(item) for item in value)
        return str(value)

    rendered = [[cell(row.get(col, "")) for col in cols] for row in rows]
    widths = [
        max(len(col), *(len(r[i]) for r in rendered))
        for i, col in enumerate(cols)
    ]
    header = "  ".join(col.ljust(widths[i]) for i, col in enumerate(cols))
    rule = "  ".join("-" * widths[i] for i in range(len(cols)))
    body = "\n".join(
        "  ".join(r[i].ljust(widths[i]) for i in range(len(cols)))
        for r in rendered
    )
    return f"{header}\n{rule}\n{body}"


def print_series(
    title: str,
    rows: Sequence[Mapping[str, Any]],
    *,
    columns: Sequence[str] | None = None,
) -> None:
    """Print one experiment's series under a title banner."""
    banner = "=" * max(len(title), 8)
    print(f"\n{banner}\n{title}\n{banner}")
    print(format_table(rows, columns=columns))
