"""Sliding-window top-k over uncertain streams (extension).

The paper's related work (Section 6) points to Jin et al., "Sliding-
Window Top-k Queries on Uncertain Streams" (VLDB 2008).  This
subpackage carries the paper's *score-distribution* semantics into
that setting: :class:`~repro.stream.window.SlidingWindowTopK` keeps
the most recent W uncertain tuples (with their ME groups) in a
mutable table, one ``expire`` and one ``insert`` per slide, and serves
the top-k score distribution and c-Typical answers of the current
window as one standing subscription
(:class:`~repro.standing.registry.StandingRegistry`).  Each query
hands the registry the deltas since the previous one: the answer is
kept when Theorem 2 proves they cannot move its scan prefix, and
otherwise evaluated once, through the same session pipeline and
dynamic program as any other query.
"""

from repro.stream.window import SlidingWindowTopK, WindowSnapshot

__all__ = ["SlidingWindowTopK", "WindowSnapshot"]
