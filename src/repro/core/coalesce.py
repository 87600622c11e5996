"""The line-coalescing strategy of Section 3.2.1.

Whenever a (intermediate or final) distribution holds more than a
configured number of vertical lines, the two closest lines merge into
one: the score becomes their average, the probability their sum, and
the representative vector the one of the higher-probability line.
Repeat until the budget is met.

The paper shows (Section 3.2.1) that coalescing an intermediate
distribution is equivalent to coalescing the final one, because lines
move rigidly (same shift, same scale) through the merging process, and
that intermediate spans never exceed the final span — so merging the
two closest lines never merges lines further apart than
``(s_max - s_min) / max_lines``.
"""

from __future__ import annotations

import heapq
from typing import MutableSequence

from repro.exceptions import AlgorithmError

#: A line is a mutable ``[score, prob, vector]`` triple during DP.
Line = MutableSequence


def coalesce_lines(lines: list, max_lines: int) -> list:
    """Reduce ``lines`` to at most ``max_lines`` by closest-pair merging.

    ``lines`` must be sorted ascending by score; each entry is a
    ``[score, prob, vector]`` triple (vector may be ``None``).  The
    input list is consumed (entries may be mutated); the returned list
    is the reduced distribution, still sorted.

    Merging rule (paper, Section 3.2.1): new score = arithmetic mean of
    the two scores, new probability = sum, representative vector = the
    one of the higher-probability line.

    Complexity: O(m log m) — a gap min-heap with lazy invalidation over
    a doubly-linked list of live lines.
    """
    if max_lines < 1:
        raise AlgorithmError(f"max_lines must be >= 1, got {max_lines}")
    m = len(lines)
    if m <= max_lines:
        return lines
    # Doubly-linked list over indices; heap of (gap, left_index, stamp)
    # entries invalidated lazily when a line mutates or dies.
    next_live = list(range(1, m)) + [-1]
    prev_live = [-1] + list(range(m - 1))
    alive = [True] * m
    stamp = [0] * m
    heap: list[tuple[float, int, int]] = [
        (lines[i + 1][0] - lines[i][0], i, 0) for i in range(m - 1)
    ]
    heapq.heapify(heap)
    remaining = m
    while remaining > max_lines:
        gap, left_index, seen = heapq.heappop(heap)
        if not alive[left_index] or stamp[left_index] != seen:
            continue
        right_index = next_live[left_index]
        if right_index < 0:
            continue
        left = lines[left_index]
        right = lines[right_index]
        if right[0] - left[0] != gap:
            # The right neighbour changed since this entry was pushed.
            stamp[left_index] += 1
            heapq.heappush(
                heap,
                (right[0] - left[0], left_index, stamp[left_index]),
            )
            continue
        merged_vector = left[2] if left[1] >= right[1] else right[2]
        if merged_vector is None:
            merged_vector = right[2] if left[2] is None else left[2]
        left[0] = (left[0] + right[0]) / 2.0
        left[1] = left[1] + right[1]
        left[2] = merged_vector
        alive[right_index] = False
        remaining -= 1
        after = next_live[right_index]
        next_live[left_index] = after
        if after >= 0:
            prev_live[after] = left_index
        stamp[left_index] += 1
        if after >= 0:
            heapq.heappush(
                heap,
                (lines[after][0] - left[0], left_index, stamp[left_index]),
            )
        before = prev_live[left_index]
        if before >= 0:
            stamp[before] += 1
            heapq.heappush(
                heap,
                (left[0] - lines[before][0], before, stamp[before]),
            )
    lines[:] = [lines[i] for i in range(m) if alive[i]]
    return lines


def reduce_lines(lines: list, max_lines: int) -> None:
    """Sort ``lines`` by score, merge equal scores, then coalesce to
    ``max_lines``, all in place.

    Equal scores become one line whose probability sums theirs in
    order; a later line's vector replaces the kept one only when that
    line is heavier than the sum so far.  This is the buffer flush of
    the k-Combo and StateExpansion baselines.
    """
    lines.sort(key=lambda line: line[0])
    merged: list = []
    for line in lines:
        if merged and merged[-1][0] == line[0]:
            if line[1] > merged[-1][1]:
                merged[-1][2] = line[2]
            merged[-1][1] += line[1]
        else:
            merged.append(line)
    coalesce_lines(merged, max_lines)
    lines[:] = merged


def merge_sorted_lines(a: list, b: list) -> list:
    """Merge two score-sorted line lists, combining equal scores.

    Equal scores become one line with summed probability, keeping the
    higher-probability representative vector (step 3 of the merging
    process in Section 3.2).  Inputs are not modified; entries of the
    output are fresh triples.
    """
    out: list = []
    i = j = 0
    while i < len(a) and j < len(b):
        sa, sb = a[i][0], b[j][0]
        if sa < sb:
            out.append([sa, a[i][1], a[i][2]])
            i += 1
        elif sb < sa:
            out.append([sb, b[j][1], b[j][2]])
            j += 1
        else:
            pa, pb = a[i][1], b[j][1]
            vector = a[i][2] if pa >= pb else b[j][2]
            if vector is None:
                vector = b[j][2] if a[i][2] is None else a[i][2]
            out.append([sa, pa + pb, vector])
            i += 1
            j += 1
    for index in range(i, len(a)):
        out.append([a[index][0], a[index][1], a[index][2]])
    for index in range(j, len(b)):
        out.append([b[index][0], b[index][1], b[index][2]])
    return out
