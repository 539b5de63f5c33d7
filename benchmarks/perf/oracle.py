"""Reference answers, computed in plain Python from the generated rows only.

Nothing here touches the deployment: a workload hands over the rows it
generated (or, for the live feed, the feed's publish log) and compares the
system's answer with what these functions return.  A mismatch is counted
as a failed operation by the caller, never raised.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, Iterable, List, Mapping, Sequence, Tuple


def join_keys(
    facts: Iterable[Mapping[str, Any]],
    dimensions: Sequence[Tuple[str, Iterable[Mapping[str, Any]]]],
    output: str = "k",
) -> Counter:
    """Multiset of ``output`` values of ``facts JOIN dim ON col = col`` for
    every ``(col, dim_rows)`` in ``dimensions`` (equi-joins on a column of
    the same name, the shape the benchmark's SQL uses)."""
    multiplicities = [
        (column, Counter(row[column] for row in rows)) for column, rows in dimensions
    ]
    answer: Counter = Counter()
    for fact in facts:
        copies = 1
        for column, counts in multiplicities:
            copies *= counts.get(fact[column], 0)
        if copies:
            answer[fact[output]] += copies
    return answer


def group_counts(rows_by_node: Iterable[Iterable[Mapping[str, Any]]], column: str) -> Dict[Any, int]:
    """``SELECT column, COUNT(*) ... GROUP BY column`` over every node's rows."""
    counts: Counter = Counter()
    for rows in rows_by_node:
        for row in rows:
            counts[row[column]] += 1
    return dict(counts)


class WindowOracle:
    """Per-window group counts of a live feed, from its publish log.

    ``publish_log`` is ``(publish time, group)`` pairs; they are binned
    into panes of ``pane`` seconds once, so each window is a sum of panes
    instead of a scan of the whole log.
    """

    def __init__(self, publish_log: Iterable[Tuple[float, Any]], pane: float) -> None:
        self.pane = pane
        self._panes: Dict[int, Counter] = {}
        for time, group in publish_log:
            self._panes.setdefault(int(time // pane), Counter())[group] += 1

    def counts(self, start: float, end: float) -> Dict[Any, int]:
        """Events per group published in ``[start, end)``; both must be
        pane boundaries."""
        total: Counter = Counter()
        for pane in range(int(round(start / self.pane)), int(round(end / self.pane))):
            total.update(self._panes.get(pane, ()))
        return dict(total)


def expected_epochs(window: float, slide: float, horizon: float) -> List[Tuple[float, float]]:
    """``(start, end)`` of every window a subscriber attached before the
    first pane closed must receive by ``horizon``: ends on multiples of
    ``slide``, starts clipped at time zero like the system's own first
    windows."""
    epochs = []
    end = slide
    while end <= horizon + 1e-9:
        epochs.append((max(end - window, 0.0), end))
        end += slide
    return epochs
