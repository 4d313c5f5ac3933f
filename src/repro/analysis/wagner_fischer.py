"""Wagner–Fischer edit distance and channel error rate (Section V).

The paper computes covert-channel error rates as the Levenshtein edit
distance between the transmitted and received bit strings, normalised by
the transmitted length — this charges insertions and deletions (bit
slips) as well as substitutions, unlike a plain Hamming comparison.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["edit_distance", "error_rate"]


def edit_distance(sent: Sequence, received: Sequence) -> int:
    """Levenshtein distance via the Wagner–Fischer dynamic program.

    Runs in ``O(len(sent) * len(received))`` time with a two-row table.
    Elements are compared with ``==``; bit sequences, strings, and lists
    all work.
    """
    n, m = len(sent), len(received)
    if n == 0:
        return m
    if m == 0:
        return n
    # Plain int lists and comparisons instead of NumPy cells and ``min``:
    # per-cell call overhead dominates this loop.
    previous = list(range(m + 1))
    for i, sent_item in enumerate(sent, 1):
        current = [i]
        left = i
        for j, received_item in enumerate(received):
            # substitution / match
            best = previous[j] + (0 if sent_item == received_item else 1)
            if previous[j + 1] + 1 < best:  # deletion
                best = previous[j + 1] + 1
            if left + 1 < best:  # insertion
                best = left + 1
            current.append(best)
            left = best
        previous = current
    return previous[m]


def error_rate(sent: Sequence, received: Sequence) -> float:
    """Edit distance normalised by the transmitted length.

    Returns 0.0 for two empty sequences.  Can exceed 1.0 when the
    received string is much longer than the sent one, exactly as the
    paper's metric would.
    """
    if not sent:
        return 0.0 if not received else float(len(received))
    return edit_distance(sent, received) / len(sent)
