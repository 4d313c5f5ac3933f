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
    """Levenshtein distance, computed bit-parallel (Myers 1999, in
    Hyyrö's formulation for the global distance).

    One column of the Wagner–Fischer table is held as two bit vectors
    of its vertical +1/-1 deltas, one bit per element of ``sent``, in
    Python ints; each element of ``received`` updates the whole column
    in a few word operations, so it runs in ``O(len(received))`` big-int
    steps.  Elements are matched through a dict keyed on the elements of
    ``sent``, so they must be hashable; bit sequences, strings, and lists
    of ints all work.
    """
    n, m = len(sent), len(received)
    if n == 0:
        return m
    if m == 0:
        return n
    # Per symbol, the positions of ``sent`` holding it.
    match: dict = {}
    for i, item in enumerate(sent):
        match[item] = match.get(item, 0) | (1 << i)
    mask = (1 << n) - 1
    last = 1 << (n - 1)
    plus, minus = mask, 0  # vertical deltas of column 0: all +1
    distance = n
    for item in received:
        eq = match.get(item, 0)
        xv = eq | minus
        xh = (((eq & plus) + plus) ^ plus) | eq
        h_plus = minus | ~(xh | plus)
        h_minus = plus & xh
        if h_plus & last:
            distance += 1
        elif h_minus & last:
            distance -= 1
        # Row 0 is 0, 1, 2, ...: its horizontal delta is always +1.
        h_plus = (h_plus << 1) | 1
        h_minus <<= 1
        plus = (h_minus | ~(xv | h_plus)) & mask
        minus = h_plus & xv & mask
    return distance


def error_rate(sent: Sequence, received: Sequence) -> float:
    """Edit distance normalised by the transmitted length.

    Returns 0.0 for two empty sequences.  Can exceed 1.0 when the
    received string is much longer than the sent one, exactly as the
    paper's metric would.
    """
    if not sent:
        return 0.0 if not received else float(len(received))
    return edit_distance(sent, received) / len(sent)
