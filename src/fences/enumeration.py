"""Exact ideal counts for fences.

The count of ideals (equivalently antichains) satisfies a two-term
recurrence: removing the last segment either keeps its shared element out
of the ideal (dropping two parts) or splits off a chain (multiplying by
the last part).  Base cases: a single part a is a chain with a-1 elements
and a ideals, and two parts (a, b) give ab + 1.  The recurrence lives on
Composition.ideal_count, where Fence.ideal_masks also reads it to check
the family cap before enumerating.

Counts are plain Python integers, so arbitrary precision comes for free.
"""

from __future__ import annotations

from typing import Iterable

from .fence import Composition, FenceError


def count_ideals(alpha: Composition | Iterable[int]) -> int:
    """Number of ideals of the fence of alpha, via the recurrence."""
    return Composition.coerce(alpha).ideal_count


def count_antichains(alpha: Composition | Iterable[int]) -> int:
    """Antichains are in bijection with ideals via maximal elements."""
    return count_ideals(alpha)


def closed_form_count(alpha: Composition | Iterable[int]) -> int:
    """Closed-form ideal count for 2 to 5 parts; equals count_ideals."""
    alpha = Composition.coerce(alpha)
    p = alpha.parts
    if len(p) == 2:
        a, b = p
        return a * b + 1
    if len(p) == 3:
        a, b, c = p
        return a * b * c + a + c
    if len(p) == 4:
        a, b, c, d = p
        return a * b * c * d + a * b + a * d + c * d + 1
    if len(p) == 5:
        a, b, c, d, e = p
        return (
            a * b * c * d * e
            + a * b * c
            + a * b * e
            + a * d * e
            + c * d * e
            + a
            + c
            + e
        )
    raise FenceError(
        f"closed form is available for 2..5 parts, got {len(p)}"
    )
