"""Rowmotion on antichains and ideals, orbits, ideal complements, superorbits.

Rowmotion sends an antichain A to the minimal elements of the complement
of the ideal it generates; on ideals it sends I to the ideal generated by
the minimal elements of the complement of I.  Both maps are bijections on
their families, and generating an ideal from an antichain intertwines the
two actions, so the orbit structures coincide.

Orbits are canonicalised deterministically: each orbit is listed starting
from its member with the smallest bitmask (bit k-1 for x_k), and orbits
are sorted by that representative.  An orbit stores only the bitmasks of
its members; ElementSets are built on demand at the API edge.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fence import (
    ANTICHAIN,
    IDEAL,
    UPPER,
    ElementSet,
    Fence,
    FenceError,
    RoleError,
)


@dataclass(frozen=True)
class Orbit:
    """A cyclic rowmotion orbit held as the bitmasks of its members;
    consecutive masks are related by the step.

    Counting code reads `masks` directly.  `reps` and `representative`
    wrap the masks as ElementSets on each access, and the cylindrical
    tiling of an antichain orbit is built only when it is rendered or
    round-tripped (see `fences.tiling`).
    """

    family: str
    masks: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.masks)

    @property
    def reps(self) -> tuple[ElementSet, ...]:
        return tuple(ElementSet(m, self.family) for m in self.masks)

    @property
    def representative(self) -> ElementSet:
        return ElementSet(self.masks[0], self.family)

    def __repr__(self) -> str:
        rep = self.representative.label()
        return f"Orbit({self.family}, size={self.size}, rep={rep})"


@dataclass(frozen=True)
class Superorbit:
    """One or two ideal orbits closed under rowmotion and ideal complement."""

    orbits: tuple[Orbit, ...]

    @property
    def size(self) -> int:
        return sum(o.size for o in self.orbits)

    def __repr__(self) -> str:
        sizes = "+".join(str(o.size) for o in self.orbits)
        return f"Superorbit(sizes={sizes})"


# -- mask-level steps (hot paths) ------------------------------------------


def _rho_mask(F: Fence, m: int) -> int:
    return F._minimal_mask(F.full_mask ^ F._down_closure_mask(m))


def _rho_hat_mask(F: Fence, m: int) -> int:
    return F._down_closure_mask(F._minimal_mask(F.full_mask ^ m))


def _rho_inv_mask(F: Fence, m: int) -> int:
    return F._maximal_mask(F.full_mask ^ F._up_closure_mask(m))


def _rho_hat_inv_mask(F: Fence, m: int) -> int:
    return F.full_mask ^ F._up_closure_mask(F._maximal_mask(m))


def rowmotion(F: Fence, S: ElementSet) -> ElementSet:
    """One rowmotion step, dispatching on the family of S."""
    if S.role == ANTICHAIN:
        if not F.is_antichain_mask(S.mask):
            raise RoleError(f"{S} is not an antichain of {F!r}")
        return ElementSet(_rho_mask(F, S.mask), ANTICHAIN)
    if S.role == IDEAL:
        if not F.is_ideal_mask(S.mask):
            raise RoleError(f"{S} is not an ideal of {F!r}")
        return ElementSet(_rho_hat_mask(F, S.mask), IDEAL)
    raise RoleError(f"rowmotion acts on antichains and ideals, not {S.role}")


def rowmotion_inverse(F: Fence, S: ElementSet) -> ElementSet:
    """Inverse rowmotion step on antichains or ideals."""
    if S.role == ANTICHAIN:
        return ElementSet(_rho_inv_mask(F, S.mask), ANTICHAIN)
    if S.role == IDEAL:
        return ElementSet(_rho_hat_inv_mask(F, S.mask), IDEAL)
    raise RoleError(f"rowmotion acts on antichains and ideals, not {S.role}")


# -- orbit decomposition ------------------------------------------------


def decompose(masks, step) -> list[list[int]]:
    """Partition masks into orbits of a bijective step function.

    Seeds are taken in increasing mask order, so each orbit starts at its
    smallest member and the orbit list is sorted by that representative.
    Cycles are detected by revisiting the seed, never by a length bound.
    """
    seen: set[int] = set()
    orbits: list[list[int]] = []
    for m in sorted(masks):
        if m in seen:
            continue
        orbit = [m]
        seen.add(m)
        x = step(m)
        while x != m:
            orbit.append(x)
            seen.add(x)
            x = step(x)
        orbits.append(orbit)
    return orbits


def _orbit_mask_lists(F: Fence, family: str, cap: int | None = None) -> list[list[int]]:
    masks = F.family_masks(family, cap)  # checks the cap, also on a cached family
    key = ("orbits", family)
    cached = F._cache.get(key)
    if cached is None:
        if family == ANTICHAIN:
            cached = decompose(masks, lambda m: _rho_mask(F, m))
        elif family == IDEAL:
            cached = decompose(masks, lambda m: _rho_hat_mask(F, m))
        else:
            raise FenceError(f"no rowmotion orbits for family {family!r}")
        F._cache[key] = cached
    return cached


def antichain_orbits(F: Fence, cap: int | None = None) -> tuple[Orbit, ...]:
    """All rowmotion orbits on antichains, canonically ordered."""
    return tuple(
        Orbit(ANTICHAIN, tuple(ms)) for ms in _orbit_mask_lists(F, ANTICHAIN, cap)
    )


def ideal_orbits(F: Fence, cap: int | None = None) -> tuple[Orbit, ...]:
    """All rowmotion orbits on ideals, canonically ordered."""
    return tuple(
        Orbit(IDEAL, tuple(ms)) for ms in _orbit_mask_lists(F, IDEAL, cap)
    )


def orbit_of(F: Fence, S: ElementSet) -> Orbit:
    """The canonical orbit containing S."""
    if S.role == ANTICHAIN:
        step = _rho_mask
        if not F.is_antichain_mask(S.mask):
            raise RoleError(f"{S} is not an antichain of {F!r}")
    elif S.role == IDEAL:
        step = _rho_hat_mask
        if not F.is_ideal_mask(S.mask):
            raise RoleError(f"{S} is not an ideal of {F!r}")
    else:
        raise RoleError(f"no rowmotion orbit for role {S.role}")
    cycle = [S.mask]
    x = step(F, S.mask)
    while x != S.mask:
        cycle.append(x)
        x = step(F, x)
    start = cycle.index(min(cycle))
    cycle = cycle[start:] + cycle[:start]
    return Orbit(S.role, tuple(cycle))


# -- ideal complement and superorbits ------------------------------------


def _ideal_complement_mask(F: Fence, m: int) -> int:
    return F.reversed_mask(F.full_mask ^ m)


def ideal_complement(F: Fence, I: ElementSet) -> ElementSet:
    """The ideal obtained by complementing and flipping through the
    order-reversing index bijection.  Requires a self-dual fence."""
    F.require_role(I, IDEAL)
    F.index_reversal()  # raises if the fence is not self-dual
    m = _ideal_complement_mask(F, I.mask)
    if not F.is_ideal_mask(m):  # cannot happen once duality is verified
        raise FenceError("ideal complement left the ideal family")
    return ElementSet(m, IDEAL)


def superorbits(F: Fence, cap: int | None = None) -> tuple[Superorbit, ...]:
    """Orbits of the group generated by ideal rowmotion and complement.

    Each superorbit is a single rowmotion orbit closed under the ideal
    complement, or a pair of equal-sized orbits swapped by it.
    """
    F.index_reversal()
    orbits = ideal_orbits(F, cap)
    rep_to_index = {o.masks[0]: i for i, o in enumerate(orbits)}

    def orbit_index_of(mask: int) -> int:
        cycle_min = mask
        x = _rho_hat_mask(F, mask)
        while x != mask:
            if x < cycle_min:
                cycle_min = x
            x = _rho_hat_mask(F, x)
        return rep_to_index[cycle_min]

    paired: list[Superorbit] = []
    used: set[int] = set()
    for i, o in enumerate(orbits):
        if i in used:
            continue
        used.add(i)
        j = orbit_index_of(_ideal_complement_mask(F, o.masks[0]))
        if j == i:
            paired.append(Superorbit((o,)))
        else:
            if j in used:
                raise FenceError("ideal complement did not pair orbits")
            if orbits[j].size != o.size:
                raise FenceError("paired orbits differ in size")
            used.add(j)
            paired.append(Superorbit((o, orbits[j])))
    return tuple(paired)
