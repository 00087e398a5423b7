"""Rowmotion on antichains and ideals, orbits, ideal complements, superorbits.

Rowmotion sends an antichain A to the minimal elements of the complement
of the ideal it generates; on ideals it sends I to the ideal generated by
the minimal elements of the complement of I.  Both maps are bijections on
their families, and generating an ideal from an antichain intertwines the
two actions, so the orbit structures coincide.

Orbits are canonicalised deterministically: each orbit is listed starting
from its member with the smallest bitmask (bit k-1 for x_k), and orbits
are sorted by that representative.  An orbit stores only the bitmasks of
its members; ElementSets are built on demand at the API edge.  A family's
orbits are decomposed once and kept in Fence.memo as one tuple of Orbits,
which antichain_orbits and ideal_orbits return on every call.

decompose steps a whole family with one call of its step per chunk of
lanes: it packs the sorted family into the lanes of a few ints
(Fence.lane_chunks; one int unless the family is large), applies the step
to each and unpacks the images.  One argsort of the images gives the
predecessor permutation (the member stepping to each member), and one
list comparison proves the step a bijection on the family before any
walk; a step that sends two members to one image, or a member outside
the family, raises FenceError there.  The orbits are then an unchecked
walk along the predecessors by index, each reversed once, so they hold
the family's own mask objects.

A caller that needs only the first few orbits (the CLI's `tiling
--orbit-index`) takes them from first_orbits, which walks each one with
orbit_of from the least family member no earlier orbit holds.  A single
step costs 3.2 to 4.7 times decompose's work per member (the antichains
of (4^8), (3^8) and (2^12), Python 3.11 on a shared 2-core VM), so the
walk stops once it has stepped a quarter of the family (_walk_budget)
and decomposes instead: no prefix costs more than about twice the whole
decomposition.

On a self-dual fence the ideal complement reverses ideal rowmotion, so it
maps each ideal orbit onto a whole orbit.  superorbits therefore finds an
orbit's partner as the orbit represented by the least complement of its
masks, without stepping any mask.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import NoReturn

from .fence import (
    ANTICHAIN,
    IDEAL,
    ElementSet,
    Fence,
    FenceError,
    Lanes,
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
# Each acts on every lane of a layout, or on one mask when lanes is None.


def _rho_mask(F: Fence, m: int, lanes: Lanes | None = None) -> int:
    L = lanes or F.lane
    return F._minimal_mask(L.full ^ F._down_closure_mask(m, L), L)


def _rho_hat_mask(F: Fence, m: int, lanes: Lanes | None = None) -> int:
    L = lanes or F.lane
    return F._down_closure_mask(F._minimal_mask(L.full ^ m, L), L)


def _rho_inv_mask(F: Fence, m: int, lanes: Lanes | None = None) -> int:
    L = lanes or F.lane
    return F._maximal_mask(L.full ^ F._up_closure_mask(m, L), L)


def _rho_hat_inv_mask(F: Fence, m: int, lanes: Lanes | None = None) -> int:
    L = lanes or F.lane
    return L.full ^ F._up_closure_mask(F._maximal_mask(m, L), L)


_STEPS = {ANTICHAIN: _rho_mask, IDEAL: _rho_hat_mask}
_INVERSE_STEPS = {ANTICHAIN: _rho_inv_mask, IDEAL: _rho_hat_inv_mask}


def require_orbit(F: Fence, orbit: Orbit, family: str) -> None:
    """The one check of an Orbit argument: it is tagged `family`, a
    family rowmotion acts on, its masks are distinct members of
    0..full_mask, and one lane-packed rowmotion step maps them onto their
    rotation by one.  Public functions that take an orbit call it once;
    library-built orbits skip it inside the library."""
    if orbit.family != family:
        raise RoleError(f"expected an orbit of {family}s, got one of {orbit.family}s")
    if family not in _STEPS:
        raise RoleError(f"rowmotion acts on antichains and ideals, not {family}")
    masks = orbit.masks
    if not masks:
        raise FenceError("an orbit has at least one member")
    for m in masks:
        if not 0 <= m <= F.full_mask:
            raise FenceError(f"orbit mask {m} does not fit this fence")
    images: list[int] = []
    for lanes, packed in F.lane_chunks(masks):
        images += lanes.unpack(_STEPS[family](F, packed, lanes))
    if images[-1] != masks[0] or images[:-1] != list(masks[1:]):
        raise FenceError(f"the masks are not a rowmotion orbit of {family}s")
    if len(set(masks)) != len(masks):
        raise FenceError("the orbit repeats a member")


def _step_of(F: Fence, S: ElementSet, steps=_STEPS):
    """The mask-level step of S's family from `steps` (rowmotion, or its
    inverse), once S is checked to be a member of that family."""
    if S.role not in steps:
        raise RoleError(f"rowmotion acts on antichains and ideals, not {S.role}")
    F.require_role(S, S.role)
    return partial(steps[S.role], F)


def rowmotion(F: Fence, S: ElementSet) -> ElementSet:
    """One rowmotion step, dispatching on the family of S."""
    return ElementSet(_step_of(F, S)(S.mask), S.role)


def rowmotion_inverse(F: Fence, S: ElementSet) -> ElementSet:
    """Inverse rowmotion step on antichains or ideals."""
    return ElementSet(_step_of(F, S, _INVERSE_STEPS)(S.mask), S.role)


# -- orbit decomposition ------------------------------------------------


def decompose(F: Fence, masks, step) -> list[list[int]]:
    """Partition masks, members of a family of F, into orbits of a
    bijective step called as step(packed, lanes) on a chunk of them at a
    time (Fence.lane_chunks).

    pred, the indices sorted by image, is the predecessor permutation:
    pred[j] is the member whose image is the j-th smallest mask.  The
    step is a bijection on the masks exactly when the images in that
    order are the sorted masks, which one list comparison checks up
    front; otherwise FenceError names an image outside the masks, or else
    a mask that is the image of two.  Each orbit is then walked backwards
    along pred from its seed and reversed.  Seeds are taken in increasing
    mask order, so each orbit starts at its smallest member and the orbit
    list is sorted by that representative.
    """
    order = sorted(masks)
    count = len(order)
    images: list[int] = []
    for lanes, packed in F.lane_chunks(order):
        images += lanes.unpack(step(packed, lanes))
    pred = sorted(range(count), key=images.__getitem__)
    if list(map(images.__getitem__, pred)) != order:
        _raise_not_a_bijection(order, images)
    seen = bytearray(count)
    orbits: list[list[int]] = []
    seed = seen.find(0)
    while seed >= 0:
        orbit, i = [], seed
        while True:
            i = pred[i]
            seen[i] = 1
            orbit.append(order[i])
            if i == seed:
                break
        orbit.reverse()
        orbits.append(orbit)
        seed = seen.find(0, seed + 1)
    return orbits


def _raise_not_a_bijection(order: list[int], images: list[int]) -> NoReturn:
    """Name the first image outside the masks, or else a mask that is the
    image of two: one of them exists when the sorted images differ from
    the sorted masks."""
    members = set(order)
    for m, image in zip(order, images):
        if image not in members:
            raise FenceError(
                f"step is not a bijection: mask {m} steps to {image}, "
                "outside the masks"
            )
    hit: set[int] = set()
    for image in images:
        if image in hit:
            raise FenceError(
                f"step is not a bijection: mask {image} is the image of two masks"
            )
        hit.add(image)


def _rowmotion_orbits(F: Fence, family: str) -> tuple[Orbit, ...]:
    return F.memo(
        ("orbits", family),
        lambda: tuple(
            Orbit(family, tuple(ms))
            for ms in decompose(F, F.family_masks(family), partial(_STEPS[family], F))
        ),
    )


def antichain_orbits(F: Fence) -> tuple[Orbit, ...]:
    """All rowmotion orbits on antichains, canonically ordered."""
    return _rowmotion_orbits(F, ANTICHAIN)


def ideal_orbits(F: Fence) -> tuple[Orbit, ...]:
    """All rowmotion orbits on ideals, canonically ordered."""
    return _rowmotion_orbits(F, IDEAL)


def _walk_budget(members: int) -> int:
    """How many members first_orbits steps one at a time, in a family of
    `members`, before it decomposes the family instead.  At most
    `members`, so the walk never looks past the last member."""
    return members // 4


def first_orbits(F: Fence, family: str, count: int) -> tuple[Orbit, ...]:
    """The first `count` canonical orbits of a family, or all of them when
    it has fewer, as antichain_orbits and ideal_orbits order them.

    Each orbit is walked by orbit_of from the least member that no earlier
    orbit holds.  Every smaller member lies in an earlier orbit, so that
    member is the orbit's least, and the orbits come in decompose's
    order.  Once the walk has stepped _walk_budget members, the rest is
    taken from the family's memoised decomposition instead."""
    if family not in _STEPS:
        raise RoleError(f"rowmotion acts on antichains and ideals, not {family}")
    order = F.family_masks(family)
    budget = _walk_budget(len(order))
    orbits: list[Orbit] = []
    seen: set[int] = set()
    i = stepped = 0
    while len(orbits) < count:
        if stepped >= budget:
            return _rowmotion_orbits(F, family)[:count]
        while order[i] in seen:
            i += 1
        orbit = orbit_of(F, ElementSet(order[i], family))
        orbits.append(orbit)
        seen.update(orbit.masks)
        stepped += orbit.size
    return tuple(orbits)


def orbit_of(F: Fence, S: ElementSet) -> Orbit:
    """The canonical orbit containing S.  A bijection on a family of at
    most ideal_count members brings S back within that many steps; a walk
    that does not raises FenceError instead of growing without end."""
    step, m, bound = _step_of(F, S), S.mask, F.alpha.ideal_count
    cycle, x = [m], step(m)
    for _ in range(bound):
        if x == m:
            break
        cycle.append(x)
        x = step(x)
    else:
        raise FenceError(f"step is not a bijection: mask {m} not back in {bound} steps")
    start = cycle.index(min(cycle))
    return Orbit(S.role, tuple(cycle[start:] + cycle[:start]))


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


def superorbits(F: Fence) -> tuple[Superorbit, ...]:
    """Orbits of the group generated by ideal rowmotion and complement.

    Each superorbit is a single rowmotion orbit closed under the ideal
    complement, or a pair of equal-sized orbits swapped by it.  The
    complement maps an orbit onto its partner, whose representative is
    therefore the least complement of the orbit's masks.
    """
    F.index_reversal()
    orbits = ideal_orbits(F)
    rep_to_index = {o.masks[0]: i for i, o in enumerate(orbits)}
    paired: list[Superorbit] = []
    used: set[int] = set()
    for i, o in enumerate(orbits):
        if i in used:
            continue
        used.add(i)
        j = rep_to_index.get(min(_ideal_complement_mask(F, m) for m in o.masks))
        if j == i:
            paired.append(Superorbit((o,)))
        else:
            if j is None or j in used:
                raise FenceError("ideal complement did not pair orbits")
            if orbits[j].size != o.size:
                raise FenceError("paired orbits differ in size")
            used.add(j)
            paired.append(Superorbit((o, orbits[j])))
    return tuple(paired)
