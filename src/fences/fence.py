"""Fence posets and their order-theoretic primitives.

A fence is a poset whose Hasse diagram is a single zigzag path.  It is
encoded by a composition alpha = (a_1, ..., a_s) with a_1, a_s >= 2.
Walking the path x_1, x_2, ..., x_n left to right, the chain ascends
inside odd-numbered segments and descends inside even ones; segment i
carries a_i - 1 elements of its own plus the elements it shares with its
neighbours.  The element count is n = sum(alpha) - 1, and the shared
element of segments i and i+1 sits at position a_1 + ... + a_i.  Two
elements are comparable exactly when one segment holds both, so one pass
over the segments builds every table of a Fence: edge_up, the cover-
direction masks below, shared, unshared (each segment's own elements in
order) and span (the segments holding each element: it and every
element comparable to it).

Elements are exposed 1-based (x_1 ... x_n) in every public interface.
Internally subsets are bitmasks with bit k-1 standing for x_k, and every
operation is pure.

Covers join only path neighbours, and the composition fixes each cover's
direction, so four cover-direction masks describe the whole order: bit k
of up_right (up_left) is set when the element at bit k has an upper cover
at bit k+1 (k-1), and down_right, down_left likewise for lower covers.
"Which members of m have an upper cover in m" is then one shift of m each
way ANDed with these masks, which gives the maximal elements of an ideal
and the minimal elements of an upper ideal with no loop over m's bits.
A closure repeats such a step until it adds nothing, at most once per
element of the longest chain.  Masks are Python ints, so no word size
bounds n; MAX_ALPHA_SIZE does, before a fence is built.

The same kernel steps many members at once.  A lane layout (Lanes,
from Fence.lanes(count)) gives each member a lane of L = ceil(n/8) bytes
of one int, member i in bytes i*L .. i*L + L - 1, little-endian, and
replicates every cover-direction mask into each lane as mask * rep, where
rep has bit 0 of every lane set.  No guard bit is needed: bit 0 of
up_left and down_left and bit n-1 of up_right and down_right are always
clear, so a bit that a shift carries across a lane boundary is ANDed
away.  The closures and extremal-element methods take a layout and act
on every lane; without one they use the one-lane layout Fence.lane
(rep = 1), which is the per-mask kernel.  L grows with n, so any n
fits.  A family is packed by Fence.lane_chunks, at most
LANE_CHUNK_BYTES of masks to one int: a step makes a few temporaries the
size of its int and a layout holds six, so a long fence's family is
stepped a chunk at a time, whose ints also stay in cache.

One cap bounds every family.  Antichains are in bijection with ideals
(through the ideal an antichain generates) and upper ideals are the
complements of ideals, so all three families have the ideal count, which
the two-term recurrence of Composition.ideal_count gives without
enumerating.  Fence.ideal_masks and Fence.antichain_masks compare that
count with the cap (max_family, or DEFAULT_MAX_FAMILY when not given)
before they build anything; each runs its own transfer recurrence along
the path, and the upper ideals are the complements of the ideals.

The poset data set up by the constructor never changes; derived results
(families, orbit lists, orbit profiles, the self-duality check) are
memoised through Fence.memo, whose docstring lists the keys.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Iterator, NamedTuple, Sequence

ANTICHAIN = "antichain"
IDEAL = "ideal"
UPPER = "upper-ideal"

ROLES = (ANTICHAIN, IDEAL, UPPER)

#: Hard ceiling on enumerated family sizes unless a caller lowers it.
DEFAULT_MAX_FAMILY = 2_000_000

#: Most bytes of masks packed into one int by Fence.lane_chunks.
LANE_CHUNK_BYTES = 1 << 18

#: The largest number of elements n = sum(alpha) - 1 of a composition,
#: and so of a fence.  Composition checks it before any per-element data
#: is built: a fence keeps per-element masks of O(n^2) bits in all, a few
#: tens of MB at this n.
MAX_ALPHA_SIZE = 10_000


class FenceError(ValueError):
    """Invalid fence construction or operation."""


class RoleError(FenceError):
    """An ElementSet was used where a different role was required."""


class FamilyCapError(RuntimeError):
    """A family enumeration exceeded the configured cap."""


_WORD = 8
_SWAP = sys.byteorder == "big"
_MISSING = object()


class Lanes(NamedTuple):
    """A lane layout of `count` members of an n-element fence, `width`
    bytes each: `rep` has bit 0 of every lane set and the masks are the
    fence's full mask and cover-direction masks replicated into every
    lane."""

    n: int
    count: int
    width: int
    rep: int
    full: int
    up_right: int
    up_left: int
    down_right: int
    down_left: int

    def pack(self, masks: Sequence[int]) -> int:
        """The `count` masks as one int, mask i in lane i.  Lanes of up to
        8 bytes go through one array of 8-byte words, moved byte by byte
        with strided slice copies; wider lanes (n > 64) go mask by mask."""
        w = self.width
        if w > _WORD:
            buf = bytearray()
            for m in masks:
                buf.extend(m.to_bytes(w, "little"))
            return int.from_bytes(buf, "little")
        words = array("Q", masks)
        if _SWAP:
            words.byteswap()
        raw = words.tobytes()
        buf = bytearray(w * self.count)
        for j in range(w):
            buf[j::w] = raw[j::_WORD]
        return int.from_bytes(buf, "little")

    def unpack(self, packed: int) -> list[int]:
        """The lanes of `packed`, lane 0 first; inverts pack."""
        w = self.width
        data = packed.to_bytes(w * self.count, "little")
        if w > _WORD:
            return [
                int.from_bytes(data[i : i + w], "little")
                for i in range(0, len(data), w)
            ]
        raw = bytearray(_WORD * self.count)
        for j in range(w):
            raw[j::_WORD] = data[j::w]
        words = array("Q", raw)
        if _SWAP:
            words.byteswap()
        return words.tolist()


@dataclass(frozen=True)
class Composition:
    """A composition (a_1, ..., a_s) with a_1, a_s >= 2 and all parts >= 1."""

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        parts = tuple(int(p) for p in self.parts)
        object.__setattr__(self, "parts", parts)
        if not parts:
            raise FenceError("composition must have at least one part")
        if any(p < 1 for p in parts):
            raise FenceError(f"composition parts must be >= 1, got {parts}")
        if parts[0] < 2 or parts[-1] < 2:
            raise FenceError(
                f"first and last parts must be >= 2, got {parts}"
            )
        n = sum(parts) - 1  # at least the number of parts, as a_1, a_s >= 2
        if n > MAX_ALPHA_SIZE:
            raise FenceError(
                f"composition has {n} elements; at most {MAX_ALPHA_SIZE} are accepted"
            )

    @classmethod
    def coerce(cls, alpha: "Composition | Iterable[int]") -> "Composition":
        if isinstance(alpha, Composition):
            return alpha
        return cls(tuple(alpha))

    @property
    def s(self) -> int:
        return len(self.parts)

    @property
    def n(self) -> int:
        return sum(self.parts) - 1

    @property
    def is_palindromic(self) -> bool:
        return self.parts == self.parts[::-1]

    @property
    def ideal_count(self) -> int:
        """Number of ideals of the fence, by the two-term recurrence.

        Removing the last segment either keeps its shared element out of
        the ideal (dropping two parts) or splits off a chain (multiplying
        by the last part): c(a_1..a_s) = a_s c(a_1..a_{s-1}) + c(a_1..a_{s-2}),
        with c(a) = a (a chain of a-1 elements) and c() = 1.  A loop, so
        the cost is O(s) and long compositions need no recursion.
        """
        prev, cur = 1, self.parts[0]
        for a in self.parts[1:]:
            prev, cur = cur, a * cur + prev
        return cur

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __getitem__(self, i: int) -> int:
        return self.parts[i]

    def __len__(self) -> int:
        return len(self.parts)

    def __str__(self) -> str:
        return "(" + ",".join(map(str, self.parts)) + ")"


@dataclass(frozen=True)
class ElementSet:
    """A subset of fence elements tagged with the family it is meant to
    belong to.

    The mask uses bit k-1 for element x_k.  An ElementSet is plain data:
    it checks nothing when built, and every public function that takes one
    checks it once, through Fence.require_role, before using its mask.
    """

    mask: int
    role: str

    @property
    def elements(self) -> tuple[int, ...]:
        return tuple(elements_of(self.mask))

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, k: int) -> bool:
        return bool(self.mask >> (k - 1) & 1)

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements)

    def label(self) -> str:
        """Render as the usual x-notation, e.g. '{x2,x6,x8}'."""
        return "{" + ",".join(f"x{k}" for k in self.elements) + "}"

    def __repr__(self) -> str:
        return f"ElementSet({self.label()}, {self.role})"


class Fence:
    """The fence poset of a composition, built in one pass over its
    segments (module docstring).

    max_family caps the size of every enumerated family (None means
    DEFAULT_MAX_FAMILY).  It is read once, when the ideals are first
    built, and checked against the ideal count before any enumeration, so
    a capped fence fails fast with FamilyCapError.
    """

    def __init__(
        self,
        alpha: Composition | Iterable[int],
        max_family: int | None = None,
    ):
        alpha = Composition.coerce(alpha)
        self.alpha = alpha
        self.max_family = max_family
        self.s = alpha.s
        self.n = n = alpha.n
        self.full_mask = (1 << n) - 1
        # shared element s_i = x_{a_1 + ... + a_i} for 1 <= i <= s-1
        self.shared = tuple(accumulate(alpha.parts[:-1]))
        self._shared_index = {x: i for i, x in enumerate(self.shared, start=1)}

        edge_up: list[bool] = []
        up_right = up_left = down_right = down_left = 0
        unshared: list[tuple[int, ...]] = [()]
        self._unshared_pos: dict[int, tuple[int, int]] = {}
        span = [0] * n
        # Segment i is bounded by x_a and x_b, a and b its shared elements'
        # positions, or 0 and n+1 past the ends of the path.
        bounds = zip((0, *self.shared), (*self.shared, n + 1))
        for i, (a, b) in enumerate(bounds, start=1):
            lo, hi = max(a, 1), min(b, n)  # the segment is x_lo .. x_hi
            seg = (1 << hi) - (1 << (lo - 1))
            below_top, above_bottom = seg ^ 1 << (hi - 1), seg ^ 1 << (lo - 1)
            up = i % 2 == 1  # ascending left to right
            edge_up += [up] * (hi - lo)
            if up:  # x_k < x_{k+1} inside the segment
                up_right |= below_top
                down_left |= above_bottom
            else:  # x_k > x_{k+1} inside the segment
                down_right |= below_top
                up_left |= above_bottom
            # the inner elements, entry j-1 the j-th smallest in the order
            inner = tuple(range(a + 1, b) if up else range(b - 1, a, -1))
            unshared.append(inner)
            self._unshared_pos.update((x, (i, j)) for j, x in enumerate(inner, 1))
            span[lo - 1 : hi] = [m | seg for m in span[lo - 1 : hi]]
        self.edge_up = tuple(edge_up)
        self.up_right, self.up_left = up_right, up_left
        self.down_right, self.down_left = down_right, down_left
        self.unshared = tuple(unshared)
        self.span = tuple(span)
        self.lane = self.lanes(1)
        self._cache: dict = {}

    # -- basic accessors ------------------------------------------------

    def __repr__(self) -> str:
        return f"Fence{self.alpha}"

    def memo(self, key, build):
        """The result stored under key, calling build() to make it the
        first time.  The keys in use:

        - "ideal_masks", "antichain_masks": the two families (this module);
        - "self_dual": why the fence is not self-dual, or None (this module);
        - ("orbits", family): the tuple of Orbits of rowmotion on the
          family, ANTICHAIN or IDEAL (fences.rowmotion);
        - "profiles": the antichain orbit profiles (fences.harness).

        A Fence shared across threads is mutated by first uses: concurrent
        callers may each build the same (equal) result before one is kept.
        """
        value = self._cache.get(key, _MISSING)
        if value is _MISSING:
            value = self._cache[key] = build()
        return value

    def lanes(self, count: int) -> Lanes:
        """The lane layout of `count` members of this fence."""
        width = (self.n + 7) // 8
        rep = int.from_bytes((b"\1" + bytes(width - 1)) * count, "little")
        return Lanes(
            self.n, count, width, rep, self.full_mask * rep, self.up_right * rep,
            self.up_left * rep, self.down_right * rep, self.down_left * rep,
        )

    def lane_chunks(
        self, masks: Sequence[int], images: int = 1
    ) -> Iterator[tuple[Lanes, int]]:
        """The masks packed in order, as (layout, packed int) pairs of at
        most LANE_CHUNK_BYTES // images bytes of masks each, so that a
        caller holding `images` packed ints of a chunk at once stays in
        one LANE_CHUNK_BYTES budget.  A step on a packed int keeps a few
        temporaries of its size, and a layout holds six more, so the
        chunks bound that memory however large the family."""
        per = max(1, LANE_CHUNK_BYTES // (self.lane.width * images))
        for lo in range(0, len(masks), per):
            lanes = self.lanes(min(per, len(masks) - lo))
            yield lanes, lanes.pack(masks[lo : lo + per])

    def cover_pairs(self) -> tuple[tuple[int, int], ...]:
        """All covers as (lower, upper) element pairs along the path."""
        out = []
        for e, up in enumerate(self.edge_up):
            a, b = e + 1, e + 2
            out.append((a, b) if up else (b, a))
        return tuple(out)

    def segments_of(self, k: int) -> tuple[int, ...]:
        """Indices of the segments containing x_k."""
        self.mask_of((k,))  # the range check of k
        i = self._shared_index.get(k)
        if i is not None:
            return (i, i + 1)
        return (self._unshared_pos[k][0],)

    def is_shared(self, k: int) -> bool:
        return k in self._shared_index

    def shared_element(self, i: int) -> int:
        """The element s_i shared by segments i and i+1 (1 <= i <= s-1)."""
        if not 1 <= i <= self.s - 1:
            raise FenceError(f"shared index {i} out of range for s={self.s}")
        return self.shared[i - 1]

    def shared_index(self, k: int) -> int | None:
        """i such that x_k = s_i, or None when x_k is unshared."""
        return self._shared_index.get(k)

    def unshared_element(self, i: int, j: int) -> int:
        """The j-th smallest unshared element of segment i."""
        if not 1 <= i <= self.s:
            raise FenceError(f"segment {i} out of range 1..{self.s}")
        row = self.unshared[i]
        if not 1 <= j <= len(row):
            raise FenceError(
                f"position {j} out of range 1..{len(row)} of segment {i}"
            )
        return row[j - 1]

    def unshared_position(self, k: int) -> tuple[int, int] | None:
        """(i, j) with x_k the j-th smallest unshared element of segment i."""
        return self._unshared_pos.get(k)

    # -- element sets ----------------------------------------------------

    def mask_of(self, elements: Iterable[int]) -> int:
        """The mask of the elements; the one range check of element
        indices, naming the first outside 1..n."""
        m = 0
        for k in elements:
            if not 1 <= k <= self.n:
                raise FenceError(f"element x{k} out of range 1..{self.n}")
            m |= 1 << (k - 1)
        return m

    def is_ideal_mask(self, m: int) -> bool:
        """True when every lower cover of a member is a member too."""
        needed = ((m & self.down_right) << 1) | ((m & self.down_left) >> 1)
        return not needed & ~m

    def is_upper_mask(self, m: int) -> bool:
        return self.is_ideal_mask(self.full_mask ^ m)

    def is_antichain_mask(self, m: int) -> bool:
        """True when m is the set of maximal elements of the ideal it
        generates, i.e. no two members are comparable."""
        return self._maximal_mask(self._down_closure_mask(m)) == m

    def _role_ok(self, m: int, role: str) -> bool:
        if role == ANTICHAIN:
            return self.is_antichain_mask(m)
        if role == IDEAL:
            return self.is_ideal_mask(m)
        if role == UPPER:
            return self.is_upper_mask(m)
        raise FenceError(f"unknown role {role!r}")

    def element_set(self, elements: Iterable[int], role: str) -> ElementSet:
        """Validated constructor; rejects sets that break their role."""
        return self.set_from_mask(self.mask_of(elements), role)

    def set_from_mask(self, m: int, role: str) -> ElementSet:
        """The mask as a checked member of the role's family."""
        S = ElementSet(m, role)
        self.require_role(S, role)
        return S

    def require_role(self, S: ElementSet, role: str) -> None:
        """The one check of an ElementSet argument: S is tagged `role`,
        fits this fence and is a member of the role's family.  Every
        public function that takes an ElementSet calls it once."""
        if S.role != role:
            raise RoleError(f"expected a {role}, got a {S.role}")
        if S.mask & ~self.full_mask:
            raise FenceError("element set does not fit this fence")
        if not self._role_ok(S.mask, role):
            raise RoleError(f"{S} is not an {role} of {self!r}")

    # -- closures and extremal elements -----------------------------------

    def _down_closure_mask(self, m: int, lanes: Lanes | None = None) -> int:
        """Add lower covers of members, in every lane of the layout, until
        nothing changes; the loop runs at most the length of the longest
        chain."""
        L = lanes or self.lane
        up_right, up_left = L.up_right, L.up_left
        while True:
            grown = m | ((m >> 1) & up_right) | ((m << 1) & up_left)
            if grown == m:
                return m
            m = grown

    def _up_closure_mask(self, m: int, lanes: Lanes | None = None) -> int:
        L = lanes or self.lane
        down_right, down_left = L.down_right, L.down_left
        while True:
            grown = m | ((m >> 1) & down_right) | ((m << 1) & down_left)
            if grown == m:
                return m
            m = grown

    def _maximal_mask(self, m: int, lanes: Lanes | None = None) -> int:
        """Members with no upper cover in m; exact when m is an ideal."""
        L = lanes or self.lane
        return m & ~(((m >> 1) & L.up_right) | ((m << 1) & L.up_left))

    def _minimal_mask(self, m: int, lanes: Lanes | None = None) -> int:
        """Members with no lower cover in m; exact when m is an upper set."""
        L = lanes or self.lane
        return m & ~(((m >> 1) & L.down_right) | ((m << 1) & L.down_left))

    def down_closure(self, A: ElementSet) -> ElementSet:
        """Smallest ideal containing the antichain A."""
        self.require_role(A, ANTICHAIN)
        return ElementSet(self._down_closure_mask(A.mask), IDEAL)

    def up_closure(self, A: ElementSet) -> ElementSet:
        """Smallest upper ideal containing the antichain A."""
        self.require_role(A, ANTICHAIN)
        return ElementSet(self._up_closure_mask(A.mask), UPPER)

    def maximal_elements(self, I: ElementSet) -> ElementSet:
        """The antichain of maximal elements of an ideal."""
        self.require_role(I, IDEAL)
        return ElementSet(self._maximal_mask(I.mask), ANTICHAIN)

    def minimal_elements(self, U: ElementSet) -> ElementSet:
        """The antichain of minimal elements of an upper ideal."""
        self.require_role(U, UPPER)
        return ElementSet(self._minimal_mask(U.mask), ANTICHAIN)

    def complement(self, S: ElementSet) -> ElementSet:
        """Set complement; swaps the ideal and upper-ideal roles."""
        if S.role not in (IDEAL, UPPER):
            raise RoleError(
                "complement is defined for ideals and upper ideals; the "
                "complement of an antichain belongs to neither family"
            )
        self.require_role(S, S.role)
        return ElementSet(self.full_mask ^ S.mask, UPPER if S.role == IDEAL else IDEAL)

    # -- self-duality ------------------------------------------------------

    def _self_duality_failure(self) -> str | None:
        return self.memo("self_dual", self._find_self_duality_failure)

    def _find_self_duality_failure(self) -> str | None:
        reason: str | None = None
        if not self.alpha.is_palindromic:
            reason = f"alpha {self.alpha} is not palindromic"
        else:
            n = self.n
            covers = set(self.cover_pairs())
            for a, b in covers:
                if (n + 1 - b, n + 1 - a) not in covers:
                    reason = (
                        f"index reversal is not order-reversing: cover "
                        f"x{a}<x{b} maps to x{n + 1 - b},x{n + 1 - a} "
                        f"which is not a reversed cover (s={self.s} even "
                        "palindromes are self-isomorphic, not self-dual)"
                    )
                    break
        return reason

    def index_reversal(self) -> tuple[int, ...]:
        """The verified order-reversing bijection x_k -> x_{n+1-k}.

        Returned as a 1-based lookup table t with t[k-1] = n+1-k.  Raises
        FenceError when alpha is not palindromic or when the reversal
        fails the order-reversal check (palindromes with an even number
        of parts are order-isomorphic to themselves instead).
        """
        reason = self._self_duality_failure()
        if reason is not None:
            raise FenceError(f"no order-reversing index bijection: {reason}")
        return tuple(self.n - k for k in range(self.n))

    def reversed_mask(self, m: int) -> int:
        """Mirror a mask through k -> n+1-k (no duality check)."""
        return int(format(m, f"0{self.n}b")[::-1], 2)

    # -- enumeration -------------------------------------------------------

    def ideal_masks(self) -> tuple[int, ...]:
        """All ideals as sorted bitmasks, via transfer along the spine.

        The adjacency constraints of the zigzag make ideals exactly the
        bit strings with no forbidden step between consecutive positions.
        The ideal count is checked against the cap first: the prefix
        counts only grow, so the final count is the largest list built.
        """
        return self.memo("ideal_masks", self._build_ideal_masks)

    def _check_cap(self) -> None:
        """Raise FamilyCapError when the families (all of the ideal count)
        are larger than the cap; called before any list is built."""
        limit = DEFAULT_MAX_FAMILY if self.max_family is None else self.max_family
        if self.alpha.ideal_count > limit:
            raise FamilyCapError(f"ideal enumeration of {self!r} exceeded cap {limit}")

    def _build_ideal_masks(self) -> tuple[int, ...]:
        self._check_cap()
        # Ideals of the prefix x_1..x_{e+1}, split by whether x_{e+1} is
        # absent or present.  Each list stays sorted and every present mask
        # exceeds every absent one, so absent + present is sorted.
        absent, present = [0], [1]
        for e, up in enumerate(self.edge_up):
            bit = 1 << (e + 1)
            if up:  # x_{e+2} needs x_{e+1}
                absent, present = absent + present, [m | bit for m in present]
            else:  # x_{e+1} needs x_{e+2}
                present = [m | bit for m in absent + present]
        return tuple(absent + present)

    def antichain_masks(self) -> tuple[int, ...]:
        """All antichains as sorted bitmasks, via transfer along the spine.

        Two elements are comparable exactly when one segment holds both,
        so the antichains are the sets that meet every segment at most
        once.  The walk keeps the antichains of the prefix split by
        whether the segment of the current element is still unmet; the
        cap is checked first, as for ideal_masks.
        """
        return self.memo("antichain_masks", self._build_antichain_masks)

    def _build_antichain_masks(self) -> tuple[int, ...]:
        self._check_cap()
        # Antichains of the prefix x_1..x_k that miss (free) or meet (used)
        # the last segment holding x_k.  Both lists stay sorted: every mask
        # added holds the new bit, so it exceeds every mask already there.
        free: list[int] = [0]
        used: list[int] = []
        for a, b in zip((0, *self.shared), (*self.shared, self.n + 1)):
            for k in range(a, b - 1):  # the bits of x_{a+1} .. x_{b-1}
                bit = 1 << k
                used += [m | bit for m in free]
            if b <= self.n:  # x_b closes this segment and opens the next
                bit = 1 << (b - 1)
                free, used = sorted(free + used), [m | bit for m in free]
        return tuple(sorted(free + used))

    def family_masks(self, family: str) -> tuple[int, ...]:
        if family == IDEAL:
            return self.ideal_masks()
        if family == ANTICHAIN:
            return self.antichain_masks()
        if family == UPPER:
            return tuple(sorted(self.full_mask ^ m for m in self.ideal_masks()))
        raise FenceError(f"unknown family {family!r}")

    def enumerate_ideals(self) -> tuple[ElementSet, ...]:
        """Every ideal exactly once, as validated ElementSets."""
        return tuple(ElementSet(m, IDEAL) for m in self.ideal_masks())

    def enumerate_antichains(self) -> tuple[ElementSet, ...]:
        return tuple(ElementSet(m, ANTICHAIN) for m in self.antichain_masks())


def elements_of(m: int) -> Iterator[int]:
    """The 1-based elements x_k of a mask, in increasing order."""
    while m:
        low = m & -m
        yield low.bit_length()
        m ^= low


def build_fence(
    alpha: Composition | Iterable[int], max_family: int | None = None
) -> Fence:
    """Construct the fence poset of a composition."""
    return Fence(alpha, max_family=max_family)
