"""Bench-owned spans around the public per-family and per-orbit functions.

A `Tracer` replaces each traced function on its defining module, on every
`from ... import` alias of it inside `fences.*`, and, for `Fence` methods,
on the class.  Each call records a span (function, start, end, parent) in
memory; `uninstall` puts the originals back.  Per-member helpers such as
`_rho_mask`, `toggle_mask` and `Tile.cells` are deliberately not traced:
they run millions of times and a span around each would swamp the numbers.

Every traced function belongs to exactly one layer metric, and a layer's
time is the self time of its spans: duration minus the time covered by
child spans.  The self times of all spans therefore sum to the time spent
inside `cli.main`; the small rest of the jobs' time (entering and leaving
that outermost span) is reported as `trace.unattributed_s`.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

from fences import harness
from fences.fence import FamilyCapError

CHECK_PREFIXES = ("verify_", "scan_", "sweep_", "find_")

# layer self-time metric -> (module, traced functions; "Class.method" for methods)
SELF_TIME = {
    "fence.build_s": ("fences.fence", ("Fence.__init__",)),
    "fence.enum_s": (
        "fences.fence",
        ("Fence.ideal_masks", "Fence.antichain_masks", "Fence.family_masks"),
    ),
    "enumeration.count_s": ("fences.enumeration", ("count_ideals", "closed_form_count")),
    "rowmotion.decompose_s": ("fences.rowmotion", ("decompose",)),
    "rowmotion.wrap_s": (
        "fences.rowmotion",
        ("antichain_orbits", "ideal_orbits", "orbit_of", "superorbits"),
    ),
    "tiling.build_s": ("fences.tiling", ("tiling_of_orbit",)),
    "tiling.validate_s": ("fences.tiling", ("validate_tiling",)),
    "tiling.counts_s": ("fences.tiling", ("tile_counts",)),
    "tiling.render_s": ("fences.tiling", ("render_tiling",)),
    "stats.orbit_sum_s": ("fences.stats", ("orbit_sum", "orbit_element_counts")),
    "stats.classify_s": ("fences.stats", ("classify_orbit_sums",)),
    "toggles.compile_s": ("fences.toggles", ("compile_word",)),
    "toggles.transfer_s": ("fences.toggles", ("transfer_check",)),
    "toggles.base_graph_s": ("fences.toggles", ("base_graph",)),
    "toggles.linext_s": ("fences.toggles", ("sample_linear_extensions",)),
    "harness.profiles_s": ("fences.harness", ("orbit_profiles",)),
    "harness.checks_s": (
        "fences.harness",
        tuple(
            name
            for name, obj in vars(harness).items()
            if name.startswith(CHECK_PREFIXES)
            and getattr(obj, "__module__", None) == "fences.harness"
        ),
    ),
    "cli.self_s": ("fences.cli", ("main",)),
}

COUNTS = (
    "fence.members",
    "fence.cap_errors",
    "rowmotion.decompose_calls",
    "rowmotion.steps",
    "rowmotion.orbits",
    "tiling.validate_calls",
    "tiling.tilings",
    "tiling.render_bytes",
    "stats.classify_calls",
    "stats.orbits_classified",
    "toggles.words",
    "harness.profiles",
    "harness.instances",
)

_ENUM = frozenset(SELF_TIME["fence.enum_s"][1])
_CHECKS = frozenset(SELF_TIME["harness.checks_s"][1])
_ORBIT_LISTS = frozenset(("antichain_orbits", "ideal_orbits"))


class Tracer:
    """Spans and counters of the traced functions."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [function, start, end, parent index]
        self.counts: Counter = Counter()
        self.enumerated: list[tuple[int, ...]] = []  # alpha per enumeration call
        self.orbit_lists: list[tuple[tuple[int, ...], int]] = []  # (alpha, orbits)
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self.metric_of: dict[str, str] = {}

    # -- installing -------------------------------------------------------

    def install(self) -> int:
        """Wrap every traced function that exists; return the number of
        attributes replaced."""
        wrappers = {}
        for metric, (module_name, names) in SELF_TIME.items():
            module = sys.modules[module_name]
            for name in names:
                owner_name, _, attr = name.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                fn = vars(owner).get(attr)
                if fn is None:  # a later version may drop or rename it
                    continue
                self.metric_of[name] = metric
                wrapper = self._wrap(fn, name, attr)
                wrappers[id(fn)] = wrapper
                if owner_name:
                    self._replace(owner, attr, wrapper)
        for module in fences_modules():
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._replace(module, attr, wrapper)
        return len(self._undo)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _replace(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, fn, name: str, short: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        count = getattr(self, "_count_" + short, None)
        if short.startswith(CHECK_PREFIXES):
            count = self._count_check

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except FamilyCapError as exc:
                if not getattr(exc, "_bench_counted", False):
                    exc._bench_counted = True
                    self.counts["fence.cap_errors"] += 1
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                count(idx, args, result)
            return result

        wrapper._bench_span = name
        return wrapper

    # -- counters, recorded after the span closes ----------------------------

    def _outermost(self, idx: int, group: frozenset) -> bool:
        parent = self.spans[idx][3]
        return parent < 0 or self.spans[parent][0] not in group

    def _count_enum(self, idx, args, result) -> None:
        if self._outermost(idx, _ENUM):
            self.counts["fence.members"] += len(result)
            self.enumerated.append(tuple(args[0].alpha.parts))

    _count_ideal_masks = _count_antichain_masks = _count_family_masks = _count_enum

    def _count_decompose(self, idx, args, result) -> None:
        self.counts["rowmotion.decompose_calls"] += 1
        self.counts["rowmotion.steps"] += sum(map(len, result))
        self.counts["rowmotion.orbits"] += len(result)

    def _count_orbits(self, idx, args, result) -> None:
        if self._outermost(idx, _ORBIT_LISTS):
            self.orbit_lists.append((tuple(args[0].alpha.parts), len(result)))

    _count_antichain_orbits = _count_ideal_orbits = _count_orbits

    def _count_tiling_of_orbit(self, idx, args, result) -> None:
        self.counts["tiling.tilings"] += 1

    def _count_validate_tiling(self, idx, args, result) -> None:
        self.counts["tiling.validate_calls"] += 1

    def _count_render_tiling(self, idx, args, result) -> None:
        self.counts["tiling.render_bytes"] += len(result.encode())

    def _count_classify_orbit_sums(self, idx, args, result) -> None:
        self.counts["stats.classify_calls"] += 1
        self.counts["stats.orbits_classified"] += len(args[0])

    def _count_compile_word(self, idx, args, result) -> None:
        self.counts["toggles.words"] += 1

    def _count_orbit_profiles(self, idx, args, result) -> None:
        built = len(self.spans) > idx + 1  # a cached answer opens no child span
        if built:
            self.counts["harness.profiles"] += len(result)

    def _count_check(self, idx, args, result) -> None:
        if self._outermost(idx, _CHECKS):
            self.counts["harness.instances"] += len(result.instances)

    # -- aggregation ------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Self time per layer metric and every counter."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = {metric: 0.0 for metric in SELF_TIME}
        for (name, start, end, _), child in zip(self.spans, covered):
            out[self.metric_of[name]] += end - start - child
        for name in COUNTS:
            out[name] = self.counts[name]
        return out

    def top_level_seconds(self) -> float:
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)


def wrapped_attributes() -> int:
    """How many attributes of `fences` modules and classes are bench spans
    right now; 0 in any process that never installed a Tracer."""
    found = 0
    for module in fences_modules():
        for value in list(vars(module).values()):
            found += hasattr(value, "_bench_span")
            if isinstance(value, type) and value.__module__ == module.__name__:
                found += sum(hasattr(v, "_bench_span") for v in vars(value).values())
    return found


def fences_modules() -> list:
    return [
        module for name, module in list(sys.modules.items())
        if name == "fences" or name.startswith("fences.")
    ]
