import ast
import re
import tracemalloc
from pathlib import Path

import pytest

import fences
import oracle
from fences import (
    ANTICHAIN,
    IDEAL,
    UPPER,
    Composition,
    ElementSet,
    FamilyCapError,
    FenceError,
    RoleError,
    build_fence,
    count_ideals,
)
from fences.fence import MAX_ALPHA_SIZE, Fence
from fences.harness import all_fence_compositions


def members(es):
    return set(es.elements)


class TestConstruction:
    def test_332_shape(self):
        F = build_fence((3, 3, 2))
        assert F.n == 7
        assert [F.shared_element(i) for i in (1, 2)] == [3, 6]
        assert F.cover_pairs() == (
            (1, 2), (2, 3), (4, 3), (5, 4), (6, 5), (6, 7),
        )

    def test_smallest_fence(self):
        F = build_fence((2, 2))
        assert F.n == 3
        assert F.cover_pairs() == ((1, 2), (3, 2))

    def test_434_index_maps(self):
        F = build_fence((4, 3, 4))
        assert F.n == 10
        assert F.shared_element(1) == 4
        assert F.shared_element(2) == 7
        assert [F.unshared_element(1, j) for j in (1, 2, 3)] == [1, 2, 3]
        assert F.unshared_element(2, 1) == 6
        assert F.unshared_element(2, 2) == 5
        assert [F.unshared_element(3, j) for j in (1, 2, 3)] == [8, 9, 10]
        assert F.unshared_position(5) == (2, 2)
        assert F.segments_of(4) == (1, 2)
        assert F.segments_of(5) == (2,)

    @pytest.mark.parametrize(
        "i,j,message",
        [
            (0, 1, "segment 0 out of range 1..3"),
            (-1, 1, "segment -1 out of range 1..3"),
            (4, 1, "segment 4 out of range 1..3"),
            (1, 0, "position 0 out of range 1..3 of segment 1"),
            (2, -1, "position -1 out of range 1..2 of segment 2"),
            (2, 3, "position 3 out of range 1..2 of segment 2"),
        ],
    )
    def test_unshared_element_range(self, f434, i, j, message):
        # negative indices used to wrap: (1, 0) gave x3 and (-1, 1) gave x8
        with pytest.raises(FenceError, match=re.escape(message)):
            f434.unshared_element(i, j)

    @pytest.mark.parametrize("k", [0, -1, 11])
    def test_segments_of_range(self, f434, k):
        with pytest.raises(FenceError, match=re.escape(f"element x{k} out of range 1..10")):
            f434.segments_of(k)

    @pytest.mark.parametrize("alpha", [(1, 3), (3, 1), (2, 0, 2), ()])
    def test_rejects_bad_compositions(self, alpha):
        with pytest.raises(FenceError):
            build_fence(alpha)

    def test_rejects_compositions_past_the_size_bound(self):
        # checked from the parts alone, before any per-element data is built
        with pytest.raises(FenceError, match=f"at most {MAX_ALPHA_SIZE}"):
            build_fence((MAX_ALPHA_SIZE + 1, 2))
        assert Composition((MAX_ALPHA_SIZE - 1, 2)).n == MAX_ALPHA_SIZE

    def test_shared_extremality(self):
        # odd-indexed shared elements are maximal, even-indexed minimal
        for alpha in [(3, 3, 2), (4, 3, 4), (2, 1, 2, 1, 2), (2,) * 6]:
            F = build_fence(alpha)
            leq = oracle.leq_table(F)
            for i in range(1, F.s):
                x = F.shared_element(i)
                above = [y for y in range(1, F.n + 1) if y != x and leq[x][y]]
                below = [y for y in range(1, F.n + 1) if y != x and leq[y][x]]
                if i % 2 == 1:
                    assert not above, (alpha, i)
                else:
                    assert not below, (alpha, i)

    def test_element_count_matches_composition(self):
        for alpha in all_fence_compositions(9):
            F = build_fence(alpha)
            assert F.n == sum(alpha) - 1
            assert len(F.shared) == F.s - 1
            for i in range(1, F.s + 1):
                assert len(F.unshared[i]) == alpha[i - 1] - 1


class TestClosures:
    def test_down_closure_434(self, f434):
        # x4 tops the descending second segment, so its down-set includes
        # x5, x6, x7 and the closure of {x4, x10} is the whole fence
        A = f434.element_set([4, 10], ANTICHAIN)
        I = f434.down_closure(A)
        assert members(I) == set(range(1, 11))
        assert members(f434.maximal_elements(I)) == {4, 10}
        B = f434.element_set([3, 10], ANTICHAIN)
        J = f434.down_closure(B)
        assert members(J) == {1, 2, 3, 7, 8, 9, 10}
        assert members(f434.maximal_elements(J)) == {3, 10}

    def test_down_closure_empty(self, f434):
        A = f434.element_set([], ANTICHAIN)
        assert f434.down_closure(A).mask == 0

    def test_down_closure_v(self, f22):
        A = f22.element_set([2], ANTICHAIN)
        assert members(f22.down_closure(A)) == {1, 2, 3}

    def test_maximal_elements_v(self, f22):
        assert members(
            f22.maximal_elements(f22.element_set([1, 3], IDEAL))
        ) == {1, 3}
        assert members(
            f22.maximal_elements(f22.element_set([1, 2, 3], IDEAL))
        ) == {2}

    def test_up_closure(self, f22):
        assert members(f22.up_closure(f22.element_set([1], ANTICHAIN))) == {1, 2}
        F = build_fence((3, 3, 2))
        assert members(F.up_closure(F.element_set([5], ANTICHAIN))) == {3, 4, 5}

    def test_minimal_elements(self, f22):
        assert members(
            f22.minimal_elements(f22.element_set([2], UPPER))
        ) == {2}
        assert members(
            f22.minimal_elements(f22.element_set([1, 2, 3], UPPER))
        ) == {1, 3}
        F = build_fence((3, 3, 2))
        assert members(
            F.minimal_elements(F.element_set([3, 4, 5], UPPER))
        ) == {5}

    def test_closures_match_oracle(self):
        for alpha in [(2, 2), (3, 3, 2), (4, 3, 4), (2, 1, 1, 2), (2, 2, 2, 2)]:
            F = build_fence(alpha)
            for m in F.antichain_masks():
                A = F.set_from_mask(m, ANTICHAIN)
                assert members(F.down_closure(A)) == set(
                    oracle.brute_down_closure(F, set(A.elements))
                ) or not A.elements
                assert members(F.up_closure(A)) == set(
                    oracle.brute_up_closure(F, set(A.elements))
                ) or not A.elements

    def test_role_mismatch_rejected(self, f434):
        I = f434.element_set([1], IDEAL)
        with pytest.raises(RoleError):
            f434.down_closure(I)
        with pytest.raises(RoleError):
            f434.maximal_elements(f434.element_set([1], ANTICHAIN))

    def test_extremal_elements_need_a_true_ideal(self, f434):
        # the cover-shift rule for extremal elements is exact only on ideals
        # and upper ideals; the non-members are built unchecked
        with pytest.raises(RoleError):
            f434.maximal_elements(ElementSet(0b10, IDEAL))  # no x1
        with pytest.raises(RoleError):
            f434.minimal_elements(ElementSet(0b01, UPPER))  # no x2

    def test_invalid_sets_rejected(self, f434):
        with pytest.raises(RoleError):
            f434.element_set([4, 7], ANTICHAIN)  # comparable along segment 2
        with pytest.raises(RoleError):
            f434.element_set([2], IDEAL)  # missing x1 below


class TestComplement:
    def test_examples(self, f22, f434):
        empty = f22.element_set([], IDEAL)
        c = f22.complement(empty)
        assert c.role == UPPER and members(c) == {1, 2, 3}
        one = f22.element_set([1], IDEAL)
        assert members(f22.complement(one)) == {2, 3}
        full = f434.element_set(range(1, 11), IDEAL)
        assert f434.complement(full).mask == 0

    def test_involution(self):
        for alpha in [(2, 2), (4, 3, 4), (2, 2, 2)]:
            F = build_fence(alpha)
            for m in F.ideal_masks():
                I = F.set_from_mask(m, IDEAL)
                assert F.complement(F.complement(I)) == I

    def test_antichain_complement_rejected(self, f22):
        with pytest.raises(RoleError):
            f22.complement(f22.element_set([1], ANTICHAIN))


class TestIndexReversal:
    def test_333(self):
        F = build_fence((3, 3, 3))
        t = F.index_reversal()
        assert t[0] == 8  # x1 -> x8
        assert t[3] == 5  # x4 -> x5

    def test_v_shape_not_self_dual(self, f22):
        # palindromic but with an even number of parts: the flip is an
        # isomorphism, not an anti-isomorphism
        with pytest.raises(FenceError):
            f22.index_reversal()

    def test_non_palindromic(self):
        with pytest.raises(FenceError):
            build_fence((3, 2)).index_reversal()

    def test_order_reversal_property(self):
        for alpha in [(3, 3, 3), (2, 2, 2), (2, 1, 2, 1, 2), (4, 1, 4), (2,) * 7]:
            F = build_fence(alpha)
            t = F.index_reversal()
            leq = oracle.leq_table(F)
            for a in range(1, F.n + 1):
                for b in range(1, F.n + 1):
                    assert leq[a][b] == leq[t[b - 1]][t[a - 1]]

    def test_involution(self):
        F = build_fence((3, 3, 3))
        t = F.index_reversal()
        assert all(t[t[k - 1] - 1] == k for k in range(1, F.n + 1))

    def test_kappa_maps_ideals_to_upper_ideals(self):
        # every palindromic composition with n <= 14 where duality verifies
        palindromic = [
            a for a in all_fence_compositions(14) if a == a[::-1] and len(a) % 2 == 1
        ]
        for alpha in palindromic:
            F = build_fence(alpha)
            F.index_reversal()
            images = {F.reversed_mask(m) for m in F.ideal_masks()}
            assert all(F.is_upper_mask(m) for m in images)
            assert len(images) == len(F.ideal_masks())


class TestEnumeration:
    @pytest.mark.parametrize(
        "alpha,count",
        [((2, 2), 5), ((4, 3, 4), 56), ((3, 3, 2), 23)],
    )
    def test_counts(self, alpha, count):
        F = build_fence(alpha)
        assert len(F.enumerate_ideals()) == count

    def test_matches_subset_scan(self):
        for alpha in [(2, 2), (3, 2), (3, 3, 2), (2, 1, 1, 2), (2, 2, 2, 2), (5, 4)]:
            F = build_fence(alpha)
            got = {frozenset(I.elements) for I in F.enumerate_ideals()}
            assert got == set(oracle.brute_ideals(F))
            got_a = {frozenset(A.elements) for A in F.enumerate_antichains()}
            assert got_a == set(oracle.brute_antichains(F))

    def test_matches_recurrence_wider(self):
        for alpha in all_fence_compositions(11):
            F = build_fence(alpha)
            assert len(F.ideal_masks()) == count_ideals(alpha), alpha

    def test_cap_is_enforced(self):
        with pytest.raises(FamilyCapError):
            build_fence((4, 3, 4), max_family=10).ideal_masks()

    def test_cap_is_checked_before_enumerating(self):
        # (2^40) has about 1.7e15 ideals: the count alone fails the default
        # cap, so no prefix list is built (building them first takes 100 MB)
        F = build_fence((2,) * 40)
        message = r"^ideal enumeration of Fence\(2(,2){39}\) exceeded cap 2000000$"
        tracemalloc.start()
        try:
            with pytest.raises(FamilyCapError, match=message):
                F.antichain_masks()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_antichains_match_subset_scan_for_n_at_most_9(self):
        # the antichain recurrence on every composition with n <= 9,
        # parts of 1 (two shared elements side by side) included
        compositions = all_fence_compositions(9)
        assert len(compositions) == 256
        assert any(1 in alpha for alpha in compositions)
        for alpha in compositions:
            F = build_fence(alpha)
            brute = oracle.brute_antichains(F)
            want = sorted(sum(1 << (k - 1) for k in A) for A in brute)
            assert F.antichain_masks() == tuple(want), alpha

    def test_antichain_cap_comes_before_any_list(self):
        # the ideal count's cap and message, with neither family built
        F = build_fence((4, 3, 4), max_family=55)
        with pytest.raises(FamilyCapError) as info:
            F.antichain_masks()
        assert str(info.value) == "ideal enumeration of Fence(4,3,4) exceeded cap 55"
        assert F._cache == {}

    def test_no_duplicates(self, f434):
        masks = f434.ideal_masks()
        assert len(masks) == len(set(masks))


class TestFamilyBijections:
    def test_closure_inverts_maximal_elements(self):
        # ideals -> antichains -> ideals is the identity, and dually,
        # exhaustively on every fence with n <= 14 (mask level for speed)
        for alpha in all_fence_compositions(14):
            F = build_fence(alpha)
            seen = set()
            full = F.full_mask
            for m in F.ideal_masks():
                a = F._maximal_mask(m)
                assert F._down_closure_mask(a) == m
                seen.add(a)
                u = full ^ m
                b = F._minimal_mask(u)
                assert F._up_closure_mask(b) == u
            assert len(seen) == len(F.ideal_masks())

    def test_composition_properties(self):
        c = Composition((4, 3, 4))
        assert c.is_palindromic and c.n == 10 and c.s == 3
        assert not Composition((3, 2)).is_palindromic


class TestMemoKeys:
    def test_every_memo_key_is_documented(self):
        # every key passed to .memo( in the package is listed in Fence.memo's
        # docstring, a string key as itself and a tuple key by its first
        # string, and every key the docstring lists is passed to some .memo(
        src = Path(fences.__file__).parent
        doc = Fence.memo.__doc__
        keys = []
        for path in sorted(src.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if not (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "memo"
                ):
                    continue
                key = node.args[0]
                if isinstance(key, ast.Tuple):
                    key = key.elts[0]
                assert isinstance(key, ast.Constant) and isinstance(key.value, str), (
                    f"{path.name}:{node.lineno}: memo key is not a literal"
                )
                keys.append(key.value)
                assert f'"{key.value}"' in doc, f"{path.name}:{node.lineno}"
        assert {"ideal_masks", "orbits", "profiles"} <= set(keys)
        assert set(re.findall(r'"(\w+)"', doc)) == set(keys)


def _package_imports(path, modules):
    """(line, imported fences module, where) for every import of a module
    of the package in the file at path; where is "function", "TYPE_CHECKING"
    or None for an import that runs when the module is loaded."""
    out = []

    def targets(node):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        else:  # a relative import is one from the package itself
            module = ".".join(filter(None, ("fences" * (node.level > 0), node.module)))
            names = [f"{module}.{a.name}" for a in node.names]
        parts = [name.split(".") for name in names]
        return [
            p[1] if len(p) > 1 and p[1] in modules else "__init__"
            for p in parts
            if p[0] == "fences"
        ]

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                inner = where or "function"
            elif isinstance(child, ast.If) and "TYPE_CHECKING" in ast.dump(child.test):
                inner = where or "TYPE_CHECKING"
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                out.extend((child.lineno, t, inner) for t in targets(child))
            visit(child, inner)

    visit(ast.parse(path.read_text(), str(path)), None)
    return out


class TestLayering:
    def test_package_imports_are_top_level_and_acyclic(self):
        # a module of the package imports another only when it is loaded:
        # never inside a function, never only under `if TYPE_CHECKING`, and
        # those imports form no cycle, so every module's dependencies are
        # loaded before it is
        src = Path(fences.__file__).parent
        modules = {path.stem for path in src.glob("*.py")}
        graph, bad = {}, []
        for path in sorted(src.glob("*.py")):
            graph[path.stem] = set()
            for line, target, where in _package_imports(path, modules):
                if where is None:
                    graph[path.stem].add(target)
                else:
                    bad.append(f"{path.name}:{line}: imports {target} in {where}")
        assert not bad
        state: dict[str, str] = {}

        def walk(module, path):
            state[module] = "open"
            for target in sorted(graph[module]):
                assert state.get(target) != "open", "import cycle: " + " -> ".join(
                    path[path.index(target) :] + [target]
                )
                if target not in state:
                    walk(target, path + [target])
            state[module] = "done"

        for module in sorted(graph):
            if module not in state:
                walk(module, [module])
        assert graph["fence"] == set()
        assert graph["stats"] == {"fence", "rowmotion"}
