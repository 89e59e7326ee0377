import gc
import itertools
import math
import re
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wcatalan import orbits
from wcatalan.catalan import catalan_number, weighted_catalan
from wcatalan.cli import main
from wcatalan.errors import DomainError, ResourceLimitError
from wcatalan.orbits import (
    OrbitShape,
    _layer,
    _layer_columns,
    _ordered_representative,
    average_weight,
    coin_oracle,
    complete_shape,
    enumerate_orbits,
    epsilon_direct,
    epsilon_recursive,
    minimal_orbits,
    orbit_size,
    reduce_orbit,
)
from wcatalan.weights import (
    WeightFunction,
    WeightMembershipError,
    epsilon_of_weight,
    parse_weight_spec,
)

MORSE = WeightFunction.preset("morse")
ONES = WeightFunction.preset("ones")
TABLE_3X = WeightFunction.from_table([3**x for x in range(40)])
MIXED = WeightFunction.polynomial([1, -2, 2])  # difference coefficients (1, 0, 4)

LEAF = OrbitShape.leaf()
TWO_CHAIN = OrbitShape.node([LEAF])
CHERRY = OrbitShape.node([LEAF, LEAF])


def all_shapes(up_to):
    return [s for n in range(1, up_to + 1) for s in enumerate_orbits(n)]


class TestShapes:
    def test_parens_round_trip(self):
        for s in all_shapes(7):
            assert OrbitShape.from_parens(s.to_parens()) == s
        assert OrbitShape.from_parens("").is_empty
        assert LEAF.to_parens() == "()"
        assert TWO_CHAIN.to_parens() == "(())"

    def test_canonical_order_independence(self):
        a = OrbitShape.node([CHERRY, LEAF])
        b = OrbitShape.node([LEAF, CHERRY])
        assert a == b and a.to_parens() == b.to_parens()

    def test_too_many_children(self):
        with pytest.raises(DomainError):
            OrbitShape.node([LEAF, LEAF, LEAF], q=2)
        with pytest.raises(DomainError):
            OrbitShape.from_parens("(()()())", q=2)

    def test_counts_and_depth(self):
        assert CHERRY.vertex_count == 3 and CHERRY.depth == 2
        assert complete_shape(4).vertex_count == 15
        assert complete_shape(0).is_empty


@cache
def forest_count(total: int, slots: int, largest: int, q: int) -> int:
    """Multisets of at most `slots` orbits of at most `largest` vertices each."""
    if total == 0:
        return 1
    out = 0
    for size in range(1, min(total, largest) + 1):
        kinds = tree_count(size, q)
        for mult in range(1, min(slots, total // size) + 1):
            out += math.comb(kinds + mult - 1, mult) * forest_count(
                total - mult * size, slots - mult, size - 1, q
            )
    return out


def tree_count(n: int, q: int) -> int:
    """Orbits on n >= 1 vertices with at most q children per node."""
    return forest_count(n - 1, q, n - 1, q)


class TestEnumeration:
    def test_counts(self):
        # unordered binary trees on n vertices (Wedderburn-Etherington shifted)
        expected = [1, 1, 1, 2, 3, 6, 11, 23, 46, 98, 207]
        assert [len(enumerate_orbits(n)) for n in range(11)] == expected

    def test_three_vertices(self):
        shapes = {s.to_parens() for s in enumerate_orbits(3)}
        assert shapes == {"((()))", "(()())"}  # path and cherry

    def test_cap(self):
        with pytest.raises(ResourceLimitError):
            enumerate_orbits(17)
        assert len(enumerate_orbits(16)) == 24631

    def test_orbit_partition(self):
        for n in range(13):
            assert sum(orbit_size(s) for s in enumerate_orbits(n)) == catalan_number(n)

    def test_branching_is_checked_first(self):
        for q in (-1, 0, 1):
            for n in (-1, 0, 1, 2, 3, 20):
                with pytest.raises(DomainError, match="branching must be at least 2"):
                    enumerate_orbits(n, q)
            with pytest.raises(DomainError, match="branching must be at least 2"):
                OrbitShape.from_parens("(())", q)

    def test_default_cap_keeps_the_binary_row_count(self):
        # the largest n with at most 24,631 orbits, the binary count at n = 16
        for q in range(2, 12):
            counts = [tree_count(n, q) for n in range(1, 20)]
            assert orbits.enum_cap(q) == max(n for n, c in enumerate(counts, 1) if c <= 24631)
        assert [tree_count(n, 3) for n in (14, 15)] == [19241, 48865]
        for q, cap in ((3, 14), (4, 13)):
            assert len(enumerate_orbits(cap, q)) == tree_count(cap, q)
            with pytest.raises(ResourceLimitError):
                enumerate_orbits(cap + 1, q)

    def test_reference_counts(self):
        for q in (2, 3, 4, 5):
            assert [len(enumerate_orbits(n, q)) for n in range(1, 9)] == [
                tree_count(n, q) for n in range(1, 9)
            ]

    def test_ternary_counts(self):
        # unordered rooted trees with <= 3 children: 1, 1, 1, 2, 4, 8, 17, 39
        assert [len(enumerate_orbits(n, q=3)) for n in range(8)] == [1, 1, 1, 2, 4, 8, 17, 39]


class TestOrbitTable:
    @pytest.mark.parametrize("q", [2, 3])
    def test_sequence_contract(self, q):
        for n in range(10):
            table = enumerate_orbits(n, q)
            assert isinstance(table, Sequence)
            # the list enumeration returned before it returned a table
            old = (
                [OrbitShape.empty(q)]
                if n == 0
                else [OrbitShape(q, key) for key, _, _ in _layer(n, q)]
            )
            shapes = list(table)
            assert len(table) == len(old) == (1 if n == 0 else tree_count(n, q))
            assert shapes == old
            assert [table[i] for i in range(len(table))] == old
            assert [table[i - len(table)] for i in range(len(table))] == old
            assert list(table[1:]) == old[1:] and list(table[::-1]) == old[::-1]
            for i in (len(table), -len(table) - 1):
                with pytest.raises(IndexError):
                    table[i]
            assert [s.key for s in shapes] == [s.key for s in old] == list(table.keys)
            # the columns hold what each shape computes from its key
            assert [s.to_parens() for s in shapes] == list(table.parens)
            assert [orbit_size(s) for s in shapes] == list(table.sizes)

    def test_immutable(self):
        table = enumerate_orbits(5)
        with pytest.raises(TypeError):
            table[0] = table[1]
        with pytest.raises(AttributeError):
            table.extra = 1
        assert all(isinstance(c, tuple) for c in (table.keys, table.parens, table.sizes))

    def test_negative_cap_is_a_domain_error(self):
        for n in (0, 3):
            with pytest.raises(DomainError, match="cap must be nonnegative, got -1"):
                enumerate_orbits(n, 2, max_n=-1)


class TestOrbitSize:
    def test_examples(self):
        assert orbit_size(OrbitShape.empty()) == 1
        assert orbit_size(LEAF) == 1
        assert orbit_size(TWO_CHAIN) == 2
        for k in range(1, 5):
            assert orbit_size(complete_shape(k)) == 1

    def test_powers_of_two(self):
        for s in all_shapes(8):
            size = orbit_size(s)
            assert size & (size - 1) == 0

    def test_complete_trees_are_the_singleton_orbits(self):
        for s in all_shapes(8):
            assert (orbit_size(s) == 1) == (s == complete_shape(s.depth))

    def test_ternary_sizes(self):
        # single child: 3 slots; two distinct children: 3!/(1!1!1!) = 6
        assert orbit_size(OrbitShape.node([OrbitShape.leaf(3)], q=3)) == 3
        two = OrbitShape.node([OrbitShape.leaf(3)], q=3)
        assert orbit_size(OrbitShape.node([OrbitShape.leaf(3), two], q=3)) == 18

    def test_min_size_matches_digit_sum(self):
        from wcatalan.arith import digit_sum

        for n in range(1, 13):
            smallest = min(orbit_size(s) for s in enumerate_orbits(n))
            assert smallest == 2 ** (digit_sum(2, n + 1) - 1)


# Recursive references for the row path: the per-node Counter size formula,
# the parens join and the vertex count.  They are memoised by key only so the
# minimal-orbit census, whose keys share their complete subtrees, stays fast.


@cache
def reference_size(key, q: int) -> int:
    ways = math.factorial(q) // math.factorial(q - len(key))
    for m in Counter(key).values():
        ways //= math.factorial(m)
    for child in key:
        ways *= reference_size(child, q)
    return ways


@cache
def reference_parens(key) -> str:
    return "(" + "".join(reference_parens(k) for k in key) + ")"


@cache
def reference_vertices(key) -> int:
    return 1 + sum(reference_vertices(k) for k in key)


@cache
def reference_depth(key) -> int:
    return 1 + max(map(reference_depth, key), default=0)


def assert_rows_match_references(shape):
    key, q = shape.key, shape.q
    assert orbit_size(shape) == reference_size(key, q), (q, key)
    assert shape.to_parens() == reference_parens(key), (q, key)
    assert shape.vertex_count == reference_vertices(key), (q, key)


@st.composite
def parens_strings(draw, q):
    """A random ordered tree with at most q children per node, as parens."""
    tree = draw(
        st.recursive(
            st.just(()),
            lambda kids: st.lists(kids, max_size=q).map(tuple),
            max_leaves=40,
        )
    )
    return reference_parens(tree)


class TestRowPath:
    @pytest.mark.parametrize("q", [2, 3])
    def test_depth_is_the_reference_depth(self, q):
        # the depth is read off the parens string, not off the nested key
        for n in range(1, 13):
            for shape in enumerate_orbits(n, q):
                assert shape.depth == reference_depth(shape.key), (q, shape.key)
        assert OrbitShape.empty(q).depth == 0

    @pytest.mark.parametrize("q, n_max", [(2, 14), (3, 10), (4, 9), (5, 8)])
    def test_every_enumerated_key(self, q, n_max):
        # the parens and sizes the enumerator builds, against the references
        for n in range(1, n_max + 1):
            for shape in enumerate_orbits(n, q):
                assert_rows_match_references(shape)

    def test_every_binary_key_on_15_vertices(self):
        for shape in enumerate_orbits(15):
            assert_rows_match_references(shape)

    def test_every_minimal_key(self):
        for n in range(1, 130):
            for shape in minimal_orbits(n):
                assert_rows_match_references(shape)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_random_parens_shapes(self, data):
        q = data.draw(st.integers(2, 4))
        text = data.draw(parens_strings(q))
        shape = OrbitShape.from_parens(text, q)
        assert_rows_match_references(shape)
        assert len(shape.to_parens()) == len(text)
        assert OrbitShape.from_parens(shape.to_parens(), q) == shape

    def test_memo_holds_inner_subtrees_only(self):
        # enumeration caches the layers below the top one, and the row loop
        # may fill only the size memo, and only with child subtrees: never
        # one entry per top-level row
        n, q = 13, 2
        caches = [
            value
            for value in vars(orbits).values()
            if callable(getattr(value, "cache_info", None))
        ]
        for cache in caches:
            cache.cache_clear()
        shapes = enumerate_orbits(n, q)
        others = [c for c in caches if c is not orbits._subtree_size]
        before = [c.cache_info().currsize for c in others]
        for shape in shapes:
            orbit_size(shape)
            shape.to_parens()
            shape.vertex_count
        assert [c.cache_info().currsize for c in others] == before
        inner_keys = sum(len(_layer(k, q)) for k in range(1, n))
        assert orbits._subtree_size.cache_info().currsize <= inner_keys < len(shapes)
        # the n - 1 cached layers are exactly layers 1..n-1
        assert _layer.cache_info().currsize == n - 1
        misses = _layer.cache_info().misses
        assert [len(_layer(k, q)) for k in range(1, n)] == [
            len(enumerate_orbits(k, q)) for k in range(1, n)
        ]
        assert _layer.cache_info().misses == misses
        assert _layer.cache_info().currsize == n - 1


class TestMinimalOrbits:
    def test_complete_cases(self):
        for k in (1, 2, 3, 4):
            n = 2**k - 1
            mo = minimal_orbits(n)
            assert len(mo) == 1 and mo[0] == complete_shape(k)

    def test_double_factorial_counts(self):
        from wcatalan.arith import digit_sum

        # n = 126 is s = 6: 10,395 orbits, each through the size check
        for n in [*range(1, 65), 126]:
            s = digit_sum(2, n + 1) - 1
            expected = math.factorial(2 * s) // (2**s * math.factorial(s)) if s else 1
            assert len(minimal_orbits(n)) == expected, n

    def test_sizes_from_the_construction_match_orbit_size(self):
        # each row carries the orbit size its construction gives; `_node_size`
        # recomputes it from the key, as `orbit_size` does
        for n in range(1, 65):
            depths = tuple(i for i in range((n + 1).bit_length()) if (n + 1) >> i & 1)
            for key, _, _, size in orbits._minimal_rows(depths):
                assert size == orbits._node_size(key, 2) == 2 ** (len(depths) - 1), (n, key)
            table = minimal_orbits(n)
            assert list(table.sizes) == [orbit_size(shape) for shape in table], n

    def test_agrees_with_enumeration_filter(self):
        from wcatalan.arith import digit_sum

        for n in range(1, 11):
            s = digit_sum(2, n + 1) - 1
            filtered = {
                sh.key for sh in enumerate_orbits(n) if orbit_size(sh) == 2**s
            }
            assert filtered == {sh.key for sh in minimal_orbits(n)}

    def test_n14_reduction_table(self):
        mo = minimal_orbits(14)
        assert len(mo) == 15
        reduced = [reduce_orbit(s) for s in mo]
        assert all(r.vertex_count == 6 for r, _ in reduced)
        assert all(removed == 8 for _, removed in reduced)
        counts = Counter(r.key for r, _ in reduced)
        assert sorted(counts.values()) == [3, 3, 3, 6]

    def test_n54_contains_figure_shape(self):
        # skeleton of 4 nodes with fully symmetric trees of depths 5, 2, 4, 1
        # attached (and one empty slot)
        figure = OrbitShape.node(
            [
                OrbitShape.node([complete_shape(5), complete_shape(2)]),
                OrbitShape.node(
                    [OrbitShape.node([complete_shape(1), complete_shape(4)])]
                ),
            ]
        )
        assert figure.vertex_count == 54
        mo = minimal_orbits(54)
        assert len(mo) == 105  # (2*4 - 1)!! for s = 4
        assert figure in mo
        reduced, removed = reduce_orbit(figure)
        companion = OrbitShape.node(
            [
                OrbitShape.node([LEAF, LEAF]),
                OrbitShape.node([OrbitShape.node([LEAF, LEAF])]),
            ]
        )
        assert reduced == companion and removed == 46

    def test_binary_only(self):
        with pytest.raises(DomainError):
            minimal_orbits(4, q=3)

    def test_reduction_from_the_construction_matches_reduce_orbit(self):
        for n in range(1, 130):
            table = minimal_orbits(n)
            assert len(table.reduced) == len(table.removed) == len(table)
            for shape, reduced, removed in zip(table, table.reduced, table.removed):
                oracle, oracle_removed = reduce_orbit(shape)
                assert (reduced, removed) == (oracle.to_parens(), oracle_removed), (n, shape)

    def test_table_slices_keep_the_reduction(self):
        table = minimal_orbits(46)
        part = table[3:9]
        assert isinstance(part, orbits.OrbitTable) and len(part) == 6
        assert part.reduced == table.reduced[3:9] and part.removed == table.removed[3:9]
        assert list(part) == list(table)[3:9]
        assert enumerate_orbits(5).reduced is None and enumerate_orbits(5)[1:].removed is None

    def test_memo_holds_inner_depth_tuples_only(self):
        # the builder caches the depth tuples below the top one; n + 1's full
        # tuple goes straight into the returned columns
        builder = orbits._minimal_subtrees
        for n in (14, 46, 126):
            builder.cache_clear()
            table = minimal_orbits(n)
            depths = tuple(i for i in range((n + 1).bit_length()) if (n + 1) >> i & 1)
            cached = builder.cache_info().currsize
            assert 0 < cached
            # a call on the full tuple misses once, and finds every inner one
            misses = builder.cache_info().misses
            assert sorted(row[0] for row in builder(depths)) == list(table.keys)
            assert builder.cache_info().misses == misses + 1
            assert builder.cache_info().currsize == cached + 1

    def test_cap_refuses_before_any_key(self):
        from wcatalan.arith import digit_sum

        # s = 7 (135,135 orbits) is the largest s allowed; s = 8 is refused
        assert orbits.MINIMAL_ORBIT_CAP == math.prod(range(1, 14, 2))
        orbits._minimal_subtrees.cache_clear()
        for n in (510, 1022, 2**40 - 2):
            with pytest.raises(ResourceLimitError, match="capped at 135135 orbits"):
                minimal_orbits(n)
        assert orbits._minimal_subtrees.cache_info().misses == 0
        assert max(digit_sum(2, n + 1) - 1 for n in range(1, 510)) == 7
        with pytest.raises(DomainError):
            minimal_orbits(510, q=3)
        with pytest.raises(DomainError):
            minimal_orbits(0)


class TestAverageWeight:
    def test_single_vertex_is_the_weight(self):
        tab = average_weight(LEAF, MORSE, 0, 4)
        assert tab.values == (1, 9, 25, 49)

    def test_two_vertex_example(self):
        assert average_weight(TWO_CHAIN, MORSE, 0, 1).values == (5,)

    def test_empty_orbit(self):
        assert average_weight(OrbitShape.empty(), MORSE, 2, 3).values == (1, 1, 1)

    def test_totals_against_ordered_sum(self):
        # |O| * r(x) equals the sum of w(T; x) over the orbit, checked via
        # the orbit decomposition of the weighted Catalan numbers
        for b in (ONES, MORSE, MIXED):
            for n in range(9):
                total = sum(
                    orbit_size(s) * average_weight(s, b, 0, 1).values[0]
                    for s in enumerate_orbits(n)
                )
                assert total == weighted_catalan(b, n)

    def test_ternary_average_against_ordered_sum(self):
        # the symmetrized combination raises exactly one argument, so the
        # matching ordered-tree weight counts edges through one marked slot;
        # |O| * r(O; x) must equal the sum of those weights over the orbit
        import itertools

        b = WeightFunction.polynomial([1, 9])

        def ordered_versions(shape):
            if shape.is_empty:
                return {None}
            padded = list(shape.children) + [OrbitShape.empty(3)] * (
                3 - len(shape.children)
            )
            out = set()
            for perm in set(itertools.permutations(padded)):
                for combo in itertools.product(
                    *(ordered_versions(k) for k in perm)
                ):
                    out.add(combo)
            return out

        def marked_weight(tree, x):
            # tree is a 3-tuple of children (None = empty); slot 0 increments
            if tree is None:
                return 1
            w = b(x)
            for slot, child in enumerate(tree):
                w *= marked_weight(child, x + 1 if slot == 0 else x)
            return w

        for n in range(1, 5):
            for s in enumerate_orbits(n, q=3):
                trees = ordered_versions(s)
                assert len(trees) == orbit_size(s)
                total = sum(marked_weight(t, 0) for t in trees)
                assert total == orbit_size(s) * average_weight(s, b, 0, 1).values[0]

    def test_non_integral_average_raises(self):
        b = WeightFunction.preset("matchings")  # diff b = 1: not in F
        with pytest.raises(WeightMembershipError, match="not divisible"):
            average_weight(TWO_CHAIN, b, 0, 1)


class TestEpsilonOracles:
    def test_single_vertex_matches_weight(self):
        for b in (MORSE, TABLE_3X, MIXED):
            eps_b = epsilon_of_weight(b, 4)
            assert epsilon_direct(LEAF, b, 4).bits == eps_b.bits[:5]

    def test_complete_tree_collapses(self):
        for k in (2, 3):
            assert epsilon_direct(complete_shape(k), MORSE, 3).bits == (1, 0, 0, 0)

    def test_two_vertex_closed_form(self):
        for b in (MORSE, TABLE_3X, MIXED):
            eps_b = epsilon_of_weight(b, 6)
            e0, e1 = eps_b[0], eps_b[1]
            assert epsilon_direct(TWO_CHAIN, b, 0).bits[0] == e0 * (e0 + e1) % 2

    def test_cherry_order_zero(self):
        for b in (MORSE, TABLE_3X, MIXED):
            eps_b = epsilon_of_weight(b, 6)
            got = epsilon_recursive(CHERRY, eps_b, 0).bits[0]
            assert got == eps_b[0] ** 3 % 2

    def test_direct_equals_recursive(self):
        shapes = all_shapes(6)
        for b in (ONES, MORSE, TABLE_3X, MIXED):
            eps_b = epsilon_of_weight(b, 16)
            for s in shapes:
                d = epsilon_direct(s, b, 3)
                r = epsilon_recursive(s, eps_b, 3)
                assert d.bits == r.bits, (s.to_parens(), b.spec())

    def test_recursive_needs_enough_entries(self):
        eps_b = epsilon_of_weight(MORSE, 3)
        with pytest.raises(DomainError, match="order"):
            epsilon_recursive(complete_shape(3), eps_b, 3)

    def test_ternary_direct_equals_recursive(self):
        b = WeightFunction.polynomial([1, 0, 9])  # carries (1, 0, 2) base 3
        eps_b = epsilon_of_weight(b, 12, base=3)
        for n in range(1, 5):
            for s in enumerate_orbits(n, q=3):
                d = epsilon_direct(s, b, 2)
                r = epsilon_recursive(s, eps_b, 2)
                assert d.bits == r.bits, (s.to_parens(), d.bits, r.bits)


# Brute-force coin configurations: the explicit reference the coin oracle's
# per-vertex counting is checked against (exponential; tiny shapes only).


@dataclass(frozen=True)
class CoinConfiguration:
    """One sibling-free edge selection plus a placement of all coins.

    Edges are (parent, child) vertex pairs in the canonical ordered
    representative; placement maps each coin label (ints 1..m for free
    coins, "e<i>" for the coin of the i-th selected edge) to a vertex.
    """

    shape: OrbitShape
    selected_edges: tuple[tuple[int, int], ...]
    placement: tuple[tuple[str, int], ...]

    def counts(self) -> Counter:
        per_vertex = Counter(v for _, v in self.placement)
        for v in range(self.shape.vertex_count):
            per_vertex.setdefault(v, 0)
        return per_vertex

    def count_profile(self) -> Counter:
        """Multiset {coin count -> number of vertices}; determines the weight."""
        return Counter(self.counts().values())

    def weight(self, eps) -> int:
        bits = tuple(eps)
        w = 1
        for _, c in self.counts().items():
            w *= bits[c]
        return w

    def validate(self) -> None:
        children, subtree = _ordered_representative(self.shape.key)
        parents = [e[0] for e in self.selected_edges]
        if len(parents) != len(set(parents)):
            raise DomainError("two selected edges are siblings")
        for parent, child in self.selected_edges:
            if child not in children[parent]:
                raise DomainError(f"({parent}, {child}) is not an edge")
        placed = dict(self.placement)
        expected = {f"e{i}" for i in range(len(self.selected_edges))}
        expected |= {str(i) for i in range(1, self._order() + 1)}
        if set(placed) != expected:
            raise DomainError("placement does not cover exactly the required coins")
        for i, (_, child) in enumerate(self.selected_edges):
            if placed[f"e{i}"] not in subtree[child]:
                raise DomainError(f"coin e{i} is not at a descendant of its edge")

    def _order(self) -> int:
        return sum(1 for label, _ in self.placement if not label.startswith("e"))


def enumerate_coin_configurations(shape: OrbitShape, m: int):
    """All coin-configurations of order m (exponential; tiny shapes only)."""
    if shape.q != 2:
        raise DomainError("coin configurations are defined for binary orbits only")
    if shape.is_empty:
        return
    children, subtree = _ordered_representative(shape.key)
    n_v = shape.vertex_count
    for picks in itertools.product(*[[None] + children[v] for v in range(n_v)]):
        edges = tuple((p, c) for p, c in enumerate(picks) if c is not None)
        edge_domains = [subtree[c] for _, c in edges]
        free_domains = [range(n_v)] * m
        for spots in itertools.product(*edge_domains, *free_domains):
            placement = tuple(
                (f"e{i}", spots[i]) for i in range(len(edges))
            ) + tuple((str(j + 1), spots[len(edges) + j]) for j in range(m))
            yield CoinConfiguration(shape, edges, placement)


class TestCoinOracle:
    def test_single_vertex(self):
        for b in (MORSE, TABLE_3X, MIXED):
            eps_b = epsilon_of_weight(b, 8)
            for m in range(4):
                assert coin_oracle(LEAF, eps_b, m) == eps_b[m] % 2

    def test_two_vertex_order_zero(self):
        for b in (MORSE, TABLE_3X, MIXED):
            eps_b = epsilon_of_weight(b, 8)
            e0, e1 = eps_b[0], eps_b[1]
            assert coin_oracle(TWO_CHAIN, eps_b, 0) == e0 * (e0 + e1) % 2

    def test_matches_direct(self):
        for b in (MORSE, TABLE_3X, MIXED):
            eps_b = epsilon_of_weight(b, 12)
            for s in all_shapes(5):
                direct = epsilon_direct(s, b, 3)
                for m in range(4):
                    assert coin_oracle(s, eps_b, m) == direct.bits[m] % 2, (
                        s.to_parens(),
                        b.spec(),
                        m,
                    )

    def test_matches_explicit_enumeration(self):
        for b in (TABLE_3X, MIXED):
            eps_b = epsilon_of_weight(b, 8)
            for s in all_shapes(3):
                for m in range(3):
                    explicit = (
                        sum(
                            c.weight(eps_b)
                            for c in enumerate_coin_configurations(s, m)
                        )
                        % 2
                    )
                    assert coin_oracle(s, eps_b, m) == explicit

    def test_configuration_validation_and_figure_profile(self):
        # 8-vertex tree: root has a 3-vertex cherry child and a chain child
        # leading to a cherry; one sibling-free selection with 9 labeled coins
        shape = OrbitShape.node(
            [
                OrbitShape.node([LEAF, LEAF]),
                OrbitShape.node([OrbitShape.node([LEAF, LEAF])]),
            ]
        )
        # canonical ordered representative (depth-first):
        # 0 root; 1 = cherry, 2, 3 its leaves; 4 = chain, 5 = inner, 6, 7 leaves
        config = CoinConfiguration(
            shape,
            selected_edges=((0, 1), (4, 5), (5, 6)),
            placement=(
                ("2", 0),
                ("8", 0),
                ("e0", 1),
                ("4", 1),
                ("7", 3),
                ("5", 4),
                ("6", 4),
                ("1", 6),
                ("e1", 6),
                ("e2", 6),
                ("3", 7),
                ("9", 7),
            ),
        )
        config.validate()
        assert config.count_profile() == Counter({2: 4, 0: 2, 1: 1, 3: 1})
        eps = (1, 1, 1, 1)
        assert config.weight(eps) == 1

    def test_sibling_selection_rejected(self):
        config = CoinConfiguration(
            CHERRY,
            selected_edges=((0, 1), (0, 2)),
            placement=(("e0", 1), ("e1", 2)),
        )
        with pytest.raises(DomainError, match="siblings"):
            config.validate()

    def test_descendant_constraint_rejected(self):
        config = CoinConfiguration(
            CHERRY, selected_edges=((0, 1),), placement=(("e0", 2),)
        )
        with pytest.raises(DomainError, match="descendant"):
            config.validate()

    def test_caps(self, monkeypatch):
        eps_b = epsilon_of_weight(MORSE, 20)
        with pytest.raises(ResourceLimitError):
            coin_oracle(complete_shape(3), eps_b, 1)
        with pytest.raises(ResourceLimitError):
            coin_oracle(LEAF, eps_b, 5)
        # the caps are read when the oracle is called: a raised vertex cap
        # admits the 7-vertex complete tree, whose carries collapse
        monkeypatch.setattr(orbits, "COIN_VERTEX_CAP", 7)
        assert coin_oracle(complete_shape(3), eps_b, 1) == 0

    def test_binary_only(self):
        b = WeightFunction.polynomial([1, 0, 9])
        eps_b = epsilon_of_weight(b, 6, base=3)
        with pytest.raises(DomainError, match="binary"):
            coin_oracle(OrbitShape.leaf(3), eps_b, 1)


class TestCarryOracles:
    # every case fails each later check as well, so only the order of the
    # checks decides which error comes out
    ERRORS = [
        ("(" * 33, 2, "preset:morse", 33, "all", ResourceLimitError, "depth 32 (requested 33)"),
        ("(", 2, "preset:morse", 33, "coin", ResourceLimitError, "order 32 (requested 33)"),
        ("(()", 2, "preset:morse", -1, "coin", DomainError, "expected ')' at position 3"),
        ("(()())", 3, "table:1", -1, "coin", DomainError, "max order must be nonnegative"),
        ("(()())", 3, "table:1", 1, "coin", DomainError, "binary orbits only"),
        ("((()())(()()))", 2, "table:1", 1, "coin", ResourceLimitError, "6 vertices and order 4"),
        ("(())", 2, "table:1,9", 3, "direct", DomainError, "at least 7 values to certify order 5"),
        ("(())", 3, "poly:1,2", 3, "all", DomainError, "not in F(base 3)"),
    ]

    @pytest.mark.parametrize("shape, q, weight, m, method, error, message", ERRORS)
    def test_errors_in_the_order_the_cli_reports(
        self, capsys, shape, q, weight, m, method, error, message
    ):
        with pytest.raises(error, match=re.escape(message)) as caught:
            orbits.carry_oracles(shape, q, parse_weight_spec(weight), m, method)
        argv = ["epsilon", "--weight", weight, "--shape", shape, "--m", str(m)]
        code = main(argv + ["--q", str(q), "--method", method])
        captured = capsys.readouterr()
        exit_code = 4 if error is ResourceLimitError else 3
        assert (code, captured.out, captured.err) == (exit_code, "", f"error: {caught.value}\n")

    def test_results(self):
        # the empty shape's carries are a constant: no coin cap applies to
        # it, under "all" as under "coin"
        assert orbits.carry_oracles("", 2, MORSE, 5, "all") == {
            "direct": [1, 0, 0, 0, 0, 0],
            "recursive": [1, 0, 0, 0, 0, 0],
            "coin": [1, 0, 0, 0, 0, 0],
            "agree": True,
        }
        assert orbits.carry_oracles("", 2, MORSE, 5, "coin") == {"coin": [1, 0, 0, 0, 0, 0]}
        got = orbits.carry_oracles("(())", 2, MORSE, 2, "all")
        assert got["direct"] == got["recursive"] == got["coin"] and got["agree"]
        with pytest.raises(DomainError, match="unknown carry method"):
            orbits.carry_oracles("()", 2, MORSE, 1, "every")


class TestReduction:
    def test_complete_tree_reduces_to_leaf(self):
        for k in (1, 2, 3, 4):
            reduced, removed = reduce_orbit(complete_shape(k))
            assert reduced == LEAF and removed == 2**k - 2

    def test_epsilon_invariance(self):
        # e_m(shape) = e_0^removed * e_m(reduced), exponent summed over all
        # collapsed complete subtrees
        shapes = [
            OrbitShape.node([complete_shape(2), LEAF]),
            OrbitShape.node([complete_shape(3)]),
            OrbitShape.node([complete_shape(2), complete_shape(3)]),
            OrbitShape.node([OrbitShape.node([complete_shape(2)]), CHERRY]),
        ]
        for b in (MORSE, TABLE_3X, MIXED):
            eps_b = epsilon_of_weight(b, 24)
            e0 = eps_b[0]
            for s in shapes:
                reduced, removed = reduce_orbit(s)
                lhs = epsilon_direct(s, b, 3).bits
                rhs = tuple(
                    e0**removed * x % 2 for x in epsilon_direct(reduced, b, 3).bits
                )
                assert lhs == rhs, (s.to_parens(), removed)

    def test_single_pass_semantics(self):
        # reduction replaces the complete subtrees of the input; it is not
        # iterated, so a newly formed cherry survives
        shape = OrbitShape.node([CHERRY, LEAF])
        reduced, removed = reduce_orbit(shape)
        assert reduced == CHERRY and removed == 2

    def test_vertex_accounting(self):
        for s in all_shapes(7):
            reduced, removed = reduce_orbit(s)
            assert s.vertex_count - reduced.vertex_count == removed


def test_recursions_leave_no_cyclic_garbage():
    # `cli.main` runs each command with the cyclic collector paused, so what
    # these recursions build must be freed by reference counting alone
    shape = OrbitShape.node([complete_shape(2), OrbitShape.node([CHERRY])])
    eps_b = epsilon_of_weight(MORSE, 12)
    gc.collect()
    collecting = gc.isenabled()
    gc.disable()
    try:
        _layer_columns(12, 2)
        reduce_orbit(shape)
        _ordered_representative(shape.key)
        epsilon_recursive(shape, eps_b, 3)
        epsilon_direct(shape, MORSE, 3)
        assert gc.collect() == 0
    finally:
        if collecting:
            gc.enable()


class TestMultinomialDivisibility:
    def test_exhaustive_small(self):
        # q | multinomial(sum i; i_1..i_q) * multinomial(q; multiplicities)
        # whenever the i_j are not all zero
        from wcatalan.orbits import _compositions, _multinomial

        for q in range(2, 6):
            for total in range(1, 9):
                for combo in _compositions(total, q):
                    mult = Counter(combo)
                    m1 = _multinomial(total, combo)
                    m2 = _multinomial(q, tuple(mult.values()))
                    assert (m1 * m2) % q == 0, (q, combo)


def minimal_parity_sum(n: int, b: WeightFunction) -> int:
    """Parity of the sum of e^O_0 over all minimal orbits on n vertices.

    Equals 1 whenever b satisfies the relaxed valuation-theorem hypotheses
    (odd b(0), 4 | diff b, 2^n | diff^n b for n >= 2).
    """
    total = 0
    for shape in minimal_orbits(n):
        total += epsilon_direct(shape, b, 0).bits[0]
    return total % 2


class TestMinimalParitySum:
    def test_base_cases(self):
        assert minimal_parity_sum(1, MORSE) == 1
        assert minimal_parity_sum(2, MORSE) == 1

    def test_morse_up_to_14(self):
        for n in range(1, 15):
            assert minimal_parity_sum(n, MORSE) == 1, n

    def test_odd_weight_violating_main_can_flip(self):
        # diff b = 2 mod 4 makes even-size cases drop parity
        b = WeightFunction.polynomial([1, 2])
        assert minimal_parity_sum(2, b) == 0
