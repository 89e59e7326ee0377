"""Orbits of rooted trees under subtree permutations.

An orbit is an unordered rooted tree with at most q children per node,
canonically encoded so that key equality is orbit equality.  The module
enumerates orbits, computes orbit sizes, builds the minimal orbits of
binary trees directly from the binary expansion of n+1, evaluates the
orbit-average weight function, computes the orbit carry sequence by three
independent routes (definition, multinomial recursion, coin-configuration
sum), and collapses complete subtrees (reduction).  `carry_oracles` holds
the `epsilon` command's policy over the three routes: one cap on depth and
order, which routes run, and how far the weight's carries are certified.

Enumeration and the minimal-orbit construction both return an
`OrbitTable` of columns, built without an `OrbitShape` per row.  A
minimal orbit is complete trees of distinct depths hung below a binary
skeleton, and its table carries the reduction as columns from the same
construction: a skeleton subtree holding t >= 2 hung trees has
sum(2^d) - 1 vertices over t distinct d, never 2^e - 1, so the maximal
complete subtrees are exactly the hung trees, and each becomes a leaf.
`reduce_orbit` reduces any shape and checks that construction in the tests.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from collections import namedtuple
from collections.abc import Sequence
from functools import lru_cache
from operator import itemgetter

from .arith import ValueTable
from .errors import DomainError, ResourceLimitError
from .weights import (
    EpsilonSequence,
    WeightFunction,
    WeightMembershipError,
    _carry_bits,
    epsilon_of_weight,
)

__all__ = [
    "OrbitShape",
    "OrbitTable",
    "enumerate_orbits",
    "orbit_size",
    "minimal_orbits",
    "complete_shape",
    "average_weight",
    "epsilon_direct",
    "epsilon_recursive",
    "coin_oracle",
    "check_coin_caps",
    "carry_oracles",
    "reduce_orbit",
    "MINIMAL_ORBIT_CAP",
    "enum_cap",
    "COIN_VERTEX_CAP",
    "COIN_ORDER_CAP",
    "EPSILON_CAP",
    "epsilon_cap",
]

COIN_VERTEX_CAP = 6
COIN_ORDER_CAP = 4
# Deepest binary shape, and largest binary order, the carry oracles take;
# see `epsilon_cap`.
EPSILON_CAP = 32


def enum_cap(q: int) -> int:
    """Most vertices `enumerate_orbits` takes by default at branching q.

    The largest n with at most 24,631 orbits, the binary count at n = 16:
    16 at q = 2 (56,011 orbits at n = 17), 14 at q = 3 (19,241; 48,865 at
    n = 15) and 13 at q >= 4.  At q >= 4 there are at most 12,486 orbits
    at n = 13, the count of all rooted trees, and at least 27,790 at
    n = 14, the count at q = 4.
    """
    return {2: 16, 3: 14}.get(q, 13)


def epsilon_cap(q: int) -> int:
    """Deepest shape, and largest order m, `carry_oracles` takes at branching q.

    The largest d with d^2 q^3 <= 32^2 * 2^3: 32 at q <= 2, 17 at q = 3,
    11 at q = 4, 0 past q = 20.  All times are on 2-core x86-64, Python 3.11.

    Depth: at order 3 a binary shape of depth 32 takes at most 0.6 s on
    every method and depth 64 up to 5 s; at its cap every q = 3..20 takes
    at most 0.19 s, where depth 32 took 2.4 s at q = 3 and 17.5 s at q = 4.

    Order: the recursive oracle, which `all` runs, sums over the
    compositions of every order into q + 1 parts, so its cost grows with m
    about like m^(q+1).  At q = 2 it takes 0.2 s at m = 32, 0.6 s at
    m = 64 and 3.3 s at m = 128 on (()(())), and 1.3 s at m = 32 and 5.7 s
    at m = 64 on a path of depth 32.  At the cap on both depth and order the
    worst measured shape of every q = 3..20 takes no longer than the binary
    depth-32 caterpillar at m = 32 (2.1-2.4 s); uncapped, a q = 3
    caterpillar of depth 17 took 9.4 s at m = 32.
    """
    return math.isqrt(EPSILON_CAP**2 * 8 // max(q, 2) ** 3)


# A key's repr is its parentheses encoding with ", " between children and a
# trailing "," after an only child; deleting those leaves the parens string.
_PARENS_ONLY = str.maketrans("", "", ", ")


def _key_vertices(key) -> int:
    return repr(key).count("(")


def _parens_depth(text: str) -> int:
    """Deepest nesting of a parentheses string, by one linear scan."""
    depth = deepest = 0
    for ch in text:
        if ch == "(":
            depth += 1
            deepest = max(deepest, depth)
        elif ch == ")":
            depth -= 1
    return deepest


class OrbitShape(namedtuple("OrbitShape", "q key")):
    """Canonical unordered rooted tree with at most q children per node.

    The key lists each node's children sorted by their own keys, so two
    ordered trees lie in the same symmetry orbit exactly when their keys
    agree.  The empty tree has key None.
    """

    __slots__ = ()

    def __new__(cls, q: int, key: tuple | None):
        _check_branching(q)
        return super().__new__(cls, q, key)

    @classmethod
    def empty(cls, q: int = 2) -> "OrbitShape":
        return cls(q, None)

    @classmethod
    def leaf(cls, q: int = 2) -> "OrbitShape":
        return cls(q, ())

    @classmethod
    def node(cls, children, q: int | None = None) -> "OrbitShape":
        kids = [c for c in children if not c.is_empty]
        if q is None:
            if not kids:
                raise DomainError("node() needs q when all children are empty")
            q = kids[0].q
        if any(c.q != q for c in kids):
            raise DomainError("children disagree on branching")
        if len(kids) > q:
            raise DomainError(f"a node may have at most {q} children, got {len(kids)}")
        return cls(q, tuple(sorted(c.key for c in kids)))

    @property
    def is_empty(self) -> bool:
        return self.key is None

    @property
    def children(self) -> tuple["OrbitShape", ...]:
        return tuple(OrbitShape(self.q, k) for k in self.key or ())

    @property
    def vertex_count(self) -> int:
        return 0 if self.key is None else _key_vertices(self.key)

    @property
    def depth(self) -> int:
        return _parens_depth(self.to_parens())

    def to_parens(self) -> str:
        """Nested-parentheses encoding, children in canonical order.

        Rendered by C-level string work on the key's repr, with no Python
        recursion; the string has two characters per vertex.
        """
        if self.key is None:
            return ""
        return repr(self.key).translate(_PARENS_ONLY)

    @classmethod
    def from_parens(cls, text: str, q: int = 2) -> "OrbitShape":
        _check_branching(q)
        stripped = text.strip()
        if not stripped:
            return cls.empty(q)
        key, pos = _parse_parens(stripped, 0, q)
        if pos != len(stripped):
            raise DomainError(f"trailing characters in shape string {text!r}")
        return cls(q, key)

    def __str__(self) -> str:
        return self.to_parens()


def _parse_parens(text: str, pos: int, q: int):
    if pos >= len(text) or text[pos] != "(":
        raise DomainError(f"expected '(' at position {pos} in shape string {text!r}")
    pos += 1
    kids = []
    while pos < len(text) and text[pos] == "(":
        kid, pos = _parse_parens(text, pos, q)
        kids.append(kid)
    if pos >= len(text) or text[pos] != ")":
        raise DomainError(f"expected ')' at position {pos} in shape string {text!r}")
    if len(kids) > q:
        raise DomainError(
            f"shape string {text!r} has a node with {len(kids)} children; at most {q} allowed"
        )
    return tuple(sorted(kids)), pos + 1


def _check_branching(q: int) -> None:
    if q < 2:
        raise DomainError(f"branching must be at least 2, got {q}")


@lru_cache(maxsize=None)
def _layer(n: int, q: int) -> tuple:
    """Every orbit on n >= 1 vertices as (key, parens, size); inner layers only."""
    return tuple(zip(*_layer_columns(n, q)))


def _layer_columns(n: int, q: int) -> tuple[list, list, list]:
    """Every orbit on n >= 1 vertices in canonical order: keys, parens, sizes.

    A root's children are chosen in nonincreasing (size, key) order: sizes
    from large to small, each size in its own layer's order, and a child of
    the previous child's size only if its key is no larger.  So each
    multiset of children comes out once, and equal children are adjacent.
    The key sorts the children; the parens string joins theirs in key
    order; the size is perm(q, k) times the child sizes over the factorial
    of each multiplicity.  The smaller layers come from `_layer`.
    """
    if n == 1:
        return [()], ["()"], [1]
    layers = [()] + [_layer(s, q) for s in range(1, n)]
    keys, parens, sizes = [], [], []
    emit = (keys.append, parens.append, sizes.append)
    _fill_rows(emit, layers, n - 1, q, n, None, 0, 1, (), ())
    return keys, parens, sizes


def _fill_rows(emit, layers, total, slots, top, prev, run, size, keys, parens):
    """Emit every row that completes a root with `total` vertices left to place.

    emit: the appenders of the key, parens and size columns.  keys and
    parens: the j children so far, sorted by key; prev: the last one
    chosen, and run its multiplicity so far; size: q (q-1) ... (q-j+1)
    times their sizes over the factorials of their multiplicities.  The
    next child has at most `top` vertices, and a key no larger than prev's
    if it has `top`.  This and the other recursions here are module-level
    functions, not closures: a recursive closure refers to itself through
    its cell, a reference cycle that outlives the call until the cyclic
    collector runs, and `cli.main` pauses that collector.
    """
    emit_key, emit_parens, emit_size = emit
    for width in range(min(total, top), 0, -1):
        if width * slots < total:
            break  # the slots left cannot hold the vertices left
        rest = total - width
        bound = prev[0] if width == top else None
        for child in layers[width]:
            key = child[0]
            if bound is not None and key > bound:
                continue
            mult = run + 1 if child is prev else 1
            grown = size * slots // mult * child[2]
            if rest and slots == 2 and not keys:
                # a binary root's second child takes the remainder: the
                # bulk of binary rows, built here without a recursive call
                text, twin = child[1], rest == width
                for last in layers[rest]:
                    other = last[0]
                    if twin and other > key:
                        continue
                    emit_size(grown // 2 * last[2] if last is child else grown * last[2])
                    if other < key:
                        emit_key((other, key))
                        emit_parens(f"({last[1]}{text})")
                    else:
                        emit_key((key, other))
                        emit_parens(f"({text}{last[1]})")
                continue
            if keys:
                i = bisect_right(keys, key)
                kids = keys[:i] + (key,) + keys[i:]
                texts = parens[:i] + (child[1],) + parens[i:]
            else:
                kids, texts = (key,), (child[1],)
            if rest:
                _fill_rows(emit, layers, rest, slots - 1, width, child, mult, grown, kids, texts)
            else:
                emit_key(kids)
                emit_parens("(" + "".join(texts) + ")")
                emit_size(grown)


class OrbitTable(Sequence):
    """The orbits on n vertices as columns: keys, parens strings, sizes.

    An immutable sequence of `OrbitShape`: indexing and iteration build
    each shape from its key when it is asked for.  A caller that needs only
    the strings and sizes reads the `parens` and `sizes` columns and builds
    no shape at all.  A table of minimal orbits also holds each orbit's
    reduction as the `reduced` parens and `removed` count columns of
    `reduce_orbit`; elsewhere both are None.
    """

    __slots__ = ("q", "keys", "parens", "sizes", "reduced", "removed")

    def __init__(self, q: int, keys, parens, sizes, reduced=None, removed=None):
        self.q = q
        self.keys, self.parens, self.sizes = tuple(keys), tuple(parens), tuple(sizes)
        self.reduced = None if reduced is None else tuple(reduced)
        self.removed = None if removed is None else tuple(removed)

    def __len__(self) -> int:
        return len(self.keys)

    def __getitem__(self, index):
        if isinstance(index, slice):
            columns = (self.keys, self.parens, self.sizes, self.reduced, self.removed)
            return OrbitTable(
                self.q, *(None if col is None else col[index] for col in columns)
            )
        return OrbitShape(self.q, self.keys[index])

    def __iter__(self):
        return (OrbitShape(self.q, key) for key in self.keys)


def enumerate_orbits(n: int, q: int = 2, max_n: int | None = None) -> OrbitTable:
    """All orbits of trees on n vertices, in canonical order.

    The orbits come as an `OrbitTable`: its `parens` and `sizes` columns
    hold each orbit's parens string and size.  At most `max_n` vertices
    are allowed, `enum_cap(q)` by default; a negative `max_n` is a domain
    error.
    """
    _check_branching(q)
    if n < 0:
        raise DomainError("vertex count must be nonnegative")
    if max_n is None:
        max_n = enum_cap(q)
    if max_n < 0:
        raise DomainError(f"orbit enumeration cap must be nonnegative, got {max_n}")
    if n > max_n:
        raise ResourceLimitError(
            f"orbit enumeration capped at {max_n} vertices (requested {n});"
            " raise the cap explicitly to go further"
        )
    if n == 0:
        return OrbitTable(q, (None,), ("",), (1,))
    return OrbitTable(q, *_layer_columns(n, q))


def orbit_size(shape: OrbitShape) -> int:
    """Number of ordered trees in the orbit.

    Per node, its k children (as a multiset) can occupy the q ordered slots
    in q! / (prod multiplicity! * (q-k)!) distinct ways; empty slots are
    interchangeable.  The orbit size is the product over all nodes.  The
    children of a key are sorted, so equal children form adjacent runs;
    inner subtrees are sized once each through `_subtree_size`, and the
    top-level key is not stored.
    """
    if shape.is_empty:
        return 1
    return _node_size(shape.key, shape.q)


def _node_size(key, q: int) -> int:
    # dividing by each run's length as it grows divides by multiplicity!;
    # every partial quotient is a multinomial count, so each // is exact
    ways = math.perm(q, len(key))
    prev, size, run = None, 1, 0
    for child in key:
        if child == prev:
            run += 1
            ways //= run
        else:
            prev, size, run = child, _subtree_size(child, q), 1
        ways *= size
    return ways


@lru_cache(maxsize=None)
def _subtree_size(key, q: int) -> int:
    """Orbit size of an inner subtree, memoised across rows."""
    return _node_size(key, q)


def complete_shape(depth: int, q: int = 2) -> OrbitShape:
    """Fully symmetric tree of the given depth: (q**depth - 1)/(q - 1) vertices."""
    if depth < 0:
        raise DomainError("depth must be nonnegative")
    key = None
    for _ in range(depth):
        key = (key,) * q if key is not None else ()
    return OrbitShape(q, key)


def _is_complete_key(key, q: int) -> bool:
    if key == ():
        return True
    if len(key) != q:
        return False
    first = key[0]
    return all(k == first for k in key[1:]) and _is_complete_key(first, q)


# Most minimal orbits `minimal_orbits` builds: (2s - 1)!! at s = 7, the
# 135,135 orbits of n = 254, which `orbits --n 254 --minimal --reduce`
# writes in 2.7 s with a 214 MB peak (2-core x86-64, Python 3.11).  s = 8
# has 2,027,025 orbits of twice the length: 15 times the rows, each twice
# as long, so about a minute and gigabytes.
MINIMAL_ORBIT_CAP = 135_135


def _minimal_rows(depths: tuple) -> list[tuple]:
    """Complete trees of the given depths hung below a binary skeleton.

    One row (key, parens, reduced parens, orbit size) per tree.  One depth
    d gives the complete tree of depth d (depth 0 is the empty tree, key
    None), of orbit size 1, which reduces to a leaf if d >= 1.  Two or more
    sit below a skeleton vertex whose two subtrees take every split of the
    depths into two nonempty parts; the vertex's parens join its children's
    in key order, and its reduced parens join their reduced ones in
    reduced-key order.  Its two children are distinct, so they fill the two
    slots in 2 ways, as does an only child: the orbit size is 2 s_l s_r, or
    2 s for an only child of size s.  The depths are distinct, so no
    skeleton vertex roots a complete subtree (see `minimal_orbits`) and the
    reduction collapses exactly the hung trees.  No key comes out twice: a
    key's hung trees are its maximal complete subtrees, so it determines
    its split.

    Keys are ordered by their parens strings, in reverse: where two
    strings first differ, the key whose string has ")" there has run out
    of children first, so it is the smaller.  A string comparison is one
    C-level scan, where comparing the nested keys recurses.
    """
    if len(depths) == 1:
        key, parens = None, ""
        for _ in range(depths[0]):
            key, parens = ((key, key) if key is not None else ()), f"({parens}{parens})"
        return [(key, parens, "()" if depths[0] else "", 1)]
    head, rest = depths[0], depths[1:]
    rows = []
    emit = rows.append
    for mask in range((1 << len(rest)) - 1):
        left = (head,) + tuple(d for i, d in enumerate(rest) if mask >> i & 1)
        right = _minimal_subtrees(tuple(d for i, d in enumerate(rest) if not mask >> i & 1))
        if left == (0,):
            # the empty tree fills one slot: the right subtree is an only child
            for key, parens, reduced, size in right:
                emit(((key,), f"({parens})", f"({reduced})", 2 * size))
            continue
        for lkey, lparens, lreduced, lsize in _minimal_subtrees(left):
            for key, parens, reduced, size in right:
                if lparens > parens:
                    kids, text = (lkey, key), f"({lparens}{parens})"
                else:
                    kids, text = (key, lkey), f"({parens}{lparens})"
                if lreduced >= reduced:
                    rtext = f"({lreduced}{reduced})"
                else:
                    rtext = f"({reduced}{lreduced})"
                emit((kids, text, rtext, 2 * lsize * size))
    return rows


@lru_cache(maxsize=None)
def _minimal_subtrees(depths: tuple) -> tuple:
    """`_minimal_rows` of an inner depth tuple, memoised; never a top-level one."""
    return tuple(_minimal_rows(depths))


def minimal_orbits(n: int, q: int = 2) -> OrbitTable:
    """All orbits of minimum size 2**s on n vertices, s = s_2(n+1) - 1.

    Write n+1 = 2^{k_1} + ... + 2^{k_{s+1}}.  Every minimal orbit is a
    binary skeleton on s vertices with fully symmetric trees of depths
    k_1, ..., k_{s+1} at its s+1 empty slots (depth 0 is the empty tree).
    The keys are built by splitting the depths between the two subtrees of
    each skeleton vertex, so every orbit is produced directly as a key.

    The orbits come as an `OrbitTable` in key order, with the `reduced`
    and `removed` columns of `reduce_orbit` read off the same construction:
    each hung tree of depth >= 1 becomes a leaf, and every orbit removes
    the sum of 2^d - 2 over the depths d >= 1.  That is right because a
    subtree holding t >= 2 hung trees has sum(2^d) - 1 vertices over t
    distinct d, never 2^e - 1: no skeleton vertex roots a complete subtree,
    so the maximal complete subtrees are exactly the hung trees.  More
    than `MINIMAL_ORBIT_CAP` orbits are refused before any is built.
    """
    if q != 2:
        raise DomainError("minimal-orbit construction is implemented for binary trees only")
    if n < 1:
        raise DomainError("vertex count must be at least 1")
    depths = tuple(i for i in range((n + 1).bit_length()) if (n + 1) >> i & 1)
    s = len(depths) - 1
    count = math.prod(range(1, 2 * s, 2))
    if count > MINIMAL_ORBIT_CAP:
        raise ResourceLimitError(
            f"minimal orbits capped at {MINIMAL_ORBIT_CAP} orbits"
            f" (n = {n} has {count}, s = {s})"
        )
    rows = _minimal_rows(depths)
    rows.sort(key=itemgetter(1), reverse=True)  # key order; see `_minimal_rows`
    keys, parens, reduced, sizes = zip(*rows)
    assert all(size == 1 << s for size in sizes)
    removed = sum((1 << d) - 2 for d in depths if d)
    return OrbitTable(q, keys, parens, sizes, reduced, (removed,) * len(keys))


def average_weight(
    shape: OrbitShape, b: WeightFunction, start: int = 0, length: int = 1
) -> ValueTable:
    """Orbit-average weight values on [start, start + length).

    This is the total weight of the orbit's ordered trees divided by the
    orbit size, computed by the symmetrized product recursion
    r(x) = b(x) * (1/q) * sum_i f_i(x+1) * prod_{j != i} f_j(x) over the
    child averages f_i (empty slots contribute the constant 1).  All
    divisions by q are exact when b lies in F(base q).
    """
    if length < 1:
        raise DomainError("window length must be at least 1")
    if shape.is_empty:
        return ValueTable(start, (1,) * length)
    vals = _avg_values(shape.key, shape.q, b, start, length)
    return ValueTable(start, tuple(vals))


def _avg_values(key, q: int, b: WeightFunction, start: int, length: int) -> list[int]:
    child_vals = [_avg_values(k, q, b, start, length + 1) for k in key]
    ones = [1] * (length + 1)
    fs = child_vals + [ones] * (q - len(key))
    out = []
    for i in range(length):
        x = start + i
        total = 0
        for t in range(q):
            term = fs[t][i + 1]
            for u in range(q):
                if u != t:
                    term *= fs[u][i]
            total += term
        quot, rem = divmod(total, q)
        if rem:
            raise WeightMembershipError(
                f"weight not in F(base {q}): symmetrized combination at x={x}"
                f" is not divisible by {q}"
            )
        out.append(b(x) * quot)
    return out


def epsilon_direct(shape: OrbitShape, b: WeightFunction, max_m: int) -> EpsilonSequence:
    """Orbit carry bits straight from the definition.

    Computes the average weight on x = 0..max_m + 1 and reads
    (diff^m r / q^m) mod q off it by the difference scan that certifies a
    table weight in `epsilon_of_weight`.
    """
    if max_m < 0:
        raise DomainError("max order must be nonnegative")
    table = average_weight(shape, b, 0, max_m + 2)
    return _carry_bits(table, shape.q, max_m)


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def _multinomial(total: int, parts) -> int:
    out = 1
    rest = total
    for p in parts:
        out *= math.comb(rest, p)
        rest -= p
    return out


def epsilon_recursive(shape: OrbitShape, eps, max_m: int) -> EpsilonSequence:
    """Orbit carry bits via the root-split multinomial recursion.

    With child orbits O_1..O_q (empty slots have carry (1, 0, 0, ...)),

        e^O_m = sum over i_1+..+i_q+k = m of  C(m; i_1,..,i_q,k) * e_k *
                ( prod_t e^{O_t}_{i_t} + sum_t [one index i_t incremented] )

    all modulo q.  Needs weight carries up to max_m + depth(shape) + 1.
    """
    if max_m < 0:
        raise DomainError("max order must be nonnegative")
    q = shape.q
    bits_b = tuple(eps)
    need = max_m + shape.depth + 1
    if len(bits_b) < need:
        raise DomainError(
            f"need weight carry entries up to order {need - 1}, got {len(bits_b)}"
        )
    return EpsilonSequence(q, _split_carries(shape.key, max_m, q, bits_b, {}))


def _split_carries(key, top: int, q: int, bits_b: tuple, memo: dict) -> tuple[int, ...]:
    """Carries e_0..e_top of the subtree `key` (None: an empty slot), memoized."""
    if key is None:
        return tuple([1] + [0] * top)
    ck = (key, top)
    if ck in memo:
        return memo[ck]
    kids = [_split_carries(k, top + 1, q, bits_b, memo) for k in key]
    kids += [_split_carries(None, top + 1, q, bits_b, memo)] * (q - len(key))
    out = []
    for m in range(top + 1):
        acc = 0
        for combo in _compositions(m, q + 1):
            *idx, k = combo
            coef = _multinomial(m, combo) % q
            if coef == 0:
                continue
            term = 1
            for t in range(q):
                term *= kids[t][idx[t]]
            for t in range(q):
                inc = 1
                for u in range(q):
                    inc *= kids[u][idx[u] + 1] if u == t else kids[u][idx[u]]
                term += inc
            acc += coef * bits_b[k] * term
        out.append(acc % q)
    result = tuple(out)
    memo[ck] = result
    return result


def _ordered_representative(key):
    """Children lists and subtree vertex lists of the canonical ordered tree."""
    children: list[list[int]] = []
    subtree: list[list[int]] = []
    _add_vertex(key, children, subtree)
    return children, subtree


def _add_vertex(key, children: list, subtree: list) -> int:
    """Number the subtree `key` in preorder; return its root's number."""
    v = len(children)
    children.append([])
    subtree.append([v])
    for ck in key:
        c = _add_vertex(ck, children, subtree)
        children[v].append(c)
        subtree[v].extend(subtree[c])
    return v


def _coin_in_caps(shape: OrbitShape, m: int) -> bool:
    """Whether the coin oracle takes `shape` at order m: binary, and empty or within both caps.

    The empty shape's carries are a constant, so no cap applies to it.  The
    caps are read when it is called, so a raised module cap applies.
    """
    in_caps = shape.vertex_count <= COIN_VERTEX_CAP and m <= COIN_ORDER_CAP
    return shape.q == 2 and (shape.is_empty or in_caps)


def check_coin_caps(shape: OrbitShape, m: int) -> None:
    """Raise what `coin_oracle(shape, eps, m)` raises before it reads `eps`.

    A non-binary shape or a negative order is a domain error; a shape that
    `_coin_in_caps` refuses is a resource limit.
    """
    if shape.q != 2:
        raise DomainError("the coin-configuration oracle is defined for binary orbits only")
    if m < 0:
        raise DomainError("order must be nonnegative")
    if not _coin_in_caps(shape, m):
        raise ResourceLimitError(
            f"coin oracle capped at {COIN_VERTEX_CAP} vertices and order {COIN_ORDER_CAP}"
            f" (requested {shape.vertex_count} vertices, order {m})"
        )


def coin_oracle(shape: OrbitShape, eps, m: int) -> int:
    """Orbit carry bit e^O_m as a coin-configuration sum, mod 2 (binary only).

    Sums prod_v eps_{|coins at v|} over all ways to (a) select edges with no
    two siblings and (b) place the labeled coins 1..m anywhere plus one coin
    per selected edge at a descendant of that edge.  Edge selections are
    independent per-node choices; the labeled coins are then distributed by
    multinomial count, so only per-vertex totals are enumerated.
    """
    check_coin_caps(shape, m)
    if shape.is_empty:
        return 1 if m == 0 else 0
    n_v = shape.vertex_count
    bits_b = tuple(eps)
    if len(bits_b) < m + n_v:
        raise DomainError(
            f"need weight carry entries up to order {m + n_v - 1}, got {len(bits_b)}"
        )
    children, subtree = _ordered_representative(shape.key)
    odd_combos = [combo for combo in _compositions(m, n_v) if _multinomial(m, combo) % 2]
    total = 0
    for picks in itertools.product(*[[None] + children[v] for v in range(n_v)]):
        chosen = [c for c in picks if c is not None]
        for assignment in itertools.product(*[subtree[c] for c in chosen]):
            counts = [0] * n_v
            for vtx in assignment:
                counts[vtx] += 1
            for combo in odd_combos:
                w = 1
                for v in range(n_v):
                    w *= bits_b[counts[v] + combo[v]]
                    if w == 0:
                        break
                total += w
    return total % 2


def carry_oracles(shape_text: str, q: int, weight: WeightFunction, m: int, method: str) -> dict:
    """Orbit carry bits e^O_0..e^O_m of a parens string, by one oracle or all three.

    `method` is "direct", "recursive", "coin" or "all"; the result maps
    each oracle it names to its bits.  Under "all" the coin oracle runs
    only where `_coin_in_caps` admits it, else "coin" is None, and "agree"
    says whether the oracles that ran agree.  No oracle runs before every
    check has passed, in this order: the raw string deeper than
    `epsilon_cap(q)`, then m above it (resource limits); a malformed
    shape, then m < 0 (domain errors); under "coin", `check_coin_caps`;
    then the weight is certified in F(base q) to order m + depth, what the
    recursive oracle reads, or m + vertex_count - 1 where that is more and
    the coin oracle runs.
    """
    if method not in ("direct", "recursive", "coin", "all"):
        raise DomainError(f"unknown carry method {method!r}")
    depth, cap = _parens_depth(shape_text), epsilon_cap(q)
    if depth > cap:
        raise ResourceLimitError(f"carry oracles capped at shape depth {cap} (requested {depth})")
    if m > cap:
        raise ResourceLimitError(f"carry oracles capped at order {cap} (requested {m})")
    shape = OrbitShape.from_parens(shape_text, q)
    if m < 0:
        raise DomainError("max order must be nonnegative")
    if method == "coin":
        check_coin_caps(shape, m)
    run_coin = method == "coin" or (method == "all" and _coin_in_caps(shape, m))
    reach = max(depth, shape.vertex_count - 1) if run_coin else depth
    eps_b = epsilon_of_weight(weight, m + reach, base=q)
    result: dict[str, object] = {}
    if method in ("direct", "all"):
        result["direct"] = list(epsilon_direct(shape, weight, m).bits)
    if method in ("recursive", "all"):
        result["recursive"] = list(epsilon_recursive(shape, eps_b, m).bits)
    if method in ("coin", "all"):
        result["coin"] = [coin_oracle(shape, eps_b, j) for j in range(m + 1)] if run_coin else None
    if method == "all":
        ran = [bits for bits in result.values() if bits is not None]
        result["agree"] = all(bits == ran[0] for bits in ran)
    return result


def reduce_orbit(shape: OrbitShape) -> tuple[OrbitShape, int]:
    """Collapse every maximal complete subtree of depth >= 1 to a single vertex.

    Returns the reduced shape and the number of vertices removed.  The
    orbit carry sequence transforms as e_m -> e_0**removed * e_m(reduced),
    since each collapsed depth-k subtree contributes (q^k-1)/(q-1) - 1.
    """
    if shape.is_empty:
        return shape, 0
    new_key, removed = _reduce_key(shape.key, shape.q)
    return OrbitShape(shape.q, new_key), removed


def _reduce_key(key, q: int) -> tuple[tuple, int]:
    if _is_complete_key(key, q):
        return (), _key_vertices(key) - 1
    kids = []
    removed = 0
    for ck in key:
        rk, r = _reduce_key(ck, q)
        kids.append(rk)
        removed += r
    return tuple(sorted(kids)), removed
