"""Combinatorial codes for cells: compositions, index tuples, permutations.

An index tuple is the code of a cell: an ordered list of disjoint
blocks partitioning {1..n} with block sizes prescribed by a
composition.  The full-flag case (all parts equal to 1) is identified
with permutations by reading off the unique element of each block.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator, Sequence
from functools import cached_property

from .record import record


@record
class Composition:
    """A composition mu = (mu_1, ..., mu_N) of n into positive parts."""

    parts: tuple

    def __init__(self, parts: Sequence[int]):
        parts = tuple(int(p) for p in parts)
        if not parts or any(p <= 0 for p in parts):
            raise ValueError(f"composition parts must be positive: {parts}")
        object.__setattr__(self, "parts", parts)

    @property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def num_blocks(self) -> int:
        return len(self.parts)

    @cached_property
    def partial_sums(self) -> tuple:
        """mu^{(i)} = mu_1 + ... + mu_i, strictly increasing to n."""
        out = []
        s = 0
        for p in self.parts:
            s += p
            out.append(s)
        return tuple(out)

    def is_full_flag(self) -> bool:
        return all(p == 1 for p in self.parts)


@record
class IndexTuple:
    """Disjoint blocks (I_1, ..., I_N) covering {1..n} with |I_j| = mu_j."""

    mu: Composition
    blocks: tuple

    def __init__(self, mu: Composition | Sequence[int], blocks: Iterable[Iterable[int]]):
        if not isinstance(mu, Composition):
            mu = Composition(mu)
        blocks = tuple(tuple(sorted(int(i) for i in b)) for b in blocks)
        if len(blocks) != mu.num_blocks:
            raise ValueError("block count does not match composition")
        seen: set = set()
        for b, size in zip(blocks, mu.parts):
            if len(b) != size:
                raise ValueError(f"block {b} has wrong size (expected {size})")
            seen.update(b)
        if seen != set(range(1, mu.n + 1)):
            raise ValueError(f"blocks {blocks} do not partition 1..{mu.n}")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "blocks", blocks)

    @cached_property
    def unions(self) -> tuple:
        """Sorted unions I^{(j)} = I_1 u ... u I_j for j = 1..N."""
        out = []
        acc: list = []
        for b in self.blocks:
            acc = sorted(acc + list(b))
            out.append(tuple(acc))
        return tuple(out)

    @cached_property
    def rank_table(self) -> tuple:
        """Counts #{i in I^{(p)} : i > n - q} for all p, q; drives the closure order."""
        n = self.mu.n
        return tuple(tuple(sum(1 for i in union if i > n - q) for q in range(1, n + 1))
                     for union in self.unions)

    def swap_values(self, i: int) -> "IndexTuple":
        """Left multiplication by s_i: the values i and i+1 trade blocks."""
        swap = {i: i + 1, i + 1: i}
        return IndexTuple(self.mu, [[swap.get(x, x) for x in b] for b in self.blocks])

    def to_permutation(self) -> "Permutation":
        if not self.mu.is_full_flag():
            raise ValueError("only full-flag tuples correspond to permutations")
        return Permutation(tuple(b[0] for b in self.blocks))

    def to_json(self) -> dict:
        return {"mu": list(self.mu.parts), "blocks": [list(b) for b in self.blocks]}

    @classmethod
    def from_json(cls, obj) -> "IndexTuple":
        return cls(Composition(obj["mu"]), obj["blocks"])

    def __str__(self):
        return ",".join("{" + ",".join(map(str, b)) + "}" for b in self.blocks)


@record
class Permutation:
    """A permutation in one-line notation w = (w(1), ..., w(n))."""

    word: tuple

    def __init__(self, word: Sequence[int]):
        word = tuple(int(x) for x in word)
        if sorted(word) != list(range(1, len(word) + 1)):
            raise ValueError(f"not a permutation of 1..{len(word)}: {word}")
        object.__setattr__(self, "word", word)

    @property
    def n(self) -> int:
        return len(self.word)

    def __call__(self, i: int) -> int:
        return self.word[i - 1]

    def __str__(self):
        return ",".join(map(str, self.word))

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def longest(cls, n: int) -> "Permutation":
        return cls(tuple(range(n, 0, -1)))

    def inverse(self) -> "Permutation":
        out = [0] * self.n
        for i, w in enumerate(self.word, start=1):
            out[w - 1] = i
        return Permutation(tuple(out))

    def swap_positions(self, i: int) -> "Permutation":
        """Right multiplication by the simple transposition s_i."""
        w = list(self.word)
        w[i - 1], w[i] = w[i], w[i - 1]
        return Permutation(tuple(w))

    def swap_values(self, i: int) -> "Permutation":
        """Left multiplication by the simple transposition s_i: the
        values i and i+1 trade places."""
        return Permutation(tuple(i + 1 if x == i else i if x == i + 1 else x
                                 for x in self.word))

    @cached_property
    def blocks(self) -> tuple:
        return tuple((w,) for w in self.word)

    def to_index_tuple(self) -> IndexTuple:
        return IndexTuple(Composition((1,) * self.n), self.blocks)

    def length(self) -> int:
        return len(inversions(self))


def inversions(w: Permutation) -> set:
    """Position pairs (i, j) with i < j and w(i) > w(j)."""
    word = w.word
    n = len(word)
    return {(i + 1, j + 1)
            for i in range(n) for j in range(i + 1, n)
            if word[i] > word[j]}


def permutations_by_length(n: int) -> list:
    """All permutations of 1..n ordered by length, then by word."""
    return sorted((Permutation(p) for p in itertools.permutations(range(1, n + 1))),
                  key=lambda w: (w.length(), w.word))


def weak_order_walk(n: int) -> Iterator[tuple]:
    """Walk the weak order of 1..n downward from the longest permutation.

    Yields (w, w*s_i, i) for every w but the longest, longest first and
    by word within a length, where i is the smallest position with
    w(i) < w(i+1).  Then w*s_i is one longer than w and was yielded
    earlier (or is the longest), so a row recursion along descent
    edges can build the row of w from the row of w*s_i.
    """
    # a stable sort: within one length the words stay in order
    for w in sorted(permutations_by_length(n)[:-1], key=lambda w: -w.length()):
        i = next(i for i in range(1, n) if w(i) < w(i + 1))
        yield w, w.swap_positions(i), i


def tree_walk(root, seed, edges, step, cells=None) -> Iterator[tuple]:
    """Depth-first walk of a tree of values, yielding (node, value) for
    every node in cells (default: every node), each after its parent.

    edges are (child, parent, label) for every node but the root, whose
    value is seed; a child's value is step(parent's value, label).  Only
    subtrees that hold a wanted node are entered, children in the order
    of edges.  Only the values on the current path are held: a node's
    value is dropped before its last entered child is descended into,
    so along a chain two values are alive at a time.
    """
    parent_of = {child: (parent, label) for child, parent, label in edges}
    if cells is None:
        keep = set(parent_of)
    else:
        keep = set()
        for w in cells:
            while w in parent_of and w not in keep:
                keep.add(w)
                w = parent_of[w][0]
    children: dict = {}
    for child, (parent, label) in parent_of.items():
        if child in keep:
            children.setdefault(parent, []).append((child, label))
    wanted = None if cells is None else set(cells)

    def visit(node, value):
        if wanted is None or node in wanted:
            yield node, value
        kids = children.get(node, ())
        for k, (child, label) in enumerate(kids, 1):
            sub = visit(child, step(value, label))
            if k == len(kids):
                del value
            yield from sub

    return visit(root, seed)


def left_ascent(x, i: int) -> bool:
    """Value i lies in an earlier block of x (an index tuple or a
    permutation of 1..n, i < n) than i+1, i.e. s_i x is one longer."""
    return next(i + 1 not in b for b in x.blocks if i in b or i + 1 in b)


def left_parent(x) -> int:
    """The smallest left ascent i of x, which is not the top cell."""
    return next(i for i in range(1, sum(map(len, x.blocks))) if left_ascent(x, i))


def left_parent_edges(cells, top) -> Iterator[tuple]:
    """The tree_walk edges (x, s_i x, i), i = left_parent(x), for every x
    in cells but top, in the order of cells."""
    return ((x, x.swap_values(i), i) for x in cells if x != top for i in [left_parent(x)])


def enumerate_index_tuples(mu: Composition) -> list:
    """All index tuples for mu, ordered lexicographically by sorted blocks."""
    if not isinstance(mu, Composition):
        mu = Composition(mu)

    def rec(remaining: tuple, parts: tuple):
        if not parts:
            yield ()
            return
        for first in itertools.combinations(remaining, parts[0]):
            rest = tuple(x for x in remaining if x not in first)
            for tail in rec(rest, parts[1:]):
                yield (first,) + tail

    tuples = [IndexTuple(mu, blocks) for blocks in rec(tuple(range(1, mu.n + 1)), mu.parts)]
    tuples.sort(key=lambda I: I.blocks)
    return tuples


def tangent_weights(J: IndexTuple) -> tuple:
    """The tangent weights of G/P at the fixed point of J, split into
    (cell, normal).  Each is a tuple of pairs (a, b), a in an earlier
    block of J than b, standing for the weight tau_b/tau_a, in the order
    of the blocks j < k, then a, then b.  A pair is normal to J's cell
    exactly when a > b, so the normal count is the cell's codimension."""
    cell, normal = [], []
    for j, k in itertools.combinations(range(len(J.blocks)), 2):
        for a, b in itertools.product(J.blocks[j], J.blocks[k]):
            (normal if a > b else cell).append((a, b))
    return tuple(cell), tuple(normal)


def length(I: IndexTuple) -> int:
    """l(I) = #{(a, b): a > b, a in I_j, b in I_k, j < k}; the codimension,
    the number of normal tangent weights."""
    return len(tangent_weights(I)[1])


def closure_leq(I: IndexTuple, J: IndexTuple) -> bool:
    """True when the cell of J lies in the closure of the cell of I.

    Closures only gain intersection dimension with the reference flag,
    so containment is the entrywise comparison of rank tables.
    """
    if I.mu != J.mu:
        raise ValueError("index tuples over different compositions")
    return all(a <= b for rowi, rowj in zip(I.rank_table, J.rank_table)
               for a, b in zip(rowi, rowj))


def bruhat_leq(u: Permutation, v: Permutation) -> bool:
    """Bruhat order via the rank-matrix (dot) criterion."""
    if u.n != v.n:
        raise ValueError("permutations of different sizes")
    return closure_leq(u.to_index_tuple(), v.to_index_tuple())
