import itertools
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcclass.combi import (Composition, IndexTuple, Permutation, bruhat_leq,
                           closure_leq, enumerate_index_tuples, inversions, length,
                           tree_walk)
from mcclass.ring import yp_mul


def test_enumerate_1_1():
    out = enumerate_index_tuples(Composition((1, 1)))
    assert [I.blocks for I in out] == [((1,), (2,)), ((2,), (1,))]


def test_enumerate_2_1_count():
    assert len(enumerate_index_tuples(Composition((2, 1)))) == 3


def test_enumerate_full_flag_3():
    out = enumerate_index_tuples(Composition((1, 1, 1)))
    assert len(out) == 6
    assert len({I.blocks for I in out}) == 6


def test_length_examples():
    assert length(IndexTuple((1, 1), [(1,), (2,)])) == 0
    assert length(IndexTuple((1, 1), [(2,), (1,)])) == 1
    assert length(IndexTuple((1, 1, 1, 1), [(3,), (4,), (1,), (2,)])) == 4


def test_bruhat_reflexive_and_identity_minimum():
    u = Permutation((2, 1))
    assert bruhat_leq(u, u)
    assert bruhat_leq(Permutation((1, 2)), Permutation((2, 1)))


def test_bruhat_incomparable():
    assert not bruhat_leq(Permutation((2, 1, 3)), Permutation((1, 3, 2)))


def test_inversions_examples():
    assert inversions(Permutation((1, 2))) == set()
    assert inversions(Permutation((2, 1))) == {(1, 2)}
    assert inversions(Permutation((3, 1, 2))) == {(1, 2), (1, 3)}


def _q_binomial(m, k):
    """[m choose k]_x by the Pascal recursion
    [m,k] = [m-1,k-1] + x^k [m-1,k], as a coefficient tuple."""
    table = {(0, 0): (1,)}
    for mm in range(1, m + 1):
        for kk in range(0, mm + 1):
            if kk in (0, mm):
                table[(mm, kk)] = (1,)
                continue
            a = table[(mm - 1, kk - 1)]
            shifted = (0,) * kk + table[(mm - 1, kk)]
            size = max(len(a), len(shifted))
            table[(mm, kk)] = tuple(
                (a[i] if i < len(a) else 0) + (shifted[i] if i < len(shifted) else 0)
                for i in range(size))
    return table[(m, k)]


def _gaussian_multinomial(mu: Composition):
    out = (1,)
    total = 0
    for p in mu.parts:
        total += p
        out = yp_mul(out, _q_binomial(total, p))
    return out


@pytest.mark.parametrize("parts", [(1, 1), (2, 1), (1, 2), (1, 1, 1),
                                   (2, 2), (1, 1, 2), (3, 2), (1, 1, 1, 1),
                                   (2, 1, 2), (1, 3, 1)])
def test_length_generating_function_is_gaussian_multinomial(parts):
    mu = Composition(parts)
    counts = {}
    for I in enumerate_index_tuples(mu):
        counts[length(I)] = counts.get(length(I), 0) + 1
    poly = tuple(counts.get(k, 0) for k in range(max(counts) + 1))
    assert poly == _gaussian_multinomial(mu)


def test_full_flag_length_is_inversion_number():
    for words in itertools.permutations(range(1, 5)):
        w = Permutation(words)
        assert length(w.to_index_tuple()) == len(inversions(w))


def test_bruhat_is_partial_order_on_s4():
    perms = [Permutation(p) for p in itertools.permutations(range(1, 5))]
    for u in perms:
        for v in perms:
            if bruhat_leq(u, v) and bruhat_leq(v, u):
                assert u == v
    for u in perms:
        for v in perms:
            if not bruhat_leq(u, v):
                continue
            for w in perms:
                if bruhat_leq(v, w):
                    assert bruhat_leq(u, w)


def test_permutation_index_tuple_round_trip():
    w = Permutation((3, 1, 2))
    assert w.to_index_tuple().to_permutation() == w


def test_closure_order_matches_bruhat_on_full_flag():
    perms = [Permutation(p) for p in itertools.permutations(range(1, 4))]
    for u in perms:
        for v in perms:
            assert closure_leq(u.to_index_tuple(), v.to_index_tuple()) == bruhat_leq(u, v)


def test_index_tuple_json_round_trip():
    I = IndexTuple((2, 1), [(1, 3), (2,)])
    assert IndexTuple.from_json(I.to_json()) == I


def test_invalid_blocks_rejected():
    with pytest.raises(ValueError):
        IndexTuple((1, 1), [(1,), (1,)])
    with pytest.raises(ValueError):
        IndexTuple((2, 1), [(1,), (2, 3)])
    with pytest.raises(ValueError):
        Composition((1, 0))


@given(st.permutations(list(range(1, 6))))
@settings(max_examples=50, deadline=None)
def test_inverse_is_involutive(word):
    w = Permutation(tuple(word))
    assert w.inverse().inverse() == w
    assert w.length() == w.inverse().length()


# ---------------------------------------------------------------------------
# the depth-first tree walk
# ---------------------------------------------------------------------------

# child -> parent of a small tree rooted at "r": a branch point, a chain of
# three under "a1", and leaves on either side
TREE = {"a": "r", "b": "r", "a1": "a", "a2": "a", "a1x": "a1", "a1xy": "a1x",
        "b1": "b", "b2": "b"}


def _ancestors(node):
    while node != "r":
        node = TREE[node]
        yield node


class _Value:
    """A walk value that weak references can follow."""

    def __init__(self, node):
        self.node = node


def _walk(cells=None, tree=TREE, root="r"):
    """Run tree_walk with values that record their node; return the yielded
    nodes, the labels passed to step, and after each step the number of
    values alive, paired with the depth of the node the step built."""
    live = weakref.WeakSet()
    steps, peaks = [], []

    def step(value, label):
        steps.append(label)
        out = _Value(label)
        live.add(out)
        peaks.append((len(live), _depth_in(tree, root, label)))
        return out

    seed = _Value(root)
    live.add(seed)
    edges = [(child, parent, child) for child, parent in tree.items()]
    walk = tree_walk(root, seed, edges, step, cells)
    del seed
    order = []
    for node, value in walk:
        assert value.node == node
        order.append(node)
        del value
    return order, steps, peaks


def _depth_in(tree, root, node):
    return 0 if node == root else 1 + _depth_in(tree, root, tree[node])


def test_tree_walk_yields_every_node_once_after_its_parent():
    order, steps, _ = _walk()
    assert sorted(order) == sorted(set(TREE) | {"r"})
    for node in TREE:
        assert order.index(TREE[node]) < order.index(node), node
    assert sorted(steps) == sorted(TREE)  # one step per edge


def test_tree_walk_enters_only_subtrees_with_a_wanted_cell():
    for cells in (["a1xy"], ["a2", "b1"], ["r"], ["a", "a1x"], []):
        order, steps, _ = _walk(cells)
        assert sorted(order) == sorted(cells), cells
        entered = {u for c in cells for u in itertools.chain([c], _ancestors(c))} - {"r"}
        assert sorted(steps) == sorted(entered), cells
        for c in cells:
            for a in _ancestors(c):
                if a in cells:
                    assert order.index(a) < order.index(c), (a, c)


def test_tree_walk_holds_only_the_current_path():
    _, _, peaks = _walk()
    # the path from the root to the node being built has depth + 1 nodes
    assert all(alive <= depth + 1 for alive, depth in peaks), peaks
    chain = {k: k - 1 for k in range(1, 12)}
    _, steps, peaks = _walk(tree=chain, root=0)
    assert steps == list(range(1, 12))
    assert max(alive for alive, _ in peaks) == 2
