"""Tree values, level-order encoding and leaf payload maps."""

import itertools
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from opttree import (
    LEAF,
    AncestryMatrix,
    AxisParallel,
    DLeaf,
    DNode,
    Rule,
    all_tree_shapes,
    level_order,
    make_dataset,
    map_leaves,
    tree_from_permutation,
)
from helpers import leaf_payloads


def matrix_of(rows):
    return AncestryMatrix(tuple(tuple(r) for r in rows))


# r1 at the root, r2 left, r3 right (0-indexed ids 0, 1, 2)
SPLIT_MATRIX = matrix_of([[0, 1, -1], [0, 0, 0], [0, 0, 0]])
BALANCED = DNode(DNode(LEAF, 1, LEAF), 0, DNode(LEAF, 2, LEAF))


def test_level_order_balanced():
    assert level_order(BALANCED) == (0, 1, 2)


def test_level_order_empty():
    assert level_order(LEAF) == ()


def test_level_order_left_chain():
    chain = DNode(DNode(DNode(LEAF, 2, LEAF), 1, LEAF), 0, LEAF)
    assert level_order(chain) == (0, 1, 2)


def test_tree_from_permutation_empty():
    assert tree_from_permutation((), matrix_of([])) == LEAF


def test_tree_from_permutation_balanced():
    assert tree_from_permutation((0, 1, 2), SPLIT_MATRIX) == BALANCED


def test_tree_from_permutation_rejects_non_canonical():
    # (0, 2, 1) builds the same tree as (0, 1, 2), so only the canonical
    # ordering may survive.
    assert tree_from_permutation((0, 2, 1), SPLIT_MATRIX) is None


def test_tree_from_permutation_zero_entry_fails():
    # second rule unrelated to the root: insertion hits a 0
    m = matrix_of([[0, 0, 1], [0, 0, 0], [0, 0, 0]])
    assert tree_from_permutation((0, 1), m) is None


def test_valid_permutations_match_generated_trees():
    # brute-force all 3-permutations over a hand-built matrix and compare
    # against the generator's canonical traversals
    m = matrix_of([[0, 1, -1], [0, 0, -1], [0, 0, 0]])
    valid = {
        p
        for p in itertools.permutations(range(3))
        if tree_from_permutation(p, m) is not None
    }
    generated = {level_order(t) for t in all_tree_shapes(range(3), m)}
    assert valid == generated
    assert valid  # the matrix admits at least one tree


def small_matrices(max_k=4):
    def build(k, draw):
        rows = []
        it = iter(draw)
        for i in range(k):
            rows.append(tuple(0 if i == j else next(it) for j in range(k)))
        return AncestryMatrix(tuple(rows))

    return st.integers(min_value=1, max_value=max_k).flatmap(
        lambda k: st.tuples(
            st.just(k),
            st.lists(
                st.sampled_from([-1, 0, 1]), min_size=k * (k - 1), max_size=k * (k - 1)
            ),
        )
    ).map(lambda kv: build(kv[0], kv[1]))


@given(small_matrices())
@settings(max_examples=120, deadline=None)
def test_round_trip_and_injectivity(matrix):
    shapes = all_tree_shapes(range(matrix.size), matrix)
    # injectivity into the orderings bounds the tree count by k!
    assert len(shapes) <= math.factorial(matrix.size)
    orders = [level_order(t) for t in shapes]
    # distinct trees yield distinct traversals
    assert len(set(orders)) == len(orders)
    for tree, order in zip(shapes, orders):
        assert tree_from_permutation(order, matrix) == tree


def test_map_leaves_identity_and_constant():
    tree = DNode(DLeaf((1, 2)), 0, DLeaf((3,)))
    assert map_leaves(lambda d: d, tree) == tree
    emptied = map_leaves(lambda d: (), tree)
    assert emptied == DNode(DLeaf(()), 0, DLeaf(()))


def test_map_leaves_filter():
    data = make_dataset([(1.0,), (5.0,)], [0, 1])
    rule = Rule(AxisParallel(0, 2.0), ((2.0,),))
    tree = DNode(DLeaf(data), 0, DLeaf(data))
    from opttree import split_dataset

    filtered = map_leaves(lambda d: split_dataset(rule, d)[0], tree)
    assert leaf_payloads(filtered) == [(data[0],), (data[0],)]
