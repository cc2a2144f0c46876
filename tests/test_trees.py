"""Tree values and the level-order encoding."""

import itertools
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from opttree import LEAF, DNode
from helpers import all_tree_shapes, enumerate_permutation_trees, level_order, spec_tree_from_permutation


def matrix_of(rows):
    return tuple(tuple(r) for r in rows)


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
    assert spec_tree_from_permutation((), matrix_of([])) == LEAF


def test_tree_from_permutation_balanced():
    assert spec_tree_from_permutation((0, 1, 2), SPLIT_MATRIX) == BALANCED


def test_tree_from_permutation_rejects_non_canonical():
    # (0, 2, 1) builds the same tree as (0, 1, 2), so only the canonical
    # ordering may survive.
    assert spec_tree_from_permutation((0, 2, 1), SPLIT_MATRIX) is None


def test_tree_from_permutation_zero_entry_fails():
    # second rule unrelated to the root: insertion hits a 0
    m = matrix_of([[0, 0, 1], [0, 0, 0], [0, 0, 0]])
    assert spec_tree_from_permutation((0, 1), m) is None


def test_valid_permutations_match_generated_trees():
    # brute-force all 3-permutations over a hand-built matrix and compare
    # against the generator's canonical traversals
    m = matrix_of([[0, 1, -1], [0, 0, -1], [0, 0, 0]])
    valid = {
        p
        for p in itertools.permutations(range(3))
        if spec_tree_from_permutation(p, m) is not None
    }
    generated = {level_order(t) for t in all_tree_shapes(range(3), m)}
    assert valid == generated
    assert valid  # the matrix admits at least one tree


def small_matrices(max_k=4, entries=(-1, 0, 1)):
    def build(k, draw):
        rows = []
        it = iter(draw)
        for i in range(k):
            rows.append(tuple(0 if i == j else next(it) for j in range(k)))
        return tuple(rows)

    return st.integers(min_value=1, max_value=max_k).flatmap(
        lambda k: st.tuples(
            st.just(k),
            st.lists(
                st.sampled_from(entries), min_size=k * (k - 1), max_size=k * (k - 1)
            ),
        )
    ).map(lambda kv: build(kv[0], kv[1]))


@given(small_matrices())
@settings(max_examples=120, deadline=None)
def test_round_trip_and_injectivity(matrix):
    shapes = all_tree_shapes(range(len(matrix)), matrix)
    # injectivity into the orderings bounds the tree count by k!
    assert len(shapes) <= math.factorial(len(matrix))
    orders = [level_order(t) for t in shapes]
    # distinct trees yield distinct traversals
    assert len(set(orders)) == len(orders)
    for tree, order in zip(shapes, orders):
        assert spec_tree_from_permutation(order, matrix) == tree


def matrices_and_k(max_k=7, max_len=5):
    """A {-1, 0, +1} matrix over up to ``max_k`` rules, holding an off-diagonal
    0 when it has two rules, and an ordering length. Zeros are drawn one time
    in five, so long orderings survive often enough to test the walk deep."""
    return (
        small_matrices(max_k, entries=(-1, -1, 0, 1, 1))
        .flatmap(lambda m: st.tuples(st.just(m), st.integers(0, min(max_len, len(m)))))
        .filter(lambda mk: any(0 in row[:i] + row[i + 1 :] for i, row in enumerate(mk[0])) or len(mk[0]) < 2)
    )


@given(matrices_and_k())
@settings(max_examples=100, deadline=None)
def test_permutation_walk_equals_spec_brute_force(mk):
    # the walk cuts a prefix at its first invalid step; the brute force
    # tries every k-permutation in full, in the walk's order. With the matrix
    # given, the rule table is only counted.
    matrix, k = mk
    want = [
        (perm, tree)
        for perm in itertools.permutations(range(len(matrix)), k)
        if (tree := spec_tree_from_permutation(perm, matrix)) is not None
    ]
    assert list(enumerate_permutation_trees([None] * len(matrix), k, matrix)) == want
