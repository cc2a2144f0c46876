"""Shared test oracles, kept independent of the library's completion path."""

from __future__ import annotations

import random

from opttree import LEAF, DLeaf, DNode, classify, level_order, make_dataset


def route_leaf_contents(tree, rules, data):
    """Leaf datasets computed by walking every sample down from the root.

    ``tree`` is a completed tree or a shape; its leaf payloads are ignored.
    Returns leaf content lists in left-to-right leaf order. This is the
    reference semantics for what a completed tree's leaves must hold.
    """
    buckets = []

    def collect(node, samples):
        if isinstance(node, DLeaf):
            buckets.append(list(samples))
            return
        rule = rules[node.rule_id]
        collect(node.left, [s for s in samples if classify(rule, s.point) > 0])
        collect(node.right, [s for s in samples if classify(rule, s.point) < 0])

    collect(tree, list(data))
    return buckets


def spec_tree_from_permutation(perm, matrix):
    """The permutation transform by its definition, independent of heap positions.

    Each rule is inserted by copying its root-to-leaf path: it goes left past
    a rule whose matrix entry for it is +1 and right past one whose entry is
    -1, and a 0 entry rejects the ordering. The tree built is kept only when
    its level-order traversal is ``perm`` itself.
    """

    def insert(tree, rid):
        if isinstance(tree, DLeaf):
            return DNode(LEAF, rid, LEAF)
        side = matrix[tree.rule_id][rid]
        if side == 0:
            return None
        if side > 0:
            sub = insert(tree.left, rid)
            return None if sub is None else DNode(sub, tree.rule_id, tree.right)
        sub = insert(tree.right, rid)
        return None if sub is None else DNode(tree.left, tree.rule_id, sub)

    tree = LEAF
    for rid in perm:
        tree = insert(tree, rid)
        if tree is None:
            return None
    return tree if level_order(tree) == tuple(perm) else None


def root_feasible(i, indices, matrix):
    """True when rule i relates to every other index, so it can head the set."""
    return all(matrix[i][j] != 0 for j in indices if j != i)


def spec_splits_generic(indices, matrix):
    """Feasible-root triples by their definition: every feasible root in
    ascending order, with the other indices on the side its entries name."""
    idx = sorted(indices)
    return [
        (
            tuple(j for j in idx if j != i and matrix[i][j] > 0),
            i,
            tuple(j for j in idx if j != i and matrix[i][j] < 0),
        )
        for i in idx
        if root_feasible(i, idx, matrix)
    ]


def leaf_payloads(tree):
    if isinstance(tree, DLeaf):
        return [tree.data]
    return leaf_payloads(tree.left) + leaf_payloads(tree.right)


def shape_of(tree):
    """The shape of a completed tree: its leaf payloads replaced by LEAF."""
    if isinstance(tree, DLeaf):
        return LEAF
    return DNode(shape_of(tree.left), tree.rule_id, shape_of(tree.right))


def relabel(tree, mapping):
    """Map every branch rule index of a shape through ``mapping`` (local -> global ids)."""
    if isinstance(tree, DLeaf):
        return tree
    return DNode(relabel(tree.left, mapping), mapping[tree.rule_id], relabel(tree.right, mapping))


def random_instance(seed, n_min=4, n_max=10):
    """Seeded random 2D two-class dataset."""
    rng = random.Random(seed)
    n = rng.randint(n_min, n_max)
    points = [(round(rng.uniform(0, 10), 3), round(rng.uniform(0, 10), 3)) for _ in range(n)]
    labels = [rng.randint(0, 1) for _ in range(n)]
    return make_dataset(points, labels)
