"""Shared test oracles, kept independent of the library's completion path."""

from __future__ import annotations

import random

from opttree import LEAF, DLeaf, DNode, classify, make_dataset


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
