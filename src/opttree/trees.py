"""Immutable tree values and the structure/permutation transforms.

Two tree flavors share one shape: :class:`Node`/:class:`Leaf` carry structure
only (branch nodes hold rule indices, leaves nothing), while
:class:`DNode`/:class:`DLeaf` additionally carry payloads at the leaves
(usually a dataset subset). Branch payloads are rule-table indices for
classification trees; the application solvers reuse the same node types with
richer branch payloads (segments, pivot points, or None).

A tree consistent with an ancestry matrix is uniquely recoverable from its
level-order traversal: :func:`tree_from_permutation` inverts
:func:`level_order` and rejects every ordering that is not the canonical
traversal of the tree it reaches. Nothing here routes data into leaves; see
:func:`opttree.generator.complete_shapes`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from .rules import AncestryMatrix


@dataclass(frozen=True)
class Leaf:
    pass


@dataclass(frozen=True)
class Node:
    left: "BTree"
    rule_id: int
    right: "BTree"


BTree = Leaf | Node

LEAF = Leaf()


@dataclass(frozen=True)
class DLeaf:
    data: Any


@dataclass(frozen=True)
class DNode:
    left: "DecisionTree"
    rule_id: Any
    right: "DecisionTree"


DecisionTree = DLeaf | DNode


Permutation = tuple[int, ...]


def is_leaf(tree: BTree | DecisionTree) -> bool:
    return isinstance(tree, (Leaf, DLeaf))


def level_order(tree: BTree | DecisionTree) -> Permutation:
    """Branch payloads in breadth-first order, left child before right."""
    order: list[int] = []
    queue: deque = deque([tree])
    while queue:
        node = queue.popleft()
        if not is_leaf(node):
            order.append(node.rule_id)
            queue.append(node.left)
            queue.append(node.right)
    return tuple(order)


def _insert(tree: BTree, rid: int, matrix: AncestryMatrix) -> BTree | None:
    if isinstance(tree, Leaf):
        return Node(LEAF, rid, LEAF)
    side = matrix.entry(tree.rule_id, rid)
    if side == 0:
        return None
    if side > 0:
        sub = _insert(tree.left, rid, matrix)
        return None if sub is None else Node(sub, tree.rule_id, tree.right)
    sub = _insert(tree.right, rid, matrix)
    return None if sub is None else Node(tree.left, tree.rule_id, sub)


def tree_from_permutation(perm: Sequence[int], matrix: AncestryMatrix) -> BTree | None:
    """Rebuild the tree whose level-order traversal is ``perm``, or None.

    Each rule descends from the root along matrix entries (+1 left, -1 right).
    The permutation is valid only if no descent hits a 0 entry and the result
    traverses back to exactly ``perm``; the second check makes each tree
    correspond to a single canonical ordering.
    """
    tree: BTree = LEAF
    for rid in perm:
        nxt = _insert(tree, rid, matrix)
        if nxt is None:
            return None
        tree = nxt
    if level_order(tree) != tuple(perm):
        return None
    return tree


def map_leaves(f: Callable[[Any], Any], tree: DecisionTree) -> DecisionTree:
    """Apply f to every leaf payload, keeping shape and branch payloads."""
    if isinstance(tree, DLeaf):
        return DLeaf(f(tree.data))
    return DNode(map_leaves(f, tree.left), tree.rule_id, map_leaves(f, tree.right))


def depth(tree: BTree | DecisionTree) -> int:
    """Branch nodes on the longest root-to-leaf path; a bare leaf has depth 0."""
    if is_leaf(tree):
        return 0
    return 1 + max(depth(tree.left), depth(tree.right))


def node_count(tree: BTree | DecisionTree) -> int:
    if is_leaf(tree):
        return 1
    return 1 + node_count(tree.left) + node_count(tree.right)


def leaves(tree: DecisionTree) -> list:
    """Leaf payloads in left-to-right order."""
    if isinstance(tree, (Leaf, DLeaf)):
        return [tree.data] if isinstance(tree, DLeaf) else [None]
    return leaves(tree.left) + leaves(tree.right)
