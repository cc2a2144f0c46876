"""Immutable tree values and the permutation transform.

One tree type serves every use: a :class:`DNode` holds a branch payload
between two subtrees and a :class:`DLeaf` holds a leaf payload. A shape is a
tree whose branch payloads are rule-table indices and whose leaves are the
payload-free :data:`LEAF`; a completed classification tree holds at its
leaves the samples reaching them. The application solvers use the same types
with other branch payloads (segments, pivot points, or None).

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
class DLeaf:
    data: Any


@dataclass(frozen=True)
class DNode:
    left: "DecisionTree"
    rule_id: Any
    right: "DecisionTree"


DecisionTree = DLeaf | DNode

LEAF = DLeaf(None)


Permutation = tuple[int, ...]


def level_order(tree: DecisionTree) -> Permutation:
    """Branch payloads in breadth-first order, left child before right."""
    order: list[int] = []
    queue: deque = deque([tree])
    while queue:
        node = queue.popleft()
        if isinstance(node, DNode):
            order.append(node.rule_id)
            queue.append(node.left)
            queue.append(node.right)
    return tuple(order)


def _insert(tree: DecisionTree, rid: int, matrix: AncestryMatrix) -> DecisionTree | None:
    if isinstance(tree, DLeaf):
        return DNode(LEAF, rid, LEAF)
    side = matrix.entry(tree.rule_id, rid)
    if side == 0:
        return None
    if side > 0:
        sub = _insert(tree.left, rid, matrix)
        return None if sub is None else DNode(sub, tree.rule_id, tree.right)
    sub = _insert(tree.right, rid, matrix)
    return None if sub is None else DNode(tree.left, tree.rule_id, sub)


def tree_from_permutation(perm: Sequence[int], matrix: AncestryMatrix) -> DecisionTree | None:
    """Rebuild the shape whose level-order traversal is ``perm``, or None.

    Each rule descends from the root along matrix entries (+1 left, -1 right).
    The permutation is valid only if no descent hits a 0 entry and the result
    traverses back to exactly ``perm``; the second check makes each tree
    correspond to a single canonical ordering.
    """
    tree: DecisionTree = LEAF
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


def depth(tree: DecisionTree) -> int:
    """Branch nodes on the longest root-to-leaf path; a bare leaf has depth 0."""
    if isinstance(tree, DLeaf):
        return 0
    return 1 + max(depth(tree.left), depth(tree.right))


def node_count(tree: DecisionTree) -> int:
    if isinstance(tree, DLeaf):
        return 1
    return 1 + node_count(tree.left) + node_count(tree.right)


def leaves(tree: DecisionTree) -> list:
    """Leaf payloads in left-to-right order."""
    if isinstance(tree, DLeaf):
        return [tree.data]
    return leaves(tree.left) + leaves(tree.right)
