"""Immutable tree values and the permutation transform.

One tree type serves every use: a :class:`DNode` holds a branch payload
between two subtrees and a :class:`DLeaf` holds a leaf payload. A shape is a
tree whose branch payloads are rule-table indices and whose leaves are the
payload-free :data:`LEAF`; a completed classification tree holds at its
leaves the samples reaching them. The application solvers use the same types
with other branch payloads (segments, pivot points, or None).

A tree consistent with an ancestry matrix is uniquely recoverable from its
level-order traversal. :func:`tree_from_permutation` inverts
:func:`level_order` by heap position: each rule descends from the root
(position 0; the children of p are 2p + 1 and 2p + 2) to a free position,
and an ordering is the canonical traversal of the tree it reaches exactly
when those positions increase, so it is rejected at its first 0 entry or
first non-increasing position. :func:`descend` and :func:`placement_shape`
are its two steps, shared with the permutation walk in
:mod:`opttree.generator`. Nothing here routes data into leaves; see
:func:`opttree.generator.complete_shapes`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Sequence

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


# A placement: rule ids keyed by heap position. The root is position 0 and
# the children of position p are 2p + 1 (left) and 2p + 2 (right), so
# ascending positions are level order.
Placement = dict[int, int]


def descend(placed: Placement, rid: int, matrix: AncestryMatrix) -> int | None:
    """The free heap position that rule ``rid`` reaches from the root.

    It goes left past a placed rule whose matrix entry for it is +1 and right
    past one whose entry is -1; None when it meets a 0 entry.
    """
    p = 0
    while p in placed:
        side = matrix[placed[p]][rid]
        if side == 0:
            return None
        p = 2 * p + 1 if side > 0 else 2 * p + 2
    return p


def placement_shape(placed: Placement, p: int = 0) -> DecisionTree:
    """The shape whose node at heap position q holds ``placed[q]``, rooted at ``p``."""
    if p not in placed:
        return LEAF
    return DNode(placement_shape(placed, 2 * p + 1), placed[p], placement_shape(placed, 2 * p + 2))


def tree_from_permutation(perm: Sequence[int], matrix: AncestryMatrix) -> DecisionTree | None:
    """Rebuild the shape whose level-order traversal is ``perm``, or None.

    Each rule descends from the root along matrix entries (+1 left, -1 right)
    to a free heap position. Rules keep their positions as later ones are
    placed, so the shape traverses back to ``perm`` exactly when every rule
    lands above the previous one's position; this makes each tree correspond
    to a single canonical ordering. The first 0 entry or non-increasing
    position rejects ``perm``.
    """
    placed: Placement = {}
    last = -1
    for rid in perm:
        p = descend(placed, rid, matrix)
        if p is None or p <= last:
            return None
        placed[p] = rid
        last = p
    return placement_shape(placed)


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
