"""Immutable tree values.

One tree type serves every use: a :class:`DNode` holds a branch payload
between two subtrees and a :class:`DLeaf` holds a leaf payload. A shape is a
tree whose branch payloads are rule-table indices and whose leaves are the
payload-free :data:`LEAF`; a completed classification tree holds at its
leaves the samples reaching them. The application solvers use the same types
with other branch payloads (segments, k-d axis rules, or None). Orderings of
rules and their heap-position placements are in :mod:`opttree.generator`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


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
