"""Shared test oracles, kept independent of the library's completion path.

Every reference the tests check the package against lives here, written by
definition: the point router, the path-copying permutation transform and its
inverse :func:`level_order`, the feasible-root split, the exhaustive tree
generators (:func:`all_tree_shapes`, :func:`all_trees`,
:func:`all_trees_constrained`, :func:`all_chain_trees`), the data routing of
shapes (:func:`complete_shapes`), the step rule of a heap-position placement
(:func:`descend`, :func:`spec_step`), the streamed valid orderings of a rule
table (:func:`enumerate_permutation_trees`), the splits of the partition
solvers (:func:`splits_kd`, :func:`splits_bsp`, :func:`splits_mcmp`),
the first cheapest trees of the k-d and scene-partition recursions
(:func:`kd_oracle`, :func:`bsp_oracle`, both through
:func:`first_cheapest`) and the split dimensions of a k-d tree's levels
(:func:`level_dims`). Generated sequences come out in a fixed
order (root index ascending, left subtree choices before right). The
permutation walk, which reads its steps off ancestry side masks, and its
sample bitmasks are the package's own ``check`` oracle, imported from
:mod:`opttree.generator` as they are, and the tests check the walk's steps
against :func:`spec_step`; nothing here imports the solver.
"""

from __future__ import annotations

import itertools
import random
from collections import deque

from opttree import LEAF, AxisParallel, DLeaf, DNode, Rule, classify, make_dataset, split_segments
from opttree.generator import _members, _positive_mask, _walk, _walk_matrix


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


def split_dataset(rule, data):
    """Partition data into the rule's positive and negative sides."""
    pos = tuple(s for s in data if classify(rule, s.point) > 0)
    neg = tuple(s for s in data if classify(rule, s.point) < 0)
    return pos, neg


def level_order(tree):
    """Branch payloads in breadth-first order, left child before right."""
    order = []
    queue = deque([tree])
    while queue:
        node = queue.popleft()
        if isinstance(node, DNode):
            order.append(node.rule_id)
            queue.append(node.left)
            queue.append(node.right)
    return tuple(order)


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
    ascending order, with the other indices on the side its entries name.
    A single index roots alone and reads no entry, so ``matrix`` may then be
    None."""
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


def all_tree_shapes(indices, matrix):
    """Every tree over ``indices`` consistent with the ancestry matrix.

    An empty index set yields the bare leaf and a single index its stump;
    otherwise each feasible root is combined with every admissible left and
    right subtree. The list is empty when no admissible tree exists.
    """
    idx = tuple(sorted(indices))
    if not idx:
        return [LEAF]
    if len(idx) == 1:
        # one rule roots alone, reading no entry
        return [DNode(LEAF, idx[0], LEAF)]
    return [
        DNode(u, rid, v)
        for left, rid, right in spec_splits_generic(idx, matrix)
        for u in all_tree_shapes(left, matrix)
        for v in all_tree_shapes(right, matrix)
    ]


def complete_shapes(shapes, rules, data):
    """Give every shape the data reaching each of its leaves.

    Each leaf holds, in data order, the samples that every rule on its path
    sends its way: positive to the left, negative to the right. Sample
    positions are routed from the root as bitmasks against each rule's
    positive mask, computed the first time a shape uses it, so each (rule,
    sample) pair is classified at most once per call; leaves with the same
    samples share one value. A rule id that is not an index into
    ``rules`` raises ValueError.
    """
    samples = tuple(data)
    positive = {}
    leaves = {}

    def complete(shape, rows):
        if isinstance(shape, DLeaf):
            if rows not in leaves:
                leaves[rows] = DLeaf(_members(samples, rows))
            return leaves[rows]
        rid = shape.rule_id
        if not isinstance(rid, int) or not 0 <= rid < len(rules):
            raise ValueError(f"path references unknown rule id {rid!r}")
        if rid not in positive:
            positive[rid] = _positive_mask(rules[rid], samples)
        pos = positive[rid]
        return DNode(complete(shape.left, rows & pos), rid, complete(shape.right, rows & ~pos))

    every = (1 << len(samples)) - 1
    return [complete(shape, every) for shape in shapes]


def all_trees(indices, matrix, rules, data):
    """Every admissible tree, completed so each leaf holds the data reaching it."""
    return complete_shapes(all_tree_shapes(indices, matrix), rules, data)


def all_trees_constrained(indices, matrix, rules, data, min_leaf=0, max_depth=None):
    """Constrained generation, pruning during recursion.

    Both constraints shrink monotonically along subtrees (leaves only lose
    points, depth only grows), so pruning a failing partial tree discards no
    tree the post-filter would keep; the output equals filtering
    :func:`all_trees` by leaf size and depth.
    """

    def rec(idx, data_here, budget):
        if not idx:
            return [DLeaf(data_here)] if len(data_here) >= min_leaf else []
        if budget is not None and budget <= 0:
            return []
        sub_budget = None if budget is None else budget - 1
        out = []
        for left, rid, right in spec_splits_generic(idx, matrix):
            pos, neg = split_dataset(rules[rid], data_here)
            for u in rec(left, pos, sub_budget):
                for v in rec(right, neg, sub_budget):
                    out.append(DNode(u, rid, v))
        return out

    return rec(tuple(sorted(indices)), tuple(data), max_depth)


def placement_shape(placed, p=0):
    """The shape whose node at heap position q holds ``placed[q]``, rooted at ``p``."""
    if p not in placed:
        return LEAF
    return DNode(placement_shape(placed, 2 * p + 1), placed[p], placement_shape(placed, 2 * p + 2))


def descend(placed, rid, matrix):
    """The free heap position that rule ``rid`` reaches from the root of a
    placement (root 0, children of p at 2p + 1 and 2p + 2).

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


def spec_step(placed, rid, matrix, last):
    """The step rule by its definition: the heap position rule ``rid`` takes
    next in an ordering whose last rule sits at ``last``, or None when that
    step is invalid. The rule descends to a free position, and the step is
    valid when that position is above ``last``."""
    p = descend(placed, rid, matrix)
    return None if p is None or p <= last else p


def enumerate_permutation_trees(rules, k, matrix=None):
    """Every valid k-permutation of the rule table, with its shape.

    The package's ``check`` walk goes over the k-permutations of global rule
    ids against ``matrix``, the ancestry matrix of the whole table (built
    from the defining points when not given and k is at least 2); a matrix
    entry depends only on its two rules, so this is the tree each
    combination's own matrix gives. Each (k-1)-prefix's last steps are
    placed in ascending rule id to build the shapes, so the complete
    orderings come out as (ordering, shape) pairs in
    ``itertools.permutations(range(len(rules)), k)`` order, streamed one
    first rule at a time. A k above the table size raises ValueError at the
    call.
    """
    matrix = _walk_matrix(rules, k, matrix)
    n = len(rules)
    if not k:
        return iter([((), LEAF)])

    def rooted(first):
        pairs = []

        def complete(order, placed, _, steps):
            ranked = sorted((rid, q) for q, mask in steps for rid in range(n) if mask >> rid & 1)
            for rid, q in ranked:
                pairs.append(((*order, rid), placement_shape({**placed, q: rid})))

        _walk(1 << first, n, k, matrix, lambda *prefix: None, complete)
        return pairs

    return itertools.chain.from_iterable(map(rooted, range(n)))


def splits_mcmp(items):
    """All contiguous cuts of a chain into two non-empty parts.

    The marker is the cut position; a chain of n items yields n-1 triples.
    """
    seq = tuple(items)
    if len(seq) < 2:
        return []
    return [(seq[:i], i, seq[i:]) for i in range(1, len(seq))]


def all_chain_trees(items):
    """Every parenthesization of a matrix chain as a leaf-labeled tree."""
    seq = tuple(items)
    if not seq:
        return []
    if len(seq) == 1:
        return [DLeaf(seq[0])]
    return [
        DNode(u, None, v)
        for prefix, _, suffix in splits_mcmp(seq)
        for u in all_chain_trees(prefix)
        for v in all_chain_trees(suffix)
    ]


def splits_kd(depth, data):
    """One candidate per pivot point: the axis rule of its coordinate on
    dimension ``depth mod D``, with the pivot as its defining point.

    The other points go to the rule's sides by :func:`classify`, so points
    tied with the pivot coordinate go left, positive, as the global boundary
    rule says; the pivot itself lands on neither side.
    """
    seq = tuple(data)
    if not seq:
        return []
    d = depth % len(seq[0].point)
    out = []
    for i, pivot in enumerate(seq):
        rule = Rule(AxisParallel(d, pivot.point[d]), (pivot.point,))
        left, right = split_dataset(rule, seq[:i] + seq[i + 1 :])
        out.append((left, rule, right))
    return out


def splits_bsp(segments):
    """Every segment as candidate root, with the rest split around its line."""
    out = []
    for i, root in enumerate(segments):
        rest = [s for j, s in enumerate(segments) if j != i]
        pos, neg = split_segments(root, rest)
        out.append((pos, root, neg))
    return out


def first_cheapest(state, splits, leaf, combine):
    """(cost, tree) of the first cheapest tree from ``state``, by exhaustive
    recursion without a memo.

    ``splits(state)`` is None for a leaf state, else its (left state, rule,
    right state) triples in order; ``leaf(state)`` is a leaf state's (cost,
    tree). Every candidate is combined from its sides' first cheapest trees,
    and the first strict minimum wins.
    """
    triples = splits(state)
    if triples is None:
        return leaf(state)
    best = None
    for left, rule, right in triples:
        u, left_tree = first_cheapest(left, splits, leaf, combine)
        v, right_tree = first_cheapest(right, splits, leaf, combine)
        cost = combine(u, v, rule)
        if best is None or cost < best[0]:
            best = cost, DNode(left_tree, rule, right_tree)
    return best


def kd_oracle(data, max_depth, objective):
    """(cost, tree) of the first cheapest depth-cycled tree over :func:`splits_kd`.

    A region splits while it holds points and is above ``max_depth``; each
    branch's payload is its pivot's axis rule, as :func:`splits_kd` gives it,
    and each leaf holds its points in data order.
    """

    def splits(state):
        items, depth = state
        if not items or depth >= max_depth:
            return None
        return [((left, depth + 1), rule, (right, depth + 1)) for left, rule, right in splits_kd(depth, items)]

    def leaf(state):
        return objective.leaf_cost(state[0]), DLeaf(state[0])

    return first_cheapest((tuple(data), 0), splits, leaf, objective.combine)


def level_dims(tree):
    """The split dimension of each level of a k-d tree, read off its axis
    rules, or None when two branches of one level differ."""
    dims = []
    frontier = [tree]
    while any(isinstance(n, DNode) for n in frontier):
        level = {n.rule_id.kind.dim for n in frontier if isinstance(n, DNode)}
        if len(level) != 1:
            return None
        dims.append(level.pop())
        frontier = [c for n in frontier if isinstance(n, DNode) for c in (n.left, n.right)]
    return dims


def bsp_oracle(segments):
    """(node count, tree) of the first smallest partition tree over
    :func:`splits_bsp`; every leaf is empty."""

    def splits(frags):
        return splits_bsp(frags) if frags else None

    def leaf(frags):
        return 1, DLeaf(())

    return first_cheapest(tuple(segments), splits, leaf, lambda a, b, root: a + b + 1)


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
