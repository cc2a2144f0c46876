"""Independent output checks and score ceilings.

These re-derive each answer from the printed text with the benchmark's own
parser, routing and arithmetic; none of them calls the library's tree
completion or costing path. The only library call is
``bsp_tree_from_order``, which supplies the partition-tree ceiling.

A ceiling is the score of some valid tree the benchmark built itself. The
solver is exact, so its score may never exceed the ceiling, but a lower score
is accepted as long as the printed tree re-validates: a fix that finds a
better tree is not a failure.
"""

from __future__ import annotations

import itertools
import math
import re
from collections import Counter

# Solver dead zone for side tests (opttree.rules.EPS).
EPS = 1e-9
# Printed reals carry 9 significant digits; a point whose hyperplane value is
# within this share of the value's magnitude counts as on the boundary.
PRINT_TOL = 1e-7


# ---- tree text -------------------------------------------------------------

def parse_tree(text: str):
    """('leaf', count) or ('node', tag, values, left, right) from tree text."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    pos = 0

    def take():
        nonlocal pos
        if pos >= len(tokens):
            raise ValueError("tree text ends early")
        pos += 1
        return tokens[pos - 1]

    def tree():
        if take() != "(":
            raise ValueError("expected '('")
        head = take()
        if head == "leaf":
            count = int(take())
            take()
            return ("leaf", count)
        if head != "node":
            raise ValueError(f"unexpected token {head!r}")
        tag = take()
        values = []
        while tokens[pos] != "(":
            values.append(float(take()))
        left, right = tree(), tree()
        if take() != ")":
            raise ValueError("expected ')'")
        return ("node", tag, tuple(values), left, right)

    parsed = tree()
    if pos != len(tokens):
        raise ValueError("trailing tokens after tree")
    return parsed


def _internal(tree) -> list:
    if tree[0] == "leaf":
        return []
    return [tree] + _internal(tree[3]) + _internal(tree[4])


def _fields(out: str) -> dict[str, str]:
    fields = {}
    for line in out.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            fields[key] = value
    return fields


# ---- classification trees --------------------------------------------------

def lift(p):
    x, y = p
    return (x, y, x * x, x * y, y * y)


def majority(labels) -> int | None:
    if not labels:
        return None
    counts = Counter(labels)
    return max(counts, key=lambda lab: (counts[lab], -lab))


def errors(labels) -> int:
    m = majority(labels)
    return sum(1 for lab in labels if lab != m)


def _hyperplane_value(values, z) -> tuple[float, float]:
    """w.z + b for printed (w, b), and the rounding tolerance for that value."""
    *w, b = values
    terms = [wi * zi for wi, zi in zip(w, z)]
    return b + sum(terms), PRINT_TOL * (1.0 + abs(b) + sum(abs(t) for t in terms))


def _side(tag, values, z) -> int:
    """+1 or -1 for point z under a printed rule; boundary points are +1."""
    if tag == "axis":
        dim, t = int(values[0]), values[1]
        return 1 if z[dim] <= t else -1
    v, tol = _hyperplane_value(values, z)
    return 1 if v >= -tol else -1


def _defining_points(tag, values, space) -> list[int]:
    """Sample indices whose points define a printed rule, as the enumeration chose them.

    Axis rules sit on the first sample carrying the threshold. A hyperplane
    is kept for the lexicographically first point combination producing it,
    which is the first G samples on its boundary.
    """
    if tag == "axis":
        dim, t = int(values[0]), values[1]
        return [i for i, z in enumerate(space) if z[dim] == t][:1]
    on = []
    for i, z in enumerate(space):
        v, tol = _hyperplane_value(values, z)
        if abs(v) <= tol:
            on.append(i)
    dims = len(values) - 1
    return on[:dims] if len(on) >= dims else []


def check_fit(out, data, lifted, k, min_leaf, max_depth, ceiling) -> str | None:
    fields = _fields(out)
    try:
        tree = parse_tree(fields["tree"])
        score = float(fields["score"])
        misclassified = float(fields["misclassified"])
    except (KeyError, IndexError, ValueError) as exc:
        return f"unreadable fit output: {exc}"
    space = [lift(p) if lifted else p for p, _ in data]
    labels = [lab for _, lab in data]
    nodes = _internal(tree)
    if len(nodes) != k:
        return f"tree has {len(nodes)} rules, expected {k}"
    defining = {}
    for node in nodes:
        tag, values = node[1], node[2]
        if tag not in ("axis", "hyp") or (tag == "hyp" and len(values) != len(space[0]) + 1):
            return f"unexpected rule {tag} {values}"
        pts = _defining_points(tag, values, space)
        if not pts:
            return f"rule {tag} {values} is not defined by data points"
        defining[id(node)] = pts

    leaf_rows: list[list[int]] = []
    problems: list[str] = []

    def route(t, rows, ancestors, depth):
        if t[0] == "leaf":
            if t[1] != len(rows):
                problems.append(f"leaf prints {t[1]} samples, {len(rows)} reach it")
            if len(rows) < min_leaf:
                problems.append(f"leaf of {len(rows)} below min-leaf {min_leaf}")
            leaf_rows.append(rows)
            return
        if max_depth is not None and depth >= max_depth:
            problems.append(f"rule at depth {depth} exceeds max-depth {max_depth}")
        _, tag, values, left, right = t
        for atag, avalues, want in ancestors:
            if any(_side(atag, avalues, space[q]) != want for q in defining[id(t)]):
                problems.append(f"rule {tag} {values} placed against the ancestry of {atag} {avalues}")
        pos = [i for i in rows if _side(tag, values, space[i]) > 0]
        neg = [i for i in rows if _side(tag, values, space[i]) < 0]
        route(left, pos, ancestors + [(tag, values, 1)], depth + 1)
        route(right, neg, ancestors + [(tag, values, -1)], depth + 1)

    route(tree, list(range(len(data))), [], 0)
    if problems:
        return problems[0]
    total = 0
    for i, rows in enumerate(leaf_rows):
        labs = [labels[r] for r in rows]
        m, e = majority(labs), errors(labs)
        total += e
        shown = "-" if m is None else str(m)
        line = f"leaf {i}: size={len(rows)} majority={shown} errors={e}"
        if line not in out.splitlines():
            return f"missing or wrong leaf line, expected {line!r}"
    if score != total or misclassified != total:
        return f"printed score {score:g} / misclassified {misclassified:g}, recomputed {total}"
    if score > ceiling:
        return f"score {score:g} above the ceiling {ceiling}"
    return None


def greedy_axis_ceiling(data, k, min_leaf, max_depth) -> float:
    """Score of a greedy tree with exactly k axis rules, or inf when greedy gets stuck.

    An axis rule sits on the first sample carrying its threshold, and a rule
    can go into a leaf only when that sample reaches the leaf: then the rule
    agrees with the ancestry of every node above it.
    """
    labels = [lab for _, lab in data]
    rules = []
    for dim in range(len(data[0][0])):
        first = {}
        for i, (p, _) in enumerate(data):
            first.setdefault(p[dim], i)
        rules += [(dim, v, first[v]) for v in sorted(first)]
    leaves = [(list(range(len(data))), 0)]
    used = set()
    for _ in range(k):
        best = None
        for li, (rows, depth) in enumerate(leaves):
            if max_depth is not None and depth >= max_depth:
                continue
            here = errors([labels[i] for i in rows])
            members = set(rows)
            for ri, (dim, v, anchor) in enumerate(rules):
                if ri in used or anchor not in members:
                    continue
                pos = [i for i in rows if data[i][0][dim] <= v]
                neg = [i for i in rows if data[i][0][dim] > v]
                if len(pos) < min_leaf or len(neg) < min_leaf:
                    continue
                gain = here - errors([labels[i] for i in pos]) - errors([labels[i] for i in neg])
                if best is None or gain > best[0]:
                    best = (gain, li, ri, pos, neg)
        if best is None:
            return math.inf
        _, li, ri, pos, neg = best
        depth = leaves[li][1]
        leaves[li : li + 1] = [(pos, depth + 1), (neg, depth + 1)]
        used.add(ri)
    return float(sum(errors([labels[i] for i in rows]) for rows, _ in leaves))


def best_line_split(data) -> float:
    """Exact best one-rule score over every line through two points.

    Coordinates lie on a 0.01 grid, so side tests run in integers. Boundary
    points join the side the solver calls positive: the normal's first
    nonzero component is made positive.
    """
    pts = [(round(p[0] * 100), round(p[1] * 100)) for p, _ in data]
    if any(abs(c * 100 - g) > 1e-6 for (p, _), grid in zip(data, pts) for c, g in zip(p, grid)):
        raise ValueError("best_line_split needs coordinates on a 0.01 grid")
    labels = [lab for _, lab in data]
    best = float(errors(labels))
    for (xi, yi), (xj, yj) in itertools.combinations(pts, 2):
        nx, ny = -(yj - yi), xj - xi
        sign = 1 if (nx > 0 or (nx == 0 and ny > 0)) else -1
        pos, neg = [], []
        for (x, y), lab in zip(pts, labels):
            (pos if sign * (nx * (x - xi) + ny * (y - yi)) >= 0 else neg).append(lab)
        best = min(best, float(errors(pos) + errors(neg)))
    return best


def check_check(out: str) -> str | None:
    fields = _fields(out)
    if fields.get("result") != "PASS":
        return f"check reports {fields.get('result')!r}"
    if fields.get("solver score") != fields.get("oracle score"):
        return f"solver {fields.get('solver score')} != oracle {fields.get('oracle score')}"
    return None


# ---- matrix chains ---------------------------------------------------------

def chain_dp(dims) -> int:
    """Classic O(n^3) matrix-chain program over dimension list p0..pn."""
    n = len(dims) - 1
    cost = [[0] * n for _ in range(n)]
    for span in range(1, n):
        for i in range(n - span):
            j = i + span
            cost[i][j] = min(
                cost[i][m] + cost[m + 1][j] + dims[i] * dims[m + 1] * dims[j + 1] for m in range(i, j)
            )
    return cost[0][n - 1]


def check_mcmp(out, dims, optimum) -> str | None:
    fields = _fields(out)
    order = fields.get("order", "")
    tokens = re.findall(r"\(|\)|×|[A-Z]|M\d+", order)
    pos = 0
    next_leaf = 0

    def expr():
        """(rows, cols, cost) of the sub-expression at pos."""
        nonlocal pos, next_leaf
        tok = tokens[pos]
        pos += 1
        if tok != "(":
            name = chr(ord("A") + next_leaf) if next_leaf < 26 else f"M{next_leaf}"
            if tok != name:
                raise ValueError(f"matrix {tok} out of order")
            next_leaf += 1
            return dims[next_leaf - 1], dims[next_leaf], 0
        a = expr()
        if tokens[pos] != "×":
            raise ValueError("expected ×")
        pos += 1
        b = expr()
        if tokens[pos] != ")":
            raise ValueError("expected )")
        pos += 1
        return a[0], b[1], a[2] + b[2] + a[0] * a[1] * b[1]

    def shape(t) -> str:
        return f"M{t[1]}" if t[0] == "leaf" else f"({shape(t[3])}×{shape(t[4])})"

    try:
        _, _, cost = expr()
        printed = float(fields["cost"])
        tree = parse_tree(fields["tree"])
    except (IndexError, KeyError, ValueError) as exc:
        return f"unreadable mcmp output: {exc}"
    if pos != len(tokens) or next_leaf != len(dims) - 1:
        return "order does not use every matrix once"
    if shape(tree) != re.sub(r"[A-Z]|M\d+", "M1", order) or any(n[1] != "cut" for n in _internal(tree)):
        return "tree and order disagree"
    if printed != cost:
        return f"printed cost {printed:g}, order costs {cost}"
    if cost > optimum:
        return f"cost {cost} above the O(n^3) optimum {optimum}"
    return None


# ---- partition trees -------------------------------------------------------

def _split_line(root, frags):
    """Fragments on each side of root's extending line (opttree.rule_systems semantics)."""
    (sx, sy), (ex, ey) = root
    scale = math.hypot(ex - sx, ey - sy)
    pos, neg = [], []
    for a, b in frags:
        o1 = (ex - sx) * (a[1] - sy) - (ey - sy) * (a[0] - sx)
        o2 = (ex - sx) * (b[1] - sy) - (ey - sy) * (b[0] - sx)
        s1 = 0 if abs(o1) <= EPS * scale else (1 if o1 > 0 else -1)
        s2 = 0 if abs(o2) <= EPS * scale else (1 if o2 > 0 else -1)
        if s1 >= 0 and s2 >= 0:
            pos.append((a, b))
        elif s1 <= 0 and s2 <= 0:
            neg.append((a, b))
        else:
            t = o1 / (o1 - o2)
            cut = (a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]))
            for frag, side in (((a, cut), s1), ((cut, b), s2)):
                if math.hypot(frag[1][0] - frag[0][0], frag[1][1] - frag[0][1]) >= EPS:
                    (pos if side > 0 else neg).append(frag)
    return pos, neg


def _same_segment(printed, frag) -> bool:
    (a, b) = frag
    flat = (a[0], a[1], b[0], b[1])
    return all(abs(p - q) <= PRINT_TOL * (1.0 + abs(q)) for p, q in zip(printed, flat))


def check_bsp(out, segs, ceiling) -> str | None:
    fields = _fields(out)
    try:
        tree = parse_tree(fields["tree"])
        nodes = float(fields["nodes"])
    except (KeyError, IndexError, ValueError) as exc:
        return f"unreadable bsp output: {exc}"

    def replay(t, frags) -> str | None:
        """Each region must cut on one of its own fragments until none are left."""
        if t[0] == "leaf":
            return None if not frags and t[1] == 0 else f"leaf prints {t[1]}, keeps {len(frags)} fragments"
        _, tag, values, left, right = t
        match = [i for i, f in enumerate(frags) if tag == "seg" and _same_segment(values, f)]
        if not match:
            return f"cut {values} is not a fragment of its region"
        root = frags[match[0]]
        pos, neg = _split_line(root, frags[: match[0]] + frags[match[0] + 1 :])
        return replay(left, pos) or replay(right, neg)

    problem = replay(tree, list(segs))
    if problem:
        return problem
    count = 2 * len(_internal(tree)) + 1
    if nodes != count:
        return f"printed {nodes:g} nodes, tree has {count}"
    if count > ceiling:
        return f"{count} nodes, more than the ordered construction's {ceiling}"
    return None


def bsp_order_ceiling(segs, rng, orders=8) -> int:
    """Fewest nodes over bsp_tree_from_order on seeded random orders."""
    from opttree.rule_systems import SceneSegment
    from opttree.solver import bsp_tree_from_order

    scene = [SceneSegment(a, b, i) for i, (a, b) in enumerate(segs)]

    def count(t) -> int:
        return 1 if not hasattr(t, "left") else 1 + count(t.left) + count(t.right)

    best = None
    for _ in range(orders):
        order = list(range(len(scene)))
        rng.shuffle(order)
        n = count(bsp_tree_from_order(scene, order))
        best = n if best is None else min(best, n)
    return best


# ---- k-d trees -------------------------------------------------------------

def _kd_leaf_sizes(pts, max_depth, choose) -> list[int]:
    def rec(region, depth):
        if not region or depth >= max_depth:
            return [len(region)]
        d = depth % 2
        pivot = choose(region, d)
        c = pivot[d]
        left = [p for p in region if p is not pivot and p[d] <= c]
        right = [p for p in region if p[d] > c]
        return rec(left, depth + 1) + rec(right, depth + 1)

    return rec(list(pts), 0)


def median_kd_score(pts, max_depth) -> int:
    """Sum of squared leaf sizes of the classic median-pivot tree."""
    sizes = _kd_leaf_sizes(pts, max_depth, lambda region, d: sorted(region, key=lambda p: p[d])[len(region) // 2])
    return sum(s * s for s in sizes)


def check_kd(out, pts, max_depth, ceiling) -> str | None:
    fields = _fields(out)
    try:
        tree = parse_tree(fields["tree"])
        score = float(fields["score"])
    except (KeyError, IndexError, ValueError) as exc:
        return f"unreadable kd output: {exc}"
    sizes: list[int] = []

    def replay(t, region, depth) -> str | None:
        if not region or depth >= max_depth:
            if t[0] != "leaf" or t[1] != len(region):
                return f"expected a leaf of {len(region)} at depth {depth}"
            sizes.append(len(region))
            return None
        if t[0] != "node" or t[1] != "axis" or int(t[2][0]) != depth % 2:
            return f"expected a split on dimension {depth % 2} at depth {depth}"
        d, c = depth % 2, t[2][1]
        pivots = [p for p in region if p[d] == c]
        if len(pivots) != 1:
            return f"pivot {c} matches {len(pivots)} points"
        left = [p for p in region if p is not pivots[0] and p[d] <= c]
        right = [p for p in region if p[d] > c]
        return replay(t[3], left, depth + 1) or replay(t[4], right, depth + 1)

    problem = replay(tree, list(pts), 0)
    if problem:
        return problem
    total = sum(s * s for s in sizes)
    if score != total:
        return f"printed score {score:g}, leaves give {total}"
    if total > ceiling:
        return f"score {total} above the median-pivot tree's {ceiling}"
    return None
