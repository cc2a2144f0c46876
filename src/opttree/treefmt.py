"""Text serialization of trees.

Grammar (whitespace-separated tokens):

    tree      := "(leaf" count ")" | "(node" rule-desc tree tree ")"
    rule-desc := "axis" dim threshold
               | "hyp" w1 .. wG b
               | "seg" x1 y1 x2 y2
               | "cut"

Leaves store only their payload size. A rule-table index (given the table)
and a :class:`~opttree.rules.Rule`, such as the point-defined axis rules of
:func:`~opttree.solver.solve_kd`, print as their rule's kind. Reals must be
finite and print with 9 significant digits, so serializing a parsed tree
reproduces the original text byte for byte.
Parsed trees carry int counts at leaves and, at branches, rule kinds for
"axis" and "hyp", a :class:`~opttree.rule_systems.SceneSegment` with no
payload for "seg" and None for "cut".
"""

from __future__ import annotations

import math
from typing import Any, Sequence

from .data import plain_number
from .rules import AxisParallel, Hyperplane, Rule, RuleKind
from .rule_systems import SceneSegment
from .trees import DecisionTree, DLeaf, DNode


def format_real(x: float) -> str:
    return format(float(x), ".9g")


def _leaf_count(payload: Any) -> int:
    if isinstance(payload, int):
        return payload
    if payload is None:
        return 0
    try:
        return len(payload)
    except TypeError:
        return 1


def _rule_desc(payload: Any, rules: Sequence[Rule] | None) -> str:
    if isinstance(payload, int):
        if rules is None:
            raise ValueError("serializing an index-labeled tree needs the rule table")
        payload = rules[payload]
    if isinstance(payload, Rule):
        payload = payload.kind
    if isinstance(payload, AxisParallel):
        return f"axis {payload.dim} {format_real(payload.threshold)}"
    if isinstance(payload, Hyperplane):
        coeffs = " ".join(format_real(w) for w in payload.weights)
        return f"hyp {coeffs} {format_real(payload.bias)}"
    if isinstance(payload, SceneSegment):
        (x1, y1), (x2, y2) = payload.start, payload.end
        return f"seg {format_real(x1)} {format_real(y1)} {format_real(x2)} {format_real(y2)}"
    if payload is None:
        return "cut"
    raise ValueError(f"cannot describe branch payload {payload!r}")


def serialize(tree: DecisionTree, rules: Sequence[Rule] | None = None) -> str:
    if isinstance(tree, DLeaf):
        return f"(leaf {_leaf_count(tree.data)})"
    desc = _rule_desc(tree.rule_id, rules)
    return f"(node {desc} {serialize(tree.left, rules)} {serialize(tree.right, rules)})"


def _tokenize(text: str) -> list[str]:
    return text.replace("(", " ( ").replace(")", " ) ").split()


class _Parser:
    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> str:
        if self.pos >= len(self.tokens):
            raise ValueError("unexpected end of tree text")
        return self.tokens[self.pos]

    def take(self, expect: str | None = None) -> str:
        tok = self.peek()
        if expect is not None and tok != expect:
            raise ValueError(f"expected {expect!r}, found {tok!r}")
        self.pos += 1
        return tok

    def real(self) -> float:
        tok = self.take()
        try:
            value = float(plain_number(tok))
        except ValueError:
            raise ValueError(f"expected a number, found {tok!r}") from None
        if not math.isfinite(value):
            raise ValueError(f"expected a finite number, found {tok!r}")
        return value

    def natural(self) -> int:
        tok = self.take()
        if not (tok.isascii() and tok.isdigit()):
            raise ValueError(f"expected a count, found {tok!r}")
        return int(tok)

    def reals_until_paren(self) -> list[float]:
        vals = []
        while self.peek() != "(":
            vals.append(self.real())
        return vals

    def tree(self) -> DecisionTree:
        self.take("(")
        head = self.take()
        if head == "leaf":
            count = self.natural()
            self.take(")")
            return DLeaf(count)
        if head != "node":
            raise ValueError(f"expected 'leaf' or 'node', found {head!r}")
        rule = self.rule_desc()
        left = self.tree()
        right = self.tree()
        self.take(")")
        return DNode(left, rule, right)

    def rule_desc(self) -> RuleKind | SceneSegment | None:
        tag = self.take()
        if tag == "axis":
            dim = self.natural()
            return AxisParallel(dim, self.real())
        if tag == "hyp":
            vals = self.reals_until_paren()
            if len(vals) < 2:
                raise ValueError("hyperplane needs at least one weight and a bias")
            return Hyperplane(tuple(vals[:-1]), vals[-1])
        if tag == "seg":
            x1, y1, x2, y2 = (self.real() for _ in range(4))
            return SceneSegment((x1, y1), (x2, y2))
        if tag == "cut":
            return None
        raise ValueError(f"unknown rule tag {tag!r}")


def parse(text: str) -> DecisionTree:
    parser = _Parser(_tokenize(text))
    tree = parser.tree()
    if parser.pos != len(parser.tokens):
        raise ValueError("trailing content after tree")
    return tree
