"""Exact decision-tree optimization over point-defined splitting rules."""

from .data import Dataset, Point, Sample, dimension, load_csv, make_dataset
from .rules import (
    EPS,
    AncestryMatrix,
    AxisParallel,
    Hyperplane,
    Rule,
    ancestry_matrix,
    ancestry_tables,
    classify,
    hyperplane,
    hyperplane_from_points,
    hyperplanes_from_points,
    plane_safe,
    row_masks,
    sign_table,
)
from .rule_systems import (
    MatrixDim,
    SceneSegment,
    enumerate_axis_rules,
    enumerate_hyperplane_rules,
    enumerate_surface2_rules,
    lift_dataset,
    lift_degree2,
    split_segments,
    splits_bsp,
    splits_mcmp,
)
from .trees import (
    LEAF,
    DecisionTree,
    DLeaf,
    DNode,
    depth,
    leaves,
    node_count,
)
from .generator import (
    count_tree_shapes,
    permutation_costs,
)
from .solver import (
    CHAIN_COST,
    LEAF_BALANCE,
    MISCLASSIFICATION,
    TREE_SIZE,
    Objective,
    SolveConstraints,
    SolveStats,
    bsp_tree_from_order,
    majority_label,
    misclassification_cost,
    parenthesization,
    solve,
    solve_bsp,
    solve_kd,
    solve_mcmp,
    tree_cost,
)
from .treefmt import parse, serialize
