"""A1 — ablation of the arrangement tree and early stopping inside SATREGIONS/MARKCELL.

DESIGN.md calls out two design choices worth ablating: (1) the arrangement
tree (§4) against a flat region scan, and (2) the early-stopping probe used by
MARKCELL (§5.1) against marking cells by exhaustive arrangement construction.
This benchmark quantifies (1) in terms of hyperplane-vs-region intersection
tests and wall-clock time on the same input, at a slightly larger scale than
Figure 18.
"""

from __future__ import annotations

import time

from repro.experiments import default_compas_dataset, format_table
from repro.geometry.arrangement import Arrangement
from repro.geometry.arrangement_tree import ArrangementTree
from repro.geometry.dual import hyperplanes_for_dataset


def _build_both(n_hyperplanes: int):
    dataset = default_compas_dataset(n=70, d=3, seed=0)
    hyperplanes = hyperplanes_for_dataset(dataset)[:n_hyperplanes]

    started = time.perf_counter()
    flat = Arrangement.build(hyperplanes, dimension=2)
    flat_seconds = time.perf_counter() - started

    started = time.perf_counter()
    tree = ArrangementTree(dimension=2)
    for hyperplane in hyperplanes:
        tree.insert(hyperplane)
    tree_seconds = time.perf_counter() - started
    return flat, flat_seconds, tree, tree_seconds


def test_ablation_arrangement_tree_tests_and_time(benchmark, once):
    flat, flat_seconds, tree, tree_seconds = once(benchmark, _build_both, 70)
    rows = [
        ["flat scan: intersection tests", flat.split_tests],
        ["flat scan: seconds", round(flat_seconds, 2)],
        ["arrangement tree: intersection tests", tree.split_tests],
        ["arrangement tree: seconds", round(tree_seconds, 2)],
        ["flat regions", flat.n_regions],
        ["tree regions", tree.n_regions],
    ]
    print("\n[Ablation A1] arrangement tree vs flat region scan (100 hyperplanes)")
    print(format_table(["quantity", "value"], rows))
    # The tree must do no more intersection tests than the flat scan.
    assert tree.split_tests <= flat.split_tests
