"""Quickstart: design a fair two-attribute ranking scheme in a dozen lines.

This mirrors the paper's Figure 1: a dataset with two scoring attributes and a
binary type attribute, a top-k parity constraint, a proposed set of weights
that violates it, and the system's suggestion of the closest weights that do
not.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro import FairRankingDesigner, LinearScoringFunction, ProportionalOracle, TwoDConfig
from repro.data import make_compas_like
from repro.fairness import group_share_at_k


def main() -> None:
    # 1. A dataset: scoring attributes in [0, 1] plus protected type attributes.
    #    (A synthetic stand-in for COMPAS; repro.data.synthetic explains the substitution.)
    dataset = make_compas_like(n=500, seed=7).project(
        ["c_days_from_compas", "juv_other_count"]
    )
    print(f"dataset: {dataset.n_items} items, attributes {list(dataset.scoring_attributes)}")
    print(f"race composition: {dataset.group_proportions('race')}")

    # 2. A fairness oracle: at most 10% above the dataset share of
    #    African-American individuals among the top-ranked 30%.
    oracle = ProportionalOracle.at_most_share_plus_slack(
        dataset, "race", "African-American", k=0.30, slack=0.10
    )
    print(f"constraint: {oracle.describe()}")

    # 3. Offline preprocessing: index the satisfactory regions of weight space.
    #    (TwoDConfig selects the exact §3 ray-sweep pipeline; omitting the
    #    config auto-picks it for two scoring attributes.)
    designer = FairRankingDesigner(dataset, oracle, TwoDConfig()).preprocess()

    # 4. Online: propose weights; accept them or take the suggested repair.
    proposal = LinearScoringFunction((0.7, 0.3))
    result = designer.suggest(proposal)
    k = int(0.30 * dataset.n_items)

    share_before = group_share_at_k(
        dataset, proposal.order(dataset), "race", "African-American", k
    )
    print(f"\nproposed weights {proposal.weights}")
    print(f"  African-American share of top-{k}: {share_before:.1%}")
    if result.satisfactory:
        print("  the proposal already satisfies the constraint — nothing to change")
    else:
        share_after = group_share_at_k(
            dataset, result.function.order(dataset), "race", "African-American", k
        )
        print("  the proposal violates the constraint")
        print(
            f"  suggested weights {tuple(round(w, 4) for w in result.function.weights)} "
            f"(angular distance {result.angular_distance:.4f} rad, "
            f"cosine similarity {result.cosine_similarity():.4f})"
        )
        print(f"  African-American share of top-{k} under the suggestion: {share_after:.1%}")


if __name__ == "__main__":
    main()
