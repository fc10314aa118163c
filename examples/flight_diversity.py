"""Diversity example at scale: carrier diversity in flight rankings (DOT-like data).

Section 5.4 / 6.4 of the paper shows that for very large datasets the offline
phase can run on a uniform sample: a function that is satisfactory on the
sample is (empirically always) satisfactory on the full data.  The "fairness"
oracle here is really a *diversity* constraint — no single major carrier may
dominate the top 10 % of an on-time-performance ranking — illustrating that
the machinery is agnostic to what the binary oracle means.

Run with::

    python examples/flight_diversity.py
"""

from __future__ import annotations

import time

from repro import ApproxConfig, LinearScoringFunction, MultiAttributeOracle, ProportionalOracle
from repro.core import create_engine, validate_index_on_dataset
from repro.data import make_dot_like
from repro.ranking import topk

MAJOR_CARRIERS = ("WN", "DL", "AA", "UA")


def main() -> None:
    # A DOT-like dataset; the real one has 1.3M rows — scale n up if you have a
    # few minutes to spare, the code path is identical.
    dataset = make_dot_like(n=100_000, seed=5)
    print(f"dataset: {dataset.n_items} flights, attributes {list(dataset.scoring_attributes)}")
    shares = dataset.group_proportions("carrier")
    print("major carrier shares:", {c: round(shares[c], 3) for c in MAJOR_CARRIERS})

    # Diversity constraint (§6.4): each major carrier at most 5% above its
    # dataset share among the top 10% of the ranking.
    oracle = MultiAttributeOracle(
        [
            ProportionalOracle.at_most_share_plus_slack(dataset, "carrier", carrier, k=0.10, slack=0.05)
            for carrier in MAJOR_CARRIERS
        ],
        k=0.10,
    )

    # Offline phase on a uniform sample (the paper uses 1,000 of 1.3M rows).
    config = ApproxConfig(n_cells=256, max_hyperplanes=120, sample_size=400, sample_seed=5)
    started = time.perf_counter()
    engine = create_engine(dataset, oracle, config).preprocess()
    index = engine.index
    print(f"\npreprocessing on a {engine.preprocessing_dataset.n_items}-row sample took "
          f"{time.perf_counter() - started:.1f}s "
          f"({index.n_marked_cells}/{index.n_cells} cells marked directly)")

    # Validate the sample-derived functions against the full dataset (§6.4).
    report = validate_index_on_dataset(index, dataset, oracle)
    print(
        f"validation on the full data: {report.n_satisfactory}/{report.n_functions_checked} "
        f"assigned functions satisfactory ({report.fraction_satisfactory:.0%})"
    )

    # Online phase: a user proposes to rank flights mostly by departure delay.
    proposal = LinearScoringFunction((0.8, 0.1, 0.1))
    answer = engine.suggest(proposal)
    k = int(0.10 * dataset.n_items)

    def carrier_counts(function: LinearScoringFunction) -> dict:
        counts = topk.group_counts_at_k(dataset, function.order(dataset), "carrier", k)
        return {c: counts.get(c, 0) for c in MAJOR_CARRIERS}

    print(f"\nproposal {proposal.weights}: major-carrier counts in top-{k}: {carrier_counts(proposal)}")
    if answer.satisfactory:
        print("  the proposal already satisfies the diversity constraint")
    else:
        weights = tuple(round(value, 4) for value in answer.function.weights)
        print(
            f"  suggested weights {weights} (angular distance {answer.angular_distance:.4f} rad); "
            f"counts become {carrier_counts(answer.function)}"
        )


if __name__ == "__main__":
    main()
