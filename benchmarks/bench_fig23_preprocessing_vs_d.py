"""E13 / Figure 23 — per-step preprocessing times of the §5 pipeline vs d (n = ``N_ITEMS``).

Paper result: every step gets more expensive as the number of scoring
attributes grows (more non-dominated pairs, higher-dimensional per-cell
arrangements), with the mark-cell step taking the majority of the total time
throughout.  The benchmark reproduces the per-step series for d = 3..5.
"""

from __future__ import annotations

from repro.experiments import experiment_fig23_preprocessing_vs_d, format_sweep

#: Dataset size of every d.
N_ITEMS = 40


def test_fig23_preprocessing_steps_vs_d(benchmark, once):
    sweep = once(
        benchmark,
        experiment_fig23_preprocessing_vs_d,
        d_values=(3, 4, 5),
        n_items=N_ITEMS,
        n_cells=100,
        max_hyperplanes=40,
    )
    print(f"\n[Figure 23] preprocessing step times vs d (n={N_ITEMS})")
    print(format_sweep(sweep))
    totals = sweep.series["total_seconds"].ys
    marks = sweep.series["mark_cell_seconds"].ys
    # Shape: mark-cell dominates the total at every d.
    assert all(mark >= 0.4 * total for mark, total in zip(marks, totals))
