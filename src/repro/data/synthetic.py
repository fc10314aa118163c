"""Synthetic datasets that stand in for the paper's COMPAS and DOT data.

The paper evaluates on two real datasets that are not available offline:

* **COMPAS** (ProPublica, 6,889 individuals): 7 scoring attributes
  (``c_days_from_compas``, ``juv_other_count``, ``days_b_screening_arrest``,
  ``start``, ``end``, ``age``, ``priors_count``) and type attributes ``sex``,
  ``race``, ``age_binary`` and ``age_bucketized`` (§6.1).
* **DOT** flight on-time performance (1,322,024 records, Q1 2016): delay and
  taxi attributes with a ``carrier`` type attribute used for the diversity /
  sampling experiment (§5.4, §6.4).

The generators below reproduce the properties the experiments actually rely
on — attribute names, value ranges after min-max normalisation, documented
group proportions (≈80 % male, ≈50 % African-American, the paper's age
buckets, the carrier market shares), and the mild correlation between scoring
attributes and protected groups that makes some orderings unfair and others
fair.  Absolute values differ from the originals, but every algorithm in the
library only consumes (numeric scoring attributes, categorical types), so the
code paths exercised are identical.
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import Dataset
from repro.exceptions import ConfigurationError

__all__ = [
    "COMPAS_SCORING_ATTRIBUTES",
    "DOT_SCORING_ATTRIBUTES",
    "DOT_CARRIER_SHARES",
    "make_compas_like",
    "make_dot_like",
    "make_admissions_like",
    "make_uniform_dataset",
    "make_correlated_dataset",
]

#: Scoring attributes of the COMPAS dataset, in the order the paper lists them
#: (§6.1).  Experiments that use ``d`` attributes take the first ``d`` names.
COMPAS_SCORING_ATTRIBUTES: tuple[str, ...] = (
    "c_days_from_compas",
    "juv_other_count",
    "days_b_screening_arrest",
    "start",
    "end",
    "age",
    "priors_count",
)

#: Scoring attributes used for the DOT experiment (§6.4).
DOT_SCORING_ATTRIBUTES: tuple[str, ...] = ("departure_delay", "arrival_delay", "taxi_in")

#: Approximate market shares of the four major US carriers in the DOT data,
#: with the remainder spread over ten smaller carriers.  The §6.4 constraint is
#: stated over the four majors (WN, DL, AA, UA).
DOT_CARRIER_SHARES: dict[str, float] = {
    "WN": 0.22,
    "DL": 0.17,
    "AA": 0.15,
    "UA": 0.10,
    "OO": 0.08,
    "EV": 0.07,
    "B6": 0.05,
    "AS": 0.04,
    "NK": 0.03,
    "MQ": 0.03,
    "F9": 0.02,
    "HA": 0.02,
    "VX": 0.01,
    "US": 0.01,
}


def _require_positive(n: int, argument: str = "n") -> None:
    if n <= 0:
        raise ConfigurationError(f"{argument} must be a positive integer, got {n}")


def _clip_unit(values: np.ndarray) -> np.ndarray:
    """Clip to [0, 1]; the data model requires non-negative scoring values."""
    return np.clip(values, 0.0, 1.0)


def make_compas_like(
    n: int = 6889,
    seed: int | None = 0,
    disparity: float = 0.09,
) -> Dataset:
    """Generate a COMPAS-like dataset.

    Parameters
    ----------
    n:
        Number of individuals; defaults to the size of the real dataset.
    seed:
        Seed for the random generator (deterministic by default).
    disparity:
        Size of the mean shift applied to the scoring attributes of the
        protected groups.  The default of 0.09 produces the behaviour the
        paper reports for the real COMPAS data: roughly half of random d=3
        queries violate the default FM1 constraint (the paper observed 48 of
        100), and satisfactory functions exist close to every query.

    Returns
    -------
    Dataset
        Normalised scores in [0, 1] with type attributes ``sex``, ``race``,
        ``age_binary`` and ``age_bucketized`` whose marginals follow §6.1:
        80 % male, 50 % African-American / 35 % Caucasian / 15 % other,
        ~60 % aged 35 or younger, and the 42 / 34 / 24 % age buckets.
    """
    _require_positive(n)
    if not 0.0 <= disparity <= 0.5:
        raise ConfigurationError("disparity must lie in [0, 0.5]")
    rng = np.random.default_rng(seed)

    sex = rng.choice(np.array(["male", "female"]), size=n, p=[0.80, 0.20])
    race = rng.choice(
        np.array(["African-American", "Caucasian", "Other"]), size=n, p=[0.50, 0.35, 0.15]
    )
    # Age in years; the binary split at 35 gives ~60% young as in §6.2, and the
    # bucketised split (<=30 / 31-40 / >40) approximates the 42/34/24 buckets.
    age_years = np.floor(18 + 42 * rng.beta(1.6, 2.6, size=n)).astype(int)
    age_binary = np.where(age_years <= 35, "35_or_younger", "over_35")
    age_bucketized = np.select(
        [age_years <= 30, age_years <= 40], ["30_or_younger", "31_to_40"], default="over_40"
    )

    protected_race = (race == "African-American").astype(float)
    protected_sex = (sex == "male").astype(float)
    young = (age_binary == "35_or_younger").astype(float)

    def skewed(base_alpha: float, base_beta: float, group: np.ndarray, shift: float) -> np.ndarray:
        """A [0, 1] column whose mean is shifted upward for members of ``group``."""
        raw = rng.beta(base_alpha, base_beta, size=n)
        return _clip_unit(raw + shift * group + rng.normal(0.0, 0.02, size=n))

    # Scoring attributes, already min-max shaped into [0, 1].  The protected
    # groups receive slightly higher "risk-like" scores so that weight vectors
    # emphasising those attributes over-select them at the top — the disparity
    # the paper's fairness constraints are designed to catch.
    c_days_from_compas = skewed(2.0, 5.0, protected_race, disparity)
    # Juvenile counts are mildly higher for the younger group and for the
    # protected race group (as in the real data), but mildly enough that a
    # ranking by juvenile counts alone stays close to the dataset composition.
    juv_other_count = skewed(1.5, 8.0, 0.25 * young + 0.35 * protected_race, disparity)
    days_b_screening = skewed(2.5, 2.5, protected_sex, disparity * 0.5)
    start = skewed(2.0, 3.0, protected_race, disparity * 0.2)
    end = skewed(3.0, 2.0, protected_race, -disparity * 0.4)
    # ``age`` is the raw age normalised; the paper inverts it (lower is better)
    # before ranking, which Dataset.normalized(invert=["age"]) reproduces.  We
    # store the already-inverted "youthfulness" so larger remains better.
    age_attr = _clip_unit(
        1.0 - (age_years - age_years.min()) / max(1, age_years.max() - age_years.min())
    )
    priors_count = skewed(1.8, 6.0, protected_race, disparity)

    scores = np.column_stack(
        [
            c_days_from_compas,
            juv_other_count,
            days_b_screening,
            start,
            end,
            age_attr,
            priors_count,
        ]
    )
    return Dataset(
        scores=scores,
        scoring_attributes=list(COMPAS_SCORING_ATTRIBUTES),
        types={
            "sex": sex,
            "race": race,
            "age_binary": age_binary,
            "age_bucketized": age_bucketized,
        },
        name=f"compas_like(n={n})",
    )


def make_dot_like(n: int = 1_322_024, seed: int | None = 0) -> Dataset:
    """Generate a DOT-like flight performance dataset.

    Scores are "on-time goodness" values in [0, 1] derived from exponential
    delay distributions (larger is better, i.e. smaller delay), with carriers
    drawn according to :data:`DOT_CARRIER_SHARES` and a small per-carrier
    performance offset so that carrier proportions at the top of a ranking
    deviate from their dataset shares — the condition the §6.4 diversity
    constraint checks.
    """
    _require_positive(n)
    rng = np.random.default_rng(seed)
    carriers = np.array(list(DOT_CARRIER_SHARES))
    shares = np.array(list(DOT_CARRIER_SHARES.values()))
    shares = shares / shares.sum()
    carrier = rng.choice(carriers, size=n, p=shares)

    # Per-carrier, per-attribute delay multipliers: a carrier that is punctual
    # at departure may be slow at taxi-in and vice versa, so different weight
    # vectors favour different carriers — the trade-off the §6.4 diversity
    # constraint exploits when looking for satisfactory functions.
    base_offsets = np.linspace(0.8, 1.3, len(carriers))
    offsets_per_attribute = {
        "departure": dict(zip(carriers, base_offsets)),
        "arrival": dict(zip(carriers, np.roll(base_offsets, 5))),
        "taxi": dict(zip(carriers, np.roll(base_offsets, 9))),
    }
    departure_multiplier = np.array([offsets_per_attribute["departure"][c] for c in carrier])
    arrival_multiplier = np.array([offsets_per_attribute["arrival"][c] for c in carrier])
    taxi_multiplier = np.array([offsets_per_attribute["taxi"][c] for c in carrier])

    departure_delay = rng.exponential(scale=0.18, size=n) * departure_multiplier
    arrival_delay = _clip_unit(
        rng.exponential(scale=0.15, size=n) * arrival_multiplier
        + 0.3 * departure_delay
    )
    taxi_in = rng.exponential(scale=0.15, size=n) * (0.7 + 0.3 * taxi_multiplier)

    scores = np.column_stack(
        [
            _clip_unit(1.0 - departure_delay),
            _clip_unit(1.0 - arrival_delay),
            _clip_unit(1.0 - taxi_in),
        ]
    )
    return Dataset(
        scores=scores,
        scoring_attributes=list(DOT_SCORING_ATTRIBUTES),
        types={"carrier": carrier},
        name=f"dot_like(n={n})",
    )


def make_admissions_like(n: int = 2000, seed: int | None = 0, gap: float = 0.08) -> Dataset:
    """Generate the college-admissions scenario of the paper's Example 1.

    Two scoring attributes, normalised ``gpa`` and ``sat``, and a binary
    ``gender`` type attribute.  Mirroring the SAT gender gap the paper cites,
    the ``sat`` column of the ``female`` group is shifted down by ``gap`` on
    the normalised scale while ``gpa`` is shifted slightly up, so functions
    that weight SAT heavily under-select women at the top.
    """
    _require_positive(n)
    rng = np.random.default_rng(seed)
    gender = rng.choice(np.array(["female", "male"]), size=n, p=[0.5, 0.5])
    female = (gender == "female").astype(float)
    gpa = _clip_unit(rng.beta(5.0, 2.0, size=n) + 0.03 * female)
    sat = _clip_unit(rng.beta(4.0, 2.5, size=n) - gap * female)
    return Dataset(
        scores=np.column_stack([gpa, sat]),
        scoring_attributes=["gpa", "sat"],
        types={"gender": gender},
        name=f"admissions_like(n={n})",
    )


def make_uniform_dataset(
    n: int,
    d: int,
    seed: int | None = 0,
    group_attribute: str = "group",
    group_labels: tuple[str, ...] = ("A", "B"),
    group_probabilities: tuple[float, ...] | None = None,
) -> Dataset:
    """Generate uniformly random scores with an independent group label.

    A convenient neutral workload for unit tests and micro-benchmarks where no
    particular disparity structure is wanted.
    """
    _require_positive(n)
    _require_positive(d, "d")
    if group_probabilities is None:
        group_probabilities = tuple(1.0 / len(group_labels) for _ in group_labels)
    if len(group_probabilities) != len(group_labels):
        raise ConfigurationError("group_probabilities must match group_labels in length")
    if abs(sum(group_probabilities) - 1.0) > 1e-9:
        raise ConfigurationError("group_probabilities must sum to 1")
    rng = np.random.default_rng(seed)
    scores = rng.random((n, d))
    groups = rng.choice(np.array(group_labels), size=n, p=list(group_probabilities))
    return Dataset(
        scores=scores,
        scoring_attributes=[f"attr_{i}" for i in range(d)],
        types={group_attribute: groups},
        name=f"uniform(n={n}, d={d})",
    )


def make_correlated_dataset(
    n: int,
    d: int,
    seed: int | None = 0,
    disparity: float = 0.2,
    minority_share: float = 0.3,
) -> Dataset:
    """Generate scores correlated with a binary protected group.

    Members of the ``minority`` group have every attribute shifted down by
    ``disparity`` on average, producing datasets where many weight vectors are
    unfair — useful for stress-testing satisfactory-region discovery.
    """
    _require_positive(n)
    _require_positive(d, "d")
    if not 0.0 < minority_share < 1.0:
        raise ConfigurationError("minority_share must be in (0, 1)")
    rng = np.random.default_rng(seed)
    group = rng.choice(
        np.array(["minority", "majority"]), size=n, p=[minority_share, 1.0 - minority_share]
    )
    minority = (group == "minority").astype(float)[:, None]
    scores = _clip_unit(rng.random((n, d)) - disparity * minority)
    return Dataset(
        scores=scores,
        scoring_attributes=[f"attr_{i}" for i in range(d)],
        types={"group": group},
        name=f"correlated(n={n}, d={d}, disparity={disparity})",
    )
