"""Seeded input generators for the benchmark workloads.

Every generator takes a ``numpy.random.Generator`` and writes CSV files; the
program under test sees only those files. The same seed gives the same bytes.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

# --- network -----------------------------------------------------------------
# Why: one large network makes per-contrast work in study_data (parsing,
# complete_intervals with one normal quantile per row) and tcc dominate `rank`,
# contains one large Davidson fit, and gives `compare` a 100-treatment table
# whose prob_best draws nsim x 100 values at once (time and peak memory).
#
# The design is connected by construction: contrast k pairs treatment
# i = k mod n with i + d (mod n), where the offset d cycles through 1..n/2.
# True log-abilities rise by a small step along the cycle, so neighbours
# (d = 1) almost always tie under the MCID of 1.2 and the tie edges alone make
# the preference graph strongly connected; wider offsets produce wins. A
# random-pair design can leave a treatment that never wins or ties, which
# fails the Ford check and makes `rank` exit 2.

NETWORK_MCID = 1.2
_Z95 = 1.959963984540054


def network_labels(n_treatments: int) -> list[str]:
    return [f"T{i:03d}" for i in range(n_treatments)]


def _network_abilities(n_treatments: int) -> np.ndarray:
    return np.linspace(0.0, 1.0, n_treatments)


def write_network(rng: np.random.Generator, directory: Path, n_treatments: int,
                  n_contrasts: int) -> dict[str, Path]:
    """Contrast table plus the matching basic-form league table and covariance.

    Half the contrast rows carry only ``se``, half only ``lower``/``upper``;
    each row has a numeric covariate ``year`` and a categorical ``region``.
    """
    labels = network_labels(n_treatments)
    lam = _network_abilities(n_treatments)
    half = n_treatments // 2
    paths = {
        "contrasts": directory / "network_contrasts.csv",
        "league": directory / "network_league.csv",
        "covariance": directory / "network_covariance.csv",
    }
    se = rng.uniform(0.08, 0.25, n_contrasts)
    noise = rng.standard_normal(n_contrasts)
    years = rng.integers(1990, 2024, n_contrasts)
    regions = rng.integers(0, 4, n_contrasts)
    flip = rng.random(n_contrasts) < 0.5
    with open(paths["contrasts"], "w", encoding="utf-8", newline="") as stream:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(["study", "treat1", "treat2", "effect", "se", "lower", "upper",
                         "year", "region"])
        for k in range(n_contrasts):
            i = k % n_treatments
            j = (i + 1 + (k // n_treatments) % half) % n_treatments
            if flip[k]:
                i, j = j, i
            effect = lam[i] - lam[j] + noise[k] * se[k]
            if k % 2 == 0:
                interval = [repr(float(se[k])), "", ""]
            else:
                interval = ["", repr(float(effect - _Z95 * se[k])),
                            repr(float(effect + _Z95 * se[k]))]
            writer.writerow([f"s{k:05d}", labels[i], labels[j], repr(float(effect)),
                             *interval, int(years[k]), f"region{regions[k]}"])

    # Basic-form estimates against an external baseline, with a valid
    # (positive definite) covariance: equicorrelated with a shared component.
    sd = rng.uniform(0.05, 0.15, n_treatments)
    rho = 0.3
    cov = rho * np.outer(sd, sd)
    np.fill_diagonal(cov, sd**2)
    estimates = lam + rng.multivariate_normal(np.zeros(n_treatments), cov)
    with open(paths["league"], "w", encoding="utf-8", newline="") as stream:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(["treat", "estimate_vs_ref", "se"])
        for label, estimate, s in zip(labels, estimates, sd):
            writer.writerow([label, repr(float(estimate)), repr(float(s))])
    with open(paths["covariance"], "w", encoding="utf-8", newline="") as stream:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow([""] + labels)
        for label, row in zip(labels, cov):
            writer.writerow([label] + [repr(float(v)) for v in row])
    return paths


# --- partition_planted ----------------------------------------------------------
# Why: `partition --records` on a planted tree spends almost all its time in
# about 550 small fits, most of them in the continuous best_split on `year`
# (quadratic in the records), and in the permutation stability_test. With `network` it separates small-fit from
# large-fit uses of davidson.
#
# Planted structure: the hierarchy A > B > C > D > E reverses at
# REVERSAL_YEAR, so the root split lands on `year` near it. After the
# reversal, settings s4-s6 get a far stronger, different order: a planted
# split on `setting` on the late side. The late side is kept to about an
# eighth of the records: at the root the permutation p-value of `year` cannot
# fall below 1/(permutations + 1), so the chi-square test of `setting` must
# stay weaker there, which a small late side ensures while the strong effect
# still makes the late node split on `setting`. `dose` carries no signal and
# takes a few discrete levels. Years, settings and doses are balanced designs,
# shuffled, so the number of split candidates does not depend on the seed.

PLANTED_TREATMENTS = ("A", "B", "C", "D", "E")
YEARS = np.round(np.arange(1995.0, 2020.0, 0.1), 1)
REVERSAL_YEAR = 2017.0
PLANTED_WINDOW = (2016.0, 2018.0)  # accepted root thresholds on `year`
_BEFORE = np.array([1.0, 0.5, 0.0, -0.5, -1.0])
_AFTER_S123 = _BEFORE[::-1].copy()
_AFTER_S456 = np.array([1.5, -3.0, 0.0, 3.0, -1.5])
_SETTINGS = tuple(f"s{k}" for k in range(1, 7))
_DOSES = (5.0, 10.0, 20.0, 40.0, 80.0)
_NU = 0.5


def write_planted_records(rng: np.random.Generator, path: Path, n_records: int) -> None:
    """Preference records drawn from the tie-extended model with planted covariates."""
    n_t = len(PLANTED_TREATMENTS)
    k = np.arange(n_records)
    year = rng.permutation(YEARS[k * len(YEARS) // n_records])
    setting = rng.permutation(k % len(_SETTINGS))
    dose = rng.permutation(k % len(_DOSES))
    first = rng.integers(0, n_t, n_records)
    second = (first + 1 + rng.integers(0, n_t - 1, n_records)) % n_t
    u = rng.random(n_records)
    with open(path, "w", encoding="utf-8", newline="") as stream:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(["study", "treat1", "treat2", "verdict", "year", "setting", "dose"])
        for r in range(n_records):
            if year[r] <= REVERSAL_YEAR:
                lam = _BEFORE
            elif setting[r] < 3:
                lam = _AFTER_S123
            else:
                lam = _AFTER_S456
            a, b = int(first[r]), int(second[r])
            pa, pb = math.exp(lam[a]), math.exp(lam[b])
            tie = _NU * math.sqrt(pa * pb)
            total = pa + pb + tie
            if u[r] < pa / total:
                verdict = "first_wins"
            elif u[r] < (pa + pb) / total:
                verdict = "second_wins"
            else:
                verdict = "tie"
            writer.writerow([f"r{r:04d}", PLANTED_TREATMENTS[a], PLANTED_TREATMENTS[b],
                             verdict, repr(float(year[r])), _SETTINGS[setting[r]],
                             repr(_DOSES[dose[r]])])
