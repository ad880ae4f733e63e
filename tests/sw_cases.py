"""Shared dataset recipes for the Shapiro-Wilk reference comparison.

Each case is (label, family, mu_or_mean, scale_or_sigma, n, seed); the
datasets are rebuilt deterministically from the package's own seeded
samplers, so the frozen reference values in test_normality.py stay
valid as long as the samplers honor their seed contract (which the
distfit tests pin independently).
"""

from __future__ import annotations

from returndist.distfit import (
    LaplaceParams,
    NormalParams,
    Xoshiro256PlusPlus,
    sample_laplace,
    sample_normal,
)

SW_CASES = [
    (f"{family}-n{n}", family, loc, scale, n, seed_base + n)
    for n in (10, 50, 500, 2000)
    for family, loc, scale, seed_base in (
        ("normal", 0.0, 1.0, 1000),
        ("normal", 3.0, 0.5, 2000),
        ("laplace", 0.0, 1.0, 3000),
        ("laplace", -1.0, 2.0, 4000),
        ("uniform", 0.0, 1.0, 5000),
    )
]


def build_dataset(case: tuple) -> list[float]:
    _, family, loc, scale, n, seed = case
    if family == "normal":
        return sample_normal(n, NormalParams(mean=loc, sigma=scale), seed)
    if family == "laplace":
        return sample_laplace(n, LaplaceParams(mu=loc, scale=scale), seed)
    return Xoshiro256PlusPlus(seed)._floats(n)
