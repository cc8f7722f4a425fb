# Sampling checks for the inference layer: does the Newey-West t keep its
# size on iid noise, does the block-bootstrap CI cover the true Sharpe at
# the advertised rate, and does the Sharpe-equality z see through a gap.

import math

import numpy as np

from dynte.inference import (
    BootstrapSpec,
    circular_block_bootstrap,
    newey_west_mean_test,
    sharpe_equality_test,
)

SEEDS = 400


def main():
    rng = np.random.default_rng(0)

    inside = 0
    for _ in range(SEEDS):
        t = newey_west_mean_test(0.01 * rng.standard_normal(5000), bandwidth=21).t
        inside += abs(t) < 2.0
    print(f"NW |t| < 2 on iid noise: {inside}/{SEEDS} ({inside / SEEDS:.1%})")

    mu, sd = 0.0003, 0.01
    truth = mu * 252.0 / (sd * math.sqrt(252.0))
    spec = BootstrapSpec(block=63, iterations=1000, seed=0)
    covered = 0
    for _ in range(SEEDS):
        r = mu + sd * rng.standard_normal(2000)
        boot = circular_block_bootstrap(r, spec)
        covered += boot.ci_lo <= truth <= boot.ci_hi
    print(f"bootstrap 95% CI covers true sharpe: {covered}/{SEEDS} "
          f"({covered / SEEDS:.1%})")

    hits = 0
    for _ in range(SEEDS):
        a = 0.2 * sd + sd * rng.standard_normal(5000)
        b = 1.0 * sd + sd * rng.standard_normal(5000)
        hits += sharpe_equality_test(a, b).p < 0.05
    print(f"sharpe-equality rejects 0.2 vs 1.0: {hits}/{SEEDS} ({hits / SEEDS:.1%})")

    x = 0.001 + 0.01 * rng.standard_normal(4000)
    print(f"z on a series vs its doubling: {sharpe_equality_test(x, 2 * x).z:.2e}")


if __name__ == "__main__":
    main()
