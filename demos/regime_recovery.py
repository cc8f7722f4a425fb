"""Fit the two-state switching model on synthetic weekly returns and
compare the recovered parameters with the planted ones."""

import numpy as np

from dynte.regime import fit_markov_switching, smoothed_high_prob, weekly_returns
from dynte.timeseries import SynthParams, synth_regime_panel

SEED = 7


def main():
    params = SynthParams(horizon=7560, seed=SEED)  # 30 years of trading days
    panel, states = synth_regime_panel(params)
    weekly = weekly_returns(panel["SPREAD"])

    m = fit_markov_switching(weekly, restarts=8, seed=SEED)
    print(f"converged: {m.converged} after {m.n_iter} iterations, "
          f"loglik {m.loglik:.2f}")
    print(f"means     low {m.mu[0]:+.5f}  high {m.mu[1]:+.5f}")
    print(f"stdevs    low {np.sqrt(m.var[0]):.5f}  high {np.sqrt(m.var[1]):.5f}")
    print(f"stay prob low {m.transition[0][0]:.3f}  high {m.transition[1][1]:.3f}")

    # daily planted states -> weekly majority label, just for a rough check
    prob = smoothed_high_prob(m, weekly)
    daily_high = states == 1
    idx = [panel.calendar.index(d) for d in weekly.calendar.days]
    weekly_true = np.array([daily_high[max(0, i - 4): i + 1].mean() > 0.5
                            for i in idx])
    concordance = np.mean((prob.values > 0.5) == weekly_true)
    print(f"smoothed-state concordance vs planted path: {concordance:.1%}")


if __name__ == "__main__":
    main()
