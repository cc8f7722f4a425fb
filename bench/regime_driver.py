"""The `regime_em` operation: what demos/regime_recovery.py does, at the
benchmark's size. No CLI command reaches the Markov-switching EM, so the
benchmark drives it here.

    python3 bench/regime_driver.py SEED OUT_JSON

The benchmark calls run() from its own process preamble (run.EM_MAIN), which
first marks the end of the dynte import for setup_s.

Simulates the demo's synthetic panel (seed 7) at 6552 days, takes weekly
returns of the spread (1311 weeks) and fits the two-state model with 20
restarts whose starting points are drawn from SEED. The panel stays fixed
because EM iterations to convergence depend on the data: from one panel
seed to the next the fit's cost moves by half, while over the starting
points it stays within a few percent. The fit goes to OUT_JSON; floats are
written with repr, so reruns are byte-identical.
"""

from __future__ import annotations

import datetime as dt
import json
import sys

DAYS = 6552
PANEL_SEED = 7
START = dt.date(2000, 1, 3)
RESTARTS = 20


def run(seed: int, out_path: str) -> None:
    # module attributes are looked up at call time, so the traced pass sees
    # its wrappers
    from dynte import regime, timeseries

    params = timeseries.SynthParams(horizon=DAYS, seed=PANEL_SEED, start_date=START)
    panel, _states = timeseries.synth_regime_panel(params)
    weekly = regime.weekly_returns(panel["SPREAD"])
    m = regime.fit_markov_switching(weekly, restarts=RESTARTS, seed=seed)
    fit = {
        "weeks": len(weekly),
        "mu": list(m.mu),
        "var": list(m.var),
        "transition": m.transition.tolist(),
        "initial": list(m.initial),
        "loglik": m.loglik,
        "trace": list(m.trace),
        "converged": m.converged,
        "n_iter": m.n_iter,
    }
    with open(out_path, "w") as fh:
        json.dump(fit, fh, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: regime_driver.py SEED OUT_JSON")
    run(int(sys.argv[1]), sys.argv[2])
