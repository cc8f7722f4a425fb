"""Regime-conditioned tracking-error budgeting: data handling, rolling
statistics, regime classification, overlay simulation, event studies, and
the inference utilities used to test them."""

from .events import (
    Trough,
    find_trough,
    omega_table,
    regret_table,
    vix_quintiles,
    vol_surprise_regression,
    window_sweep,
)
from .inference import (
    BootstrapSpec,
    circular_block_bootstrap,
    hac_ols,
    newey_west_mean_test,
    sharpe_equality_test,
    spearman,
)
from .metrics import (
    cagr,
    annualized_vol,
    drawdown_path,
    max_drawdown,
    realized_te,
    sharpe,
    summarize,
    te_policy_stats,
    wealth_path,
)
from .model import (
    GovernanceParams,
    RegimeParams,
    brute_force_optimum,
    compound_active_return,
    jensen_advantage,
    omega,
    optimal_te,
    optimal_theta,
    proposition_suite,
)
from .regime import (
    Regime,
    RegimePath,
    RegimeThresholds,
    classify,
    fit_markov_switching,
    percentile_thresholds,
    signal_agreement,
    smoothed_high_prob,
    weekly_returns,
)
from .rolling import (
    WindowSpec,
    moving_average,
    rolling_avg_pairwise_corr,
    rolling_corr,
    rolling_vol,
)
from .simulate import (
    OverlayPolicy,
    SimResult,
    benchmark_7030,
    fixed_mix,
    simulate_overlay,
)
from .timeseries import (
    AssetPanel,
    Series,
    SynthParams,
    TradingCalendar,
    ingest_csv,
    intersect_calendars,
    make_weekday_calendar,
    merge_series,
    prices_from_returns,
    returns_from_prices,
    synth_regime_panel,
)

__version__ = "0.1.0"
