"""Regime-conditioned tracking-error budgeting: data handling, rolling
statistics, regime classification, overlay simulation, event studies, and
the inference utilities used to test them."""
