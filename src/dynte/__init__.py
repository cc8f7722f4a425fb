"""Regime-conditioned tracking-error budgeting: data handling, rolling
statistics, regime classification, overlay simulation, event studies, and
the inference utilities used to test them.

Its settings and result types are records from `dynte._record`, which
builds them without `dataclasses` so that each process imports dynte
about 30 ms sooner."""
