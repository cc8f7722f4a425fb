"""dynte's record classes against the stdlib dataclasses they stand in for.

Each test builds a `dataclasses.dataclass` twin of a real dynte class, with
the same name, fields, defaults and methods, and checks that both behave
alike: construction and its TypeErrors, __post_init__, repr, ==, != and
hash, frozen assignment and deletion, init=False fields and
cached_property.
"""

import ast
import dataclasses
import datetime as dt
import os
import subprocess
import sys
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest

from dynte.cli import Market
from dynte.metrics import MetricsReport
from dynte.model import GovernanceParams
from dynte.regime import RegimePath, RegimeThresholds
from dynte.simulate import OverlayPolicy
from dynte.timeseries import UNIT_LEVEL, AssetPanel, Series, TradingCalendar

SRC = Path(__file__).resolve().parents[1] / "src"

# what the record decorator (or dataclass) adds to a class body
GENERATED = {"__init__", "__repr__", "__eq__", "__hash__", "__setattr__", "__delattr__",
             "__dict__", "__weakref__"}


def twin(real, frozen, no_init=()):
    """A stdlib dataclass with `real`'s qualified name, fields, defaults and
    methods; `no_init` names its field(init=False) fields."""
    ns = {k: v for k, v in vars(real).items() if k not in GENERATED}
    ns["__qualname__"] = real.__qualname__
    ns.update({name: dataclasses.field(init=False) for name in no_init})
    return dataclasses.dataclass(frozen=frozen)(type(real.__name__, (), ns))


def both_raise(exc_type, real, std, *args, **kwargs):
    """Call real and std alike; both must raise exc_type. Returns the two
    messages from the method name on (3.10 leaves the class name out)."""
    with pytest.raises(exc_type) as r:
        real(*args, **kwargs)
    with pytest.raises(exc_type) as s:
        std(*args, **kwargs)
    tail = [str(e.value).split("__init__() ", 1)[-1] for e in (r, s)]
    return tail[0], tail[1]


def calendar():
    """Six weekdays: Monday 2024-01-01 to Monday 2024-01-08."""
    monday = dt.date(2024, 1, 1)
    return TradingCalendar([monday + dt.timedelta(days=i) for i in (0, 1, 2, 3, 4, 7)])


def level(cal, values):
    return Series(cal, np.asarray(values, dtype=float), UNIT_LEVEL)


@pytest.mark.parametrize("real, cases", [
    (MetricsReport, [((0.05, 0.1, 0.5, 0.2, 0.25), {}), ((0.05, 0.1, 0.5, 0.2, 0.25, 0.02), {}),
                     ((), {"cagr": 0.05, "vol": 0.1, "sharpe": 0.5, "max_drawdown": 0.2,
                           "cagr_over_maxdd": 0.25, "te_sigma": 0.01}),
                     ((0.05, 0.1, 0.5, 0.2, 0.25), {"te_level": None}),
                     ((0.07, 0.1, 0.7, 0.2, 0.35), {})]),
    (OverlayPolicy, [((0.005, 0.02, 0.05, 0.25), {}), ((0.02, 0.02, 0.02, 0.25), {}),
                     ((0.005, 0.02, 0.05, 0.25, 0.03), {}),
                     ((0.005, 0.02), {"target_high": 0.05, "theta_cap": 0.25,
                                      "te_ceiling": 0.03})]),
])
def test_repr_eq_and_hash_match_the_stdlib(real, cases):
    std = twin(real, frozen=True)
    for a_args, a_kw in cases:
        r, s = real(*a_args, **a_kw), std(*a_args, **a_kw)
        assert repr(r) == repr(s)
        assert hash(r) == hash(s)
        assert (r == s) is False and (r != s) is True  # another class is never equal
        for b_args, b_kw in cases:
            r2, s2 = real(*b_args, **b_kw), std(*b_args, **b_kw)
            assert (r == r2) == (s == s2)
            assert (r != r2) == (s != s2)
            if r == r2:
                assert hash(r) == hash(r2)


def test_bad_arguments_raise_the_stdlib_type_errors():
    calls = [
        (OverlayPolicy, (0.01, 0.02, 0.05), {}),            # missing one
        (OverlayPolicy, (0.01, 0.02, 0.05, 0.25, None, 1), {}),   # too many, with defaults
        (OverlayPolicy, (0.01,), {"target_low": 0.01}),            # repeated
        (OverlayPolicy, (0.01, 0.02, 0.05, 0.25), {"width": 1}),   # unknown
        # keywords only, one missing
        (OverlayPolicy, (), {"target_low": 0.01, "target_neutral": 0.02,
                             "target_high": 0.05, "te_ceiling": 0.03}),
        # keywords are checked first
        (OverlayPolicy, (0.01, 0.02, 0.05, 0.25, None, 1), {"target_low": 0.01}),
        (OverlayPolicy, (0.01,), {"width": 1, "target_low": 0.01}),  # first bad keyword wins
        (OverlayPolicy, (), {}),                            # missing four: 'a', 'b', 'c', and 'd'
        (OverlayPolicy, (0.01,), {}),                       # missing three: 'a', 'b', and 'c'
        (OverlayPolicy, (0.01, 0.02), {}),                  # missing two: 'a' and 'b'
        (GovernanceParams, (0.05, 0.1), {}),                # too many, no defaults
        (GovernanceParams, (), {"tau": 0.05}),
    ]
    for real, args, kwargs in calls:
        std = twin(real, frozen=True)
        got, want = both_raise(TypeError, real, std, *args, **kwargs)
        assert got == want, (real.__name__, args, kwargs)


def test_post_init_errors_reach_the_caller():
    for real, args in ((OverlayPolicy, (0.01, 0.02, 0.05, 0.25, -0.01)),
                       (RegimeThresholds, (26.0, 14.0)),
                       (OverlayPolicy, (-0.01, 0.02, 0.05, 0.25)), (GovernanceParams, (0.0,))):
        got, want = both_raise(ValueError, real, twin(real, frozen=True), *args)
        assert got == want
    # __post_init__ may still set fields of a frozen record
    values = level(calendar(), [1, 2, 3, 4, 5, 6]).values
    assert isinstance(values, np.ndarray) and not values.flags.writeable


def test_frozen_and_plain_records():
    std = twin(OverlayPolicy, frozen=True)
    targets = (0.005, 0.02, 0.05, 0.25)
    for w in (OverlayPolicy(*targets), std(*targets)):
        for attempt in (lambda: setattr(w, "theta_cap", 0.5), lambda: setattr(w, "other", 1),
                        lambda: delattr(w, "theta_cap")):
            with pytest.raises(AttributeError):
                attempt()
        assert w.theta_cap == 0.25 and not hasattr(w, "other")
    assert both_raise(AttributeError, OverlayPolicy(*targets).__setattr__,
                      std(*targets).__setattr__, "theta_cap", 0.5
                      ) == ("cannot assign to field 'theta_cap'",) * 2
    assert both_raise(AttributeError, OverlayPolicy(*targets).__delattr__,
                      std(*targets).__delattr__, "theta_cap"
                      ) == ("cannot delete field 'theta_cap'",) * 2

    cal = calendar()
    vix = level(cal, np.arange(6.0))
    std_market = twin(Market, frozen=False)
    assert Market.__hash__ is None and std_market.__hash__ is None
    for cls in (Market, std_market):
        m = cls(vix, vix, tlt=vix)
        with pytest.raises(TypeError):
            hash(m)
        m.rf = 0.01
        assert m.rf == 0.01 and m == m
        del m.tlt
        assert m.tlt is None  # the class-level default shows again
    assert repr(Market(vix, vix)) == repr(std_market(vix, vix))


def test_init_false_field():
    std = twin(RegimePath, frozen=True, no_init=("labels",))
    signal = level(calendar(), [10.0, 15.0, 20.0, 25.0, 30.0, 35.0])
    th = RegimeThresholds(14.0, 26.0)
    r, s = RegimePath(signal, th), std(signal, th)
    assert r.labels.tolist() == s.labels.tolist() == [-1, 0, 0, 0, 1, 1]
    assert repr(r) == repr(s) and "labels=array(" in repr(r)
    assert not hasattr(RegimePath, "labels") and not hasattr(std, "labels")
    got, want = both_raise(TypeError, RegimePath, std, signal, th, labels=r.labels)
    assert got == want == "got an unexpected keyword argument 'labels'"
    with pytest.raises(AttributeError):
        r.labels = s.labels


def test_cached_property_on_a_frozen_record():
    cal = calendar()
    series = {"A": level(cal, np.ones(6)), "B": level(cal, np.arange(6.0))}
    for base in (AssetPanel, twin(AssetPanel, frozen=True)):
        calls = []

        class Panel(base):
            @cached_property
            def total(self):
                calls.append(1)
                return sum(float(s.values.sum()) for s in self.series.values())

        p = Panel(cal, series)
        assert p.total == 21.0 and p.total == 21.0 and calls == [1]
        assert p.__dict__["total"] == 21.0
        # a subclass may set attributes that are not fields, never a field
        p.note = "x"
        with pytest.raises(AttributeError):
            p.series = {}
        assert p == Panel(cal, series)


def test_import_builds_records_without_dataclasses():
    code = "import sys, dynte, dynte.cli; print('dataclasses' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(SRC)}, check=True)
    assert out.stdout.strip() == "False"
    for path in sorted((SRC / "dynte").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                assert node.func.id not in ("exec", "eval", "compile"), path.name
            if isinstance(node, ast.Import):
                assert "dataclasses" not in [a.name for a in node.names], path.name
            if isinstance(node, ast.ImportFrom):
                assert node.module != "dataclasses", path.name
