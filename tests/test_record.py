"""dynte's record classes against the frozen stdlib dataclasses they stand in for.

Each comparison builds a `dataclasses.dataclass(frozen=True)` twin of a real
dynte class, with the same name, fields, defaults and methods, and checks
that both behave alike: construction, __post_init__, repr, ==, != and hash,
assignment and deletion, and cached_property. Bad arguments raise a
TypeError in both; dynte's names the record, its fields and every bad
argument in one message. Every record in the package is frozen.
"""

import ast
import dataclasses
import datetime as dt
import importlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dynte.metrics import MetricsReport
from dynte.model import GovernanceParams
from dynte.regime import RegimePath, RegimeThresholds
from dynte.simulate import OverlayPolicy
from dynte.timeseries import UNIT_LEVEL, Series, TradingCalendar

SRC = Path(__file__).resolve().parents[1] / "src"

# what the record decorator (or dataclass) adds to a class body
GENERATED = {"__init__", "__repr__", "__eq__", "__hash__", "__setattr__", "__delattr__",
             "__dict__", "__weakref__"}


def twin(real):
    """A frozen stdlib dataclass with `real`'s qualified name, fields,
    defaults and methods."""
    ns = {k: v for k, v in vars(real).items() if k not in GENERATED}
    ns["__qualname__"] = real.__qualname__
    return dataclasses.dataclass(frozen=True)(type(real.__name__, (), ns))


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
    std = twin(real)
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


def test_bad_arguments_raise_one_type_error_naming_them():
    policy = ("OverlayPolicy(target_low, target_neutral, target_high, theta_cap, "
              "te_ceiling) got")
    calls = [
        (OverlayPolicy, (0.01, 0.02, 0.05), {},
         f"{policy} 3 positional arguments, unknown or repeated keywords [], "
         "missing fields ['theta_cap']"),
        (OverlayPolicy, (0.01, 0.02, 0.05, 0.25, None, 1), {},
         f"{policy} 6 positional arguments, unknown or repeated keywords [], missing fields []"),
        (OverlayPolicy, (0.01,), {"target_low": 0.01, "width": 1},
         f"{policy} 1 positional arguments, unknown or repeated keywords "
         "['target_low', 'width'], missing fields ['target_neutral', 'target_high', "
         "'theta_cap']"),
        (OverlayPolicy, (), {"target_low": 0.01, "target_neutral": 0.02,
                             "target_high": 0.05, "te_ceiling": 0.03},
         f"{policy} 0 positional arguments, unknown or repeated keywords [], "
         "missing fields ['theta_cap']"),
        (GovernanceParams, (0.05, 0.1), {},
         "GovernanceParams(tau_bar) got 2 positional arguments, unknown or repeated "
         "keywords [], missing fields []"),
        (GovernanceParams, (), {"tau": 0.05},
         "GovernanceParams(tau_bar) got 0 positional arguments, unknown or repeated "
         "keywords ['tau'], missing fields ['tau_bar']"),
    ]
    for real, args, kwargs, message in calls:
        got, _ = both_raise(TypeError, real, twin(real), *args, **kwargs)
        assert got == message, (real.__name__, args, kwargs)


def test_post_init_errors_reach_the_caller():
    for real, args in ((OverlayPolicy, (0.01, 0.02, 0.05, 0.25, -0.01)),
                       (RegimeThresholds, (26.0, 14.0)),
                       (OverlayPolicy, (-0.01, 0.02, 0.05, 0.25)), (GovernanceParams, (0.0,))):
        got, want = both_raise(ValueError, real, twin(real), *args)
        assert got == want
    # __post_init__ may still set fields of a frozen record
    values = level(calendar(), [1, 2, 3, 4, 5, 6]).values
    assert isinstance(values, np.ndarray) and not values.flags.writeable


def package_records():
    """Every record class the package defines, checked against the `@record`
    decorators in its source."""
    found, decorated = [], []
    for path in sorted((SRC / "dynte").glob("*.py")):
        module = importlib.import_module(
            "dynte" if path.stem == "__init__" else f"dynte.{path.stem}")
        found += [cls for cls in vars(module).values()
                  if isinstance(cls, type) and cls.__module__ == module.__name__
                  and getattr(cls.__init__, "__module__", None) == "dynte._record"]
        decorated += [node.name for node in ast.walk(ast.parse(path.read_text()))
                      if isinstance(node, ast.ClassDef)
                      and any(getattr(d, "id", None) == "record" for d in node.decorator_list)]
    assert sorted(cls.__name__ for cls in found) == sorted(decorated)
    return found


def test_every_record_is_frozen():
    records = package_records()
    assert "Market" in {cls.__name__ for cls in records}
    for cls in records:
        bare = object.__new__(cls)  # a record's methods refuse before reading a field
        for name in (*cls.__annotations__, "other"):
            with pytest.raises(AttributeError, match=f"cannot assign to field {name!r}"):
                setattr(bare, name, 1)
            with pytest.raises(AttributeError, match=f"cannot delete field {name!r}"):
                delattr(bare, name)
        assert cls.__hash__ is not None, cls.__name__

    std = twin(OverlayPolicy)
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


def test_cached_property_on_a_frozen_record():
    signal = level(calendar(), [10.0, 15.0, 20.0, 25.0, 30.0, 35.0])
    th = RegimeThresholds(14.0, 26.0)
    std = twin(RegimePath)
    assert tuple(RegimePath.__annotations__) == ("signal", "thresholds")
    for path in (RegimePath(signal, th), std(signal, th)):
        assert "labels" not in path.__dict__
        labels = path.labels
        assert labels is path.labels and path.__dict__["labels"] is labels  # computed once
        assert labels.tolist() == [-1, 0, 0, 0, 1, 1]
        assert np.array_equal(labels, np.where(signal.values < th.low, -1,
                                               np.where(signal.values > th.high, 1, 0)))
        for attempt in (lambda: setattr(path, "labels", labels),
                        lambda: delattr(path, "labels")):
            with pytest.raises(AttributeError):
                attempt()
        assert path.labels is labels
    assert repr(RegimePath(signal, th)) == repr(std(signal, th))
    assert "labels" not in repr(RegimePath(signal, th))
    with pytest.raises(TypeError):
        RegimePath(signal, th, labels)


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
