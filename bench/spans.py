"""Spans for the traced pass, recorded from outside the program.

`Tracer.install()` wraps every public function of the dynte modules (and
`Series.restrict`, the calendar-alignment workhorse, and `regime._em_trial`,
one EM run from one starting point) and rebinds each name
wherever a dynte module imported it, so nothing in `src/` is edited. Each
call records a span: id, parent id, name, start, end, the wrapper's own
cost, and a few counts read from its arguments or result. Spans are kept in
memory and written out when the traced process ends.

Times come from time.monotonic(), CLOCK_MONOTONIC on Linux, which every
process on the machine shares, so the harness can nest a child's spans
inside the process span it measured from outside.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
import tracemalloc

LAYERS = ("timeseries", "rolling", "regime", "simulate", "metrics",
          "inference", "events", "model", "cli")

# span fields
ID, PARENT, NAME, START, END, COST, ATTRS = range(7)


def _ingest_attrs(args, kwargs, res):
    return {"path": str(args[0]), "rows": len(res.panel.calendar) + res.n_dropped,
            "dropped": res.n_dropped}


def _em_trial_attrs(args, kwargs, res):
    return {"n_iter": len(res[4])}          # res[4] is the trial's loglik trace


def _bootstrap_attrs(args, kwargs, res):
    spec = kwargs.get("spec", args[1] if len(args) > 1 else None)
    return {"draws": spec.iterations}


_ATTRS = {
    "timeseries.ingest_csv": _ingest_attrs,
    "regime._em_trial": _em_trial_attrs,
    "inference.circular_block_bootstrap": _bootstrap_attrs,
}
_MALLOC_PEAK = {"inference.circular_block_bootstrap"}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int | None] = [None]

    def add(self, name: str, start: float, end: float, attrs=None) -> None:
        """A span measured by the caller, under whatever span is open."""
        self.spans.append([len(self.spans), self._stack[-1], name, start, end, 0.0, attrs])

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.monotonic
        attrs_of = _ATTRS.get(name)
        malloc = name in _MALLOC_PEAK

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t_in = clock()
            rec = [len(spans), stack[-1], name, 0.0, 0.0, 0.0, None]
            spans.append(rec)
            stack.append(rec[ID])
            if malloc:
                tracemalloc.start()
            t0 = clock()
            try:
                res = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
            attrs = attrs_of(args, kwargs, res) if attrs_of else None
            if malloc:
                attrs = dict(attrs or {}, peak_mb=tracemalloc.get_traced_memory()[1] / 2**20)
                tracemalloc.stop()
            rec[START], rec[END], rec[ATTRS] = t0, t1, attrs
            rec[COST] = (t0 - t_in) + (clock() - t1)
            return res

        return traced

    def install(self) -> None:
        """Wrap the public functions of each layer."""
        mods = [importlib.import_module("dynte")] + \
            [importlib.import_module(f"dynte.{m}") for m in LAYERS]
        wrapped = {}
        for layer, mod in zip(LAYERS, mods[1:]):
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrapped[obj] = self.wrap(f"{layer}.{attr}", obj)
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])
        series = mods[LAYERS.index("timeseries") + 1].Series
        series.restrict = self.wrap("timeseries.Series.restrict", series.restrict)
        regime = mods[LAYERS.index("regime") + 1]
        regime._em_trial = self.wrap("regime._em_trial", regime._em_trial)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


# -------------------------------------------------------------- analysis --

ALIGN = {"timeseries.intersect_calendars", "timeseries.Series.restrict",
         "timeseries.returns_from_prices", "timeseries.prices_from_returns"}


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Trace:
    """All spans of one traced pass, merged from its processes."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        self.children: dict[int, list[list]] = {}
        for s in spans:
            self.children.setdefault(s[PARENT], []).append(s)
        self.by_id = {s[ID]: s for s in spans}

    def self_time(self, s) -> float:
        kids = self.children.get(s[ID], ())
        return (s[END] - s[START]) - sum(k[END] - k[START] + k[COST] for k in kids)

    def layer_self(self) -> dict[str, float]:
        """Self time per layer. The wrappers' own cost goes to `trace`."""
        out: dict[str, float] = {}
        for s in self.spans:
            lay = layer_of(s[NAME])
            out[lay] = out.get(lay, 0.0) + self.self_time(s)
            out["trace"] = out.get("trace", 0.0) + s[COST]
        return out

    def _ancestors(self, s):
        p = s[PARENT]
        while p is not None:
            s = self.by_id[p]
            yield s
            p = s[PARENT]

    def outermost(self, match) -> list[list]:
        """Spans matching `match` that are not inside another such span."""
        return [s for s in self.spans if match(s[NAME])
                and not any(match(a[NAME]) for a in self._ancestors(s))]

    def total(self, match) -> float:
        return sum(s[END] - s[START] for s in self.outermost(match))

    def named(self, name: str) -> list[list]:
        return [s for s in self.spans if s[NAME] == name]

