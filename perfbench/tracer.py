"""Per-layer tracing from outside the library.

Wrappers are installed by attribute name around the public functions of
each `qcgroups` module, and every module-level reference to the same
function object (including references held in module-level dicts, such
as `acceptance.CRITERIA` or `cli._VERDICTS`) is pointed at the wrapper.
A name that no longer exists is reported as an absent layer with zero
calls, so the traced run survives renames in the library.

Each wrapped call records a span (name, start, end, parent, request id).
Spans are kept in memory up to SPAN_CAP and written out at the end; every
call, kept or not, is folded into its layer's counters.  A layer's self
time is its span's duration minus the time of the wrapped calls it
made.

`trace.overhead_s` estimates what tracing added to the run: the
bookkeeping time each wrapper measures after its wrapped call returns,
plus the number of wrapped calls times the per-call cost that those
clock reads cannot see (argument packing, the extra frame, the push),
calibrated at the end of the run on a wrapped no-op.  Running the paper
workload twice, once untraced, to subtract wall times directly would not
fit the benchmark's time limit per run.
"""

from __future__ import annotations

import importlib
import itertools
import sys
import weakref
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from time import perf_counter

from verify import CRITERIA

PACKAGE = "qcgroups"
SPAN_CAP = 200_000


# ---------------------------------------------------------------- counters
# Each counter gets (stats, args, result, frame).  A frame is the list
# [child seconds, parent frame, info, span id]; info is a dict, made on
# first use, in which wrapped callees report to their caller.

def _info(frame) -> dict:
    if frame[2] is None:
        frame[2] = {}
    return frame[2]


def _note_polar(st, args, result, frame):
    n, elems = args[0], args[1]
    st.extra["cells"] += len({e % n for e in elems}) * n
    _info(frame[1])["polar_size"] = len(result)


def _note_hull(st, args, result, frame):
    n = args[0]
    cells = _info(frame).get("polar_size", 0) * n
    st.extra["cells"] += cells
    st.extra["excluded"] += len(result[1])


def _note_map(st, args, result, frame):
    st.extra["bits"] += args[1].bit_count()


def _denominator(points) -> int:
    return lcm(*(Fraction(p).denominator for p in points))


def _note_real_polar(st, args, result, frame):
    points = args[0].points
    d = _denominator(points)
    st.extra["pieces"] += sum(int(p * d) + 1 for p in {abs(Fraction(q)) for q in points} if p)


def _note_member(st, args, result, frame):
    points, z = args[0].points, Fraction(args[1])
    if z and any(points):
        st.extra["shift_den"] += (z * _denominator(points)).denominator
    info = _info(frame[1])
    info["members"] = info.get("members", 0) + 1


def _note_real_hull(st, args, result, frame):
    st.extra["candidates"] += _info(frame).get("members", 0)


def _note_q12(st, args, result, frame):
    st.extra["points"] += 3 ** args[2]


@dataclass
class Layer:
    """One traced layer: the names it wraps and the metrics it reports.

    `moves` names the end-to-end metric and workload this layer's numbers
    should move when the layer changes.
    """

    name: str
    targets: tuple[str, ...]
    metrics: tuple[str, ...] = ("calls", "self_s")
    counter: object = None
    moves: str = ""


LAYERS = (
    Layer("duality.polar", ("duality.polar_residues",), ("calls", "self_s", "cells"),
          _note_polar, "latency on grid-dense; grid-sparse only a little"),
    Layer("duality.hull", ("duality.hull_residues",),
          ("calls", "self_s", "cells", "useful_ratio"), _note_hull,
          "latency and req_per_s on grid-sparse; wall_s on paper (criteria 04, 09, 11)"),
    Layer("duality.two_x", ("duality.check_two_x_equivalence",), moves="wall_s on paper (criterion-02)"),
    Layer("engine", ("engine.BitGrid.__init__",), ("grids", "build_s", "table_cells"),
          None, "wall_s on paper; zero elsewhere"),
    Layer("engine.hull", ("engine.BitGrid.hull_bits",), ("calls", "self_s", "hit_ratio"),
          None, "wall_s on paper; zero elsewhere"),
    Layer("engine.map", ("engine.BitGrid.map_bits",), ("calls", "self_s", "bits"),
          _note_map, "wall_s on paper; zero elsewhere"),
    Layer("realline.polar", ("realline.polar_R",), ("calls", "self_s", "pieces"),
          _note_real_polar, "wall_s on paper (criterion-09); latency on real-line"),
    Layer("realline.member", ("realline.member_hull_R",), ("calls", "self_s", "shift_den"),
          _note_member, "wall_s on paper (criterion-09); latency on real-line"),
    Layer("realline.hull", ("realline.hull_R",), ("calls", "self_s", "candidates"),
          _note_real_hull, "wall_s on paper (criterion-09); latency on real-line"),
    Layer("circle.interval", ("circle.RationalIntervalUnion.from_pairs",
                              "circle.RationalIntervalUnion.intersect"),
          moves="wall_s on paper; latency on real-line"),
    Layer("padic.q12", ("padic.q12_set",), ("calls", "self_s", "points"), _note_q12,
          "latency on grid-dense"),
    Layer("padic.jm", ("padic.compute_Jm",), ("self_s",), moves="wall_s on paper"),
    Layer("padic.epsilon", ("padic.epsilon_forms",), ("self_s",), moves="wall_s on paper"),
    Layer("witnesses.exclusion", ("witnesses.exclusion_T3", "witnesses.exclusion_J3"),
          moves="wall_s on paper"),
    Layer("witnesses.verify", ("witnesses.verify_certificate",), moves="wall_s on paper"),
    Layer("families.verdict", ("families.verdict_T2", "families.verdict_R2",
                               "families.verdict_T3", "families.verdict_J3"),
          moves="wall_s on paper"),
) + tuple(Layer(f"acceptance.{c}", (f"acceptance.{c.replace('-', '_')}",), ("s",),
                moves="wall_s on paper") for c in CRITERIA)

# Metrics computed across layers rather than read from one.
EXTRA_METRICS = {
    "cli.self_s": "req_per_s on grid-sparse, latency_p50_ms on real-line; barely wall_s on paper",
    "cli.out_bytes": "req_per_s on grid-sparse, latency_p50_ms on real-line; barely wall_s on paper",
    "acceptance.self_s": "wall_s on paper (brute-force oracle work outside wrapped layers)",
    "trace.overhead_s": "none: the cost of tracing itself",
}

UNITS = {"calls": "count", "grids": "count", "self_s": "s", "build_s": "s", "s": "s",
         "cells": "count", "table_cells": "count", "bits": "count", "pieces": "count",
         "shift_den": "count", "candidates": "count", "points": "count",
         "useful_ratio": "ratio", "hit_ratio": "ratio"}


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric name with its unit, in report order."""
    out = [("cli.self_s", "s"), ("cli.out_bytes", "B")]
    for layer in LAYERS:
        out += [(f"{layer.name}.{m}", UNITS[m]) for m in layer.metrics]
    out += [("acceptance.self_s", "s"), ("trace.overhead_s", "s")]
    return out


def layer_map() -> dict[str, str]:
    """Per-layer metric -> the end-to-end metric and workload it should move."""
    moves = {f"{layer.name}.{m}": layer.moves for layer in LAYERS for m in layer.metrics}
    return {**moves, **EXTRA_METRICS}


@dataclass
class Stats:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    extra: dict = field(default_factory=lambda: {
        "cells": 0, "excluded": 0, "table_cells": 0, "bits": 0, "pieces": 0,
        "shift_den": 0, "candidates": 0, "points": 0})


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stats] = {layer.name: Stats() for layer in LAYERS}
        self.stats["cli"] = Stats()
        self.stack = [[0.0, None, None, None]]
        self.spans: list[tuple] = []
        self.dropped = 0
        self._ids = itertools.count()
        self.request = None
        self.overhead_s = 0.0
        self.out_bytes = 0
        self.absent: list[str] = []
        # distinct hull masks per live BitGrid, to measure the memo's hit ratio
        self._masks: dict[int, set] = {}
        self._distinct_masks = 0

    def wrap(self, name, fn, counter=None):
        """`fn` wrapped so that each call is timed, counted and recorded as a span.

        This runs millions of times on the paper workload, so it keeps to
        local names and three clock reads per call.
        """
        stats, stack, spans, ids = self.stats[name], self.stack, self.spans, self._ids
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, parent, None, next(ids)]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                stats.calls += 1
                stats.total_s += t1 - t0
                stats.self_s += t1 - t0 - frame[0]
            if counter is not None:
                counter(stats, args, result, frame)
            if len(spans) < SPAN_CAP:
                spans.append((frame[3], name, t0, t1, parent[3], tracer.request))
            else:
                tracer.dropped += 1
            t2 = perf_counter()
            parent[0] += t2 - t0
            tracer.overhead_s += t2 - t1
            return result
        return traced

    def _note_engine_grid(self, st, args, result, frame):
        grid, n = args[0], args[1]
        st.extra["table_cells"] += n * n
        self._masks[id(grid)] = set()
        weakref.finalize(grid, self._masks.pop, id(grid), None)

    def _note_engine_hull(self, st, args, result, frame):
        seen = self._masks.setdefault(id(args[0]), set())
        if args[1] not in seen:
            seen.add(args[1])
            self._distinct_masks += 1

    def install(self) -> None:
        """Wrap every layer target that exists; record the ones that do not."""
        for layer in LAYERS:
            counter = {"engine": self._note_engine_grid,
                       "engine.hull": self._note_engine_hull}.get(layer.name, layer.counter)
            for target in layer.targets:
                if not self._install_one(layer.name, target, counter):
                    self.absent.append(target)

    def _install_one(self, name, target, counter) -> bool:
        modname, *path = target.split(".")
        try:
            owner = importlib.import_module(f"{PACKAGE}.{modname}")
        except ImportError:
            return False
        for attr in path[:-1]:
            owner = getattr(owner, attr, None)
            if owner is None:
                return False
        last = path[-1]
        if isinstance(owner, type):
            raw = owner.__dict__.get(last)
            if isinstance(raw, classmethod):
                setattr(owner, last, classmethod(self.wrap(name, raw.__func__, counter)))
            elif callable(raw):
                setattr(owner, last, self.wrap(name, raw, counter))
            else:
                return False
            return True
        original = getattr(owner, last, None)
        if not callable(original):
            return False
        _rebind(original, self.wrap(name, original, counter))
        return True

    def metrics(self) -> dict[str, float]:
        st = self.stats
        out = {"cli.self_s": st["cli"].self_s, "cli.out_bytes": self.out_bytes}
        for layer in LAYERS:
            s = st[layer.name]
            for m in layer.metrics:
                out[f"{layer.name}.{m}"] = _layer_value(self, layer.name, m, s)
        out["acceptance.self_s"] = sum(st[f"acceptance.{c}"].self_s for c in CRITERIA)
        calls = sum(s.calls for s in st.values())
        out["trace.overhead_s"] = self.overhead_s + calls * _unseen_cost_per_call()
        return out


def _unseen_cost_per_call(calls: int = 100_000) -> float:
    """Seconds per wrapped call that the wrapper's own clock reads miss."""
    def noop():
        return None
    probe = Tracer()
    wrapped = probe.wrap("cli", noop)
    t0 = perf_counter()
    for _ in range(calls):
        noop()
    t1 = perf_counter()
    for _ in range(calls):
        wrapped()
    t2 = perf_counter()
    return max(0.0, ((t2 - t1) - (t1 - t0) - probe.overhead_s) / calls)


def _layer_value(tracer, name, metric, s):
    if metric in ("calls", "grids"):
        return s.calls
    if metric in ("self_s", "build_s"):
        return s.self_s
    if metric == "s":
        return s.total_s
    if metric == "useful_ratio":
        return s.extra["excluded"] / s.extra["cells"] if s.extra["cells"] else 0.0
    if metric == "hit_ratio":
        return 1.0 - tracer._distinct_masks / s.calls if s.calls else 0.0
    return s.extra[metric]


def _rebind(original, wrapper) -> None:
    """Point every module-level reference to `original` at `wrapper`."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if item is original:
                        value[key] = wrapper
                    elif isinstance(item, tuple) and any(x is original for x in item):
                        value[key] = tuple(wrapper if x is original else x for x in item)
