"""Deterministic event simulator of the pipelined schedule.

Interprets the same op list as the runtime (`planner.compile_schedule`):
each device pays a fixed overhead at its first compute of a layer, a
compute takes time linear in its multiply-accumulates, a send puts a frame
on its link, and a receive waits for the frame's arrival. Each link is a
FIFO queue of arrival times keyed by the op's link name ("host->ed1"): a
send leaves when both the link and its rows are free, transfers at the
channel rate and appends its arrival; a receive takes the oldest arrival
on its link, as the runtime takes the next frame. The runtime traces the
same link names, as the node of its send records. The head runs on the
host after the merge.

Every op becomes one `Interval`, a `NamedTuple`; the per-layer MACs per
output row, the model's geometry (`ModelSpec.spatial_geometry`) and the
link rate in bits per second are computed once, not per op.

A timing may also hold equal-shape float64 arrays of MAC rates and
overheads: one walk then prices every element, and each time of the
timeline is an array of that shape, equal bit for bit to what a scalar
call at that element gives. Such a timeline is read for its `makespan`
(and its intervals' `start` and `end`); `to_csv` and `to_json` are not
defined for it.

Calibration fits the two per-family constants (MAC rate, per-layer
overhead) to the published wall-clock measurements; MobileNet gets one
effective rate per variant since the measured per-MAC speed of the small
variants differs by an order of magnitude from the large ones. Both fits
price their overhead grid as one array timing: the VGG fit in one walk per
entry zone, the MobileNet fit in one walk per variant and bisection step.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections import defaultdict, deque
from dataclasses import dataclass, field
from importlib import resources
from typing import NamedTuple

import numpy as np

from .layers import LayerSpec
from .models import MOBILENET_ALPHAS, MOBILENET_RHOS, ModelSpec, build_mobilenet_v1, layer_macs
from .planner import PartitionPlan, Recv, ROLES, Send, build_plan_mobilenet, build_plan_vgg
from .selector import load_catalog


@dataclass(frozen=True)
class TimingModel:
    mac_rate: float  # multiply-accumulates per second, per node
    overhead_s: float  # fixed cost per layer invocation
    # (or two equal-shape float64 arrays of them: a grid `simulate` prices in one walk)

    def __post_init__(self):
        # elementwise for arrays, and written so that NaN fails it; an
        # unlimited rate means free compute, an unlimited overhead is no time
        ok = (self.mac_rate > 0) & (0 <= self.overhead_s) & (self.overhead_s < math.inf)
        if not np.all(ok):
            raise ValueError("mac_rate must be positive and overhead_s finite and non-negative")


@dataclass(frozen=True)
class ChannelModel:
    """Fixed throughput, or one uniform draw per inference session."""

    lo_mbps: float
    hi_mbps: float | None = None

    def __post_init__(self):
        # comparisons written so that NaN fails them too
        if not self.lo_mbps > 0:
            raise ValueError(f"throughput must be positive, got {self.lo_mbps} Mbps")
        if self.hi_mbps is not None and not self.lo_mbps <= self.hi_mbps < math.inf:
            raise ValueError("a drawn throughput needs finite bounds with lo <= hi")

    def draw(self, rng: np.random.Generator) -> float:
        if self.hi_mbps is None:
            return self.lo_mbps
        return float(rng.uniform(self.lo_mbps, self.hi_mbps))


class Interval(NamedTuple):
    """One op of a node's compiled list, as the simulator predicts it or
    the runtime measured it. A send's node is its op's link, "host->ed1". A
    measured recv runs from when the node asks for the rows until it has
    them; a simulated one is zero-length, at the rows' arrival."""

    node: str
    kind: str  # compute | send | recv
    layer: int
    rows: int
    start: float  # seconds
    end: float


@dataclass
class Timeline:
    intervals: list[Interval] = field(default_factory=list)
    makespan: float = 0.0  # measured: the node's time to walk its op list
    rate_mbps: float = 0.0  # 0 on a measured timeline

    def sequence(self) -> list[tuple]:
        """Timestamp-free view: a compute reads as compute_start, compute_end."""
        seq = []
        for iv in self.intervals:
            kinds = ("compute_start", "compute_end") if iv.kind == "compute" else (iv.kind,)
            seq += [(iv.node, kind, iv.layer, iv.rows) for kind in kinds]
        return seq

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["node", "kind", "layer", "start_ms", "end_ms"])
        for iv in self.intervals:
            writer.writerow(
                [iv.node, iv.kind, iv.layer, f"{iv.start * 1e3:.6f}", f"{iv.end * 1e3:.6f}"]
            )
        return buf.getvalue()

    def to_json(self) -> str:
        return json.dumps(
            {
                "rate_mbps": self.rate_mbps,
                "makespan_ms": self.makespan * 1e3,
                "intervals": [
                    {
                        "node": iv.node,
                        "kind": iv.kind,
                        "layer": iv.layer,
                        "rows": iv.rows,
                        "start_ms": iv.start * 1e3,
                        "end_ms": iv.end * 1e3,
                    }
                    for iv in self.intervals
                ],
            },
            indent=2,
        )


rows_macs = layer_macs  # the name stays only because perfbench/spans.py imports it


def compute_time(spec: LayerSpec, rows: int, out_w: int, timing: TimingModel) -> float:
    """Overhead plus the linear MAC term; zero rows cost overhead only."""
    return timing.overhead_s + layer_macs(spec, rows, out_w) / timing.mac_rate


def standalone_time(model: ModelSpec, timing: TimingModel) -> float:
    """Single-node inference: the sum of full-layer compute times."""
    specs, heights, widths = model.spatial_geometry
    total = 0.0
    for i, spec in enumerate(specs):
        total += compute_time(spec, heights[i + 1], widths[i + 1], timing)
    for spec in model.layers[len(specs) :]:
        total += compute_time(spec, 1, 1, timing)  # the head: FC, and GAP at 1x1
    return total


def simulate(
    plan: PartitionPlan,
    model: ModelSpec,
    timing: TimingModel,
    rate_mbps: float,
) -> Timeline:
    """Event-driven walk of the plan's compiled op lists; returns the timeline.

    With an array timing every start, end and the makespan are arrays of its
    shape: only "the later of two times" changes, from `max` to
    `np.maximum`, so each element sees the IEEE operations of a scalar call.
    Such a timeline is read for its times; `to_csv` and `to_json` are not
    defined for it.
    """
    if not rate_mbps > 0:  # also NaN
        raise ValueError(f"throughput must be positive, got {rate_mbps} Mbps")

    specs, _, widths = model.spatial_geometry
    bits_per_s = rate_mbps * 1e6
    mac_rate = timing.mac_rate
    later = np.maximum if np.ndim(mac_rate) or np.ndim(timing.overhead_s) else max
    timeline = Timeline(rate_mbps=rate_mbps)
    intervals = timeline.intervals
    lists = [(role.value, plan.compiled[role]) for role in ROLES]
    clock = [0.0] * len(lists)
    link_free: defaultdict[str, float] = defaultdict(float)
    arrivals: defaultdict[str, deque[float]] = defaultdict(deque)  # FIFO: a recv takes the oldest

    # layers outer, roles inner: every step a stage receives was sent in an
    # earlier stage, or by the host (first in ROLES) before layer 0
    for layer, spec in enumerate(specs):
        macs_per_row = layer_macs(spec, 1, widths[layer + 1])
        for i, (node, stages) in enumerate(lists):
            t = clock[i]
            overhead = timing.overhead_s  # once per layer, at the first compute
            for op in stages[layer]:
                kind = type(op)
                if kind is Recv:
                    arrive = arrivals[op.link].popleft()
                    t = later(t, arrive)
                    intervals.append(Interval(node, "recv", layer, op.step.rows, arrive, arrive))
                elif kind is Send:
                    step = op.step
                    depart = later(link_free[op.link], t)
                    arrive = depart + step.bits / bits_per_s
                    link_free[op.link] = arrive
                    arrivals[op.link].append(arrive)
                    intervals.append(
                        Interval(op.link, "send", step.before_layer, step.rows, depart, arrive)
                    )
                else:
                    lo, hi = op.rows
                    t0 = t + overhead
                    overhead = 0.0
                    t = t0 + (hi - lo) * macs_per_row / mac_rate
                    intervals.append(Interval(node, "compute", layer, hi - lo, t0, t))
            clock[i] = t

    # the merge stage: the host (first in ROLES) waits for both segments (no recv intervals)
    host, host_stages = lists[0]
    t = clock[0]
    for op in host_stages[-1]:
        t = later(t, arrivals[op.link].popleft())
    for i in range(len(specs), len(model.layers)):
        t0 = t  # no `+=` below: with an array timing it would move t0 too
        t = t + compute_time(model.layers[i], 1, 1, timing)  # a GAP has zero MACs: overhead only
        intervals.append(Interval(host, "compute", i, 1, t0, t))
    timeline.makespan = t
    return timeline


# --- calibration -------------------------------------------------------------

VGG_STANDALONE_MS = 4905.0
VGG_TARGETS_MS = {4: 3264.0, 68: 2864.0}  # measured makespans by entry zone
REFERENCE_RATE_MBPS = 42.0


def rate_for_standalone(model: ModelSpec, standalone_s: float, overhead_s: float) -> float:
    """MAC rate that makes the summed layer times equal a measured wall time;
    elementwise for an array of overheads, each of which must leave a budget."""
    budget = standalone_s - len(model.layers) * overhead_s
    if not np.all(budget > 0):  # also NaN
        raise ValueError(f"overhead {overhead_s}s leaves no compute budget")
    return model.total_macs / budget


def fit_vgg_timing(model: ModelSpec, rate_mbps: float = REFERENCE_RATE_MBPS):
    """Pick the overhead that best reproduces both measured distributed
    makespans while pinning standalone time exactly; returns (timing, report).

    An overhead on the 0.5 ms grid scores the worse of its two relative
    makespan deviations (entry zones 4 and 68); the lowest score wins, and a
    tie goes to the lowest overhead (`np.argmin` takes the first minimum).
    The whole grid is one array timing, so pricing it takes one `simulate`
    call per entry zone.
    """
    overheads = np.arange(0.5, 180.0, 0.5) / 1e3
    rates = rate_for_standalone(model, VGG_STANDALONE_MS / 1e3, overheads)
    grid = TimingModel(rates, overheads)
    first, second = (
        np.abs(simulate(build_plan_vgg(model, z1), model, grid, rate_mbps).makespan * 1e3 - target)
        / target
        for z1, target in VGG_TARGETS_MS.items()
    )
    score = np.maximum(first, second)
    i = np.argmin(score)
    timing = TimingModel(rates[i], overheads[i])
    report = {
        "standalone_ms": standalone_time(model, timing) * 1e3,
        "worst_makespan_deviation": score[i],
    }
    return timing, report


GAIN_WINDOW = (1.40, 1.90)
_GAIN_FIT_TARGET = (1.41, 1.89)  # leave deterministic margin inside the window


def _sim_gain(model, plan, rate, overhead_s) -> tuple[float, float]:
    timing = TimingModel(rate, overhead_s)
    t_standalone = standalone_time(model, timing)
    makespan = simulate(plan, model, timing, REFERENCE_RATE_MBPS).makespan
    return t_standalone / makespan, t_standalone


def _fit_rates(model, plan, t_ms, overheads):
    """(rates, gains, simulated standalone times) at each overhead: the rate
    that pins `t_ms`, scaled where its gain leaves `_GAIN_FIT_TARGET`. The
    elements bisect in lockstep, one array `simulate` call per step, and each
    stops once its gain is within 1e-4 of its target (or after 60 steps)."""
    exact = rate_for_standalone(model, t_ms / 1e3, overheads)
    gain, t_sim = _sim_gain(model, plan, exact, overheads)
    # gain rises as the device slows; bisect the rate scale toward the nearer end
    want = np.clip(gain, *_GAIN_FIT_TARGET)
    active = want != gain
    k, lo_k, hi_k = np.ones_like(exact), np.full_like(exact, 0.25), np.full_like(exact, 4.0)
    for _ in range(60):
        if not active.any():
            break
        # libm's pow, as a scalar `** 0.5` takes it: numpy's sqrt rounds some products apart.
        # A stopped element keeps its k, so it prices to the same gain and time again.
        k = np.where(active, [math.pow(p, 0.5) for p in lo_k * hi_k], k)
        gain, t_sim = _sim_gain(model, plan, exact * k, overheads)
        lo_k, hi_k = np.where(gain > want, k, lo_k), np.where(gain > want, hi_k, k)
        active &= np.abs(gain - want) >= 1e-4
    return exact * k, gain, t_sim


def fit_mobilenet_timing():
    """One overhead for the family, one effective rate per variant, for the
    builder's default widths at `REFERENCE_RATE_MBPS`.

    Rates start pinned to the catalog's measured standalone times. The
    fixed-overhead linear model cannot reproduce all twelve wall times *and*
    keep every simulated gain inside the published bracket, so where a gain
    would leave the bracket the variant's rate is adjusted just far enough
    (the gain is monotone in the rate) and the standalone residual is
    reported. Of the overheads that keep every gain inside `GAIN_WINDOW`, the
    least sum of squared residuals wins, and the lowest on a tie."""
    standalone_ms = {entry.name: entry.t_standalone_ms for entry in load_catalog()}
    overheads = np.arange(1.0, 16.0, 0.5) / 1e3
    rates, gains, residuals = {}, {}, {}
    for alpha in MOBILENET_ALPHAS:
        for rho in MOBILENET_RHOS:
            m = build_mobilenet_v1(alpha, rho)
            t_ms = standalone_ms[m.name]
            plan = build_plan_mobilenet(m)
            rates[m.name], gains[m.name], t_sim = _fit_rates(m, plan, t_ms, overheads)
            residuals[m.name] = (t_sim * 1e3 - t_ms) / t_ms
    feasible = np.all([(GAIN_WINDOW[0] < g) & (g < GAIN_WINDOW[1]) for g in gains.values()], axis=0)
    score = sum(r * r for r in residuals.values())  # summed in catalog order
    i = np.argmin(np.where(feasible, score, np.inf))
    if not feasible[i]:
        raise RuntimeError("no feasible MobileNet calibration found")
    rates, gains, residuals = (
        {name: float(v[i]) for name, v in d.items()} for d in (rates, gains, residuals)
    )
    return overheads[i], rates, {"gains": gains, "standalone_residuals": residuals}


def default_calibration() -> dict:
    with resources.files("halp").joinpath("data/calibration.json").open() as fh:
        return json.load(fh)


def default_timing(model_name: str) -> TimingModel:
    """Shipped calibration constants for a model (by catalog name)."""
    cal = default_calibration()
    if model_name == "vgg16":
        entry = cal["vgg16"]
        return TimingModel(entry["mac_rate"], entry["overhead_s"])
    rates = cal["mobilenet"]["mac_rates"]
    return TimingModel(rates[model_name], cal["mobilenet"]["overhead_s"])
