"""Schedule simulator: timing primitives, pipeline invariants, calibration."""

import math
from collections import deque

import numpy as np
import pytest

from halp.layers import LayerKind, LayerSpec
from halp.models import (
    MOBILENET_ALPHAS,
    MOBILENET_RHOS,
    build_mobilenet_v1,
    build_vgg16,
)
from halp import simulate as simulate_module
from halp.planner import ROLES, Recv, Role, build_plan_mobilenet, build_plan_vgg, optimize_plan
from halp.selector import load_catalog
from halp.simulate import (
    GAIN_WINDOW,
    VGG_STANDALONE_MS,
    VGG_TARGETS_MS,
    ChannelModel,
    TimingModel,
    compute_time,
    default_calibration,
    default_timing,
    fit_mobilenet_timing,
    fit_vgg_timing,
    rate_for_standalone,
    simulate,
    standalone_time,
)

VGG = build_vgg16()
CONV = LayerSpec(LayerKind.CONV, (3, 3), 1, 1, 64, 64)


@pytest.mark.parametrize("mac_rate,overhead_s", [
    (math.nan, 0.001), (0.0, 0.001), (-1e9, 0.001),
    (1e9, math.nan), (1e9, math.inf), (1e9, -1e-3),
    (np.array([1e9, math.nan]), np.array([0.001, 0.001])),
    (np.array([1e9, 2e9]), np.array([0.001, math.inf])),
    (np.array([1e9, 0.0]), np.array([0.001, 0.001])),
    (np.array([1e9, 2e9]), np.array([-1e-3, 0.001])),
], ids=["nan-rate", "zero-rate", "negative-rate", "nan-overhead", "inf-overhead",
        "negative-overhead", "array-nan-rate", "array-inf-overhead", "array-zero-rate",
        "array-negative-overhead"])
def test_timing_model_rejects_a_rate_or_overhead_out_of_range(mac_rate, overhead_s):
    with pytest.raises(ValueError):
        TimingModel(mac_rate, overhead_s)


def test_timing_model_takes_free_compute_and_arrays():
    TimingModel(math.inf, 0.0)  # an unlimited rate: compute costs nothing
    TimingModel(np.array([1e9, math.inf]), np.array([0.0, 0.5]))


def test_compute_time_zero_rows_is_overhead_only():
    timing = TimingModel(1e9, 0.005)
    assert compute_time(CONV, 0, 224, timing) == pytest.approx(0.005)


def test_compute_time_linear_in_rows():
    timing = TimingModel(1e9, 0.002)
    t1 = compute_time(CONV, 10, 224, timing) - timing.overhead_s
    t2 = compute_time(CONV, 20, 224, timing) - timing.overhead_s
    assert t2 == pytest.approx(2 * t1)


def test_transmit_time_formula():
    """A simulated send moves its float32 rows at the link rate: rows x width x
    channels x 32 bits over the rate, whatever the layer."""
    plan = build_plan_vgg(VGG, 4)
    for rate in (42.0, 84.0):
        timeline = simulate(plan, VGG, default_timing("vgg16"), rate)
        got = sorted(iv.end - iv.start for iv in timeline.intervals if iv.kind == "send")
        want = sorted(s.rows * s.width * s.channels * 32 / (rate * 1e6)
                      for s in plan.exchange_schedule)
        assert got == pytest.approx(want)


def test_standalone_time_vgg_calibrated():
    timing = default_timing("vgg16")
    assert standalone_time(VGG, timing) * 1e3 == pytest.approx(4905.0, rel=1e-6)


def test_standalone_time_zero_layers():
    from halp.models import ModelSpec

    empty = ModelSpec("empty", (4, 4, 3), ())
    assert standalone_time(empty, TimingModel(1e9, 0.01)) == 0.0


def test_rate_for_standalone_roundtrip():
    rate = rate_for_standalone(VGG, 4.905, 0.01)
    timing = TimingModel(rate, 0.01)
    assert standalone_time(VGG, timing) == pytest.approx(4.905)


def test_vgg_makespans_match_measurements():
    timing = default_timing("vgg16")
    for z1, target in ((4, 3264.0), (68, 2864.0)):
        plan = build_plan_vgg(VGG, z1)
        ms = simulate(plan, VGG, timing, 42.0).makespan * 1e3
        assert abs(ms - target) / target < 0.10, (z1, ms)


def test_vgg_gains():
    timing = default_timing("vgg16")
    alone = standalone_time(VGG, timing)
    g_default = alone / simulate(build_plan_vgg(VGG, 4), VGG, timing, 42.0).makespan
    g_opt = alone / simulate(build_plan_vgg(VGG, 68), VGG, timing, 42.0).makespan
    assert g_default == pytest.approx(1.50, abs=0.15)
    assert g_opt == pytest.approx(1.71, abs=0.17)
    assert g_opt > g_default


@pytest.mark.parametrize("alpha", MOBILENET_ALPHAS)
@pytest.mark.parametrize("rho", MOBILENET_RHOS)
def test_mobilenet_gains_in_window(alpha, rho):
    m = build_mobilenet_v1(alpha, rho)
    timing = default_timing(m.name)
    plan = build_plan_mobilenet(m)
    gain = standalone_time(m, timing) / simulate(plan, m, timing, 42.0).makespan
    assert GAIN_WINDOW[0] < gain < GAIN_WINDOW[1], (m.name, gain)


def test_mobilenet_standalone_residuals_reported():
    from halp.selector import load_catalog
    from halp.simulate import default_calibration

    cal = default_calibration()["mobilenet"]
    for entry in load_catalog():
        if entry.name == "vgg16":
            continue
        name, t_ms = entry.name, entry.t_standalone_ms
        m = build_mobilenet_v1(entry.alpha, entry.rho)
        timing = TimingModel(cal["mac_rates"][name], cal["overhead_s"])
        got = standalone_time(m, timing) * 1e3
        residual = cal["fit"]["standalone_residuals"][name]
        assert got == pytest.approx(t_ms * (1 + residual), rel=1e-6)
        assert abs(residual) < 0.06  # residuals stay small and visible


def test_makespan_monotone_in_throughput():
    plan = build_plan_vgg(VGG, 68)
    timing = default_timing("vgg16")
    rates = np.geomspace(5, 5000, 20)
    spans = [simulate(plan, VGG, timing, float(r)).makespan for r in rates]
    assert all(a >= b - 1e-12 for a, b in zip(spans, spans[1:]))


def test_makespan_lower_bounds():
    m = build_mobilenet_v1(1.0, 224)
    plan = build_plan_mobilenet(m)
    timing = default_timing(m.name)
    rate = 42.0
    tl = simulate(plan, m, timing, rate)
    per_device = {r: 0.0 for r in Role}
    for iv in tl.intervals:
        if iv.kind == "compute" and iv.node in (r.value for r in Role):
            per_device[Role(iv.node)] += iv.end - iv.start
    assert tl.makespan >= max(per_device.values()) - 1e-12
    link_bits = {}
    for s in plan.exchange_schedule:
        link_bits[(s.sender, s.receiver)] = link_bits.get((s.sender, s.receiver), 0) + s.bits
    assert tl.makespan >= max(link_bits.values()) / (rate * 1e6) - 1e-12


def test_infinite_rate_hits_compute_critical_path():
    """With free communication the makespan is the host's dependency chain:
    layers where it waits for the slowest producer, then the head."""
    m = build_mobilenet_v1(0.25, 160)
    plan = build_plan_mobilenet(m)
    timing = default_timing(m.name)
    fast = simulate(plan, m, timing, 1e9).makespan
    faster = simulate(plan, m, timing, 1e12).makespan
    assert fast == pytest.approx(faster, rel=1e-6)
    assert fast >= faster
    # compute-bound floor: no device total exceeds the makespan
    tl = simulate(plan, m, timing, 1e12)
    for role in Role:
        total = sum(iv.end - iv.start for iv in tl.intervals
                    if iv.kind == "compute" and iv.node == role.value)
        assert fast >= total - 1e-12


def test_channel_model_draw():
    fixed = ChannelModel(42.0)
    rng = np.random.default_rng(0)
    assert fixed.draw(rng) == 42.0
    var = ChannelModel(26.0, 52.0)
    draws = [var.draw(rng) for _ in range(100)]
    assert all(26.0 <= d <= 52.0 for d in draws)
    with pytest.raises(ValueError):
        ChannelModel(50.0, 25.0)


def test_timeline_csv_and_json():
    m = build_mobilenet_v1(0.25, 160)
    plan = build_plan_mobilenet(m)
    tl = simulate(plan, m, default_timing(m.name), 42.0)
    csv_text = tl.to_csv()
    assert csv_text.splitlines()[0] == "node,kind,layer,start_ms,end_ms"
    assert len(csv_text.splitlines()) == len(tl.intervals) + 1
    assert '"makespan_ms"' in tl.to_json()


def test_simulator_and_runtime_agree_on_exchange_order():
    """Per directed link, frames go out in the same order in the simulator's
    timeline and in the runtime's event log."""
    from halp.models import make_input, make_weights
    from halp.runtime import run_local_session

    m = build_vgg16(base_width=8, classes=5)
    plan = build_plan_vgg(m, 4)
    timing = TimingModel(1e9, 1e-4)
    tl = simulate(plan, m, timing, rate_mbps=100.0)

    sim_order = {}
    for iv in sorted((iv for iv in tl.intervals if iv.kind == "send"),
                     key=lambda iv: iv.start):
        sim_order.setdefault(iv.node, []).append(iv.layer)

    _, logs = run_local_session(m, make_weights(m, 0), plan, make_input(m, 1),
                                rate_mbps=500.0)
    run_order = {}
    for role in Role:
        sends = [ev for ev in logs[role].sequence() if ev[1] == "send"]
        mine = [s for s in plan.exchange_schedule if s.sender is role]
        for ev, step in zip(sends, mine):
            link = f"{step.sender.value}->{step.receiver.value}"
            run_order.setdefault(link, []).append(ev[2])
    assert run_order == sim_order


# --- rates that are not a positive number -------------------------------------

NOT_POSITIVE = [math.nan, 0.0, -5.0]


@pytest.mark.parametrize("rate", NOT_POSITIVE)
def test_rates_that_are_not_positive_are_rejected(rate):
    plan = build_plan_vgg(VGG, 4)
    with pytest.raises(ValueError):
        simulate(plan, VGG, default_timing("vgg16"), rate)
    with pytest.raises(ValueError):
        ChannelModel(rate)
    with pytest.raises(ValueError):
        ChannelModel(25.0, rate)


def test_unlimited_rate_moves_rows_in_zero_time():
    assert ChannelModel(math.inf).draw(np.random.default_rng(0)) == math.inf
    with pytest.raises(ValueError):
        ChannelModel(25.0, math.inf)  # no uniform draw up to an unlimited rate
    tl = simulate(build_plan_vgg(VGG, 68), VGG, default_timing("vgg16"), math.inf)
    assert all(iv.start == iv.end for iv in tl.intervals if iv.kind == "send")


# --- the fits reproduce the shipped calibration --------------------------------


def test_vgg_fit_reproduces_the_shipped_calibration():
    cal = default_calibration()["vgg16"]
    timing, report = fit_vgg_timing(build_vgg16())
    assert (timing.mac_rate, timing.overhead_s) == (cal["mac_rate"], cal["overhead_s"])
    assert report == cal["fit"]


def test_mobilenet_fit_reproduces_the_shipped_calibration():
    cal = default_calibration()["mobilenet"]
    overhead_s, rates, report = fit_mobilenet_timing()
    assert overhead_s == cal["overhead_s"]
    assert rates == cal["mac_rates"]
    assert report == cal["fit"]


def _exhaustive_vgg_fit(model, rate_mbps):
    """Reference: score every grid point on both entry zones, ascending, and
    keep the first strict minimum (a tie goes to the lowest overhead)."""
    plans = {z1: build_plan_vgg(model, z1) for z1 in VGG_TARGETS_MS}
    best = None
    for overhead_ms in np.arange(0.5, 180.0, 0.5):
        timing = TimingModel(
            rate_for_standalone(model, VGG_STANDALONE_MS / 1e3, overhead_ms / 1e3),
            overhead_ms / 1e3,
        )
        devs = []
        for z1, target in VGG_TARGETS_MS.items():
            got = simulate(plans[z1], model, timing, rate_mbps).makespan * 1e3
            devs.append(abs(got - target) / target)
        score = max(devs)
        if best is None or score < best[0]:
            best = (score, timing)
    score, timing = best
    report = {"standalone_ms": standalone_time(model, timing) * 1e3,
              "worst_makespan_deviation": score}
    return timing, report


def _scalar_mobilenet_rate(model, plan, t_ms, overhead_s):
    """Reference: one overhead at a time, one scalar `simulate` call per
    bisection step; returns (rate, gain, simulated standalone time, the
    direction it bisected toward, steps)."""

    def gain_and_time(rate):
        timing = TimingModel(rate, overhead_s)
        alone = standalone_time(model, timing)
        return alone / simulate(plan, model, timing, 42.0).makespan, alone

    lo_target, hi_target = simulate_module._GAIN_FIT_TARGET
    exact = rate_for_standalone(model, t_ms / 1e3, overhead_s)
    gain, t_sim = gain_and_time(exact)
    if lo_target <= gain <= hi_target:
        return exact, gain, t_sim, None, 0
    want = hi_target if gain > hi_target else lo_target
    lo_k, hi_k = 0.25, 4.0
    for step in range(1, 61):
        k = (lo_k * hi_k) ** 0.5
        gain, t_sim = gain_and_time(exact * k)
        if gain > want:
            lo_k = k
        else:
            hi_k = k
        if abs(gain - want) < 1e-4:
            break
    return exact * k, gain, t_sim, want, step


def test_lockstep_mobilenet_rates_equal_the_scalar_bisection_bit_for_bit(monkeypatch):
    """All 12 variants at all 30 overheads of the fit's grid: the lockstep
    rates, gains and simulated standalone times equal a scalar bisection's,
    with one array `simulate` call per step. The grid bisects toward both
    ends of the target, and some elements use all 60 steps."""
    calls = []
    original = simulate_module.simulate

    def counted(plan, model, timing, rate_mbps):
        calls.append(np.shape(timing.mac_rate))
        return original(plan, model, timing, rate_mbps)

    monkeypatch.setattr(simulate_module, "simulate", counted)
    overheads = np.arange(1.0, 16.0, 0.5) / 1e3
    standalone_ms = {entry.name: entry.t_standalone_ms for entry in load_catalog()}
    toward, steps = set(), set()
    for alpha in MOBILENET_ALPHAS:
        for rho in MOBILENET_RHOS:
            m = build_mobilenet_v1(alpha, rho)
            plan, t_ms = build_plan_mobilenet(m), standalone_ms[m.name]
            calls.clear()
            got = simulate_module._fit_rates(m, plan, t_ms, overheads)
            assert 1 <= len(calls) <= 61 and set(calls) == {overheads.shape}
            *want, wants, counts = zip(*(_scalar_mobilenet_rate(m, plan, t_ms, o)
                                         for o in overheads))
            for g, w in zip(got, want):
                assert g.tobytes() == np.array(w).tobytes(), m.name
            assert len(calls) == 1 + max(counts)
            toward.update(wants)
            steps.update(counts)
    assert toward == {None, *simulate_module._GAIN_FIT_TARGET}
    assert 60 in steps


def test_mobilenet_fit_prices_only_array_timings_of_its_grid(monkeypatch):
    shapes = []
    original = simulate_module.simulate

    def counted(plan, model, timing, rate_mbps):
        shapes.append((np.shape(timing.mac_rate), np.shape(timing.overhead_s)))
        return original(plan, model, timing, rate_mbps)

    monkeypatch.setattr(simulate_module, "simulate", counted)
    fit_mobilenet_timing()
    assert 12 <= len(shapes) <= 12 * 61
    assert set(shapes) == {((30,), (30,))}


@pytest.mark.parametrize("rate", [10.0, 42.0, math.inf])
def test_best_first_vgg_fit_equals_the_exhaustive_grid(rate):
    want = _exhaustive_vgg_fit(VGG, rate)
    got = fit_vgg_timing(VGG, rate)
    assert got == want
    assert repr(got) == repr(want)


def test_vgg_fit_makes_one_simulate_call_per_entry_zone(monkeypatch):
    calls = []
    original = simulate_module.simulate

    def counted(plan, *args, **kwargs):
        calls.append(plan.z1)
        return original(plan, *args, **kwargs)

    monkeypatch.setattr(simulate_module, "simulate", counted)
    fit_vgg_timing(VGG, 42.0)
    assert sorted(calls) == sorted(VGG_TARGETS_MS)


@pytest.mark.parametrize("rate", [25.0, 42.0, 100.0])
def test_optimized_vgg_entry_zone(rate):
    assert optimize_plan(VGG, default_timing("vgg16"), rate).z1 == 68


# --- links are FIFO -------------------------------------------------------------


def _fourteen_plans():
    """The twelve catalog MobileNets and VGG-16 at z1 = 4 and 68."""
    plans = [pytest.param(VGG, build_plan_vgg(VGG, z1), id=f"vgg16_z{z1}") for z1 in (4, 68)]
    for alpha in MOBILENET_ALPHAS:
        for rho in MOBILENET_RHOS:
            m = build_mobilenet_v1(alpha, rho)
            plans.append(pytest.param(m, build_plan_mobilenet(m), id=m.name))
    return plans


GRID = 60


@pytest.mark.parametrize("rate", [10.0, 42.0, math.inf])
@pytest.mark.parametrize("model,plan", _fourteen_plans())
def test_an_array_timing_prices_each_element_as_a_scalar_call_would(model, plan, rate):
    """Element k of every time on an array-timed timeline equals, bit for
    bit, the same time on the timeline of a scalar call at point k."""
    base = default_timing(model.name)
    rates = base.mac_rate * np.geomspace(0.25, 4.0, GRID)
    overheads = np.linspace(0.0, 0.02, GRID)
    grid = simulate(plan, model, TimingModel(rates, overheads), rate)
    points = [simulate(plan, model, TimingModel(float(r), float(o)), rate)
              for r, o in zip(rates, overheads)]

    def bits(times):
        return np.asarray(times, dtype=np.float64).view(np.uint64)

    assert bits(grid.makespan).shape == (GRID,)
    assert np.array_equal(bits(grid.makespan), bits([p.makespan for p in points]))
    for j, iv in enumerate(grid.intervals):
        assert all(p.intervals[j][:4] == iv[:4] for p in points)
        for field in ("start", "end"):
            want = bits([getattr(p.intervals[j], field) for p in points])
            assert np.array_equal(np.broadcast_to(bits(getattr(iv, field)), (GRID,)), want)
    assert all(len(p.intervals) == len(grid.intervals) for p in points)


def test_a_float_timing_gives_a_float_makespan():
    makespan = simulate(build_plan_vgg(VGG, 68), VGG, TimingModel(4.69e9, 0.0765), 42.0).makespan
    assert type(makespan) is float


@pytest.mark.parametrize("model,plan", _fourteen_plans())
def test_each_recv_takes_the_oldest_send_on_its_link(model, plan):
    """Taken in order on its link, each simulated recv is at the end of the
    matching send and carries its rows; what is left is the merge stage's."""
    tl = simulate(plan, model, default_timing(model.name), 42.0)
    links = {
        role.value: iter([op.link for stage in plan.compiled[role][:-1] for op in stage
                          if type(op) is Recv])
        for role in ROLES
    }
    in_flight = {}
    for iv in tl.intervals:  # simulation order: a send comes before the recv that takes it
        if iv.kind == "send":
            in_flight.setdefault(iv.node, deque()).append(iv)
        elif iv.kind == "recv":
            send = in_flight[next(links[iv.node])].popleft()
            assert (iv.layer, iv.rows, iv.start, iv.end) == (send.layer, send.rows, send.end, send.end)
    assert all(next(left, None) is None for left in links.values())
    merge = [op.step for op in plan.compiled[Role.HOST][-1]]
    assert [(iv.layer, iv.rows) for q in in_flight.values() for iv in q] == [
        (s.before_layer, s.rows) for s in merge]
