"""Shared property checks used by the acceptance suite."""

import numpy as np

from halp.framing import Frame, FrameError, deserialize_frame, serialize_frame
from halp.layers import LayerKind, LayerSpec, LayerWeights, fully_connected
from halp.selector import Mode, ReliabilityPoint, draw_tasks, offload_time_ms
from halp.tensor import Tensor

from test_layers import (
    conv_full,
    depthwise_full,
    maxpool_full,
    oracle_conv,
    oracle_depthwise,
    oracle_maxpool,
)


def steps_before(plan, layer):
    """The plan's exchange steps into the input map of `layer`, in schedule order."""
    return [s for s in plan.exchange_schedule if s.before_layer == layer]


def kernels_match_oracles(cases_per_kernel=100, rtol=1e-6):
    rng = np.random.default_rng(777)
    for _ in range(cases_per_kernel):
        kh = int(rng.choice([1, 3]))
        stride = int(rng.choice([1, 2]))
        pad = 0 if kh == 1 else 1
        cin, cout = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        h, w = int(rng.integers(4, 8)), int(rng.integers(4, 8))
        x = rng.uniform(-1, 1, (h, w, cin)).astype(np.float32)
        kern = rng.uniform(-1, 1, (kh, kh, cin, cout)).astype(np.float32)
        bias = rng.uniform(-1, 1, cout).astype(np.float32)
        spec = LayerSpec(LayerKind.CONV, (kh, kh), stride, pad, cin, cout)
        got = conv_full(Tensor(x), spec, LayerWeights(kern, bias))
        np.testing.assert_allclose(
            got.data, oracle_conv(x, kern, bias, stride, pad, False),
            rtol=rtol, atol=1e-6,
        )
    for _ in range(cases_per_kernel):
        stride = int(rng.choice([1, 2]))
        c = int(rng.integers(1, 5))
        h, w = int(rng.integers(4, 8)), int(rng.integers(4, 8))
        x = rng.uniform(-1, 1, (h, w, c)).astype(np.float32)
        kern = rng.uniform(-1, 1, (3, 3, c)).astype(np.float32)
        bias = rng.uniform(-1, 1, c).astype(np.float32)
        spec = LayerSpec(LayerKind.DEPTHWISE_CONV, (3, 3), stride, 1, c, c)
        got = depthwise_full(Tensor(x), spec, LayerWeights(kern, bias))
        np.testing.assert_allclose(
            got.data, oracle_depthwise(x, kern, bias, stride, 1, False),
            rtol=rtol, atol=1e-6,
        )
    for _ in range(cases_per_kernel):
        h, w = 2 * int(rng.integers(1, 5)), 2 * int(rng.integers(1, 5))
        c = int(rng.integers(1, 4))
        x = rng.uniform(-1, 1, (h, w, c)).astype(np.float32)
        np.testing.assert_array_equal(
            maxpool_full(Tensor(x)).data, oracle_maxpool(x).astype(np.float32)
        )
    for _ in range(cases_per_kernel):
        n_in, n_out = int(rng.integers(1, 16)), int(rng.integers(1, 10))
        x = rng.uniform(-1, 1, n_in).astype(np.float32)
        w = rng.uniform(-1, 1, (n_out, n_in)).astype(np.float32)
        b = rng.uniform(-1, 1, n_out).astype(np.float32)
        got = fully_connected(x, LayerWeights(w, b))
        want = w.astype(np.float64) @ x.astype(np.float64) + b
        np.testing.assert_allclose(got, want, rtol=rtol, atol=1e-6)
    return True


def roundtrip_ok():
    rng = np.random.default_rng(123)
    for _ in range(50):
        rows = int(rng.integers(1, 8))
        width = int(rng.integers(1, 64))
        ch = int(rng.integers(1, 16))
        data = rng.uniform(-1, 1, (rows, width, ch)).astype("<f4")
        frame = Frame.from_rows(int(rng.integers(0, 30)), int(rng.integers(0, 3)),
                                int(rng.integers(0, 200)), data)
        assert deserialize_frame(serialize_frame(frame)) == frame
    return True


def framing_fuzz_clean(cases=500):
    rng = np.random.default_rng(321)
    for _ in range(cases):
        n = int(rng.integers(0, 128))
        blob = rng.integers(0, 256, size=n, dtype=np.uint8).tobytes()
        try:
            deserialize_frame(blob)
        except FrameError:
            pass
    return True


def makespan_monotone(n_rates=20):
    from halp.models import build_vgg16
    from halp.planner import build_plan_vgg
    from halp.simulate import default_timing, simulate

    vgg = build_vgg16()
    plan = build_plan_vgg(vgg, 68)
    timing = default_timing("vgg16")
    rates = np.geomspace(5.0, 10_000.0, n_rates)
    spans = [simulate(plan, vgg, timing, float(r)).makespan for r in rates]
    assert all(a >= b - 1e-12 for a, b in zip(spans, spans[1:]))
    return True


def matrix_reliability(catalog, deadlines_ms, channel, n_tasks, seed, mode):
    """Reference for `run_reliability`: the task x entry matrix formulation,
    drawing tasks in both modes."""
    acc = np.array([e.top1_accuracy for e in catalog])
    t_standalone = np.array([e.t_standalone_ms for e in catalog])
    t_halp = np.array([e.t_halp_ms for e in catalog])
    points = []
    for d_idx, deadline in enumerate(deadlines_ms):
        rng = np.random.default_rng([seed, d_idx])
        image, rate = draw_tasks(rng, n_tasks, channel)
        if mode is Mode.STANDALONE:
            latency = np.broadcast_to(t_standalone, (n_tasks, len(catalog)))
        else:
            latency = offload_time_ms(image, rate)[:, None] + t_halp[None, :]
        qualifies = latency <= deadline
        feasible = qualifies.any(axis=1)
        chosen = np.where(qualifies, acc[None, :], -1.0).max(axis=1)
        chosen = np.where(feasible, chosen, 0.0)
        n_ok = int(feasible.sum())
        points.append(ReliabilityPoint(
            deadline_ms=float(deadline),
            failure_prob=1.0 - n_ok / n_tasks,
            expected_accuracy=float(chosen.sum() / n_ok) if n_ok else 0.0,
            service_reliability=float(chosen.mean()),
        ))
    return points
