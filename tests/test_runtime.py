"""Distributed execution equals the monolithic oracle; protocol properties."""

import json
import re
import threading
import time

import numpy as np
import pytest

from halp.layers import LayerKind
from halp.models import (
    build_mobilenet_v1,
    build_vgg16,
    make_input,
    make_weights,
)
from halp.planner import (
    Compute,
    Role,
    Send,
    build_plan,
    build_plan_mobilenet,
    build_plan_vgg,
)
from halp.runtime import (
    SessionError,
    SessionTimeout,
    monolithic_infer,
    run_host,
    run_local_session,
    run_secondary,
    verify_equivalence,
)
from halp.simulate import TimingModel, simulate
from halp.transport import TransportError, inproc_pair
from test_planner import secondary_to_secondary_plan
from tests_property_helpers import steps_before


def rel_err(a, b):
    scale = np.maximum(np.abs(b.astype(np.float64)), 1e-12)
    return float(np.max(np.abs(a.astype(np.float64) - b) / scale))


def test_monolithic_zero_weights_gives_bias():
    m = build_mobilenet_v1(1.0, 160, base_width=8, classes=6)
    weights = make_weights(m, 0)
    zeroed = [w.__class__(np.zeros_like(w.kernel), w.bias) for w in weights]
    out = monolithic_infer(m, zeroed, make_input(m, 1))
    np.testing.assert_allclose(out, zeroed[-1].bias, rtol=1e-6)


def test_monolithic_deterministic():
    m = build_vgg16(base_width=8, classes=10)
    w = make_weights(m, 3)
    x = make_input(m, 4)
    a = monolithic_infer(m, w, x)
    b = monolithic_infer(m, w, x)
    np.testing.assert_array_equal(a, b)


def test_monolithic_golden_vgg_small():
    """Self-generated golden output, frozen at first recording."""
    m = build_vgg16(base_width=8, classes=10)
    out = monolithic_infer(m, make_weights(m, 7), make_input(m, 8))
    golden = np.array(
        [6.36099968e8, 2.31408000e8, 7.74102208e8, 1.22096346e9,
         -6.39440896e8, -5.93301880e7, -8.48018432e8, -1.35950451e9,
         1.03949811e9, -1.01559123e9],
        dtype=np.float32,
    )
    np.testing.assert_allclose(out, golden, rtol=1e-6)


def test_distributed_equals_monolithic_vgg_default():
    m = build_vgg16(base_width=8, classes=10)
    err, _ = verify_equivalence(m, build_plan(m, 4), seed=3)
    assert err <= 1e-5


def test_distributed_equals_monolithic_vgg_optimized():
    m = build_vgg16(base_width=8, classes=10)
    err, _ = verify_equivalence(m, build_plan(m, 68), seed=3)
    assert err <= 1e-5


def test_distributed_equals_monolithic_mobilenet():
    m = build_mobilenet_v1(1.0, 224, base_width=8, classes=10)
    err, _ = verify_equivalence(m, build_plan(m), seed=5)
    assert err <= 1e-5


@pytest.mark.parametrize("model,z1", [
    (build_vgg16(base_width=8, classes=10), 4),
    (build_vgg16(base_width=8, classes=10), 68),
    (build_mobilenet_v1(1.0, 224, base_width=8, classes=10), 4),
])
def test_distributed_bitwise_equals_monolithic(model, z1):
    """Each node computes row sub-ranges with the same BLAS calls as the oracle."""
    weights = make_weights(model, 3)
    x = make_input(model, 4)
    want = monolithic_infer(model, weights, x)
    got, _ = run_local_session(model, weights, build_plan(model, z1), x)
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("model", [
    build_vgg16(base_width=8, classes=10),
    build_mobilenet_v1(1.0, 224, base_width=8, classes=10),
])
def test_rate_limited_session_bitwise_equals_monolithic(model):
    """Frames delivered at their link arrival time change timing, never values."""
    weights = make_weights(model, 3)
    x = make_input(model, 4)
    want = monolithic_infer(model, weights, x)
    got, _ = run_local_session(model, weights, build_plan(model, 4), x, rate_mbps=500.0)
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("model", [
    build_vgg16(base_width=8, classes=10),
    build_mobilenet_v1(1.0, 224, base_width=8, classes=10),
])
def test_each_node_casts_each_conv_kernel_once(monkeypatch, model):
    """One float64 kernel per conv layer per node, shared by the boundary and
    rest chunks and freed before the node casts the next layer's kernel."""
    import weakref

    from halp import layers, runtime

    weights = make_weights(model, 3)
    layer_of = {id(w): i for i, w in enumerate(weights)}
    casts = []  # (thread, layer)
    latest = {}  # thread -> weak reference to its last float64 kernel
    real = layers.f64_kernel

    def counting(w):
        thread = threading.get_ident()
        previous = latest.get(thread)
        assert previous is None or previous() is None, "last layer's kernel still alive"
        kernel = real(w)
        casts.append((thread, layer_of[id(w)]))
        latest[thread] = weakref.ref(kernel)
        return kernel

    monkeypatch.setattr(runtime, "f64_kernel", counting)
    monkeypatch.setattr(layers, "f64_kernel", counting)  # a cast inside a kernel counts too
    x = make_input(model, 4)
    got, _ = run_local_session(model, weights, build_plan(model, 4), x)
    conv_layers = [i for i, spec in enumerate(model.layers[: model.n_spatial])
                   if spec.kind is not LayerKind.MAX_POOL]
    by_node = {}
    for thread, layer in casts:
        by_node.setdefault(thread, []).append(layer)
    assert len(by_node) == 3
    for layers_cast in by_node.values():
        assert layers_cast == conv_layers
    monkeypatch.undo()
    np.testing.assert_array_equal(got, monolithic_infer(model, weights, x))


def test_verify_equivalence_runs_the_given_plan():
    from halp.runtime import SessionError

    vgg = build_vgg16(base_width=8, classes=5)
    mn = build_mobilenet_v1(1.0, 224, base_width=8, classes=5)
    err, _ = verify_equivalence(vgg, seed=3, plan=build_plan_vgg(vgg, 68))
    assert err <= 1e-5
    with pytest.raises(SessionError, match="plan does not fit"):
        verify_equivalence(vgg, seed=3, plan=build_plan_mobilenet(mn))


def _session(model, plan, seed=11):
    weights = make_weights(model, seed)
    x = make_input(model, seed + 1)
    out, logs = run_local_session(model, weights, plan, x)
    return weights, x, out, logs


def test_event_logs_deterministic():
    m = build_mobilenet_v1(0.5, 160, base_width=8, classes=7)
    plan = build_plan_mobilenet(m)
    w = make_weights(m, 1)
    x = make_input(m, 2)
    out1, logs1 = run_local_session(m, w, plan, x)
    out2, logs2 = run_local_session(m, w, plan, x)
    np.testing.assert_array_equal(out1, out2)
    for role in Role:
        assert logs1[role].sequence() == logs2[role].sequence()


def _op_records(plan, role):
    """(node, kind, layer, rows) of each op in the role's compiled list."""
    records = []
    for stage in plan.compiled[role]:
        for op in stage:
            if isinstance(op, Compute):
                records.append((role.value, "compute", op.layer, op.rows[1] - op.rows[0]))
            elif isinstance(op, Send):
                link = f"{op.step.sender.value}->{op.step.receiver.value}"
                records.append((link, "send", op.step.before_layer, op.step.rows))
            else:
                records.append((role.value, "recv", op.step.before_layer, op.step.rows))
    return records


@pytest.mark.parametrize("name", ["vgg16", "mobilenet"])
def test_trace_has_one_interval_per_compiled_op(name):
    """Each node records its ops as the simulator's Interval, in list order."""
    if name == "vgg16":
        m = build_vgg16(base_width=8, classes=5)
        plan = build_plan_vgg(m, 4)
    else:
        m = build_mobilenet_v1(1.0, 224, base_width=8, classes=5)
        plan = build_plan_mobilenet(m)
    _, _, _, traces = _session(m, plan)
    predicted = simulate(plan, m, TimingModel(1e9, 1e-4), rate_mbps=100.0)
    sim_doc = json.loads(predicted.to_json())
    for role in Role:
        trace = traces[role]
        got = [(iv.node, iv.kind, iv.layer, iv.rows) for iv in trace.intervals]
        assert got == _op_records(plan, role)
        assert all(iv.start <= iv.end for iv in trace.intervals)
        starts = [iv.start for iv in trace.intervals]
        assert starts == sorted(starts)
        # the simulator's records of the spatial stages are the same, in the same order
        sim = [(iv.node, iv.kind, iv.layer, iv.rows) for iv in predicted.intervals
               if iv.node.split("->")[0] == role.value and iv.layer < plan.n_spatial]
        assert sim == [r for r in got if r[2] < plan.n_spatial]
        doc = json.loads(trace.to_json())
        assert doc.keys() == sim_doc.keys()
        assert all(iv.keys() == sim_doc["intervals"][0].keys() for iv in doc["intervals"])


def test_session_traces_name_each_send_by_its_ops_link():
    """A measured send's node is the link its compiled op names, as in the simulator."""
    m = build_vgg16(base_width=8, classes=5)
    plan = build_plan_vgg(m, 4)
    _, _, _, traces = _session(m, plan)
    for role in Role:
        links = [op.link for stage in plan.compiled[role] for op in stage if type(op) is Send]
        assert [iv.node for iv in traces[role].intervals if iv.kind == "send"] == links
        assert set(links) <= {f"{role.value}->{peer.value}" for peer in Role if peer is not role}


def test_exchange_minimality():
    """Frames actually sent are exactly the plan's schedule, per link."""
    m = build_vgg16(base_width=8, classes=5)
    plan = build_plan_vgg(m, 4)
    _, _, _, logs = _session(m, plan)
    sent = sum(ev[1] == "send" for role in Role for ev in logs[role].sequence())
    assert sent == len(plan.exchange_schedule)
    # per sender, the send (layer, rows) sequence equals the schedule
    for role in Role:
        mine = [(s.before_layer, s.rows) for s in plan.exchange_schedule if s.sender is role]
        got = [(ev[2], ev[3]) for ev in logs[role].sequence() if ev[1] == "send"]
        assert got == mine


def test_priority_rule_boundary_rows_sent_before_rest():
    """On secondaries, host-needed rows of layer L are sent before the rest
    of layer L finishes computing."""
    m = build_vgg16(base_width=8, classes=5)
    plan = build_plan_vgg(m, 4)
    _, _, _, logs = _session(m, plan)
    for role in (Role.ED1, Role.ED2):
        seq = logs[role].sequence()
        for layer in range(1, plan.n_spatial):
            host_steps = [s for s in steps_before(plan, layer)
                          if s.sender is role and s.receiver is Role.HOST]
            if not host_steps:
                continue
            send_idx = [i for i, ev in enumerate(seq)
                        if ev[1] == "send" and ev[2] == layer]
            # computing of layer-(L-1) rest finishes after the boundary send
            own = plan.parts[layer - 1].out_ranges[role]
            total = own[1] - own[0]
            boundary = sum(s.rows for s in steps_before(plan, layer) if s.sender is role)
            rest_end = [i for i, ev in enumerate(seq)
                        if ev[1] == "compute_end" and ev[2] == layer - 1
                        and ev[3] == total - boundary]
            if rest_end:
                assert min(send_idx) < min(rest_end), (role, layer)


def test_all_devices_compute_every_layer():
    m = build_mobilenet_v1(1.0, 224, base_width=8, classes=5)
    plan = build_plan_mobilenet(m)
    _, _, _, logs = _session(m, plan)
    for role in Role:
        layers = {ev[2] for ev in logs[role].sequence() if ev[1] == "compute_start"}
        assert layers == set(range(plan.n_spatial))


def test_secondary_timeout_is_session_timeout():
    m = build_vgg16(base_width=8, classes=5)
    plan = build_plan_vgg(m, 4)
    w = make_weights(m, 0)
    t_host, _ = inproc_pair()  # host never speaks
    with pytest.raises(SessionTimeout):
        run_secondary(Role.ED1, m, w, plan, t_host, timeout=0.2)


def _rows_for(step):
    return np.zeros((step.rows, step.width, step.channels), dtype=np.float32)


@pytest.mark.parametrize("case", ["stray_row", "repeat_of_stashed", "wrong_sender"])
def test_secondary_rejects_stray_or_repeated_frame(case):
    """A frame the schedule does not owe this node fails the session at once."""
    from halp.framing import Frame
    from halp.runtime import SessionError

    m = build_vgg16(base_width=8, classes=5)
    plan = build_plan_vgg(m, 4)
    first, second = [s for s in plan.exchange_schedule if s.receiver is Role.ED1][:2]
    host_end, ed1_end = inproc_pair()
    if case == "stray_row":
        frames = [Frame.from_rows(0, 0, first.row_start + 5, _rows_for(first))]
    elif case == "repeat_of_stashed":
        early = Frame.from_rows(second.before_layer, 0, second.row_start, _rows_for(second))
        frames = [early, early]
    else:
        frames = [Frame.from_rows(0, 2, first.row_start, _rows_for(first))]
    for frame in frames:
        host_end.send(frame)
    start = time.monotonic()
    with pytest.raises(SessionError, match="unexpected or repeated frame"):
        run_secondary(Role.ED1, m, make_weights(m, 0, m.n_spatial), plan, ed1_end, timeout=5)
    assert time.monotonic() - start < 1.0


@pytest.mark.parametrize("field", ["rows", "width", "channels"])
def test_secondary_rejects_a_frame_of_another_shape(field):
    """A frame with the step's key but not its rows, width or channels fails
    the session at once; a narrower map would otherwise run on silently."""
    from halp.framing import Frame
    from halp.runtime import SessionError

    m = build_vgg16(base_width=8, classes=5)
    plan = build_plan_vgg(m, 4)
    first = next(s for s in plan.exchange_schedule if s.receiver is Role.ED1)
    shape = dict(rows=first.rows, width=first.width, channels=first.channels)
    shape[field] += 1
    host_end, ed1_end = inproc_pair()
    rows = np.zeros(tuple(shape.values()), np.float32)
    host_end.send(Frame.from_rows(0, 0, first.row_start, rows))
    start = time.monotonic()
    with pytest.raises(SessionError, match="schedule says"):
        run_secondary(Role.ED1, m, make_weights(m, 0, m.n_spatial), plan, ed1_end, timeout=5)
    assert time.monotonic() - start < 1.0


class _SendFails:
    """A transport end whose every send fails as a broken pipe does."""

    def __init__(self, end):
        self.end = end

    def send(self, frame):
        raise TransportError("send failed: [Errno 32] Broken pipe")

    def receive(self, timeout):
        return self.end.receive(timeout)

    def close(self):
        self.end.close()


_SEND_FAILED = r"send of rows \[\d+, \d+\) before layer \d+ to {} failed: .*Broken pipe$"


def test_a_failed_send_on_the_host_names_its_role_and_layer():
    m = build_vgg16(base_width=8, classes=5)
    ends = {role: _SendFails(inproc_pair()[0]) for role in (Role.ED1, Role.ED2)}
    start = time.monotonic()
    with pytest.raises(SessionError, match="^host: " + _SEND_FAILED.format("ed[12]")):
        run_host(m, make_weights(m, 0), build_plan_vgg(m, 4), make_input(m, 1), ends, timeout=5.0)
    assert time.monotonic() - start < 5.0


def test_a_failed_send_on_a_secondary_names_its_role_and_layer(monkeypatch):
    """ED1's first send fails; the host then sees ED1 close, and its
    error carries ED1's as its cause."""
    from halp import runtime

    pairs = []

    def pair(rate_mbps):
        host_end, node_end = inproc_pair(rate_mbps)
        pairs.append(node_end)
        return host_end, _SendFails(node_end) if len(pairs) == 1 else node_end  # ED1's end

    monkeypatch.setattr(runtime, "inproc_pair", pair)
    m = build_vgg16(base_width=8, classes=5)
    start = time.monotonic()
    with pytest.raises(SessionError) as info:
        run_local_session(m, make_weights(m, 0), build_plan_vgg(m, 4), make_input(m, 1),
                          timeout=5.0)
    assert time.monotonic() - start < 5.0
    cause = info.value.__cause__
    assert isinstance(cause, SessionError)
    assert re.match("^ed1: " + _SEND_FAILED.format("host"), str(cause)), str(cause)


def test_host_rejects_bad_plan_model_pair():
    from halp.runtime import SessionError

    vgg = build_vgg16(base_width=8, classes=5)
    mn = build_mobilenet_v1(1.0, 224, base_width=8, classes=5)
    plan = build_plan_mobilenet(mn)
    a, _ = inproc_pair()
    b, _ = inproc_pair()
    with pytest.raises(SessionError):
        run_host(vgg, make_weights(vgg, 0), plan, make_input(vgg, 1),
                 {Role.ED1: a, Role.ED2: b}, timeout=0.5)


def _mobilenet_plan(model):
    """A plan for a model of another name and layer count."""
    return build_plan_mobilenet(build_mobilenet_v1(0.25, 160, base_width=8, classes=5))


@pytest.mark.parametrize("make_plan, problem", [
    (secondary_to_secondary_plan, "step before layer 1: "),
    (_mobilenet_plan, "plan is for model 'MobileNet_v1_0.25_160', not 'vgg16'"),
], ids=["secondary_to_secondary_plan", "another_model"])
@pytest.mark.parametrize("role", [Role.HOST, Role.ED1, Role.ED2])
def test_each_node_refuses_a_plan_that_fails_validation_before_it_waits(role, make_plan,
                                                                        problem):
    """No node waits for a frame of a plan that fails validation: each
    refuses it at once, naming its role, before it reads a weight."""
    model = build_vgg16(base_width=8, classes=5)
    plan = make_plan(model)
    a, _ = inproc_pair()
    b, _ = inproc_pair()
    start = time.monotonic()
    with pytest.raises(SessionError,
                       match=f"^{role.value}: plan does not fit model: {re.escape(problem)}"):
        if role is Role.HOST:
            run_host(model, None, plan, make_input(model, 0), {Role.ED1: a, Role.ED2: b},
                     timeout=5.0)
        else:
            run_secondary(role, model, None, plan, a, timeout=5.0)
    assert time.monotonic() - start < 1.0


def test_socket_three_node_session():
    """Full deployment over localhost TCP: host + two secondary servers."""
    from halp.runtime import host_session, secondary_session

    model_args = {"model": "mobilenet", "alpha": 0.5, "rho": 160,
                  "base_width": 8, "classes": 9, "seed": 21}
    ed_logs = {}

    def serve(role, listen):
        ed_logs[role] = secondary_session(
            {"role": role, "listen": listen, "timeout_s": 20}
        )

    threads = [
        threading.Thread(target=serve, args=("ed1", "127.0.0.1:7601")),
        threading.Thread(target=serve, args=("ed2", "127.0.0.1:7602")),
    ]
    for t in threads:
        t.start()
    out, _ = host_session(
        {**model_args, "ed1": "127.0.0.1:7601", "ed2": "127.0.0.1:7602",
         "timeout_s": 20}
    )
    for t in threads:
        t.join(timeout=20)
    m = build_mobilenet_v1(0.5, 160, base_width=8, classes=9)
    want = monolithic_infer(m, make_weights(m, 21), make_input(m, 21))
    assert rel_err(out, want) <= 1e-5
    assert set(ed_logs) == {"ed1", "ed2"}


def test_host_session_connection_refused():
    from halp.runtime import SessionError, host_session

    with pytest.raises(SessionError, match="cannot reach"):
        host_session({"model": "vgg16", "base_width": 8, "classes": 5, "seed": 0,
                      "ed1": "127.0.0.1:7699", "ed2": "127.0.0.1:7698",
                      "timeout_s": 0.3})


def test_host_session_dials_both_secondaries_within_one_timeout(monkeypatch):
    """ED2 gets only what ED1's dial left of timeout_s; ED1 is closed on failure."""
    import time

    from halp import transport
    from halp.runtime import SessionError, host_session

    dials = []

    class Opened:
        closed = False

        def close(self):
            self.closed = True

    ed1 = Opened()

    def fake_connect(address, timeout):
        dials.append(timeout)
        if len(dials) == 1:
            time.sleep(0.2)
            return ed1
        raise ConnectionRefusedError(111, "Connection refused")

    monkeypatch.setattr(transport, "connect", fake_connect)
    with pytest.raises(SessionError, match="cannot reach ed2"):
        host_session({"model": "vgg16", "base_width": 8, "classes": 5, "seed": 0,
                      "ed1": "127.0.0.1:7699", "ed2": "127.0.0.1:7698",
                      "timeout_s": 0.5})
    assert len(dials) == 2
    assert dials[0] <= 0.5
    assert dials[1] <= 0.5 - 0.2
    assert ed1.closed


def test_host_session_closes_both_transports_when_handshake_fails(monkeypatch):
    from halp import transport
    from halp.runtime import host_session
    from halp.transport import TransportError

    class Fake:
        def __init__(self, fail):
            self.fail = fail
            self.closed = False

        def send(self, frame):
            if self.fail:
                raise TransportError("send failed: broken pipe")

        def close(self):
            self.closed = True

    opened = [Fake(fail=False), Fake(fail=True)]
    dials = iter(opened)
    monkeypatch.setattr(transport, "connect", lambda address, timeout: next(dials))
    with pytest.raises(TransportError, match="broken pipe"):
        host_session({"model": "vgg16", "base_width": 8, "classes": 5, "seed": 0,
                      "ed1": "127.0.0.1:7699", "ed2": "127.0.0.1:7698",
                      "timeout_s": 0.5})
    assert [t.closed for t in opened] == [True, True]


def test_local_session_fails_fast_when_a_secondary_dies(monkeypatch):
    """The host sees ED1's closed channel at once instead of waiting out timeout."""
    import time

    from halp import runtime
    from halp.runtime import SessionError

    crash = RuntimeError("ed1 crashed")
    real = runtime.run_secondary

    def flaky(role, *args, **kwargs):
        if role is Role.ED1:
            raise crash
        return real(role, *args, **kwargs)

    monkeypatch.setattr(runtime, "run_secondary", flaky)
    m = build_vgg16(base_width=8, classes=5)
    start = time.monotonic()
    with pytest.raises(SessionError) as info:
        run_local_session(m, make_weights(m, 0), build_plan_vgg(m, 4), make_input(m, 1),
                          timeout=5)
    assert time.monotonic() - start < 2.5
    assert info.value.__cause__ is crash


def test_host_session_sends_both_handshakes_before_drawing(monkeypatch):
    from halp import runtime, transport
    from halp.framing import parse_handshake

    events = []

    class Stop(Exception):
        pass

    class Fake:
        def __init__(self, name):
            self.name = name
            self.closed = False

        def send(self, frame):
            parse_handshake(frame)
            events.append(("handshake", self.name))

        def close(self):
            self.closed = True

    def fake_make_weights(model, seed, n_layers=None):
        events.append(("draw", n_layers))
        raise Stop

    fakes = [Fake("ed1"), Fake("ed2")]
    opened = iter(fakes)
    monkeypatch.setattr(transport, "connect", lambda address, timeout: next(opened))
    monkeypatch.setattr(runtime, "make_weights", fake_make_weights)
    with pytest.raises(Stop):
        runtime.host_session({"model": "vgg16", "base_width": 8, "classes": 5, "seed": 0,
                              "ed1": "127.0.0.1:7699", "ed2": "127.0.0.1:7698",
                              "timeout_s": 0.5})
    assert events == [("handshake", "ed1"), ("handshake", "ed2"), ("draw", None)]
    assert all(t.closed for t in fakes)


def test_secondaries_draw_only_spatial_weights(monkeypatch):
    """Over TCP each secondary draws the spatial prefix; the result stays bitwise."""
    from halp import runtime
    from halp.runtime import host_session, secondary_session

    draws = []
    real = runtime.make_weights

    def recording(model, seed, n_layers=None):
        weights = real(model, seed, n_layers)
        draws.append((threading.current_thread().name, len(weights)))
        return weights

    monkeypatch.setattr(runtime, "make_weights", recording)
    failures = []

    def serve(role, listen):
        try:
            secondary_session({"role": role, "listen": listen, "timeout_s": 20})
        except BaseException as exc:  # reported by the test thread
            failures.append(exc)

    threads = [
        threading.Thread(target=serve, args=("ed1", "127.0.0.1:7603"), name="ed1"),
        threading.Thread(target=serve, args=("ed2", "127.0.0.1:7604"), name="ed2"),
    ]
    for t in threads:
        t.start()
    out, _ = host_session(
        {"model": "mobilenet", "alpha": 0.5, "rho": 160, "base_width": 8, "classes": 9,
         "seed": 23, "ed1": "127.0.0.1:7603", "ed2": "127.0.0.1:7604", "timeout_s": 20}
    )
    for t in threads:
        t.join(timeout=20)
        assert not t.is_alive()
    assert not failures
    m = build_mobilenet_v1(0.5, 160, base_width=8, classes=9)
    host = threading.current_thread().name
    assert sorted(draws) == sorted(
        [(host, len(m.layers)), ("ed1", m.n_spatial), ("ed2", m.n_spatial)]
    )
    np.testing.assert_array_equal(out, monolithic_infer(m, real(m, 23), make_input(m, 23)))


@pytest.mark.parametrize(
    "port, change, message",
    [
        (7605, {}, "does not fit model"),  # the plan is VGG-16's
        (7606, {"model": "resnet"}, "malformed handshake"),
    ],
    ids=["plan_for_another_model", "unknown_model"],
)
def test_secondary_rejects_bad_handshake(monkeypatch, port, change, message):
    """A bad handshake fails both ends at once, before the secondary draws
    weights. `test_fields` sweeps each field of a handshake through
    `read_handshake`; these cases check the wiring over a socket."""
    import time

    from halp import runtime
    from halp.framing import handshake_frame
    from halp.planner import plan_to_json
    from halp.runtime import PROTOCOL_VERSION, SessionError, secondary_session
    from halp.transport import TransportClosed, connect

    draws = []
    monkeypatch.setattr(runtime, "make_weights", lambda *a, **k: draws.append(a))
    failures = []
    address = f"127.0.0.1:{port}"

    def serve():
        try:
            secondary_session({"role": "ed1", "listen": address, "timeout_s": 10})
        except BaseException as exc:  # reported by the test thread
            failures.append(exc)

    server = threading.Thread(target=serve)
    server.start()
    vgg_plan = build_plan(build_vgg16(base_width=8, classes=5), 4)
    doc = {"protocol": PROTOCOL_VERSION, "model": "mobilenet", "alpha": 0.5, "rho": 160,
           "base_width": 8, "classes": 5, "seed": 0,
           "plan": json.loads(plan_to_json(vgg_plan)), **change}
    host = connect(address, timeout=10)
    try:
        start = time.monotonic()
        host.send(handshake_frame(doc))
        with pytest.raises(TransportClosed):
            host.receive(timeout=10)
        assert time.monotonic() - start < 2.0
    finally:
        host.close()
    server.join(timeout=10)
    assert not server.is_alive()
    assert len(failures) == 1 and isinstance(failures[0], SessionError)
    assert message in str(failures[0])
    assert draws == []


@pytest.mark.parametrize(
    "port, version",
    [(7609, 3)],
    ids=["newer"],
)
def test_secondary_rejects_other_protocol_version(monkeypatch, port, version):
    """A handshake without this node's protocol version fails both ends at
    once, before the secondary draws weights, though the rest of it is valid."""
    from halp import runtime
    from halp.framing import handshake_frame
    from halp.runtime import SessionError, secondary_session
    from halp.transport import TransportClosed, connect

    draws = []
    monkeypatch.setattr(runtime, "make_weights", lambda *a, **k: draws.append(a))
    failures = []
    address = f"127.0.0.1:{port}"

    def serve():
        try:
            secondary_session({"role": "ed1", "listen": address, "timeout_s": 10})
        except BaseException as exc:  # reported by the test thread
            failures.append(exc)

    server = threading.Thread(target=serve)
    server.start()
    config = {"model": "mobilenet", "alpha": 0.5, "rho": 160, "base_width": 8, "classes": 5}
    doc = runtime._session_doc(config, *runtime._resolve(config), 0)
    assert doc.pop("protocol") == runtime.PROTOCOL_VERSION
    if version is not None:
        doc["protocol"] = version
    host = connect(address, timeout=10)
    try:
        start = time.monotonic()
        host.send(handshake_frame(doc))
        with pytest.raises(TransportClosed):
            host.receive(timeout=10)
        assert time.monotonic() - start < 2.0
    finally:
        host.close()
    server.join(timeout=10)
    assert not server.is_alive()
    assert len(failures) == 1 and isinstance(failures[0], SessionError)
    assert f"handshake protocol {version}, this node speaks 2" in str(failures[0])
    assert draws == []


def test_perfbench_tracer_still_wraps_each_compute(monkeypatch):
    """perfbench's `Tracer` (what `perfbench/run.py --trace 1` installs)
    describes every kernel call of an in-process session: each node's
    `apply_spatial_rows` spans carry a layer, rows, MACs and bytes, one span
    per compiled `Compute` op. A change to that function's signature or to
    how the runtime calls it would break `--trace 1` silently."""
    from pathlib import Path

    from halp import models, runtime

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import spans

    m = build_mobilenet_v1(0.25, 160, base_width=8, classes=5)
    plan = build_plan(m, 4)
    tracer = spans.Tracer()
    tracer.install()
    try:
        weights = models.make_weights(m, 3)
        runtime.run_local_session(m, weights, plan, make_input(m, 4))
    finally:
        tracer.uninstall()
    for role in Role:
        kernel_spans = [s for s in tracer.spans
                        if s["name"] == "apply_spatial_rows" and s["node"] == role.value]
        computes = [op for stage in plan.compiled[role] for op in stage if type(op) is Compute]
        assert len(kernel_spans) == len(computes), role
        for span in kernel_spans:
            assert span["layer"] is not None
            assert span["macs"] > 0 and span["bytes"] > 0
        assert [(s["layer"], tuple(s["rows"])) for s in kernel_spans] == [
            (op.layer, op.rows) for op in computes
        ]
