"""Three-node pipelined execution of a partition plan, plus the monolithic
oracle it must match.

Each node walks the compiled op list (`planner.compile_schedule`), one
stage per spatial layer and then the merge. A stage receives the boundary
rows the layer needs, computes the owned rows in the ranges the list gives,
and ships each step's rows as soon as they exist. The order itself
(boundary rows first on secondaries, the host's band whole) lives only in
the list. A node keeps a layer's input as pieces, its own chunks of the
previous layer and the received frames, and each compute asks
`layers.gather_input` for its own receptive field only, so a secondary's
boundary rows wait for no other row's copy. After the merge stage the host
gathers the final map from the same kind of pieces and runs the classifier
head.

Every receive, compute and send is recorded as one `simulate.Interval` in
the node's `Timeline`, the record the simulator predicts for the same op
list; `Timeline.sequence()` is deterministic.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from .fields import ADDRESS, COUNT, DURATION, INT, STRING, Fields, parse
from .framing import Frame, handshake_frame, parse_handshake
from .layers import (
    LayerKind,
    apply_spatial_rows,
    f64_kernel,
    fully_connected,
    gather_input,
    global_avg_pool,
)
from .models import ModelSpec, get_model, make_input, make_weights
from .planner import (
    ExchangeStep,
    PartitionPlan,
    PlanError,
    Recv,
    Role,
    Send,
    build_plan,
    plan_from_json,
    plan_doc,
    read_plan,
    validate_plan,
)
from .simulate import Interval, Timeline
from .tensor import Tensor
from .transport import TransportError, TransportTimeout, inproc_pair

DEFAULT_TIMEOUT_S = 30.0
PROTOCOL_VERSION = 2  # of the handshake document and the frames that follow it

NODE_IDS = {Role.HOST: 0, Role.ED1: 1, Role.ED2: 2}
NODE_BY_ID = {v: k for k, v in NODE_IDS.items()}
_MODEL_OPTIONS = ("alpha", "rho", "base_width", "classes")  # of a host config and the handshake


class SessionError(RuntimeError):
    pass


class SessionTimeout(SessionError):
    """A peer did not produce a required frame within the session timeout."""


def monolithic_infer(model: ModelSpec, weights, x: Tensor) -> np.ndarray:
    """Run every layer on one node; the oracle for distributed equivalence."""
    if x.shape != model.input_shape:
        raise ValueError(f"input shape {x.shape} does not match model {model.input_shape}")
    specs, heights, _ = model.spatial_geometry
    for i, spec in enumerate(specs):
        rows = (0, heights[i + 1])
        x = apply_spatial_rows(
            gather_input([(0, x.data)], spec, rows, heights[i]), spec, weights[i], rows
        )
    return _run_head(model, weights, x)


def _run_head(model: ModelSpec, weights, x: Tensor) -> np.ndarray:
    vec: np.ndarray | None = None
    for i in range(model.n_spatial, len(model.layers)):
        spec = model.layers[i]
        if spec.kind is LayerKind.GLOBAL_AVG_POOL:
            x = global_avg_pool(x)
        else:
            vec = fully_connected(x.data if vec is None else vec, weights[i], spec.activation)
    return vec


class _Node:
    """Shared per-node machinery: row exchange and the interpreter of the
    node's compiled op list. A node refuses a plan that fails
    `validate_plan` before it starts its clock. Its trace's times are seconds
    since the node was made."""

    def __init__(self, role, model, weights, plan, transports, timeout, trace):
        problems = validate_plan(plan, model)
        if problems:
            raise SessionError(f"{role.value}: plan does not fit model: {problems[0]}")
        self.role = role
        self.model = model
        self.weights = weights
        self.transports = transports  # peer role -> transport
        self.timeout = timeout
        self.trace = trace or Timeline()
        self._t0 = time.monotonic()
        self.stages = plan.compiled[role]
        _, self._heights, _ = model.spatial_geometry

    def _record(self, node: str, kind: str, layer: int, rows: int, start: float) -> None:
        end = time.monotonic() - self._t0
        self.trace.intervals.append(Interval(node, kind, layer, rows, start - self._t0, end))

    # --- exchange ---------------------------------------------------------

    def _recv_rows(self, step: ExchangeStep) -> tuple[int, np.ndarray]:
        """The next frame on the step's link must be the step's own: links
        are FIFO, and the compiled lists receive in the order peers send."""
        start = time.monotonic()
        try:
            frame = self.transports[step.sender].receive(timeout=self.timeout)
        except TransportTimeout as exc:
            raise SessionTimeout(
                f"{self.role.value}: timed out waiting for rows "
                f"[{step.row_start}, {step.row_end}) before layer {step.before_layer}"
            ) from exc
        except TransportError as exc:
            raise SessionError(f"{self.role.value}: transport failed: {exc}") from exc
        got = (frame.layer, NODE_BY_ID.get(frame.sender), frame.row_start)
        if got != (step.before_layer, step.sender, step.row_start):
            raise SessionError(
                f"{self.role.value}: unexpected or repeated frame from "
                f"{step.sender.value} (layer {frame.layer}, sender {frame.sender}, "
                f"row {frame.row_start})"
            )
        shape = (frame.row_count, frame.width, frame.channels)
        want = (step.rows, step.width, step.channels)
        if shape != want:
            raise SessionError(
                f"{self.role.value}: frame carries (rows, width, channels) {shape}, "
                f"schedule says {want}"
            )
        self._record(self.role.value, "recv", step.before_layer, frame.row_count, start)
        return frame.row_start, frame.values

    def _send_rows(self, op: Send, out_start: int, out: np.ndarray) -> None:
        step = op.step
        lo, hi = step.row_start - out_start, step.row_end - out_start
        frame = Frame.from_rows(step.before_layer, NODE_IDS[self.role], step.row_start, out[lo:hi])
        start = time.monotonic()
        try:
            self.transports[step.receiver].send(frame)
        except TransportError as exc:
            raise SessionError(
                f"{self.role.value}: send of rows [{step.row_start}, {step.row_end}) before layer "
                f"{step.before_layer} to {step.receiver.value} failed: {exc}"
            ) from exc
        self._record(op.link, "send", step.before_layer, step.rows, start)

    # --- compute ----------------------------------------------------------

    def _compute(self, layer: int, rows: tuple[int, int], pieces, kernel64):
        """Output rows [rows) of `layer` as a `(first row, rows)` piece, from
        the input pieces the node holds."""
        spec = self.model.layers[layer]
        start = time.monotonic()
        x = gather_input(pieces, spec, rows, self._heights[layer])
        out = apply_spatial_rows(x, spec, self.weights[layer], rows, kernel64)
        self._record(self.role.value, "compute", layer, rows[1] - rows[0], start)
        return rows[0], out.data

    def run(self, initial: Tensor | None) -> list:
        """Walk the compiled op list: one stage per spatial layer, then the
        merge stage. A layer's input stays as pieces: the node's own chunks
        of the previous layer and the frames it received. Returns the pieces
        the merge stage holds."""
        own = [] if initial is None else [(0, initial.data)]
        for layer, stage in enumerate(self.stages):
            pieces, chunks, kernel64 = list(own), [], None  # frees the last layer's kernel
            for op in stage:
                if type(op) is Recv:
                    pieces.append(self._recv_rows(op.step))
                elif type(op) is Send:
                    self._send_rows(op, *(chunks or own)[-1])  # the rows computed most recently
                else:
                    if not chunks and self.model.layers[layer].kind is not LayerKind.MAX_POOL:
                        kernel64 = f64_kernel(self.weights[layer])  # one cast for all chunks
                    chunks.append(self._compute(layer, op.rows, pieces, kernel64))
            own = chunks or own
        self.trace.makespan = time.monotonic() - self._t0
        return pieces


def run_host(
    model: ModelSpec,
    weights,
    plan: PartitionPlan,
    x: Tensor,
    transports: dict[Role, object],
    timeout: float = DEFAULT_TIMEOUT_S,
    trace: Timeline | None = None,
) -> np.ndarray:
    """Distribute the input, co-compute the overlap zones, merge, classify."""
    if x.shape != model.input_shape:
        raise SessionError(f"input shape {x.shape} does not match model {model.input_shape}")
    node = _Node(Role.HOST, model, weights, plan, transports, timeout, trace)
    pieces = node.run(x)
    n = plan.n_spatial
    _, heights, _ = model.spatial_geometry
    height = heights[n]
    merged = gather_input(pieces, model.layers[n], (0, height), height)  # the whole final map
    return _run_head(model, weights, Tensor(merged))


def run_secondary(
    role: Role,
    model: ModelSpec,
    weights,
    plan: PartitionPlan,
    transport,
    timeout: float = DEFAULT_TIMEOUT_S,
    trace: Timeline | None = None,
) -> None:
    """Compute one segment, always serving host-needed boundary rows first."""
    if role not in (Role.ED1, Role.ED2):
        raise ValueError(f"secondary role must be ED1 or ED2, got {role}")
    node = _Node(role, model, weights, plan, {Role.HOST: transport}, timeout, trace)
    node.run(None)


def run_local_session(
    model: ModelSpec,
    weights,
    plan: PartitionPlan,
    x: Tensor,
    rate_mbps: float | None = None,
    timeout: float = DEFAULT_TIMEOUT_S,
) -> tuple[np.ndarray, dict[Role, Timeline]]:
    """Host and both secondaries on in-process transports (threads)."""
    host_ed1, ed1_end = inproc_pair(rate_mbps)
    host_ed2, ed2_end = inproc_pair(rate_mbps)
    traces = {role: Timeline() for role in Role}
    failures: list[BaseException] = []

    def _worker(role, transport):
        try:
            run_secondary(role, model, weights, plan, transport, timeout, traces[role])
        except BaseException as exc:  # surfaced after join
            failures.append(exc)
            transport.close()  # the host sees TransportClosed now, not at its timeout

    threads = [
        threading.Thread(target=_worker, args=(Role.ED1, ed1_end), daemon=True),
        threading.Thread(target=_worker, args=(Role.ED2, ed2_end), daemon=True),
    ]
    for t in threads:
        t.start()
    try:
        out = run_host(
            model, weights, plan, x,
            {Role.ED1: host_ed1, Role.ED2: host_ed2},
            timeout, traces[Role.HOST],
        )
    except SessionError as exc:
        if failures:
            raise exc from failures[0]
        raise
    finally:
        # a secondary still waiting for the host sees TransportClosed and exits
        host_ed1.close()
        host_ed2.close()
        for t in threads:
            t.join(timeout=timeout)
    if failures:
        raise failures[0]
    return out, traces


# --- socket deployment ------------------------------------------------------


def _session_doc(config: dict, model: ModelSpec, plan: PartitionPlan, seed: int) -> dict:
    """The handshake, with the options of the model `_resolve` built."""
    return {
        "protocol": PROTOCOL_VERSION,
        "model": config["model"],
        **{option: getattr(model, option) for option in _MODEL_OPTIONS},
        "seed": seed,
        "plan": plan_doc(plan),
    }


class ConfigError(ValueError):
    """A node config the session cannot use: unreadable, or a field or value it refuses."""


def load_config(path: str, role: str) -> dict:
    """The JSON object at `path`, with `role` set; the session reads its fields."""
    try:
        with open(path) as fh:
            config = parse(fh.read()).doc
    except (OSError, ValueError) as exc:  # missing, unreadable, not JSON, too deep, not an object
        raise ConfigError(str(exc)) from exc
    config["role"] = role
    return config


def _session_options(config: dict, addresses: tuple[str, ...], seed=True) -> tuple:
    """A node config's `timeout_s`, and its `seed` unless `seed` is false (a
    secondary takes the handshake's), once its `host:port` `addresses` read."""
    try:
        doc = Fields(config)
        for key in addresses:
            doc.get(key, ADDRESS)
        return (doc.get("timeout_s", DURATION, DEFAULT_TIMEOUT_S),
                doc.get("seed", COUNT, 0) if seed else None)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _resolve(config: dict) -> tuple[ModelSpec, PartitionPlan]:
    """The model and plan a host config names; options it omits take
    `get_model`'s defaults. A config the session cannot use is a
    `ConfigError`; a plan file that reads but does not fit the model is a
    `SessionError`, before any secondary is dialled."""
    options = {k: config[k] for k in _MODEL_OPTIONS if k in config}
    try:
        doc = Fields(config)
        model = get_model(doc.get("model", STRING), **options)
        plan_path = doc.get("plan_path", STRING, None)
        if plan_path is None:
            return model, build_plan(model, doc.get("z1", INT, 4))
        with open(plan_path) as fh:
            try:
                return model, plan_from_json(fh.read(), model)
            except PlanError as exc:  # it reads, but does not fit: as every node refuses it
                raise SessionError(f"host: plan does not fit model: {exc}") from exc
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{type(exc).__name__}: {exc}") from exc


def read_handshake(frame: Frame, role: Role) -> tuple[ModelSpec, PartitionPlan, int]:
    """The model, plan and seed of the handshake `role` received. Another
    protocol version, a malformed document, or a plan that does not fit the
    model raises `SessionError`."""
    try:
        doc = Fields(parse_handshake(frame))
        version = doc.get("protocol", INT)
        if version == PROTOCOL_VERSION:  # another version's document is read no further
            model = get_model(doc.get("model", STRING), **{k: doc.get(k) for k in _MODEL_OPTIONS})
            seed, plan = doc.get("seed", COUNT), read_plan(doc.object("plan"), model)
    except PlanError as exc:  # the plan reads, but not for the handshake's model
        raise SessionError(f"{role.value}: handshake plan does not fit model: {exc}") from exc
    except ValueError as exc:
        raise SessionError(f"{role.value}: malformed handshake: {exc!r}") from exc
    if version != PROTOCOL_VERSION:
        raise SessionError(
            f"{role.value}: handshake protocol {version}, this node speaks {PROTOCOL_VERSION}")
    problems = validate_plan(plan, model)
    if problems:
        raise SessionError(f"{role.value}: handshake plan does not fit model: {problems[0]}")
    return model, plan, seed


def host_session(config: dict) -> tuple[np.ndarray, Timeline]:
    """Connect to both secondaries, handshake, run one distributed inference.

    The host makes its input and draws its weights only after both
    handshakes are sent, so it draws while the secondaries draw theirs.
    """
    from .transport import connect

    timeout, seed = _session_options(config, ("ed1", "ed2"))
    model, plan = _resolve(config)
    transports = {}
    deadline = time.monotonic() + timeout  # one dial window for both secondaries
    for role, key in ((Role.ED1, "ed1"), (Role.ED2, "ed2")):
        try:
            transports[role] = connect(config[key], deadline - time.monotonic())
        except OSError as exc:
            for t in transports.values():
                t.close()
            raise SessionError(f"cannot reach {key} at {config[key]}: {exc}") from exc
    doc = _session_doc(config, model, plan, seed)
    trace = Timeline()
    try:
        for t in transports.values():
            t.send(handshake_frame(doc))
        x = make_input(model, seed)
        weights = make_weights(model, seed)
        out = run_host(model, weights, plan, x, transports, timeout, trace)
    finally:
        for t in transports.values():
            t.close()
    return out, trace


def secondary_session(config: dict) -> Timeline:
    """Listen for the host, and read its handshake before any weight is
    drawn. Only the spatial layers' weights are drawn: a secondary never
    runs the head."""
    from .transport import listen_one

    role = Role(config["role"])
    timeout, _ = _session_options(config, ("listen",), seed=False)
    transport = listen_one(config["listen"], timeout)
    try:
        model, plan, seed = read_handshake(transport.receive(timeout=timeout), role)
        weights = make_weights(model, seed, model.n_spatial)
        trace = Timeline()
        run_secondary(role, model, weights, plan, transport, timeout, trace)
        return trace
    finally:
        transport.close()


def verify_equivalence(
    model: ModelSpec, plan: PartitionPlan, seed: int = 0
) -> tuple[float, np.ndarray]:
    """Distributed `plan` vs monolithic on the same weights; returns (max rel err, output)."""
    weights = make_weights(model, seed)
    x = make_input(model, seed)
    reference = monolithic_infer(model, weights, x)
    distributed, _ = run_local_session(model, weights, plan, x)
    scale = np.maximum(np.abs(reference.astype(np.float64)), 1e-12)
    err = float(np.max(np.abs(distributed.astype(np.float64) - reference) / scale))
    return err, distributed
