"""Row-partition planning for three-node distributed inference.

Ownership model: at every spatial layer the output rows split into three
contiguous ranges — ED1 [0, a), host [a, b), ED2 [b, H). The planner only
decides ownership; every exchange (including the initial input segments and
the final merge) is then *derived* from receptive-field math: whatever input
rows a device needs but does not own must come from the device that owns
them. A plan is the derivation of its host bands (`_make_plan`): a plan
document holds only the bands, and `read_plan` derives the rest.
`compile_schedule` fixes the order in which each node receives, computes
and sends, for the runtime and the simulator alike.

VGG-16: the host band stays (z-2) rows wide through a block's convolutions
(z input rows), and a max-pool maps ownership [a, b) to
[floor(a/2), ceil(b/2)) — the host absorbs straddling pool rows, which is
what keeps the overlap-zone recurrence z' = z/2 + 2 going across blocks.

MobileNet-V1: the host band is 2 rows after every stride-2 layer, grows to
4 at the next stride-1 depthwise layer (alignment chosen so the following
stride-2 zone starts on an even input row, taking the extra row from the
ED1 side), and a stride-2 depthwise layer consumes a 5-row input zone: the
host's 4 owned rows plus one row sent by ED1.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import groupby

from .fields import INT, PAIR, STRING, Fields, parse
from .layers import LayerKind, receptive_field
from .models import ModelSpec


class Role(Enum):
    HOST = "host"
    ED1 = "ed1"
    ED2 = "ed2"


ROLES = (Role.HOST, Role.ED1, Role.ED2)

Range = tuple[int, int]


class PlanError(ValueError):
    """Raised when a partition request is geometrically infeasible."""


def overlap_recurrence(z_prev: int) -> int:
    """Host overlap-zone rows across a pooling step: z = z_prev/2 + 2."""
    if z_prev < 2 or z_prev % 2:
        raise ValueError(f"overlap zone must be even and >= 2, got {z_prev}")
    return z_prev // 2 + 2


@dataclass(frozen=True)
class ExchangeStep:
    """One boundary-row transfer, in the coordinates of the input map of
    `before_layer` (== output of the previous layer). `before_layer` equal to
    the number of spatial layers means the final merge at the host."""

    before_layer: int
    sender: Role
    receiver: Role
    row_start: int
    row_end: int
    width: int
    channels: int

    def __post_init__(self):
        if self.row_end <= self.row_start:
            raise ValueError("exchange step must carry at least one row")

    @property
    def rows(self) -> int:
        return self.row_end - self.row_start

    @property
    def bits(self) -> int:
        return self.rows * self.width * self.channels * 32


@dataclass(frozen=True)
class LayerPartition:
    """Per-layer row assignment. `out_ranges` are the owned (computed) output
    rows per role — disjoint, covering the full output height. `in_ranges`
    are their receptive fields. `host_rows` is the table-reported host figure
    (VGG: input-zone size; MobileNet: 5 for stride-2, 4 for stride-1 3x3)."""

    index: int
    in_height: int
    out_height: int
    out_ranges: dict[Role, Range]
    in_ranges: dict[Role, Range]
    host_rows: int


@dataclass(frozen=True)
class PartitionPlan:
    model_name: str
    z1: int  # VGG entry overlap rows; 0 for MobileNet plans
    parts: tuple[LayerPartition, ...]
    exchange_schedule: tuple[ExchangeStep, ...]

    @cached_property
    def compiled(self) -> dict[Role, tuple[tuple[Op, ...], ...]]:
        # built once per plan, and not a dataclass field, so equality and JSON
        # ignore it: the simulator runs one plan many times
        return compile_schedule(self)

    @property
    def n_spatial(self) -> int:
        return len(self.parts)


@dataclass(frozen=True, slots=True)
class Recv:
    step: ExchangeStep  # wait for this step's rows
    link: str  # "ed1->host": the FIFO link the rows arrive on


@dataclass(frozen=True, slots=True)
class Compute:
    layer: int
    rows: Range  # output rows of `layer`


@dataclass(frozen=True, slots=True)
class Send:
    step: ExchangeStep  # sliced from the rows computed most recently
    link: str  # "host->ed1": the FIFO link the rows leave on


Op = Recv | Compute | Send


def compile_schedule(plan: PartitionPlan) -> dict[Role, tuple[tuple[Op, ...], ...]]:
    """Each role's op list: one stage per spatial layer, then the merge stage.

    A stage receives the rows its layer needs from peers, computes the
    role's owned rows and sends the rows peers need of them. Each `Send`
    and `Recv` names its directed link; every role's sends and receives
    filter the same per-layer lists of the schedule, so on each link the
    receiver takes frames in the order the sender sends them. The runtime
    and the simulator both interpret these lists. It only orders: whether a
    plan can run is `validate_plan`'s to say, and on a plan that passes it
    every secondary's sends lie on one edge of its owned rows.
    """
    by_layer: dict[int, list[ExchangeStep]] = {}
    for step in plan.exchange_schedule:
        by_layer.setdefault(step.before_layer, []).append(step)

    def sends(role: Role, layer: int) -> list[Send]:
        return [Send(s, _link(s)) for s in by_layer.get(layer, ()) if s.sender is role]

    def recvs(role: Role, layer: int) -> list[Recv]:
        return [Recv(s, _link(s)) for s in by_layer.get(layer, ()) if s.receiver is role]

    compiled = {}
    for role in ROLES:
        # before layer 0 only the host holds rows: the input, which it sends as it is
        ops: list[Op] = sends(role, 0)
        stages = []
        for layer, part in enumerate(plan.parts):
            ops += recvs(role, layer)
            owned = part.out_ranges[role]
            stages.append((*ops, *_compute_and_send(role, layer, owned, sends(role, layer + 1))))
            ops = []
        compiled[role] = (*stages, tuple(recvs(role, plan.n_spatial)))
    return compiled


def _link(step: ExchangeStep) -> str:
    return f"{step.sender.value}->{step.receiver.value}"


def _compute_and_send(role: Role, layer: int, owned: Range, sends: list[Send]) -> list[Op]:
    """Boundary rows first: a secondary computes the rows its peers need (one
    range on an edge of its segment), sends them, and only then computes
    the rest, so the rest overlaps the transfer. The host's zone is small:
    it computes the zone whole, then sends both edges."""
    if not sends:
        return [Compute(layer, owned)]
    lo = min(op.step.row_start for op in sends)
    hi = max(op.step.row_end for op in sends)
    if role is Role.HOST or (lo, hi) == owned:
        return [Compute(layer, owned), *sends]
    rest = (owned[0], lo) if owned[0] < lo else (hi, owned[1])
    return [Compute(layer, (lo, hi)), *sends, Compute(layer, rest)]


def _intersect(x: Range, y: Range) -> Range | None:
    lo, hi = max(x[0], y[0]), min(x[1], y[1])
    return (lo, hi) if hi > lo else None


def _derive_schedule(model: ModelSpec, parts: list[LayerPartition]) -> list[ExchangeStep]:
    """All transfers implied by ownership + receptive fields, in canonical
    order: each device needs its `in_ranges` and holds its previous layer's
    `out_ranges`. Before layer 0 the host holds the whole input; at the
    merge (layer n) it needs the whole map."""
    specs, heights, widths = model.spatial_geometry
    n = len(specs)
    steps: list[ExchangeStep] = []
    for layer in range(n + 1):
        held = parts[layer - 1].out_ranges if layer else {Role.HOST: (0, heights[0])}
        if layer < n:
            needs, channels = parts[layer].in_ranges, specs[layer].in_channels
        else:
            needs, channels = {Role.HOST: (0, heights[n])}, specs[n - 1].out_channels
        # owners' ranges are disjoint: need ∩ owned is one step per link and layer
        for dev, need in needs.items():
            for owner, owned in held.items():
                part = None if owner is dev else _intersect(need, owned)
                if part is not None:
                    steps.append(ExchangeStep(layer, owner, dev, *part, widths[layer], channels))
    order = {Role.ED1: 0, Role.ED2: 1, Role.HOST: 2}
    steps.sort(key=lambda s: (s.before_layer, order[s.sender], order[s.receiver], s.row_start))
    return steps


def _make_plan(model: ModelSpec, z1: int, bands: list[Range], host_rows: list[int]) -> PartitionPlan:
    specs, heights, _ = model.spatial_geometry
    parts: list[LayerPartition] = []
    for i, spec in enumerate(specs):
        a, b = bands[i]
        h_out = heights[i + 1]
        if not (0 < a < b < h_out):
            raise PlanError(
                f"layer {i}: host band [{a}, {b}) leaves no rows for a secondary "
                f"(output height {h_out})"
            )
        ranges = {Role.ED1: (0, a), Role.HOST: (a, b), Role.ED2: (b, h_out)}
        parts.append(
            LayerPartition(
                index=i,
                in_height=heights[i],
                out_height=h_out,
                out_ranges=ranges,
                in_ranges={
                    dev: receptive_field(spec, rng, heights[i])
                    for dev, rng in ranges.items()
                },
                host_rows=host_rows[i],
            )
        )
    schedule = _derive_schedule(model, parts)
    return PartitionPlan(model.name, z1, tuple(parts), tuple(schedule))


def _vgg_blocks(model: ModelSpec) -> list[list[int]]:
    """Spatial layer indices grouped into pool-terminated blocks."""
    blocks, cur = [], []
    for i, spec in enumerate(model.layers[: model.n_spatial]):
        cur.append(i)
        if spec.kind is LayerKind.MAX_POOL:
            blocks.append(cur)
            cur = []
    return blocks


def build_plan_vgg(model: ModelSpec, z1: int = 4) -> PartitionPlan:
    """Block-coupled VGG partition from the entry overlap-zone size z1.

    Every block's zone follows the recurrence; feasibility needs the whole
    chain even, including the virtual zone after the last pool (otherwise
    some device would have to pool an odd tile).
    """
    if z1 % 2 or not 4 <= z1 <= 112:
        raise PlanError(f"z1 must be even and within [4, 112], got {z1}")
    blocks = _vgg_blocks(model)
    specs, heights, _ = model.spatial_geometry

    z_chain = [z1]
    for _ in blocks:
        z = overlap_recurrence(z_chain[-1])
        if z % 2:
            raise PlanError(
                f"overlap zone after block {len(z_chain)} would be "
                f"{z} rows; an odd zone violates the rule of pooling"
            )
        z_chain.append(z)

    bands: list[Range] = [(0, 0)] * len(specs)
    host_rows = [0] * len(specs)
    for bi, block in enumerate(blocks):
        z = z_chain[bi]
        h = heights[block[0]]
        c = h // 2
        a, b = c - (z - 2) // 2, c + (z - 2) // 2
        for li in block:
            if specs[li].kind is LayerKind.MAX_POOL:
                bands[li] = (a // 2, (b + 1) // 2)
            else:
                bands[li] = (a, b)
            host_rows[li] = z
    return _make_plan(model, z1, bands, host_rows)


def build_plan_mobilenet(model: ModelSpec) -> PartitionPlan:
    """MobileNet-V1 partition: 5-row host zones at stride-2 depthwise layers,
    4-row zones at stride-1, single ED1-to-host row before each stride-2."""
    specs, heights, _ = model.spatial_geometry
    bands: list[Range] = []
    host_rows: list[int] = []
    last_s2 = max(i for i, s in enumerate(specs)
                  if s.kind is LayerKind.DEPTHWISE_CONV and s.stride == 2)
    m = heights[0] // 2  # image half boundary
    a, b = m // 2 - 1, m // 2 + 1  # stem band: 2 rows, 5-row zone leaning to ED1
    bands.append((a, b))
    host_rows.append(5)
    for i, spec in enumerate(specs[1:], start=1):
        h_in = heights[i]
        if spec.kind is LayerKind.POINTWISE_CONV:
            host_rows.append(4)
        elif spec.kind is LayerKind.DEPTHWISE_CONV and spec.stride == 1:
            if b - a == 2:
                if i < last_s2:
                    na = a - 1 if a % 2 else a - 2  # even start for the next stride-2 zone
                else:
                    na = a - 1
                if na >= 1 and na + 4 <= h_in - 1:
                    a, b = na, na + 4
            host_rows.append(4)
        else:  # a stride-2 depthwise: its 4-row band starts on an even row
            a, b = a // 2, a // 2 + 2
            host_rows.append(5)
        bands.append((a, b))
    return _make_plan(model, 0, bands, host_rows)


def build_plan(model: ModelSpec, z1: int = 4) -> PartitionPlan:
    if model.name == "vgg16":
        return build_plan_vgg(model, z1)
    return build_plan_mobilenet(model)


def validate_plan(plan: PartitionPlan, model: ModelSpec) -> list[str]:
    """Empty list iff `plan` can run on `model`: it names the model, it
    partitions each spatial layer, and every step is to or from the host,
    since the two secondaries have no link. Every other field of a plan is
    the derivation of its host bands (`_make_plan`), so it holds by
    construction. `compile_schedule` checks nothing of this."""
    problem = _model_problem(plan.model_name, plan.n_spatial, model)
    if problem:
        return [problem]
    return [f"{_describe(s)} needs a secondary-to-secondary link"
            for s in plan.exchange_schedule if Role.HOST not in (s.sender, s.receiver)]


def _model_problem(name: str, layers: int, model: ModelSpec) -> str | None:
    """Why a plan named `name` with `layers` partitions is not `model`'s, if it is not."""
    if name != model.name:
        return f"plan is for model {name!r}, not {model.name!r}"
    if layers != model.n_spatial:
        return f"plan has {layers} layers, model has {model.n_spatial} spatial layers"
    return None


def _describe(step: ExchangeStep) -> str:
    return (f"step before layer {step.before_layer}: {step.sender.value} -> "
            f"{step.receiver.value} rows [{step.row_start}, {step.row_end})")


def optimize_plan(model: ModelSpec, timing, rate_mbps: float) -> PartitionPlan:
    """Exhaustive search over feasible entry zones z1, scored by simulated
    makespan; ties break toward the smaller zone. MobileNet partitions are
    fully determined by the stride pattern, so there is nothing to search."""
    from .simulate import simulate

    if model.name != "vgg16":
        return build_plan_mobilenet(model)
    best: tuple[float, int, PartitionPlan] | None = None
    for z1 in range(4, 113, 2):
        try:
            plan = build_plan_vgg(model, z1)
        except PlanError:
            continue
        makespan = simulate(plan, model, timing, rate_mbps).makespan
        if best is None or (makespan, z1) < (best[0], best[1]):
            best = (makespan, z1, plan)
    return best[2]


# --- serialization and table rendering -------------------------------------


def plan_doc(plan: PartitionPlan) -> dict:
    """The plan as the JSON document `plan_to_json` writes and a handshake
    holds: each layer's host band, from which `read_plan` derives the rest."""
    return {
        "model": plan.model_name,
        "z1": plan.z1,
        "layers": [{"host_rows": p.host_rows, "host": list(p.out_ranges[Role.HOST])}
                   for p in plan.parts],
    }


def plan_to_json(plan: PartitionPlan) -> str:
    return json.dumps(plan_doc(plan), indent=2)


def plan_from_json(text: str, model: ModelSpec) -> PartitionPlan:
    """The plan for `model` that `plan_to_json` wrote. Raises `ValueError`
    for text that is not JSON, and as `read_plan` does."""
    return read_plan(parse(text), model)


def read_plan(doc: Fields, model: ModelSpec) -> PartitionPlan:
    """The plan for `model` whose host bands a plan document holds, as a
    handshake does under `plan`. A field missing or not of its kind (every
    number an int, every band a pair of ints) is a `FieldError`; a document
    for another model or layer count, or a band that leaves a secondary no
    rows, is a `PlanError`. Both are `ValueError`s."""
    layers = doc.objects("layers")
    bands = [tuple(item.get("host", PAIR)) for item in layers]
    host_rows = [item.get("host_rows", INT) for item in layers]
    name, z1 = doc.get("model", STRING), doc.get("z1", INT)
    problem = _model_problem(name, len(layers), model)
    if problem:
        raise PlanError(problem)
    return _make_plan(model, z1, bands, host_rows)


def render_vgg_table(plan: PartitionPlan, model: ModelSpec) -> str:
    """Per-block input rows (host overlap zone, ED1 segment, ED2 segment)."""
    blocks = _vgg_blocks(model)
    lines = [f"{'Block':<8}{'Host':>6}{'ED1':>6}{'ED2':>6}"]
    for bi, block in enumerate(blocks, start=1):
        part = plan.parts[block[0]]
        ed1 = part.in_ranges[Role.ED1]
        ed2 = part.in_ranges[Role.ED2]
        lines.append(
            f"{f'Block{bi}':<8}{part.host_rows:>6}{ed1[1] - ed1[0]:>6}{ed2[1] - ed2[0]:>6}"
        )
    return "\n".join(lines) + "\n"


def render_mobilenet_table(plan: PartitionPlan, model: ModelSpec) -> str:
    """Stem plus depthwise layers: host rows and the segment stage height,
    with runs of identical stride-1 rows collapsed (the x5 group)."""
    specs, heights, _ = model.spatial_geometry
    rows: list[tuple[str, int, int]] = []
    for part in plan.parts:
        spec = specs[part.index]
        if spec.kind is LayerKind.CONV:
            label = f"Conv /s{spec.stride}"
        elif spec.kind is LayerKind.DEPTHWISE_CONV:
            label = f"Conv dw/s{spec.stride}"
        else:
            continue
        rows.append((label, part.host_rows, part.out_height))
    lines = [f"{'Layers':<16}{'Host':>6}{'ED1':>6}{'ED2':>6}"]
    for (label, host, h), run in groupby(rows):
        count = len(list(run))
        if count > 1:
            label = f"{label} x{count}"
        lines.append(f"{label:<16}{host:>6}{h:>6}{h:>6}")
    return "\n".join(lines) + "\n"
