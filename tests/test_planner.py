"""Partition geometry: recurrence, table reproduction, coverage validation."""

import dataclasses
import itertools
import json
import random

import pytest

from halp.layers import LayerKind
from halp.models import (
    MOBILENET_ALPHAS,
    MOBILENET_RHOS,
    build_mobilenet_v1,
    build_vgg16,
)
from halp.planner import (
    ROLES,
    Compute,
    ExchangeStep,
    PlanError,
    Recv,
    Role,
    Send,
    _make_plan,
    build_plan_mobilenet,
    build_plan_vgg,
    compile_schedule,
    optimize_plan,
    overlap_recurrence,
    plan_from_json,
    plan_to_json,
    receptive_field,
    validate_plan,
)
from tests_property_helpers import steps_before


def spec3x3(stride, pad=1):
    from halp.layers import LayerSpec

    return LayerSpec(LayerKind.CONV, (3, 3), stride, pad, 1, 1)


def test_receptive_field_boundary_with_padding():
    assert receptive_field(spec3x3(1), (0, 1), 224) == (0, 2)


def test_receptive_field_stride2():
    # kernel taps of output row 5: input rows 9, 10, 11
    assert receptive_field(spec3x3(2), (5, 6), 224) == (9, 12)


def test_receptive_field_pointwise_passthrough():
    from halp.layers import LayerSpec

    pw = LayerSpec(LayerKind.POINTWISE_CONV, (1, 1), 1, 0, 4, 8)
    assert receptive_field(pw, (10, 20), 56) == (10, 20)


def test_receptive_field_rejects_empty():
    with pytest.raises(ValueError):
        receptive_field(spec3x3(1), (5, 5), 224)


def test_recurrence_fixed_point():
    assert overlap_recurrence(4) == 4


def test_recurrence_optimized_chain():
    chain = [68]
    for _ in range(4):
        chain.append(overlap_recurrence(chain[-1]))
    assert chain == [68, 36, 20, 12, 8]


def test_recurrence_two_gives_three():
    # 2 -> 3 is odd; plan builders reject it downstream
    assert overlap_recurrence(2) == 3
    with pytest.raises(ValueError):
        overlap_recurrence(3)


VGG = build_vgg16()


def _block_table(plan):
    # first conv layer of each pool-terminated block
    starts, nxt = [], 0
    for part in plan.parts:
        if part.index == nxt:
            starts.append(part.index)
        if VGG.layers[part.index].kind is LayerKind.MAX_POOL:
            nxt = part.index + 1
    rows = []
    for part in plan.parts:
        if part.index in starts:
            ed1 = part.in_ranges[Role.ED1]
            ed2 = part.in_ranges[Role.ED2]
            rows.append((part.host_rows, ed1[1] - ed1[0], ed2[1] - ed2[0]))
    return rows


def test_vgg_default_plan_matches_table():
    plan = build_plan_vgg(VGG, 4)
    assert _block_table(plan) == [(4, 112, 112), (4, 56, 56), (4, 28, 28),
                                  (4, 14, 14), (4, 7, 7)]
    assert validate_plan(plan, VGG) == []


def test_vgg_optimized_plan_matches_table():
    plan = build_plan_vgg(VGG, 68)
    assert _block_table(plan) == [(68, 80, 80), (36, 40, 40), (20, 20, 20),
                                  (12, 10, 10), (8, 5, 5)]
    assert validate_plan(plan, VGG) == []


def test_vgg_z1_6_is_infeasible():
    with pytest.raises(PlanError, match="pooling"):
        build_plan_vgg(VGG, 6)


@pytest.mark.parametrize("z1", [2, 3, 114, 0])
def test_vgg_z1_out_of_range(z1):
    with pytest.raises(PlanError):
        build_plan_vgg(VGG, z1)


def test_vgg_feasible_set():
    feasible = []
    for z1 in range(4, 113, 2):
        try:
            build_plan_vgg(VGG, z1)
            feasible.append(z1)
        except PlanError:
            pass
    assert feasible == [4, 68]


def test_vgg_exchange_pattern_per_conv_layer():
    """Interior conv layers exchange exactly four single boundary rows."""
    plan = build_plan_vgg(VGG, 4)
    # layer 1 is the second conv of block 1
    steps = steps_before(plan, 1)
    by_pair = {(s.sender, s.receiver): s for s in steps}
    assert len(steps) == 4
    assert by_pair[(Role.ED1, Role.HOST)].rows == 1
    assert by_pair[(Role.ED2, Role.HOST)].rows == 1
    assert by_pair[(Role.HOST, Role.ED1)].rows == 1
    assert by_pair[(Role.HOST, Role.ED2)].rows == 1
    a, b = plan.parts[0].out_ranges[Role.HOST]
    assert by_pair[(Role.ED1, Role.HOST)].row_start == a - 1
    assert by_pair[(Role.ED2, Role.HOST)].row_start == b
    assert by_pair[(Role.HOST, Role.ED1)].row_start == a
    assert by_pair[(Role.HOST, Role.ED2)].row_start == b - 1


def test_vgg_pool_needs_no_host_sends():
    """Secondaries proceed through pooling without host data."""
    plan = build_plan_vgg(VGG, 4)
    pool_layers = [p.index for p in plan.parts
                   if VGG.layers[p.index].kind is LayerKind.MAX_POOL]
    for li in pool_layers:
        for step in steps_before(plan, li):
            assert step.receiver is Role.HOST, (li, step)


def test_vgg_initial_segments_are_halves():
    plan = build_plan_vgg(VGG, 4)
    first = steps_before(plan, 0)
    seg = {s.receiver: s for s in first}
    assert seg[Role.ED1].rows == 112 and seg[Role.ED1].row_start == 0
    assert seg[Role.ED2].rows == 112 and seg[Role.ED2].row_end == 224
    assert all(s.sender is Role.HOST for s in first)


MN = build_mobilenet_v1(1.0, 224)


def test_mobilenet_host_rows_follow_stride():
    plan = build_plan_mobilenet(MN)
    for part in plan.parts:
        spec = MN.layers[part.index]
        if spec.kind in (LayerKind.CONV, LayerKind.DEPTHWISE_CONV):
            assert part.host_rows == (5 if spec.stride == 2 else 4)


def test_mobilenet_stride2_single_ed1_row():
    plan = build_plan_mobilenet(MN)
    for i, spec in enumerate(MN.layers[: MN.n_spatial]):
        if spec.kind is LayerKind.DEPTHWISE_CONV and spec.stride == 2:
            eds_to_host = [s for s in steps_before(plan, i) if s.receiver is Role.HOST]
            assert len(eds_to_host) == 1
            assert eds_to_host[0].sender is Role.ED1
            assert eds_to_host[0].rows == 1
            # ED1 ships its last owned row
            prev = plan.parts[i - 1].out_ranges[Role.ED1]
            assert eds_to_host[0].row_start == prev[1] - 1


def test_mobilenet_pointwise_layers_need_no_exchange():
    plan = build_plan_mobilenet(MN)
    for i, spec in enumerate(MN.layers[: MN.n_spatial]):
        if spec.kind is LayerKind.POINTWISE_CONV:
            assert steps_before(plan, i) == []


@pytest.mark.parametrize("alpha", MOBILENET_ALPHAS)
@pytest.mark.parametrize("rho", MOBILENET_RHOS)
def test_mobilenet_all_variants_validate(alpha, rho):
    m = build_mobilenet_v1(alpha, rho)
    plan = build_plan_mobilenet(m)
    assert validate_plan(plan, m) == []


def test_mobilenet_rho160_segment_heights():
    m = build_mobilenet_v1(1.0, 160)
    plan = build_plan_mobilenet(m)
    heights = [p.out_height for p in plan.parts
               if m.layers[p.index].kind in (LayerKind.CONV, LayerKind.DEPTHWISE_CONV)]
    assert heights == [80, 80, 40, 40, 20, 20, 10, 10, 10, 10, 10, 10, 5, 5]


def test_exchange_step_rejects_empty():
    with pytest.raises(ValueError):
        ExchangeStep(1, Role.ED1, Role.HOST, 5, 5, 224, 64)


def test_plan_json_roundtrip():
    plan = build_plan_vgg(VGG, 68)
    back = plan_from_json(plan_to_json(plan), VGG)
    assert back == plan
    mplan = build_plan_mobilenet(MN)
    assert plan_from_json(plan_to_json(mplan), MN) == mplan


def test_optimize_mobilenet_returns_stride_plan():
    from halp.simulate import default_timing

    plan = optimize_plan(MN, default_timing(MN.name), 42.0)
    assert plan == build_plan_mobilenet(MN)


# --- the compiled schedule ---------------------------------------------------


def _catalog_plans():
    """Every feasible full-width VGG-16 entry zone and every catalog MobileNet."""
    for z1 in range(4, 113, 2):
        try:
            yield f"vgg16_z{z1}", build_plan_vgg(VGG, z1)
        except PlanError:
            pass
    for alpha in MOBILENET_ALPHAS:
        for rho in MOBILENET_RHOS:
            yield f"mobilenet_{alpha}_{rho}", build_plan_mobilenet(build_mobilenet_v1(alpha, rho))


CATALOG_PLANS = dict(_catalog_plans())


@pytest.mark.parametrize("name", sorted(CATALOG_PLANS))
def test_compiled_computes_tile_each_owned_range(name):
    plan = CATALOG_PLANS[name]
    compiled = compile_schedule(plan)
    for role in ROLES:
        stages = compiled[role]
        assert len(stages) == plan.n_spatial + 1
        for layer, part in enumerate(plan.parts):
            computes = [op for op in stages[layer] if isinstance(op, Compute)]
            assert {op.layer for op in computes} == {layer}
            rows = sorted(op.rows for op in computes)
            assert rows[0][0] == part.out_ranges[role][0]
            assert rows[-1][1] == part.out_ranges[role][1]
            assert all(lo < hi for lo, hi in rows)
            assert all(a[1] == b[0] for a, b in zip(rows, rows[1:]))
        assert not any(isinstance(op, Compute) for op in stages[-1])  # the merge


@pytest.mark.parametrize("name", sorted(CATALOG_PLANS))
def test_compiled_sends_and_receives_each_step_once(name):
    plan = CATALOG_PLANS[name]
    compiled = compile_schedule(plan)
    sends, recvs = [], []
    for role in ROLES:
        for index, stage in enumerate(compiled[role]):
            for op in stage:
                if isinstance(op, Send):
                    assert op.step.sender is role
                    # sent in the stage of the layer before, or up front before layer 0
                    assert index == max(0, op.step.before_layer - 1)
                    sends.append(op.step)
                elif isinstance(op, Recv):
                    assert op.step.receiver is role
                    assert index == op.step.before_layer
                    recvs.append(op.step)
    assert sorted(sends, key=repr) == sorted(plan.exchange_schedule, key=repr)
    assert sorted(recvs, key=repr) == sorted(plan.exchange_schedule, key=repr)


@pytest.mark.parametrize("name", sorted(CATALOG_PLANS))
def test_compiled_secondaries_send_boundary_rows_before_the_rest(name):
    plan = CATALOG_PLANS[name]
    compiled = compile_schedule(plan)
    for role in ROLES:
        for layer in range(plan.n_spatial):
            stage = compiled[role][layer]
            computes = [i for i, op in enumerate(stage) if isinstance(op, Compute)]
            sends = [i for i, op in enumerate(stage)
                     if isinstance(op, Send) and op.step.before_layer == layer + 1]
            if role is Role.HOST or not sends:
                assert len(computes) == 1  # the host computes its band whole
                assert all(i > computes[0] for i in sends)
                continue
            first = stage[computes[0]].rows
            steps = [stage[i].step for i in sends]
            assert first == (min(s.row_start for s in steps), max(s.row_end for s in steps))
            assert computes[0] < min(sends)
            assert len(computes) <= 2
            if len(computes) == 2:
                assert max(sends) < computes[1]


@pytest.mark.parametrize("name", sorted(CATALOG_PLANS))
def test_compiled_links_receive_in_the_order_peers_send(name):
    """Per directed link, the receiver's Recv steps are the sender's Send
    steps in the same order, so a FIFO link hands each receive its frame."""
    compiled = compile_schedule(CATALOG_PLANS[name])
    sent, received = {}, {}
    for role in ROLES:
        for stage in compiled[role]:
            for op in stage:
                if isinstance(op, Send):
                    sent.setdefault((role, op.step.receiver), []).append(op.step)
                elif isinstance(op, Recv):
                    received.setdefault((op.step.sender, role), []).append(op.step)
    assert sent == received


def test_compiled_is_built_once_per_plan():
    plan = build_plan_vgg(VGG, 4)
    assert plan.compiled is plan.compiled
    assert plan.compiled == compile_schedule(plan)
    assert plan == plan_from_json(plan_to_json(plan), VGG)  # not a field: equality ignores it


# --- a plan is its host bands ------------------------------------------------


MODELS = {m.name: m for m in [VGG] + [build_mobilenet_v1(alpha, rho)
                                      for alpha in MOBILENET_ALPHAS for rho in MOBILENET_RHOS]}


def _faulty_plans():
    """Plans for another model than the one they are checked against."""
    mn_full, mn_quarter = MODELS["MobileNet_v1_1.0_224"], MODELS["MobileNet_v1_0.25_224"]
    vgg = build_plan_vgg(VGG, 4)
    part = vgg.parts[3]
    lo, hi = part.in_ranges[Role.ED1]
    edited = dataclasses.replace(part, in_height=part.in_height + 1,
                                 in_ranges={**part.in_ranges, Role.ED1: (lo, hi + 3)})
    return {
        "another_mobilenet_variant": (build_plan_mobilenet(mn_full), mn_quarter),
        "vgg_in_ranges_in_height_and_model": (dataclasses.replace(
            vgg, model_name="vgg19", parts=(*vgg.parts[:3], edited, *vgg.parts[4:])), VGG),
    }


@pytest.mark.parametrize("case", sorted(_faulty_plans()))
def test_validator_rejects_a_plan_its_ownership_does_not_imply(case):
    plan, model = _faulty_plans()[case]
    assert validate_plan(plan, model) != []


@pytest.mark.parametrize("name", sorted(CATALOG_PLANS))
def test_catalog_plans_validate_also_after_a_json_round_trip(name):
    plan = CATALOG_PLANS[name]
    model = MODELS[plan.model_name]
    assert validate_plan(plan, model) == []
    assert validate_plan(plan_from_json(plan_to_json(plan), model), model) == []


def float_rows_plan_doc(model=VGG):
    """The VGG-16 z1 68 plan as a JSON document whose first host band is
    `[79.0, 145.0]`: equal to the ints in every comparison."""
    doc = json.loads(plan_to_json(build_plan_vgg(model, 68)))
    doc["layers"][0]["host"] = [float(r) for r in doc["layers"][0]["host"]]
    return doc


def test_a_plan_with_float_rows_is_rejected_before_it_can_validate():
    """A float band would derive float rows, and the session would fail
    with a slice-index TypeError."""
    refusal = r"^layers\[0\]\.host must be a pair of ints, got \[79\.0, "
    with pytest.raises(ValueError, match=refusal):
        plan_from_json(json.dumps(float_rows_plan_doc()), VGG)


def test_a_document_whose_host_band_leaves_ed1_no_rows_is_refused():
    """A band [0, b) derives no plan: `_make_plan` refuses it as it reads."""
    doc = json.loads(plan_to_json(build_plan_vgg(VGG, 4)))
    doc["layers"][0]["host"][0] = 0
    with pytest.raises(PlanError, match=r"^layer 0: host band \[0, 113\) leaves no rows"):
        plan_from_json(json.dumps(doc), VGG)


# a host band [a, b) of a layer of output height h -> one that leaves some node no rows
BAD_BANDS = {
    "ed1_empty": lambda a, b, h: (0, b),
    "ed2_empty": lambda a, b, h: (a, h),
    "host_empty": lambda a, b, h: (a, a),
    "reversed": lambda a, b, h: (b, a),
    "below_the_first_row": lambda a, b, h: (-1, b),
    "past_the_last_row": lambda a, b, h: (a, h + 1),
}


@pytest.mark.parametrize("band", sorted(BAD_BANDS))
@pytest.mark.parametrize("position", ["first", "middle", "last"])
@pytest.mark.parametrize("name", ["vgg16_z4", "mobilenet_0.25_224"])
def test_each_band_that_leaves_a_node_no_rows_is_refused_at_its_layer(name, position, band):
    """`_make_plan`'s `0 < a < b < h` is the one band check: a document
    with any other band, at any layer, derives no plan."""
    plan = CATALOG_PLANS[name]
    layer = {"first": 0, "middle": plan.n_spatial // 2, "last": plan.n_spatial - 1}[position]
    h = plan.parts[layer].out_height
    a, b = BAD_BANDS[band](*plan.parts[layer].out_ranges[Role.HOST], h)
    doc = json.loads(plan_to_json(plan))
    doc["layers"][layer]["host"] = [a, b]
    refusal = rf"^layer {layer}: host band \[{a}, {b}\) leaves no rows .*\(output height {h}\)$"
    with pytest.raises(PlanError, match=refusal):
        plan_from_json(json.dumps(doc), MODELS[plan.model_name])


@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc.update(model="vgg19"), "plan is for model 'vgg19', not 'vgg16'"),
    (lambda doc: doc["layers"].pop(), "plan has 17 layers, model has 18 spatial layers"),
], ids=["another_model", "another_layer_count"])
def test_a_document_for_another_model_is_refused_before_any_band_is_derived(edit, message):
    doc = json.loads(plan_to_json(build_plan_vgg(VGG, 4)))
    edit(doc)
    with pytest.raises(PlanError, match=f"^{message}$"):
        plan_from_json(json.dumps(doc), VGG)


def derived_plan_doc(plan):
    """The whole derivation of a plan in the layout plan files had before
    they held only the host bands: each layer's heights and six ranges, and
    every exchange step. A test oracle: its digests pin every derived range
    and step, which a plan file no longer shows."""
    return {
        "model": plan.model_name,
        "z1": plan.z1,
        "layers": [
            {
                "layer": p.index,
                "in_height": p.in_height,
                "out_height": p.out_height,
                "host_rows": p.host_rows,
                "out_ranges": {dev.value: list(p.out_ranges[dev]) for dev in ROLES},
                "in_ranges": {dev.value: list(p.in_ranges[dev]) for dev in ROLES},
            }
            for p in plan.parts
        ],
        "exchange_schedule": [
            {
                "before_layer": s.before_layer,
                "sender": s.sender.value,
                "receiver": s.receiver.value,
                "rows": [s.row_start, s.row_end],
                "width": s.width,
                "channels": s.channels,
            }
            for s in plan.exchange_schedule
        ],
    }


# --- the schedule against a row-by-row oracle --------------------------------


def oracle_schedule(plan, model):
    """Every exchange step of `plan`, found row by row: each input row is
    labelled with its owner (the host before layer 0, else the owner of
    that row in the previous layer's `out_ranges`), and each run of
    consecutive rows a device needs from one other owner is one step."""
    specs, heights, widths = model.spatial_geometry
    n = len(specs)
    steps = []
    for layer in range(n + 1):
        owner_of = [Role.HOST] * heights[0]
        if layer:
            owner_of = [None] * heights[layer]
            for dev, (lo, hi) in plan.parts[layer - 1].out_ranges.items():
                owner_of[lo:hi] = [dev] * (hi - lo)
        if layer < n:
            needs, channels = plan.parts[layer].in_ranges, specs[layer].in_channels
        else:
            needs, channels = {Role.HOST: (0, heights[n])}, specs[n - 1].out_channels
        for dev, (lo, hi) in needs.items():
            row = lo
            for owner, run in itertools.groupby(owner_of[lo:hi]):
                count = len(list(run))
                if owner is not dev:
                    steps.append(ExchangeStep(layer, owner, dev, row, row + count,
                                              widths[layer], channels))
                row += count
    order = {Role.ED1: 0, Role.ED2: 1, Role.HOST: 2}
    return sorted(steps, key=lambda s: (s.before_layer, order[s.sender], order[s.receiver],
                                        s.row_start))


def secondary_to_secondary_plan(model):
    """The plan that ownership implies for a host band of [2, 4) at layer 1:
    ED1 sends rows to ED2 and back."""
    base = build_plan_vgg(model, 4)
    bands = [part.out_ranges[Role.HOST] for part in base.parts]
    bands[1] = (2, 4)
    return _make_plan(model, 4, bands, [part.host_rows for part in base.parts])


def _random_tilings(model, seed, count=20):
    """`count` plans of `model` whose host band at each layer is drawn at random."""
    rng = random.Random(seed)
    specs, heights, _ = model.spatial_geometry
    for _ in range(count):
        bands = []
        for h in heights[1:]:
            a = rng.randrange(1, h - 1)
            bands.append((a, rng.randrange(a + 1, h)))
        yield _make_plan(model, 0, bands, [0] * len(specs))


SMALL_VGG, SMALL_MN = build_vgg16(8, 10), build_mobilenet_v1(0.25, 160, 8, 10)
ORACLE_CASES = {
    **{name: (plan, MODELS[plan.model_name]) for name, plan in CATALOG_PLANS.items()},
    "secondary_to_secondary": (secondary_to_secondary_plan(SMALL_VGG), SMALL_VGG),
    **{f"random_{model.name}_{i}": (plan, model)
       for model in (SMALL_VGG, SMALL_MN)
       for i, plan in enumerate(_random_tilings(model, seed=20))},
}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_schedule_equals_the_row_by_row_oracle(case):
    """Every plan, read or built, is derived by the same `_make_plan`, so
    only an independent oracle can see a change in the derivation."""
    plan, model = ORACLE_CASES[case]
    assert list(plan.exchange_schedule) == oracle_schedule(plan, model)


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_a_plan_document_reads_back_as_the_plan(case):
    plan, model = ORACLE_CASES[case]
    assert plan_from_json(plan_to_json(plan), model) == plan


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_validator_refuses_a_derived_plan_only_for_its_secondary_to_secondary_steps(case):
    plan, model = ORACLE_CASES[case]
    joins = [s for s in plan.exchange_schedule if Role.HOST not in (s.sender, s.receiver)]
    problems = validate_plan(plan, model)
    assert len(problems) == len(joins)
    assert all(p.endswith(" needs a secondary-to-secondary link") for p in problems)


def _runnable_tilings(model, seed, count):
    """`count` plans of `model` whose host band at each layer is drawn at
    random among those that leave neither secondary needing a row the other
    owns: plans with no secondary-to-secondary step."""
    rng = random.Random(seed)
    specs, heights, _ = model.spatial_geometry
    while count:
        bands, (lo, hi) = [], (0, heights[0])  # before layer 0 the host holds every row
        for spec, h_in, h in zip(specs, heights, heights[1:]):
            ed1_ends = [a for a in range(1, h - 1)
                        if receptive_field(spec, (0, a), h_in)[1] <= hi]
            a = rng.choice(ed1_ends)
            ed2_starts = [b for b in range(a + 1, h)
                          if receptive_field(spec, (b, h), h_in)[0] >= lo]
            if not ed2_starts:
                break  # no band fits after this one: draw the plan again
            lo, hi = a, rng.choice(ed2_starts)
            bands.append((lo, hi))
        else:
            count -= 1
            yield _make_plan(model, 0, bands, [0] * len(specs))


def test_a_valid_plans_secondary_sends_lie_on_one_edge_of_its_owned_rows():
    """What `compile_schedule` does not check: on a plan that validates, the
    rows a secondary sends after each layer lie inside its owned rows and
    reach one edge of them, so boundary rows first is one compute before
    the sends and at most one after."""
    plans = [(plan, MODELS[plan.model_name]) for plan in CATALOG_PLANS.values()]
    for seed, model in enumerate([SMALL_VGG, SMALL_MN, build_mobilenet_v1(1.0, 224, 8, 10)]):
        plans += [(plan, model) for plan in _runnable_tilings(model, seed, count=100)]
    for plan, model in plans:
        assert validate_plan(plan, model) == []
        for layer, part in enumerate(plan.parts):
            for role in (Role.ED1, Role.ED2):
                sends = [s for s in steps_before(plan, layer + 1) if s.sender is role]
                if sends:
                    lo, hi = min(s.row_start for s in sends), max(s.row_end for s in sends)
                    first, last = part.out_ranges[role]
                    assert first <= lo < hi <= last
                    assert lo == first or hi == last
