"""Partition geometry: recurrence, table reproduction, coverage validation."""

import dataclasses
import itertools
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


def test_validator_catches_missing_exchange():
    plan = build_plan_vgg(VGG, 4)
    stripped = plan.__class__(
        plan.model_name,
        plan.z1,
        plan.parts,
        tuple(s for s in plan.exchange_schedule
              if not (s.before_layer == 2 and s.receiver is Role.HOST)),
    )
    bad = validate_plan(stripped, VGG)
    assert any("layer 2" in v and "host" in v for v in bad)


def test_validator_catches_overlapping_ownership():
    plan = build_plan_vgg(VGG, 4)
    part0 = plan.parts[0]
    broken = part0.__class__(
        index=0,
        in_height=part0.in_height,
        out_height=part0.out_height,
        out_ranges={Role.ED1: (0, 112), Role.HOST: (111, 113), Role.ED2: (113, 224)},
        in_ranges=part0.in_ranges,
        host_rows=4,
    )
    bad = validate_plan(
        plan.__class__(plan.model_name, 4, (broken,) + plan.parts[1:], plan.exchange_schedule),
        VGG,
    )
    assert "layer 0: out_ranges[ed1] is (0, 112), ownership implies (0, 111)" in bad


def test_validator_catches_a_step_listed_twice():
    plan = build_plan_vgg(VGG, 4)
    step = steps_before(plan, 1)[0]
    doubled = plan.__class__(
        plan.model_name, plan.z1, plan.parts, plan.exchange_schedule + (step,)
    )
    bad = validate_plan(doubled, VGG)
    assert any("listed twice" in v for v in bad)
    assert validate_plan(plan, VGG) == []


def test_exchange_step_rejects_empty():
    with pytest.raises(ValueError):
        ExchangeStep(1, Role.ED1, Role.HOST, 5, 5, 224, 64)


def test_plan_json_roundtrip():
    plan = build_plan_vgg(VGG, 68)
    back = plan_from_json(plan_to_json(plan))
    assert back == plan
    mplan = build_plan_mobilenet(MN)
    assert plan_from_json(plan_to_json(mplan)) == mplan


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


def _with_step(plan, old, new):
    schedule = tuple(new if s == old else s for s in plan.exchange_schedule)
    return plan.__class__(plan.model_name, plan.z1, plan.parts, schedule)


def ed1_boundary_step(plan):
    """ED1's only step to the host before some layer, with ED1's owned rows."""
    for layer in range(1, plan.n_spatial):
        mine = [s for s in steps_before(plan, layer) if s.sender is Role.ED1]
        owned = plan.parts[layer - 1].out_ranges[Role.ED1]
        if len(mine) == 1 and owned[1] - owned[0] >= 4:
            return mine[0], owned
    raise AssertionError("no single ED1 boundary step")


def mid_segment_plan(plan):
    step, (lo, _) = ed1_boundary_step(plan)
    return _with_step(plan, step, dataclasses.replace(step, row_start=lo + 1, row_end=lo + 2))


def outside_plan(plan):
    step, (_, hi) = ed1_boundary_step(plan)
    return _with_step(plan, step, dataclasses.replace(step, row_start=hi, row_end=hi + 1))


@pytest.mark.parametrize("edit", [mid_segment_plan, outside_plan])
def test_validator_refuses_boundary_rows_mid_segment_or_outside_the_senders_range(edit):
    """Boundary-rows-first cannot run either plan; `compile_schedule` does
    not check, so validation must name the edited step."""
    plan = build_plan_vgg(VGG, 4)
    broken = edit(plan)
    (step,) = set(broken.exchange_schedule) - set(plan.exchange_schedule)
    described = (f"step before layer {step.before_layer}: ed1 -> host "
                 f"rows [{step.row_start}, {step.row_end})")
    assert any(p.startswith(described) for p in validate_plan(broken, VGG))


def test_compiled_is_built_once_per_plan():
    plan = build_plan_vgg(VGG, 4)
    assert plan.compiled is plan.compiled
    assert plan.compiled == compile_schedule(plan)
    assert plan == plan_from_json(plan_to_json(plan))  # not a field: equality ignores it


# --- validation re-derives the plan ------------------------------------------


MODELS = {m.name: m for m in [VGG] + [build_mobilenet_v1(alpha, rho)
                                      for alpha in MOBILENET_ALPHAS for rho in MOBILENET_RHOS]}


def _replace_middle_part(edit):
    def apply(plan):
        k = plan.n_spatial // 2
        return dataclasses.replace(plan, parts=(*plan.parts[:k], edit(plan.parts[k]),
                                                *plan.parts[k + 1 :]))
    return apply


def _replace_middle_step(edit):
    def apply(plan):
        steps = plan.exchange_schedule
        i = len(steps) // 2
        edited = (*steps[:i], *edit(steps[i], steps[i + 1]), *steps[i + 2 :])
        return dataclasses.replace(plan, exchange_schedule=edited)
    return apply


def _in_range(dev):
    def edit(part):
        lo, hi = part.in_ranges[dev]
        return dataclasses.replace(part, in_ranges={**part.in_ranges, dev: (lo, hi + 1)})
    return edit


ONE_FIELD_EDITS = {
    "in_height": _replace_middle_part(lambda p: dataclasses.replace(p, in_height=p.in_height + 1)),
    "out_height": _replace_middle_part(
        lambda p: dataclasses.replace(p, out_height=p.out_height + 1)),
    **{f"in_ranges_{dev.value}": _replace_middle_part(_in_range(dev)) for dev in ROLES},
    "step_rows": _replace_middle_step(
        lambda s, t: (dataclasses.replace(s, row_end=s.row_end + 1), t)),
    "step_width": _replace_middle_step(lambda s, t: (dataclasses.replace(s, width=s.width + 1), t)),
    "step_channels": _replace_middle_step(
        lambda s, t: (dataclasses.replace(s, channels=s.channels + 1), t)),
    "step_dropped": _replace_middle_step(lambda s, t: (t,)),
    "step_duplicated": _replace_middle_step(lambda s, t: (s, s, t)),
    "steps_reordered": _replace_middle_step(lambda s, t: (t, s)),
}


@pytest.mark.parametrize("edit", sorted(ONE_FIELD_EDITS))
@pytest.mark.parametrize("name", ["vgg16_z4", "vgg16_z68", "mobilenet_0.25_224"])
def test_validator_reports_each_edit_of_a_derived_field(name, edit):
    """Ownership fixes every other field: changing any one of them, or
    dropping, repeating or swapping a step, fails validation."""
    plan = CATALOG_PLANS[name]
    broken = ONE_FIELD_EDITS[edit](plan)
    assert broken != plan
    assert validate_plan(broken, MODELS[plan.model_name]) != []


def _faulty_plans():
    """Plans a coverage-only check accepted, or raised on."""
    mn_full, mn_quarter = MODELS["MobileNet_v1_1.0_224"], MODELS["MobileNet_v1_0.25_224"]
    quarter = build_plan_mobilenet(mn_quarter)
    vgg = build_plan_vgg(VGG, 4)
    part = vgg.parts[3]
    lo, hi = part.in_ranges[Role.ED1]
    edited = dataclasses.replace(part, in_height=part.in_height + 1,
                                 in_ranges={**part.in_ranges, Role.ED1: (lo, hi + 3)})
    _, b = vgg.parts[0].out_ranges[Role.HOST]
    empty = dataclasses.replace(
        vgg.parts[0], out_ranges={Role.ED1: (0, 0), Role.HOST: (0, b), Role.ED2: (b, 224)})
    return {
        "another_mobilenet_variant": (build_plan_mobilenet(mn_full), mn_quarter),
        "every_step_width_1": (dataclasses.replace(quarter, exchange_schedule=tuple(
            dataclasses.replace(s, width=1) for s in quarter.exchange_schedule)), mn_quarter),
        "vgg_in_ranges_in_height_and_model": (dataclasses.replace(
            vgg, model_name="vgg19", parts=(*vgg.parts[:3], edited, *vgg.parts[4:])), VGG),
        "empty_ed1_range": (dataclasses.replace(vgg, parts=(empty, *vgg.parts[1:])), VGG),
    }


@pytest.mark.parametrize("case", sorted(_faulty_plans()))
def test_validator_rejects_a_plan_its_ownership_does_not_imply(case):
    plan, model = _faulty_plans()[case]
    assert validate_plan(plan, model) != []


def test_validator_names_the_field_that_differs():
    plan = CATALOG_PLANS["mobilenet_0.25_224"]
    broken = ONE_FIELD_EDITS["step_width"](plan)
    step = broken.exchange_schedule[len(broken.exchange_schedule) // 2]
    assert validate_plan(broken, MODELS[plan.model_name]) == [
        f"step before layer {step.before_layer}: {step.sender.value} -> {step.receiver.value} "
        f"rows [{step.row_start}, {step.row_end}): width {step.width}, "
        f"ownership implies {step.width - 1}"
    ]


@pytest.mark.parametrize("name", sorted(CATALOG_PLANS))
def test_catalog_plans_validate_also_after_a_json_round_trip(name):
    plan = CATALOG_PLANS[name]
    model = MODELS[plan.model_name]
    assert validate_plan(plan, model) == []
    assert validate_plan(plan_from_json(plan_to_json(plan)), model) == []


def float_rows_plan_doc(model=VGG):
    """The VGG-16 z1 68 plan as a JSON document whose first step has
    `"rows": [0.0, ...]`: equal to the ints in every comparison."""
    import json

    doc = json.loads(plan_to_json(build_plan_vgg(model, 68)))
    doc["exchange_schedule"][0]["rows"] = [float(r) for r in doc["exchange_schedule"][0]["rows"]]
    return doc


def test_a_plan_with_float_rows_is_rejected_before_it_can_validate():
    """The float plan used to validate with no problem and then fail the
    session with a slice-index TypeError."""
    import json

    with pytest.raises(ValueError, match=r"rows must be a pair of ints, got \[0\.0, "):
        plan_from_json(json.dumps(float_rows_plan_doc()))


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
    """`validate_plan` rebuilds plans with the same derivation, so only an
    independent oracle can see a change in it."""
    plan, model = ORACLE_CASES[case]
    assert list(plan.exchange_schedule) == oracle_schedule(plan, model)


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
