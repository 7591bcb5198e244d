"""Model zoo structure, MAC counts, and weight determinism."""

import dataclasses
import hashlib

import numpy as np
import pytest

from halp.layers import LayerKind, LayerSpec, receptive_field
from halp.models import (
    MOBILENET_ALPHAS,
    MOBILENET_RHOS,
    build_mobilenet_v1,
    build_vgg16,
    get_model,
    mac_count,
    make_input,
    make_weights,
)
from halp.planner import build_plan, validate_plan
from halp.runtime import monolithic_infer

ALL_MODELS = [build_vgg16()] + [build_mobilenet_v1(a, r) for a in MOBILENET_ALPHAS
                                for r in MOBILENET_RHOS]


def test_vgg16_block_structure():
    m = build_vgg16()
    convs = [s for s in m.layers if s.kind is LayerKind.CONV]
    pools = [s for s in m.layers if s.kind is LayerKind.MAX_POOL]
    assert len(convs) == 13 and len(pools) == 5
    assert convs[0].out_channels == 64
    assert [s.out_channels for s in convs] == [64, 64, 128, 128, 256, 256, 256,
                                               512, 512, 512, 512, 512, 512]
    assert all(s.kernel == (3, 3) and s.stride == 1 and s.padding == 1 for s in convs)


def test_vgg16_pool_heights():
    m = build_vgg16()
    heights = []
    h = m.input_shape[0]
    for s in m.layers[: m.n_spatial]:
        h = s.out_height(h)
        if s.kind is LayerKind.MAX_POOL:
            heights.append(h)
    assert heights == [112, 56, 28, 14, 7]


def _independent_macs(model):
    """Closed form per layer from a separate shape propagation."""
    h, w, _ = model.input_shape
    total = 0
    for s in model.layers:
        if s.kind is LayerKind.FULLY_CONNECTED:
            total += s.in_channels * s.out_channels
            continue
        kh, kw = s.kernel
        if s.kind is LayerKind.MAX_POOL:
            oh, ow = h // 2, w // 2
        elif s.kind is LayerKind.GLOBAL_AVG_POOL:
            oh = ow = 1
        else:
            oh = (h + 2 * s.padding - kh) // s.stride + 1
            ow = (w + 2 * s.padding - kw) // s.stride + 1
        if s.kind is LayerKind.CONV or s.kind is LayerKind.POINTWISE_CONV:
            total += kh * kw * s.in_channels * s.out_channels * oh * ow
        elif s.kind is LayerKind.DEPTHWISE_CONV:
            total += kh * kw * s.in_channels * oh * ow
        h, w = oh, ow
    return total


def test_vgg16_total_macs():
    m = build_vgg16()
    got = mac_count(m)
    assert got.total == _independent_macs(m)
    assert got.total == sum(got.per_layer)
    # canonical figure: ~15.47 GMACs for conv + fc
    assert 15.3e9 < got.total < 15.6e9


def test_mobilenet_stage_heights():
    m = build_mobilenet_v1(1.0, 224)
    h = m.input_shape[0]
    seen = []
    for s in m.layers[: m.n_spatial]:
        h = s.out_height(h)
        seen.append(h)
    assert seen[0] == 112 and seen[-1] == 7
    assert sorted(set(seen), reverse=True) == [112, 56, 28, 14, 7]


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
def test_spatial_geometry_is_built_once_per_model(model):
    specs, heights, widths = model.spatial_geometry
    assert model.spatial_geometry is model.spatial_geometry
    assert specs == model.layers[: model.n_spatial]
    h, w = model.input_shape[:2]
    for i, s in enumerate(specs):
        assert (heights[i], widths[i]) == (h, w)
        h, w = s.out_height(h), s.out_width(w)
    assert (heights[-1], widths[-1]) == (h, w) and len(heights) == len(specs) + 1
    assert model.total_macs == mac_count(model).total == _independent_macs(model)
    assert model == dataclasses.replace(model)  # not fields: equality ignores them


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
def test_each_output_map_reads_exactly_its_input_map(model):
    """The rows of each output map the geometry gives read, together, every
    row of the layer's input map."""
    specs, heights, _ = model.spatial_geometry
    for i, spec in enumerate(specs):
        assert receptive_field(spec, (0, heights[i + 1]), heights[i]) == (0, heights[i]), i


def test_mobilenet_stride2_positions():
    m = build_mobilenet_v1(1.0, 224)
    dws = [s for s in m.layers if s.kind is LayerKind.DEPTHWISE_CONV]
    assert len(dws) == 13
    assert [s.stride for s in dws] == [1, 2, 1, 2, 1, 2, 1, 1, 1, 1, 1, 2, 1]


def test_mobilenet_alpha_channel_rounding():
    m = build_mobilenet_v1(0.25, 160)
    assert m.layers[0].out_channels == 8  # round(0.25 * 32)
    m75 = build_mobilenet_v1(0.75, 224)
    assert m75.layers[0].out_channels == 24


def test_mobilenet_unsupported_params():
    with pytest.raises(ValueError):
        build_mobilenet_v1(0.9, 224)
    with pytest.raises(ValueError):
        build_mobilenet_v1(1.0, 128)


def test_mobilenet_macs_value():
    got = mac_count(build_mobilenet_v1(1.0, 224)).total
    assert got == _independent_macs(build_mobilenet_v1(1.0, 224))
    assert 0.55e9 < got < 0.60e9  # ~569 MMACs

    m = build_mobilenet_v1(0.5, 192)
    assert mac_count(m).total == _independent_macs(m)


def test_mac_monotone_in_alpha_and_rho():
    for rho in MOBILENET_RHOS:
        totals = [mac_count(build_mobilenet_v1(a, rho)).total for a in MOBILENET_ALPHAS]
        assert totals == sorted(totals, reverse=True)
        assert len(set(totals)) == len(totals)
    for alpha in MOBILENET_ALPHAS:
        totals = [mac_count(build_mobilenet_v1(alpha, r)).total for r in MOBILENET_RHOS]
        assert totals == sorted(totals, reverse=True)


def test_all_variants_run_monolithic():
    for alpha in MOBILENET_ALPHAS:
        for rho in MOBILENET_RHOS:
            m = build_mobilenet_v1(alpha, rho, base_width=8, classes=11)
            out = monolithic_infer(m, make_weights(m, 1), make_input(m, 2))
            assert out.shape == (11,)


def test_get_model_width_0_is_the_family_default():
    assert get_model("vgg16", base_width=0) == build_vgg16()
    assert get_model("mobilenet", 0.5, 160, base_width=0) == build_mobilenet_v1(0.5, 160)


_MODEL_GRID = [("vgg16", 1.0, 224)] + [("mobilenet", a, r) for a in MOBILENET_ALPHAS
                                        for r in MOBILENET_RHOS]


@pytest.mark.parametrize("classes", [1, 10])
@pytest.mark.parametrize("base_width", [1, 3, 8, 0])
@pytest.mark.parametrize("name, alpha, rho", _MODEL_GRID)
def test_every_buildable_model_chains_its_channels_and_splits(name, alpha, rho, base_width,
                                                               classes):
    """The builders' invariants, over `get_model`'s whole option grid: each
    layer reads the channels the previous one writes, the head is GAP + FC
    or three FCs fed the whole last map, and the model's plan validates."""
    model = get_model(name, alpha, rho, base_width, classes)
    specs, heights, widths = model.spatial_geometry
    ch = 3
    for i, spec in enumerate(specs):
        assert spec.in_channels == ch, i
        ch = spec.out_channels
    head = model.layers[len(specs):]
    kinds = [spec.kind for spec in head]
    assert kinds in ([LayerKind.GLOBAL_AVG_POOL, LayerKind.FULLY_CONNECTED],
                     [LayerKind.FULLY_CONNECTED] * 3)
    flat = ch if kinds[0] is LayerKind.GLOBAL_AVG_POOL else heights[-1] * widths[-1] * ch
    fc = next(spec for spec in head if spec.kind is LayerKind.FULLY_CONNECTED)
    assert fc.in_channels == flat
    assert head[-1].out_channels == classes
    assert validate_plan(build_plan(model), model) == []


@pytest.mark.parametrize("in_ch, out_ch", [(0, 4), (4, 0), (-3, 4), (4, -3)])
def test_layer_spec_rejects_channel_counts_below_1(in_ch, out_ch):
    with pytest.raises(ValueError, match="channel counts must be >= 1"):
        LayerSpec(LayerKind.CONV, (3, 3), 1, 1, in_ch, out_ch)


@pytest.mark.parametrize(
    "build",
    [lambda: build_vgg16(base_width=-3), lambda: build_vgg16(base_width=0),
     lambda: build_vgg16(classes=0), lambda: build_mobilenet_v1(1.0, 224, classes=0)],
    ids=["vgg_negative_width", "vgg_zero_width", "vgg_no_classes", "mobilenet_no_classes"],
)
def test_builders_reject_a_layer_without_channels(build):
    with pytest.raises(ValueError, match="channel counts must be >= 1"):
        build()


def test_weights_deterministic():
    m = build_vgg16(base_width=8, classes=10)
    w1 = make_weights(m, 5)
    w2 = make_weights(m, 5)
    for a, b in zip(w1, w2):
        np.testing.assert_array_equal(a.kernel, b.kernel)
        np.testing.assert_array_equal(a.bias, b.bias)
    w3 = make_weights(m, 6)
    assert not np.array_equal(w1[0].kernel, w3[0].kernel)
    assert np.all(np.abs(w1[0].kernel) <= 0.5)


def weights_sha256(weights):
    digest = hashlib.sha256()
    for w in weights:
        digest.update(w.kernel.tobytes())
        digest.update(w.bias.tobytes())
    return digest.hexdigest()


# Recorded from the whole-kernel `uniform` draw before the buffered draw
# replaced it; every weight bit must stay the same.
@pytest.mark.parametrize(
    "model, digest",
    [
        (build_mobilenet_v1(1.0, 224),
         "30f2b1ae478164ae71aa0d970e333af16b2f7891a65dda7512474bd41464d754"),
        (build_vgg16(base_width=8),
         "64f19d579499f2f234069a875ff2b807e54566bb14a39195ca3e07c24d8a1556"),
    ],
    ids=["mobilenet_1.0_224", "vgg16_w8"],
)
def test_weights_bits_frozen(model, digest):
    assert weights_sha256(make_weights(model, 11)) == digest


@pytest.mark.parametrize(
    "model",
    [build_mobilenet_v1(1.0, 224), build_vgg16(base_width=8)],
    ids=["mobilenet_1.0_224", "vgg16_w8"],
)
def test_weights_prefix_equals_full_draw(model):
    full = make_weights(model, 11)
    for n in (0, 1, model.n_spatial, len(model.layers) - 1):
        prefix = make_weights(model, 11, n)
        assert len(prefix) == n
        for got, want in zip(prefix, full):
            np.testing.assert_array_equal(got.kernel, want.kernel)
            np.testing.assert_array_equal(got.bias, want.bias)


def test_weights_prefix_length_checked():
    m = build_vgg16(base_width=8, classes=5)
    for n in (-1, len(m.layers) + 1):
        with pytest.raises(ValueError):
            make_weights(m, 0, n)
