"""Kernel correctness against brute-force nested-loop oracles."""

import numpy as np
import pytest

from halp import layers
from halp.layers import (
    LayerKind,
    LayerSpec,
    LayerWeights,
    conv2d_rows,
    depthwise_conv2d_rows,
    fully_connected,
    gather_input,
    global_avg_pool,
    make_layer_weights,
    maxpool2d_rows,
)
from halp.tensor import Tensor

RTOL = 1e-6


def oracle_conv(x, kernel, bias, stride, pad, relu):
    H, W, C = x.shape
    kh, kw, _, co_n = kernel.shape
    ho = (H + 2 * pad - kh) // stride + 1
    wo = (W + 2 * pad - kw) // stride + 1
    out = np.zeros((ho, wo, co_n))
    for j in range(ho):
        for i in range(wo):
            for co in range(co_n):
                acc = 0.0
                for dy in range(kh):
                    for dx in range(kw):
                        y, z = j * stride - pad + dy, i * stride - pad + dx
                        if 0 <= y < H and 0 <= z < W:
                            for c in range(C):
                                acc += float(x[y, z, c]) * float(kernel[dy, dx, c, co])
                acc += float(bias[co])
                out[j, i, co] = max(acc, 0.0) if relu else acc
    return out


def oracle_depthwise(x, kernel, bias, stride, pad, relu):
    H, W, C = x.shape
    kh, kw, _ = kernel.shape
    ho = (H + 2 * pad - kh) // stride + 1
    wo = (W + 2 * pad - kw) // stride + 1
    out = np.zeros((ho, wo, C))
    for j in range(ho):
        for i in range(wo):
            for c in range(C):
                acc = 0.0
                for dy in range(kh):
                    for dx in range(kw):
                        y, z = j * stride - pad + dy, i * stride - pad + dx
                        if 0 <= y < H and 0 <= z < W:
                            acc += float(x[y, z, c]) * float(kernel[dy, dx, c])
                acc += float(bias[c])
                out[j, i, c] = max(acc, 0.0) if relu else acc
    return out


def oracle_maxpool(x):
    H, W, C = x.shape
    out = np.zeros((H // 2, W // 2, C))
    for j in range(H // 2):
        for i in range(W // 2):
            for c in range(C):
                out[j, i, c] = max(
                    x[2 * j, 2 * i, c], x[2 * j, 2 * i + 1, c],
                    x[2 * j + 1, 2 * i, c], x[2 * j + 1, 2 * i + 1, c],
                )
    return out


def conv_spec(kh, kw, cin, cout, stride=1, pad=1, act=None):
    return LayerSpec(LayerKind.CONV, (kh, kw), stride, pad, cin, cout, act)


def whole(x, spec):
    """The input of a whole output map, gathered from one piece, the way
    `monolithic_infer` does."""
    return gather_input([(0, x.data)], spec, (0, spec.out_height(x.shape[0])), x.shape[0])


def conv_full(x, spec, w):
    return conv2d_rows(whole(x, spec), spec, w)


def depthwise_full(x, spec, w):
    return depthwise_conv2d_rows(whole(x, spec), spec, w)


def pool_spec(channels):
    return LayerSpec(LayerKind.MAX_POOL, (2, 2), 2, 0, channels, channels)


def maxpool_full(x):
    return maxpool2d_rows(whole(x, pool_spec(x.shape[2])))


def test_conv_zero_input_is_zero():
    spec = conv_spec(3, 3, 1, 1)
    w = LayerWeights(np.ones((3, 3, 1, 1), np.float32), np.zeros(1, np.float32))
    out = conv_full(Tensor(np.zeros((5, 5, 1), np.float32)), spec, w)
    assert out.shape == (5, 5, 1)
    assert np.all(out.data == 0.0)


def test_conv_identity_kernel():
    rng = np.random.default_rng(0)
    x = Tensor(rng.uniform(-1, 1, (4, 4, 1)).astype(np.float32))
    spec = conv_spec(1, 1, 1, 1, stride=1, pad=0)
    w = LayerWeights(np.ones((1, 1, 1, 1), np.float32), np.zeros(1, np.float32))
    out = conv_full(x, spec, w)
    np.testing.assert_array_equal(out.data, x.data)


def test_conv_matches_oracle_spec_example():
    rng = np.random.default_rng(42)
    x = rng.uniform(-1, 1, (8, 8, 3)).astype(np.float32)
    kernel = rng.uniform(-1, 1, (3, 3, 3, 4)).astype(np.float32)
    bias = rng.uniform(-1, 1, 4).astype(np.float32)
    spec = conv_spec(3, 3, 3, 4)
    got = conv_full(Tensor(x), spec, LayerWeights(kernel, bias))
    want = oracle_conv(x, kernel, bias, 1, 1, relu=False)
    np.testing.assert_allclose(got.data, want, rtol=RTOL, atol=1e-6)


@pytest.mark.parametrize("case", range(100))
def test_conv_random_cases(case):
    rng = np.random.default_rng(1000 + case)
    kh = int(rng.choice([1, 3]))
    stride = int(rng.choice([1, 2]))
    pad = 0 if kh == 1 else int(rng.choice([0, 1]))
    cin, cout = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    h = int(rng.integers(kh + stride, 8))
    w = int(rng.integers(kh + stride, 8))
    relu = bool(rng.integers(0, 2))
    x = rng.uniform(-1, 1, (h, w, cin)).astype(np.float32)
    kernel = rng.uniform(-1, 1, (kh, kh, cin, cout)).astype(np.float32)
    bias = rng.uniform(-1, 1, cout).astype(np.float32)
    spec = conv_spec(kh, kh, cin, cout, stride, pad, "relu" if relu else None)
    got = conv_full(Tensor(x), spec, LayerWeights(kernel, bias))
    want = oracle_conv(x, kernel, bias, stride, pad, relu)
    assert got.shape == want.shape
    np.testing.assert_allclose(got.data, want, rtol=RTOL, atol=1e-6)


def test_depthwise_zero_input():
    spec = LayerSpec(LayerKind.DEPTHWISE_CONV, (3, 3), 1, 1, 2, 2)
    w = LayerWeights(np.ones((3, 3, 2), np.float32), np.zeros(2, np.float32))
    out = depthwise_full(Tensor(np.zeros((6, 6, 2), np.float32)), spec, w)
    assert np.all(out.data == 0.0)


def test_depthwise_center_tap_identity():
    rng = np.random.default_rng(1)
    x = Tensor(rng.uniform(-1, 1, (6, 6, 2)).astype(np.float32))
    kernel = np.zeros((3, 3, 2), np.float32)
    kernel[1, 1, :] = 1.0
    spec = LayerSpec(LayerKind.DEPTHWISE_CONV, (3, 3), 1, 1, 2, 2)
    out = depthwise_full(x, spec, LayerWeights(kernel, np.zeros(2, np.float32)))
    np.testing.assert_allclose(out.data, x.data, rtol=RTOL)


def test_depthwise_stride2_matches_oracle():
    rng = np.random.default_rng(7)
    x = rng.uniform(-1, 1, (7, 7, 4)).astype(np.float32)
    kernel = rng.uniform(-1, 1, (3, 3, 4)).astype(np.float32)
    bias = rng.uniform(-1, 1, 4).astype(np.float32)
    spec = LayerSpec(LayerKind.DEPTHWISE_CONV, (3, 3), 2, 1, 4, 4)
    got = depthwise_full(Tensor(x), spec, LayerWeights(kernel, bias))
    want = oracle_depthwise(x, kernel, bias, 2, 1, relu=False)
    np.testing.assert_allclose(got.data, want, rtol=RTOL, atol=1e-6)


@pytest.mark.parametrize("case", range(100))
def test_depthwise_random_cases(case):
    rng = np.random.default_rng(2000 + case)
    stride = int(rng.choice([1, 2]))
    c = int(rng.integers(1, 5))
    h, w = int(rng.integers(4, 9)), int(rng.integers(4, 9))
    relu = bool(rng.integers(0, 2))
    x = rng.uniform(-1, 1, (h, w, c)).astype(np.float32)
    kernel = rng.uniform(-1, 1, (3, 3, c)).astype(np.float32)
    bias = rng.uniform(-1, 1, c).astype(np.float32)
    spec = LayerSpec(LayerKind.DEPTHWISE_CONV, (3, 3), stride, 1, c, c,
                     "relu" if relu else None)
    got = depthwise_full(Tensor(x), spec, LayerWeights(kernel, bias))
    want = oracle_depthwise(x, kernel, bias, stride, 1, relu)
    np.testing.assert_allclose(got.data, want, rtol=RTOL, atol=1e-6)


def test_maxpool_single_window():
    x = Tensor(np.array([1, 2, 3, 4], np.float32).reshape(2, 2, 1))
    out = maxpool_full(x)
    assert out.shape == (1, 1, 1)
    assert out.data[0, 0, 0] == 4.0


def test_maxpool_constant_field():
    out = maxpool_full(Tensor(np.full((6, 4, 2), 3.5, np.float32)))
    assert out.shape == (3, 2, 2)
    assert np.all(out.data == 3.5)


@pytest.mark.parametrize("kernel,stride,pad", [((3, 3), 2, 0), ((2, 2), 1, 0), ((2, 2), 2, 1)],
                         ids=["kernel3x3", "stride1", "padding1"])
def test_max_pool_spec_must_be_the_pool_the_kernel_computes(kernel, stride, pad):
    with pytest.raises(ValueError, match="max pool must be 2x2, stride 2, padding 0"):
        LayerSpec(LayerKind.MAX_POOL, kernel, stride, pad, 3, 3)


def test_maxpool_rejects_odd_width():
    with pytest.raises(ValueError, match="pooling needs even width, got 5"):
        maxpool2d_rows(np.zeros((4, 5, 1), np.float32))


@pytest.mark.parametrize("case", range(100))
def test_maxpool_random_cases(case):
    rng = np.random.default_rng(3000 + case)
    h, w = 2 * int(rng.integers(1, 5)), 2 * int(rng.integers(1, 5))
    c = int(rng.integers(1, 4))
    x = rng.uniform(-1, 1, (h, w, c)).astype(np.float32)
    got = maxpool_full(Tensor(x))
    np.testing.assert_array_equal(got.data, oracle_maxpool(x).astype(np.float32))


def test_maxpool_oracle_8x8x3():
    rng = np.random.default_rng(9)
    x = rng.uniform(-1, 1, (8, 8, 3)).astype(np.float32)
    np.testing.assert_array_equal(maxpool_full(Tensor(x)).data,
                                  oracle_maxpool(x).astype(np.float32))


def test_fully_connected_zero_input_gives_bias():
    w = LayerWeights(np.ones((3, 4), np.float32), np.array([1, 2, 3], np.float32))
    out = fully_connected(np.zeros(4, np.float32), w)
    np.testing.assert_array_equal(out, [1, 2, 3])


def test_fully_connected_identity():
    w = LayerWeights(np.eye(5, dtype=np.float32), np.zeros(5, np.float32))
    x = np.arange(5, dtype=np.float32)
    np.testing.assert_array_equal(fully_connected(x, w), x)


@pytest.mark.parametrize("case", range(100))
def test_fully_connected_random_cases(case):
    rng = np.random.default_rng(4000 + case)
    n_in, n_out = int(rng.integers(1, 20)), int(rng.integers(1, 12))
    x = rng.uniform(-1, 1, n_in).astype(np.float32)
    w = rng.uniform(-1, 1, (n_out, n_in)).astype(np.float32)
    b = rng.uniform(-1, 1, n_out).astype(np.float32)
    got = fully_connected(x, LayerWeights(w, b))
    want = [sum(float(w[o, i]) * float(x[i]) for i in range(n_in)) + float(b[o])
            for o in range(n_out)]
    np.testing.assert_allclose(got, want, rtol=RTOL, atol=1e-6)


def test_fully_connected_16_to_8_oracle():
    rng = np.random.default_rng(16)
    x = rng.uniform(-1, 1, 16).astype(np.float32)
    w = rng.uniform(-1, 1, (8, 16)).astype(np.float32)
    b = rng.uniform(-1, 1, 8).astype(np.float32)
    got = fully_connected(x, LayerWeights(w, b))
    want = w.astype(np.float64) @ x.astype(np.float64) + b
    np.testing.assert_allclose(got, want, rtol=RTOL)


def test_global_avg_pool():
    rng = np.random.default_rng(3)
    x = rng.uniform(-1, 1, (7, 7, 5)).astype(np.float32)
    out = global_avg_pool(Tensor(x))
    assert out.shape == (1, 1, 5)
    np.testing.assert_allclose(out.data[0, 0], x.mean(axis=(0, 1)), rtol=1e-5)


@pytest.mark.parametrize(
    "h,kh,stride,pad,expect",
    [(5, 3, 1, 0, 3), (5, 3, 1, 1, 5), (7, 3, 2, 0, 3), (224, 3, 2, 1, 112),
     (28, 5, 1, 2, 28), (1, 1, 1, 0, 1)],
)
def test_output_shape_rule(h, kh, stride, pad, expect):
    spec = conv_spec(kh, kh, 1, 1, stride, pad)
    assert spec.out_height(h) == expect


@pytest.mark.parametrize("stride", [1, 2])
def test_row_locality(stride):
    """Output row j depends only on input rows j*s-1 .. j*s+1 for a 3x3 pad-1
    kernel; rows outside that window can change freely."""
    rng = np.random.default_rng(17)
    h = 12
    x = rng.uniform(-1, 1, (h, 6, 2)).astype(np.float32)
    kernel = rng.uniform(-1, 1, (3, 3, 2, 3)).astype(np.float32)
    bias = rng.uniform(-1, 1, 3).astype(np.float32)
    spec = conv_spec(3, 3, 2, 3, stride, 1)
    w = LayerWeights(kernel, bias)
    base = conv_full(Tensor(x), spec, w)
    j = 3
    lo, hi = j * stride - 1, j * stride + 2
    perturbed = x.copy()
    perturbed[: max(lo, 0)] += rng.uniform(1, 2, (max(lo, 0), 6, 2)).astype(np.float32)
    perturbed[hi:] += rng.uniform(1, 2, (h - hi, 6, 2)).astype(np.float32)
    out = conv_full(Tensor(perturbed), spec, w)
    np.testing.assert_array_equal(out.data[j], base.data[j])
    assert not np.array_equal(out.data[j + 2], base.data[j + 2])


def test_row_range_compute_matches_full():
    """Computing a row sub-range on a slab equals the same rows of the full map."""
    rng = np.random.default_rng(23)
    x = rng.uniform(-1, 1, (16, 8, 3)).astype(np.float32)
    kernel = rng.uniform(-1, 1, (3, 3, 3, 2)).astype(np.float32)
    bias = rng.uniform(-1, 1, 2).astype(np.float32)
    spec = conv_spec(3, 3, 3, 2, 1, 1, "relu")
    w = LayerWeights(kernel, bias)
    full = conv_full(Tensor(x), spec, w)
    part = conv2d_rows(gather_input([(4, x[4:12])], spec, (5, 11), 16), spec, w)
    np.testing.assert_array_equal(part.data, full.data[5:11])

    dspec = LayerSpec(LayerKind.DEPTHWISE_CONV, (3, 3), 2, 1, 3, 3)
    dk = rng.uniform(-1, 1, (3, 3, 3)).astype(np.float32)
    dw = LayerWeights(dk, np.zeros(3, np.float32))
    dfull = depthwise_full(Tensor(x), dspec, dw)
    dpart = depthwise_conv2d_rows(gather_input([(3, x[3:13])], dspec, (2, 6), 16), dspec, dw)
    np.testing.assert_array_equal(dpart.data, dfull.data[2:6])


def test_weights_drawn_in_blocks_equal_one_draw():
    """A kernel larger than one block is the same stream as a single draw."""
    spec = LayerSpec(LayerKind.FULLY_CONNECTED, in_channels=1500, out_channels=1000)
    assert spec.in_channels * spec.out_channels > layers._BLOCK
    rng, ref = np.random.default_rng(31), np.random.default_rng(31)
    w = make_layer_weights(spec, rng)
    np.testing.assert_array_equal(
        w.kernel, ref.uniform(-0.5, 0.5, size=(1000, 1500)).astype(np.float32))
    np.testing.assert_array_equal(w.bias, ref.uniform(-0.5, 0.5, size=1000).astype(np.float32))
    assert rng.uniform() == ref.uniform()


@pytest.mark.parametrize(
    "size",
    [1, layers._DRAW_BLOCK - 1, layers._DRAW_BLOCK, layers._DRAW_BLOCK + 1,
     3 * layers._DRAW_BLOCK + 5],
)
def test_buffered_draw_equals_uniform(size):
    """The reused-buffer draw gives uniform's values and leaves the same stream."""
    spec = LayerSpec(LayerKind.FULLY_CONNECTED, in_channels=size, out_channels=1)
    rng, ref = np.random.default_rng(size), np.random.default_rng(size)
    w = make_layer_weights(spec, rng)
    np.testing.assert_array_equal(
        w.kernel, ref.uniform(-0.5, 0.5, size=(1, size)).astype(np.float32))
    np.testing.assert_array_equal(w.bias, ref.uniform(-0.5, 0.5, size=1).astype(np.float32))
    assert rng.uniform() == ref.uniform()


@pytest.mark.parametrize("activation", [None, "relu"])
def test_fully_connected_row_blocks_equal_one_shot(activation):
    rng = np.random.default_rng(37)
    n_in = 4096
    n_out = 2 * (layers._BLOCK // n_in) + 77  # two full row blocks and a partial one
    x = rng.uniform(-1, 1, n_in).astype(np.float32)
    w = rng.uniform(-1, 1, (n_out, n_in)).astype(np.float32)
    b = rng.uniform(-1, 1, n_out).astype(np.float32)
    want = w.astype(np.float64) @ x.astype(np.float64) + b.astype(np.float64)
    if activation == "relu":
        want = np.maximum(want, 0.0)
    got = fully_connected(x, LayerWeights(w, b), activation)
    np.testing.assert_array_equal(got, want.astype(np.float32))


@pytest.mark.parametrize("stride", [1, 2])
def test_conv_row_chunks_equal_single_row_calls(stride):
    """A map spanning several output-row chunks equals its rows computed one by one."""
    rng = np.random.default_rng(41)
    c_in, out_w, out_h = 64, 64, 80
    x = rng.uniform(-1, 1, (out_h * stride, out_w * stride, c_in)).astype(np.float32)
    spec = conv_spec(3, 3, c_in, 4, stride, 1, "relu")
    w = LayerWeights(rng.uniform(-1, 1, (3, 3, c_in, 4)).astype(np.float32),
                     rng.uniform(-1, 1, 4).astype(np.float32))
    chunk = max(-(-layers._MIN_CHUNK_PIXELS // out_w), layers._BLOCK // (out_w * 9 * c_in))
    assert out_h > chunk
    full = conv_full(Tensor(x), spec, w)
    rows = [conv2d_rows(gather_input([(0, x)], spec, (j, j + 1), x.shape[0]), spec, w).data
            for j in range(out_h)]
    np.testing.assert_array_equal(full.data, np.concatenate(rows))


def test_shape_mismatch_raises():
    spec = conv_spec(3, 3, 2, 2)
    w = LayerWeights(np.zeros((3, 3, 3, 2), np.float32), np.zeros(2, np.float32))
    with pytest.raises(ValueError):
        conv_full(Tensor(np.zeros((5, 5, 2), np.float32)), spec, w)
    with pytest.raises(ValueError):
        fully_connected(np.zeros(5, np.float32),
                        LayerWeights(np.zeros((2, 4), np.float32), np.zeros(2, np.float32)))


@pytest.mark.parametrize(
    "kind, stride, pad",
    [("conv", 1, 1), ("conv", 2, 1), ("conv", 1, 0), ("depthwise", 1, 1), ("depthwise", 2, 1)],
)
def test_rows_from_an_f64_kernel_equal_rows_from_f32(monkeypatch, kind, stride, pad):
    """A caller's float64 copy of the kernel gives the same bits as the float32
    kernel, and the kernel does not cast it again."""
    rng = np.random.default_rng(43)
    x = rng.uniform(-1, 1, (12, 9, 5)).astype(np.float32)
    if kind == "conv":
        spec = conv_spec(3, 3, 5, 4, stride, pad, "relu")
        rows, shape = conv2d_rows, (3, 3, 5, 4)
    else:
        spec = LayerSpec(LayerKind.DEPTHWISE_CONV, (3, 3), stride, pad, 5, 5, "relu")
        rows, shape = depthwise_conv2d_rows, (3, 3, 5)
    w = LayerWeights(rng.uniform(-1, 1, shape).astype(np.float32),
                     rng.uniform(-1, 1, spec.out_channels).astype(np.float32))
    out_h = spec.out_height(12)
    for out_range in [(0, 2), (2, out_h), (0, out_h)]:
        lo = max(0, out_range[0] * stride - pad)
        slab = gather_input([(lo, x[lo:12])], spec, out_range, 12)
        want = rows(slab, spec, w)
        kernel64 = layers.f64_kernel(w)
        assert kernel64.dtype == np.float64
        with monkeypatch.context() as m:
            m.setattr(layers, "f64_kernel", lambda _: pytest.fail("kernel cast again"))
            got = rows(slab, spec, w, kernel64=kernel64)
        np.testing.assert_array_equal(got.data, want.data)


@pytest.mark.parametrize(
    "row_lo, row_hi, pad, pieces",
    [(-1, 5, 1, None), (3, 9, 1, None), (-2, 10, 2, None), (0, 8, 0, None), (2, 6, 3, None),
     (-1, 9, 0, None),
     (-1, 9, 1, [(5, 8), (0, 2), (2, 5)]),
     (3, 9, 1, [(0, 8)]),
     (1, 7, 2, [(0, 4), (4, 6), (6, 8)]),
     (2, 6, None, [(0, 3), (3, 8)]),
     (2, 6, None, [(0, 8)])],
    ids=["top", "bottom", "top_bottom_wide", "none", "sides_only", "top_bottom_no_sides",
         "several_pieces", "overhanging_piece", "pieces_overhanging_both_ends",
         "pool_rows_from_two_pieces", "pool_rows_viewed_in_one_piece"],
)
def test_padded_slab_equals_pad_of_cast(row_lo, row_hi, pad, pieces):
    """The gathered slab equals np.pad of the float64 cast, bit for bit; a
    pool (`pad` None) reads the float32 rows themselves. `pieces` (row
    ranges of the map) default to exactly the rows the range holds."""
    in_height = 8
    rng = np.random.default_rng(47)
    full = rng.uniform(-1, 1, (in_height, 5, 3)).astype(np.float32)
    real = (max(0, row_lo), min(in_height, row_hi))
    given = [(a, full[a:b]) for a, b in (pieces or [real])]
    if pad is None:
        got = gather_input(given, pool_spec(3), (row_lo // 2, row_hi // 2), in_height)
        assert got.dtype == np.float32
        np.testing.assert_array_equal(got, full[row_lo:row_hi])
        assert np.shares_memory(got, full) == (len(given) == 1)
        return
    sub = full[real[0] : real[1]]
    top, bottom = max(0, -row_lo), max(0, row_hi - in_height)
    want = np.pad(sub.astype(np.float64), ((top, bottom), (pad, pad), (0, 0)))
    # a conv whose one output row reads input rows [row_lo, row_hi), padded by `pad`
    spec = conv_spec(row_hi - row_lo, 1, 3, 1, 1, pad)
    got = gather_input(given, spec, (row_lo + pad, row_lo + pad + 1), in_height)
    assert got.dtype == np.float64 and got.flags.c_contiguous
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("spec", [conv_spec(3, 3, 3, 1, 1, 1), pool_spec(3)], ids=["conv", "pool"])
def test_gather_raises_when_a_row_is_missing(spec):
    """Pieces that leave out a real row of the range fail the gather."""
    full = np.zeros((8, 4, 3), np.float32)
    pieces = [(0, full[0:3]), (4, full[4:8])]  # row 3 is in no piece
    with pytest.raises(ValueError, match="pieces hold 3 of the 4 input rows"):
        gather_input(pieces, spec, (1, 3), 8)
