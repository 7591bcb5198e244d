"""Layer-by-layer definitions of VGG-16 and the MobileNet-V1 family.

MobileNet variants are parameterized by the width multiplier alpha (channel
scaling) and input resolution rho. Accuracy is never computed here; weights
are seeded random and exist so the distributed and monolithic paths can be
compared value-for-value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .fields import COUNT, INT, NUMBER, POSITIVE_INT, check
from .layers import LayerKind, LayerSpec, LayerWeights, SPATIAL_KINDS, make_layer_weights
from .tensor import Tensor

MOBILENET_ALPHAS = (1.0, 0.75, 0.5, 0.25)
MOBILENET_RHOS = (224, 192, 160)

# out-channel multipliers of the 13 depthwise-separable blocks relative to the
# stem conv, with the strides of their depthwise layers
_MOBILENET_BLOCKS = (
    (2, 1), (4, 2), (4, 1), (8, 2), (8, 1), (16, 2),
    (16, 1), (16, 1), (16, 1), (16, 1), (16, 1), (32, 2), (32, 1),
)

_VGG_BLOCKS = ((2, 1), (2, 2), (3, 4), (3, 8), (3, 8))  # (convs, width multiplier)


@dataclass(frozen=True)
class ModelSpec:
    name: str
    input_shape: tuple[int, int, int]
    layers: tuple[LayerSpec, ...]
    alpha: float = 1.0
    rho: int = 224
    classes: int = 1000
    base_width: int = 0

    @property
    def n_spatial(self) -> int:
        """Number of leading layers that operate on H x W x C maps."""
        n = 0
        for spec in self.layers:
            if spec.kind not in SPATIAL_KINDS:
                break
            n += 1
        return n

    @cached_property
    def spatial_geometry(self) -> tuple[tuple[LayerSpec, ...], tuple[int, ...], tuple[int, ...]]:
        """(spatial layer specs, heights, widths): the input height and width
        of each spatial layer, plus the final output's. Built once per model;
        not a dataclass field, so equality ignores it."""
        specs = self.layers[: self.n_spatial]
        h, w = self.input_shape[:2]
        heights, widths = [h], [w]
        for spec in specs:
            h, w = spec.out_height(h), spec.out_width(w)
            heights.append(h)
            widths.append(w)
        return specs, tuple(heights), tuple(widths)

    @cached_property
    def total_macs(self) -> int:
        """`mac_count(self).total`, counted once per model."""
        return mac_count(self).total


@dataclass(frozen=True)
class MacCount:
    per_layer: tuple[int, ...]
    total: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "total", sum(self.per_layer))


def _round_channels(x: float) -> int:
    """Round-half-up with a floor of one channel."""
    return max(1, int(np.floor(x + 0.5)))


def build_vgg16(base_width: int = 64, classes: int = 1000) -> ModelSpec:
    """13 convs in five blocks (2-2-3-3-3), max-pool after each block, 3 FC layers."""
    layers: list[LayerSpec] = []
    in_ch = 3
    for convs, mult in _VGG_BLOCKS:
        out_ch = base_width * mult
        for _ in range(convs):
            layers.append(
                LayerSpec(LayerKind.CONV, (3, 3), 1, 1, in_ch, out_ch, "relu")
            )
            in_ch = out_ch
        layers.append(LayerSpec(LayerKind.MAX_POOL, (2, 2), 2, 0, in_ch, in_ch))
    fc_width = base_width * 64
    flat = 7 * 7 * in_ch
    layers.append(LayerSpec(LayerKind.FULLY_CONNECTED, in_channels=flat, out_channels=fc_width, activation="relu"))
    layers.append(LayerSpec(LayerKind.FULLY_CONNECTED, in_channels=fc_width, out_channels=fc_width, activation="relu"))
    layers.append(LayerSpec(LayerKind.FULLY_CONNECTED, in_channels=fc_width, out_channels=classes))
    return ModelSpec(
        name="vgg16",
        input_shape=(224, 224, 3),
        layers=tuple(layers),
        classes=classes,
        base_width=base_width,
    )


def mobilenet_name(alpha: float, rho: int) -> str:
    return f"MobileNet_v1_{'1.0' if alpha == 1.0 else f'{alpha:.2f}'}_{rho}"


def build_mobilenet_v1(
    alpha: float, rho: int, base_width: int = 32, classes: int = 1000
) -> ModelSpec:
    """Stem conv (stride 2) + 13 depthwise-separable pairs + global avg pool + FC."""
    if alpha not in MOBILENET_ALPHAS:
        raise ValueError(f"alpha must be one of {MOBILENET_ALPHAS}, got {alpha}")
    if rho not in MOBILENET_RHOS:
        raise ValueError(f"rho must be one of {MOBILENET_RHOS}, got {rho}")
    layers: list[LayerSpec] = []
    stem = _round_channels(alpha * base_width)
    layers.append(LayerSpec(LayerKind.CONV, (3, 3), 2, 1, 3, stem, "relu"))
    in_ch = stem
    for mult, stride in _MOBILENET_BLOCKS:
        out_ch = _round_channels(alpha * base_width * mult)
        layers.append(
            LayerSpec(LayerKind.DEPTHWISE_CONV, (3, 3), stride, 1, in_ch, in_ch, "relu")
        )
        layers.append(
            LayerSpec(LayerKind.POINTWISE_CONV, (1, 1), 1, 0, in_ch, out_ch, "relu")
        )
        in_ch = out_ch
    layers.append(LayerSpec(LayerKind.GLOBAL_AVG_POOL, in_channels=in_ch, out_channels=in_ch))
    layers.append(LayerSpec(LayerKind.FULLY_CONNECTED, in_channels=in_ch, out_channels=classes))
    return ModelSpec(
        name=mobilenet_name(alpha, rho),
        input_shape=(rho, rho, 3),
        layers=tuple(layers),
        alpha=alpha,
        rho=rho,
        classes=classes,
        base_width=base_width,
    )


def layer_macs(spec: LayerSpec, out_h: int, out_w: int) -> int:
    """Multiply-accumulate count of one layer; pooling layers count zero."""
    kh, kw = spec.kernel
    if spec.kind in (LayerKind.CONV, LayerKind.POINTWISE_CONV):
        return kh * kw * spec.in_channels * spec.out_channels * out_h * out_w
    if spec.kind is LayerKind.DEPTHWISE_CONV:
        return kh * kw * spec.in_channels * out_h * out_w
    if spec.kind is LayerKind.FULLY_CONNECTED:
        return spec.in_channels * spec.out_channels
    return 0


def mac_count(model: ModelSpec) -> MacCount:
    """Per-layer MACs: each spatial layer over its output map in
    `spatial_geometry`, the head at 1x1."""
    specs, heights, widths = model.spatial_geometry
    counts = [layer_macs(spec, heights[i + 1], widths[i + 1]) for i, spec in enumerate(specs)]
    counts += [layer_macs(spec, 1, 1) for spec in model.layers[len(specs) :]]
    return MacCount(tuple(counts))


def make_weights(model: ModelSpec, seed: int, n_layers: int | None = None) -> list[LayerWeights]:
    """Layer weights from one seed, drawn in layer order.

    With `n_layers`, only the first `n_layers` layers are drawn; they equal
    the first entries of the full list, because the stream is drawn in layer
    order. A secondary passes `model.n_spatial` and skips the classifier head.
    """
    if n_layers is None:
        n_layers = len(model.layers)
    if not 0 <= n_layers <= len(model.layers):
        raise ValueError(f"n_layers must be in [0, {len(model.layers)}], got {n_layers}")
    rng = np.random.default_rng(seed)
    return [make_layer_weights(spec, rng) for spec in model.layers[:n_layers]]


def make_input(model: ModelSpec, seed: int):
    rng = np.random.default_rng(seed)
    h, w, c = model.input_shape
    return Tensor(rng.uniform(-0.5, 0.5, size=(h, w, c)).astype(np.float32))


def get_model(name: str, alpha: float = 1.0, rho: int = 224, base_width: int = 0,
              classes: int = 1000) -> ModelSpec:
    """Build a model by CLI-style name ("vgg16" or "mobilenet"); a
    `base_width` of 0 means the family's default."""
    check(alpha, NUMBER, "alpha")
    check(rho, INT, "rho")
    check(base_width, COUNT, "base_width")
    check(classes, POSITIVE_INT, "classes")
    if name == "vgg16":
        return build_vgg16(base_width or 64, classes)
    if name in ("mobilenet", "mobilenet_v1"):
        return build_mobilenet_v1(alpha, rho, base_width or 32, classes)
    raise ValueError(f"unknown model {name!r}")
