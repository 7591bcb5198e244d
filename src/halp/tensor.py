"""Reference tensor type: an H x W x C float32 feature map."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Tensor:
    """Immutable float32 feature map in row-major (height, width, channels) order."""

    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float32)
        if arr.ndim != 3:
            raise ValueError(f"tensor must be 3-D (H, W, C), got shape {arr.shape}")
        if min(arr.shape) < 1:
            raise ValueError(f"tensor dimensions must be >= 1, got {arr.shape}")
        object.__setattr__(self, "data", arr)

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.data.shape
