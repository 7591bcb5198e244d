"""Wire encoding of boundary-row transfers.

Header (little-endian): layer u16, sender u8, row_start u16, row_count u16,
width u16, channels u16 — 11 bytes — followed by row_count*width*channels
float32 payload values. Layer 0xFFFF marks the session handshake, whose
payload is raw UTF-8 JSON padded to a multiple of four bytes.

A stream reader takes the payload length from the header before it reads
the payload, so `payload_length` refuses a header that promises more than
`MAX_PAYLOAD_BYTES`; the u16 fields alone would allow about 1.1 PB.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

import numpy as np

from .fields import parse

HEADER = struct.Struct("<HBHHHH")
HANDSHAKE_LAYER = 0xFFFF
# Largest payload a reader accepts: 64 MiB, more than a whole float32 map of
# any built-in model (VGG-16's 224x224x64 is 12.8 MB); the largest scheduled
# frame, MobileNet 1.0_224's first input segment, is 298 KB.
MAX_PAYLOAD_BYTES = 1 << 26


class FrameError(ValueError):
    """Malformed or truncated frame buffer."""


@dataclass(frozen=True)
class Frame:
    layer: int
    sender: int
    row_start: int
    row_count: int
    width: int
    channels: int
    payload: bytes

    def __post_init__(self):
        for name in ("layer", "row_start", "row_count", "width", "channels"):
            v = getattr(self, name)
            if not 0 <= v <= 0xFFFF:
                raise FrameError(f"{name}={v} outside u16 range")
        if not 0 <= self.sender <= 0xFF:
            raise FrameError(f"sender={self.sender} outside u8 range")
        if self.row_count == 0:
            raise FrameError("frame must carry at least one row")
        expect = self.row_count * self.width * self.channels * 4
        if len(self.payload) != expect:
            raise FrameError(
                f"payload is {len(self.payload)} bytes, header implies {expect}"
            )

    @property
    def values(self) -> np.ndarray:
        return np.frombuffer(self.payload, dtype="<f4").reshape(
            self.row_count, self.width, self.channels
        )

    @classmethod
    def from_rows(cls, layer: int, sender: int, row_start: int, rows: np.ndarray) -> "Frame":
        arr = np.ascontiguousarray(rows, dtype="<f4")
        if arr.ndim != 3:
            raise FrameError(f"row payload must be 3-D, got shape {arr.shape}")
        return cls(
            layer=layer,
            sender=sender,
            row_start=row_start,
            row_count=arr.shape[0],
            width=arr.shape[1],
            channels=arr.shape[2],
            payload=arr.tobytes(),
        )


def serialize_frame(frame: Frame) -> bytes:
    header = HEADER.pack(
        frame.layer,
        frame.sender,
        frame.row_start,
        frame.row_count,
        frame.width,
        frame.channels,
    )
    return header + frame.payload


def deserialize_frame(buf: bytes) -> Frame:
    """The frame a buffer holds; `Frame` itself refuses a row count of 0 or
    a payload of another length than the header implies."""
    if len(buf) < HEADER.size:
        raise FrameError(f"buffer of {len(buf)} bytes is shorter than the header")
    return Frame(*HEADER.unpack_from(buf), buf[HEADER.size :])


def payload_length(header: bytes) -> int:
    """Payload byte count promised by an 11-byte header (for stream reads);
    more than `MAX_PAYLOAD_BYTES` is refused before anything is allocated."""
    if len(header) != HEADER.size:
        raise FrameError("header must be exactly 11 bytes")
    _, _, _, row_count, width, channels = HEADER.unpack(header)
    if row_count == 0:
        raise FrameError("frame must carry at least one row")
    n = row_count * width * channels * 4
    if n > MAX_PAYLOAD_BYTES:
        raise FrameError(
            f"header promises a {n}-byte payload, above the {MAX_PAYLOAD_BYTES}-byte cap"
        )
    return n


def handshake_frame(doc: dict) -> Frame:
    """Control frame carrying session JSON (model, plan, seed)."""
    raw = json.dumps(doc).encode()
    raw += b" " * (-len(raw) % 4)
    return Frame(
        layer=HANDSHAKE_LAYER,
        sender=0,
        row_start=0,
        row_count=len(raw) // 4,
        width=1,
        channels=1,
        payload=raw,
    )


def parse_handshake(frame: Frame) -> dict:
    if frame.layer != HANDSHAKE_LAYER:
        raise FrameError(f"not a handshake frame (layer {frame.layer})")
    return parse(frame.payload.decode().strip()).doc
