"""Frame encoding: round-trips, invariants, and fuzz robustness."""

import numpy as np
import pytest

from halp.framing import (
    HEADER,
    Frame,
    FrameError,
    deserialize_frame,
    handshake_frame,
    parse_handshake,
    serialize_frame,
)


def make_frame(rows=1, width=224, channels=3, layer=2, sender=1, row_start=111):
    rng = np.random.default_rng(0)
    data = rng.uniform(-1, 1, (rows, width, channels)).astype("<f4")
    return Frame.from_rows(layer, sender, row_start, data)


def test_roundtrip_single_row():
    frame = make_frame()
    back = deserialize_frame(serialize_frame(frame))
    assert back == frame
    np.testing.assert_array_equal(back.values, frame.values)


def test_roundtrip_multi_row():
    frame = make_frame(rows=7, width=56, channels=128, layer=9, sender=2, row_start=40)
    assert deserialize_frame(serialize_frame(frame)) == frame


def test_header_is_11_bytes_little_endian():
    frame = make_frame(rows=2, width=3, channels=4, layer=0x0102, sender=5, row_start=0x0607)
    buf = serialize_frame(frame)
    assert HEADER.size == 11
    assert buf[:11] == bytes([0x02, 0x01, 5, 0x07, 0x06, 2, 0, 3, 0, 4, 0])
    assert len(buf) == 11 + 2 * 3 * 4 * 4


def test_zero_row_frame_rejected():
    with pytest.raises(FrameError):
        Frame(layer=1, sender=0, row_start=0, row_count=0, width=4, channels=1, payload=b"")
    header = HEADER.pack(1, 0, 0, 0, 4, 1)
    with pytest.raises(FrameError):
        deserialize_frame(header)


def test_payload_length_mismatch_rejected():
    with pytest.raises(FrameError):
        Frame(layer=1, sender=0, row_start=0, row_count=2, width=2, channels=1,
              payload=b"\x00" * 12)


def test_truncated_buffers_rejected():
    buf = serialize_frame(make_frame())
    for cut in (0, 1, 5, 10, len(buf) - 1):
        with pytest.raises(FrameError):
            deserialize_frame(buf[:cut])


def test_fuzzed_prefixes_never_crash():
    rng = np.random.default_rng(99)
    for _ in range(300):
        n = int(rng.integers(0, 64))
        blob = rng.integers(0, 256, size=n, dtype=np.uint8).tobytes()
        try:
            deserialize_frame(blob)
        except FrameError:
            pass  # the only acceptable failure mode


def test_fuzzed_header_with_matching_payload():
    """Random headers whose promised length we honour must decode or raise
    FrameError, never anything else."""
    rng = np.random.default_rng(7)
    for _ in range(200):
        header = rng.integers(0, 256, size=11, dtype=np.uint8).tobytes()
        try:
            from halp.framing import payload_length

            n = payload_length(header)
        except FrameError:
            continue
        if n > 1 << 20:
            continue
        blob = header + bytes(n)
        frame = deserialize_frame(blob)
        assert frame.payload == bytes(n)


def test_handshake_roundtrip():
    doc = {"model": "vgg16", "seed": 7, "plan": {"z1": 68}}
    frame = handshake_frame(doc)
    back = parse_handshake(deserialize_frame(serialize_frame(frame)))
    assert back == doc


def test_handshake_rejects_data_frame():
    with pytest.raises(FrameError):
        parse_handshake(make_frame())


def test_payload_length_refuses_more_than_the_cap():
    from halp.framing import MAX_PAYLOAD_BYTES, payload_length

    side = 4096  # 4096 x 4096 x 1 float32 values fill the cap exactly
    assert side * side * 4 == MAX_PAYLOAD_BYTES
    assert payload_length(HEADER.pack(0, 0, 0, side, side, 1)) == MAX_PAYLOAD_BYTES
    for header in [HEADER.pack(0, 0, 0, side + 1, side, 1),
                   HEADER.pack(0, 0, 0, 0xFFFF, 0xFFFF, 0xFFFF)]:
        with pytest.raises(FrameError, match="cap"):
            payload_length(header)


def _builtin_plans():
    """Every plan the CLI builds for a built-in model: each catalog MobileNet,
    and full-width VGG-16 at every feasible entry zone."""
    from halp.models import build_mobilenet_v1, build_vgg16
    from halp.planner import PlanError, build_plan
    from halp.selector import load_catalog

    for entry in load_catalog():
        config = {"model": "mobilenet", "alpha": entry.alpha, "rho": entry.rho}
        yield config, build_plan(build_mobilenet_v1(entry.alpha, entry.rho), 4)
    vgg = build_vgg16()
    for z1 in range(4, 113, 2):
        try:
            yield {"model": "vgg16", "z1": z1}, build_plan(vgg, z1)
        except PlanError:
            continue


def test_builtin_frames_and_handshakes_fit_under_the_cap():
    from halp.framing import MAX_PAYLOAD_BYTES
    from halp.runtime import _resolve, _session_doc

    sizes = {}  # (model, z1) -> (largest scheduled payload, handshake payload)
    for config, plan in _builtin_plans():
        frame = max(s.bits // 8 for s in plan.exchange_schedule)
        handshake = len(handshake_frame(_session_doc(config, _resolve(config)[0], plan, 0)).payload)
        sizes[plan.model_name, plan.z1] = (frame, handshake)
    assert ("vgg16", 4) in sizes and ("vgg16", 68) in sizes
    assert sizes["MobileNet_v1_1.0_224", 0][0] == 111 * 224 * 3 * 4  # first input segment
    worst = max(max(pair) for pair in sizes.values())
    assert worst * 16 < MAX_PAYLOAD_BYTES
