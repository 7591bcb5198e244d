"""Deadline-driven model selection and service-reliability Monte Carlo.

The selection rule lives in `run_reliability`: per task, the highest
accuracy among catalog entries whose predicted latency meets the deadline,
or a failure when none does. Stand-alone latency is the measured inference
time alone (channel and image play no role); distributed latency adds the
image offload: each secondary receives half the image over its own link,
with the two concurrent transfers running at 0.8 of the drawn per-link
throughput, i.e. offload = bits / (1.6 * r).

Image sizes are Gaussian with mean 300 KB and variance 50 KB (standard
deviation ~7.07 KB), truncated at 1 KB.

The reliability Monte Carlo scans the catalog once per deadline, folding
each entry into the best accuracy per task, rather than building a task x
entry latency matrix. Only the chosen accuracy enters a result, so no tie
between entries of equal accuracy needs breaking. Stand-alone latency does
not depend on the task, so that mode draws no tasks at all.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from enum import Enum
from importlib import resources

import numpy as np

from .fields import INT, NUMBER, STRING, one_of, parse

KB = 1024
IMAGE_MEAN_BYTES = 300 * KB
IMAGE_STD_BYTES = float(np.sqrt(50.0)) * KB  # variance of 50 KB
IMAGE_MIN_BYTES = 1 * KB
OFFLOAD_LINK_FACTOR = 1.6  # two half-image transfers in parallel at 0.8 link efficiency


class Mode(Enum):
    STANDALONE = "standalone"
    HALP = "halp"


class ChannelState(Enum):
    POOR = (25.0, 50.0)
    MEDIUM = (50.0, 75.0)
    GOOD = (75.0, 100.0)

    @property
    def lo(self) -> float:
        return self.value[0]

    @property
    def hi(self) -> float:
        return self.value[1]


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    alpha: float
    rho: int
    t_standalone_ms: float
    t_halp_ms: float
    top1_accuracy: float

    def __post_init__(self):
        if not (self.t_standalone_ms > 0 and self.t_halp_ms > 0):  # NaN fails too
            raise ValueError(f"{self.name}: latencies must be > 0")
        if self.t_halp_ms > self.t_standalone_ms:
            raise ValueError(f"{self.name}: distributed time exceeds stand-alone time")
        if not 0.0 <= self.top1_accuracy <= 1.0:
            raise ValueError(f"{self.name}: accuracy must be a fraction in [0, 1]")


def load_catalog(path: str | None = None) -> list[CatalogEntry]:
    if path is None:
        text = resources.files("halp").joinpath("data/catalog.json").read_text()
    else:
        with open(path) as fh:
            text = fh.read()
    keys = one_of(*CatalogEntry.__dataclass_fields__)  # an entry holds no other field
    entries = parse(text).objects("entries", keys)
    return [CatalogEntry(e.get("name", STRING), e.get("alpha", NUMBER), e.get("rho", INT),
                         e.get("t_standalone_ms", NUMBER), e.get("t_halp_ms", NUMBER),
                         e.get("top1_accuracy", NUMBER)) for e in entries]


def offload_time_ms(image_bytes: float, rate_mbps: float) -> float:
    return image_bytes * 8 / (OFFLOAD_LINK_FACTOR * rate_mbps * 1e6) * 1e3


@dataclass(frozen=True)
class ReliabilityPoint:
    deadline_ms: float
    failure_prob: float
    expected_accuracy: float
    service_reliability: float


def draw_tasks(rng: np.random.Generator, n: int, channel: ChannelState):
    image = rng.normal(IMAGE_MEAN_BYTES, IMAGE_STD_BYTES, size=n)
    np.maximum(image, IMAGE_MIN_BYTES, out=image)
    rate = rng.uniform(channel.lo, channel.hi, size=n)
    return image, rate


def run_reliability(
    catalog: list[CatalogEntry],
    deadlines_ms,
    channel: ChannelState,
    n_tasks: int,
    seed: int,
    mode: Mode,
) -> list[ReliabilityPoint]:
    """Monte Carlo over tasks: failure probability, mean accuracy of
    successful selections, and accuracy-weighted success probability.

    Per deadline, one scan over the catalog folds each entry's accuracy,
    where its predicted latency meets the deadline (else -1), into the best
    accuracy per task; a task whose best stays negative fails and scores 0.
    Stand-alone latency is one number per entry, so that mode draws no
    tasks; distributed mode draws each deadline's tasks from its own
    generator, seeded by (seed, deadline index)."""
    if not catalog:
        raise ValueError("catalog must not be empty")
    if n_tasks < 1:
        raise ValueError("need at least one task")
    points = []
    for d_idx, deadline in enumerate(deadlines_ms):
        if not deadline > 0:  # also NaN
            raise ValueError(f"deadline must be positive, got {deadline} ms")
        offload = 0.0
        if mode is Mode.HALP:
            image, rate = draw_tasks(np.random.default_rng([seed, d_idx]), n_tasks, channel)
            offload = offload_time_ms(image, rate)
        best = np.full(n_tasks, -1.0)
        for e in catalog:
            latency = e.t_standalone_ms if mode is Mode.STANDALONE else offload + e.t_halp_ms
            np.maximum(best, np.where(latency <= deadline, e.top1_accuracy, -1.0), out=best)
        feasible = best >= 0
        chosen = np.where(feasible, best, 0.0)
        n_ok = int(feasible.sum())
        points.append(
            ReliabilityPoint(
                deadline_ms=float(deadline),
                failure_prob=1.0 - n_ok / n_tasks,
                expected_accuracy=float(chosen.sum() / n_ok) if n_ok else 0.0,
                service_reliability=float(chosen.mean()),
            )
        )
    return points


def reliability_csv(
    results: dict[tuple[str, str], list[ReliabilityPoint]]
) -> str:
    """CSV rows keyed by (mode, channel), matching the reliability figures."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["deadline_ms", "mode", "channel", "failure_prob", "reliability"])
    for (mode, channel), points in results.items():
        for p in points:
            writer.writerow(
                [f"{p.deadline_ms:g}", mode, channel,
                 f"{p.failure_prob:.6f}", f"{p.service_reliability:.6f}"]
            )
    return buf.getvalue()
