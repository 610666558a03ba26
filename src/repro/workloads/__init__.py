"""Workload generation: arrivals, skew, traces, and the traffic engine."""

from ..obs.live.stream import nearest_rank
from .engine import Outcome, Request, TrafficEngine, TrafficResult
from .livewire import watch_traffic
from .generators import (
    ArrivalProcess,
    Bursty,
    Diurnal,
    Poisson,
    Uniform,
    closed_loop,
    open_loop,
)
from .slo import SloReport, find_knee, summarize
from .traces import TraceEntry, mixed_trace, replay
from .zipf import Zipf, word_corpus

__all__ = [
    "ArrivalProcess",
    "Uniform",
    "Poisson",
    "Diurnal",
    "Bursty",
    "open_loop",
    "closed_loop",
    "Zipf",
    "word_corpus",
    "TraceEntry",
    "mixed_trace",
    "replay",
    "TrafficEngine",
    "TrafficResult",
    "Request",
    "Outcome",
    "SloReport",
    "summarize",
    "nearest_rank",
    "find_knee",
    "watch_traffic",
]
