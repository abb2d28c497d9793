"""Engine profiling: event-class histograms and per-subsystem time.

Two complementary views of where the engine spends its effort
(DESIGN.md §16):

* **Event-class histogram** — a deterministic count of every event
  posted to the scheduler, keyed by the callback's qualified name.
  :func:`capture_histograms` hooks counting wrappers onto
  :class:`~repro.netsim.simulator.Simulator` for the duration of a
  ``with`` block, so any simulator built inside (testbeds,
  experiments) is counted.  The histogram depends only on the
  simulated schedule, never on wall clock, so it is byte-identical
  across machines — it doubles as a cheap behavioural fingerprint.

* **Subsystem wall-clock breakdown** — a cProfile capture aggregated
  by source module into the subsystems named in the perf reports:
  ``scheduler`` (netsim.simulator), ``link`` (netsim.link/nic),
  ``tcp``, ``ft_tcp`` (repro.core), ``redirector`` (repro.hydranet),
  plus ``netsim``/``udp``/``app``/``other`` buckets for the rest.
  Wall-clock numbers are machine-dependent; only their *shape* is
  meaningful.

:func:`profile_engine` runs the engine macro-benchmark once for each,
so the counting hooks never show up in the timing, and optionally
writes the artifacts CI uploads: ``profile.pstats`` (raw,
for ``pstats``/snakeviz), ``profile.txt`` (top functions), and
``event_histogram.json`` (deterministic).
"""

from __future__ import annotations

import cProfile
import io
import json
import pstats
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, Optional

from repro.netsim.simulator import Simulator

#: Module-prefix → subsystem, first match wins (most specific first).
SUBSYSTEM_PREFIXES: tuple[tuple[str, str], ...] = (
    ("repro.netsim.simulator", "scheduler"),
    ("repro.netsim.link", "link"),
    ("repro.netsim.nic", "link"),
    ("repro.netsim", "netsim"),
    ("repro.tcp", "tcp"),
    ("repro.core", "ft_tcp"),
    ("repro.hydranet", "redirector"),
    ("repro.udp", "udp"),
    ("repro.apps", "app"),
    ("repro.metrics", "metrics"),
)


def subsystem_for(module: str) -> str:
    """Map a dotted module name to its perf-report subsystem."""
    for prefix, name in SUBSYSTEM_PREFIXES:
        if module.startswith(prefix):
            return name
    return "other"


def _module_of_path(filename: str) -> Optional[str]:
    """Best-effort dotted module name for a profiled source path."""
    norm = filename.replace("\\", "/")
    marker = "/repro/"
    idx = norm.rfind(marker)
    if idx < 0:
        return None
    tail = norm[idx + 1 :]
    if tail.endswith(".py"):
        tail = tail[:-3]
    return tail.replace("/", ".")


def event_class(callback: Callable[..., Any]) -> str:
    """Stable label for a scheduled callback: ``module.qualname``."""
    qualname = getattr(callback, "__qualname__", None)
    if qualname is None:  # functools.partial and friends
        inner = getattr(callback, "func", None)
        if inner is not None:
            return event_class(inner)
        qualname = type(callback).__name__
    module = getattr(callback, "__module__", None) or "?"
    return f"{module}.{qualname}"


# -- event-class histogram ---------------------------------------------------

#: The :class:`Simulator` inserts :func:`capture_histograms` counts.
#: ``schedule`` delegates to ``schedule_at``, so it is counted there.
_INSERTS = ("schedule_at", "post", "post_at")


def _counting(insert):
    """Wrap an insert so it bumps the simulator's event histogram.

    Counting happens at *post* time (one Counter bump per event), which
    keeps the dispatch loop untouched and makes the histogram a pure
    function of the simulated schedule — cancelled events are counted
    too, deliberately: cancellation churn is exactly what the histogram
    is there to expose.  Simulators built outside the capture block
    carry no histogram and are not counted.
    """

    def counted(self, when, callback, *args):
        histogram = getattr(self, "event_histogram", None)
        if histogram is not None:
            histogram[event_class(callback)] += 1
        return insert(self, when, callback, *args)

    return counted


@contextmanager
def capture_histograms() -> Iterator[list]:
    """Count the events posted to every simulator built in the block.

    Yields a list that fills with every simulator constructed inside
    the block; read ``sim.event_histogram`` off each afterwards (or use
    :func:`merged_histogram`).  The hooks are patched onto
    :class:`Simulator` and removed again on exit.
    """
    sims: list = []
    saved = {name: vars(Simulator)[name] for name in ("__init__", *_INSERTS)}
    init = saved["__init__"]

    def __init__(self, seed: int = 0):
        init(self, seed)
        self.event_histogram = Counter()
        sims.append(self)

    Simulator.__init__ = __init__
    for name in _INSERTS:
        setattr(Simulator, name, _counting(saved[name]))
    try:
        yield sims
    finally:
        for name, fn in saved.items():
            setattr(Simulator, name, fn)


def merged_histogram(sims: list) -> dict[str, int]:
    """Sum the event histograms of captured simulators, sorted by
    descending count (ties by name) for stable JSON output."""
    total: Counter = Counter()
    for sim in sims:
        total.update(sim.event_histogram)
    return dict(sorted(total.items(), key=lambda kv: (-kv[1], kv[0])))


# -- subsystem wall-clock breakdown ------------------------------------------


def subsystem_breakdown(stats: pstats.Stats) -> dict[str, float]:
    """Aggregate a pstats capture's self-time per subsystem (seconds).

    Self-time (tottime) sums to the observed wall clock, so the buckets
    form a true decomposition — unlike cumulative time, which would
    count the scheduler's dispatch of a TCP callback twice.
    """
    buckets: Counter = Counter()
    for (filename, _lineno, _funcname), entry in stats.stats.items():  # type: ignore[attr-defined]
        tottime = entry[2]
        module = _module_of_path(filename)
        key = subsystem_for(module) if module else "other"
        buckets[key] += tottime
    return {k: round(v, 4) for k, v in sorted(buckets.items(), key=lambda kv: -kv[1])}


@dataclass
class ProfileReport:
    """One profiled engine-benchmark run."""

    wall_seconds: float
    events: int
    events_per_sec: float
    subsystems: dict[str, float]
    event_histogram: dict[str, int] = field(repr=False)
    artifacts: dict[str, str] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "wall_seconds": self.wall_seconds,
            "events": self.events,
            "events_per_sec": self.events_per_sec,
            "subsystems": self.subsystems,
            "event_histogram": self.event_histogram,
            "artifacts": self.artifacts,
        }

    def render(self, top_classes: int = 12) -> str:
        lines = [
            f"profile: wall={self.wall_seconds:.3f}s "
            f"events={self.events} ({self.events_per_sec:,.0f} ev/s)",
            "  time per subsystem (self-time, wall-clock — machine-dependent):",
        ]
        total = sum(self.subsystems.values()) or 1.0
        for name, secs in self.subsystems.items():
            lines.append(f"    {name:<10} {secs:>8.4f}s  {100 * secs / total:5.1f}%")
        lines.append("  event classes (deterministic):")
        for cls, count in list(self.event_histogram.items())[:top_classes]:
            lines.append(f"    {count:>8}  {cls}")
        rest = len(self.event_histogram) - top_classes
        if rest > 0:
            lines.append(f"    … {rest} more classes")
        for kind, path in self.artifacts.items():
            lines.append(f"  wrote {kind}: {path}")
        return "\n".join(lines)


def profile_engine(
    out_dir: Optional[str | Path] = None,
    top: int = 40,
    **workload,
) -> ProfileReport:
    """Profile the engine macro-benchmark.

    Captures the deterministic event-class histogram and a cProfile
    trace in two separate runs, so the histogram's counting hooks are
    not part of the profile; aggregates the trace per subsystem, and
    (with ``out_dir``) writes ``profile.pstats``, ``profile.txt`` and
    ``event_histogram.json``.
    """
    import time as _time

    from repro.metrics.perf import run_engine_benchmark

    with capture_histograms() as sims:
        run_engine_benchmark(**workload)
    histogram = merged_histogram(sims)
    profiler = cProfile.Profile()
    start = _time.perf_counter()
    profiler.enable()
    result = run_engine_benchmark(**workload)
    profiler.disable()
    wall = _time.perf_counter() - start
    stats = pstats.Stats(profiler)
    report = ProfileReport(
        wall_seconds=round(wall, 4),
        events=result.events,
        events_per_sec=result.events_per_sec,
        subsystems=subsystem_breakdown(stats),
        event_histogram=histogram,
    )
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        pstats_path = out / "profile.pstats"
        profiler.dump_stats(pstats_path)
        text = io.StringIO()
        pstats.Stats(profiler, stream=text).sort_stats("cumulative").print_stats(top)
        txt_path = out / "profile.txt"
        txt_path.write_text(text.getvalue())
        hist_path = out / "event_histogram.json"
        hist_path.write_text(json.dumps(histogram, indent=1) + "\n")
        report.artifacts = {
            "pstats": str(pstats_path),
            "text": str(txt_path),
            "event-histogram": str(hist_path),
        }
    return report
