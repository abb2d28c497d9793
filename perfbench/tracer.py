"""Outside-in tracer: per-layer spans recorded without editing the program.

The tracer patches, at run time and only while :func:`installed` is
active, the public entry points of each layer under ``src/repro/`` and
every event callback the scheduler dispatches.  Each wrapped call is a
span (layer, start, end, parent).  Self time is accumulated online —
span duration minus the time its child spans cover — so the per-layer
totals need no memory per span; the first ``max_spans`` spans are also
kept in column arrays and written out by :meth:`Tracer.write_spans`.

Tracing never touches the ``(time, seq)`` schedule: a callback is
wrapped *before* it reaches the scheduler's insert, which still draws
the same sequence number at the same virtual time.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import types
from array import array
from contextlib import contextmanager
from pathlib import Path

#: Layer name -> the ``repro`` modules it owns.  Code in a module not
#: listed here that runs as a dispatched event callback counts as
#: ``other``; code called from inside a span, but not wrapped itself,
#: counts towards the enclosing span's layer.
LAYERS = (
    ("netsim.simulator", ("repro.netsim.simulator",)),
    ("netsim.link", ("repro.netsim.link",)),
    ("netsim.nic", ("repro.netsim.nic",)),
    ("netsim.host", ("repro.netsim.host",)),
    ("netsim.fragmentation", ("repro.netsim.fragmentation",)),
    ("tcp", ("repro.tcp",)),
    ("core.ft_tcp", ("repro.core.ft_tcp",)),
    ("core.ack_channel", ("repro.core.ack_channel",)),
    ("replication", ("repro.replication",)),
    ("hydranet.redirector", ("repro.hydranet.redirector",)),
    ("hydranet.daemons", ("repro.hydranet.daemons", "repro.hydranet.mgmt")),
    ("core.heartbeat", ("repro.core.heartbeat",)),
    ("recovery", ("repro.recovery",)),
    ("invariants.monitors", ("repro.invariants.monitors",)),
    ("topo.build", ("repro.topo.build",)),
    ("apps", ("repro.apps",)),
    ("metrics", ("repro.metrics",)),
)
OTHER = "other"

#: (module, class, methods, layer): class methods wrapped as spans.
METHOD_TARGETS = (
    ("repro.netsim.link", "Channel", ("transmit",), "netsim.link"),
    ("repro.netsim.nic", "NIC", ("send", "deliver"), "netsim.nic"),
    ("repro.netsim.host", "Kernel", ("send_ip", "receive_from_nic"), "netsim.host"),
    ("repro.tcp.tcb", "TcpConnection", ("segment_arrived", "send"), "tcp"),
    ("repro.tcp.stack", "TcpStack", ("send_segment", "connect"), "tcp"),
    (
        "repro.core.ft_tcp",
        "FtConnectionState",
        ("apply", "announce", "record_deposit"),
        "core.ft_tcp",
    ),
    ("repro.core.ack_channel", "AckChannelEndpoint", ("send",), "core.ack_channel"),
    ("repro.hydranet.mgmt", "ReliableUdp", ("send",), "hydranet.daemons"),
    # The redirector's registered kernel.packet_hooks.  Patched on the
    # class so the bound methods the redirector registers, and the
    # ``hooks.index(redirector._fence_hook)`` lookup the monitors use to
    # splice in behind the fence, both see the wrapper.
    (
        "repro.hydranet.redirector",
        "Redirector",
        ("_fence_hook", "_redirect_hook"),
        "hydranet.redirector",
    ),
    # The monitors' own packet hooks all funnel into this method.
    (
        "repro.invariants.monitors",
        "InvariantSet",
        ("_observe_service_segment",),
        "invariants.monitors",
    ),
)

#: (module, function, layer): module-level functions wrapped as spans
#: wherever a ``repro`` module binds them.  The inclusive time of the
#: ``topo.build`` ones is the compile (set-up) time.
FUNCTION_TARGETS = (
    ("repro.topo.build", "compile_spec", "topo.build"),
    ("repro.invariants.fuzz", "build_fuzz_system", "topo.build"),
    ("repro.experiments.testbeds", "build_ft_system", "topo.build"),
    # Live-join state transfer, called from ft-TCP's join handlers.
    ("repro.recovery.state_transfer", "snapshot_connections", "recovery"),
    ("repro.recovery.state_transfer", "install_snapshot", "recovery"),
    ("repro.recovery.state_transfer", "apply_delta", "recovery"),
)

#: Classes whose instances are collected so their counters can be read
#: after a traced pass: key -> (module, class).
COLLECT_TARGETS = {
    "channels": ("repro.netsim.link", "Channel"),
    "nics": ("repro.netsim.nic", "NIC"),
    "kernels": ("repro.netsim.host", "Kernel"),
    "connections": ("repro.tcp.tcb", "TcpConnection"),
    "redirectors": ("repro.hydranet.redirector", "Redirector"),
    "ack_endpoints": ("repro.core.ack_channel", "AckChannelEndpoint"),
    "mgmt_sockets": ("repro.hydranet.mgmt", "ReliableUdp"),
    "recovery_managers": ("repro.recovery.manager", "RecoveryManager"),
}

_INSERTS = ("post", "post_at", "schedule", "schedule_at")


def layer_of_module(module: str) -> str:
    """The layer owning ``module``: longest matching package prefix."""
    best, best_len = OTHER, -1
    for layer, prefixes in LAYERS:
        for prefix in prefixes:
            if (module == prefix or module.startswith(prefix + ".")) and len(
                prefix
            ) > best_len:
                best, best_len = layer, len(prefix)
    return best


class Tracer:
    """Span recorder with online self-time accounting.

    ``clock`` is injectable so tests can drive exact timestamps.
    """

    def __init__(self, clock=time.perf_counter, max_spans: int = 200_000):
        self.clock = clock
        self.max_spans = max_spans
        self.layers = [OTHER] + [name for name, _ in LAYERS]
        self._lid = {name: i for i, name in enumerate(self.layers)}
        n = len(self.layers)
        self.self_s = [0.0] * n
        #: Call counts per wrapped target name (``Class.method``).
        self.calls: dict[str, int] = {}
        self.inserts = 0
        #: Inclusive seconds in ``topo.build`` spans (set-up work).
        self.build_s = 0.0
        self.instances: dict[str, dict[int, object]] = {
            key: {} for key in COLLECT_TARGETS
        }
        self.sims: dict[int, object] = {}
        self.root_s = 0.0
        # Open spans: [start, child seconds, span index].
        self._stack: list[list] = []
        self._inserting = False
        self._owner_cache: dict[object, int] = {}
        self.span_layer = array("h")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.spans_dropped = 0

    # -- span primitives ---------------------------------------------------

    def lid(self, layer: str) -> int:
        return self._lid[layer]

    def _open(self, lid: int, start: float) -> list:
        stack = self._stack
        idx = len(self.span_start)
        if idx < self.max_spans:
            self.span_layer.append(lid)
            self.span_parent.append(stack[-1][2] if stack else -1)
            self.span_start.append(start)
            self.span_end.append(start)
        else:
            self.spans_dropped += 1
            idx = -1
        frame = [start, 0.0, idx]
        stack.append(frame)
        return frame

    def _close(self, lid: int, frame: list, end: float) -> float:
        stack = self._stack
        stack.pop()
        dur = end - frame[0]
        self.self_s[lid] += dur - frame[1]
        if stack:
            stack[-1][1] += dur
        if frame[2] >= 0:
            self.span_end[frame[2]] = end
        return dur

    def span(self, fn, layer_id: int, counter: str | None = None):
        """``fn`` wrapped so each call is one span of ``layer_id``."""
        clock, open_, close = self.clock, self._open, self._close
        calls = self.calls
        if counter is not None:
            calls.setdefault(counter, 0)

        def traced(*args, **kwargs):
            if counter is not None:
                calls[counter] += 1
            frame = open_(layer_id, clock())
            try:
                return fn(*args, **kwargs)
            finally:
                close(layer_id, frame, clock())

        return traced

    @contextmanager
    def root(self):
        """The outermost span: time no layer claims is ``other``."""
        lid = self._lid[OTHER]
        frame = self._open(lid, self.clock())
        try:
            yield self
        finally:
            self.root_s += self._close(lid, frame, self.clock())

    # -- attribution -------------------------------------------------------

    def owner_layer(self, callback) -> int:
        """Layer id of the module that defines ``callback``."""
        func = getattr(callback, "__func__", callback)
        func = getattr(func, "func", func)  # functools.partial
        func = getattr(func, "__wrapped__", func)  # a wrapped entry point
        key = getattr(func, "__code__", None) or type(func)
        lid = self._owner_cache.get(key)
        if lid is None:
            module = getattr(func, "__module__", None) or ""
            lid = self._owner_cache[key] = self._lid[layer_of_module(module)]
        return lid

    def dispatched(self, callback):
        return self.span(callback, self.owner_layer(callback))

    # -- results -----------------------------------------------------------

    def self_seconds(self) -> dict[str, float]:
        return dict(zip(self.layers, self.self_s))

    def write_spans(self, path: Path) -> None:
        """Write the recorded spans as column lists; times are seconds
        from the first span's start."""
        origin = self.span_start[0] if self.span_start else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(
                {
                    "layers": self.layers,
                    "dropped": self.spans_dropped,
                    "layer": list(self.span_layer),
                    "parent": list(self.span_parent),
                    "start": [t - origin for t in self.span_start],
                    "end": [t - origin for t in self.span_end],
                },
                fh,
                separators=(",", ":"),
            )


def _class(module: str, name: str):
    return getattr(importlib.import_module(module), name)


def _entry_point(tracer: Tracer, fn, layer: str, counter: str | None = None):
    """A wrapped entry point that keeps ``fn``'s name, module and
    ``__wrapped__`` so callback attribution still finds its owner."""
    return functools.update_wrapper(tracer.span(fn, tracer.lid(layer), counter), fn)


def _methods(cls):
    return [
        (name, fn)
        for name, fn in list(vars(cls).items())
        if isinstance(fn, types.FunctionType)
    ]


class _Patches:
    """Attribute replacements, undone in reverse order."""

    _MISSING = object()

    def __init__(self):
        self._undo: list[tuple] = []

    def set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, vars(owner).get(name, self._MISSING)))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self._undo:
            owner, name, old = self._undo.pop()
            if old is self._MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, old)


def _insert_wrapper(tracer: Tracer, orig):
    """A scheduler insert: one ``netsim.simulator`` span, and the
    callback wrapped so its dispatch is a span of its owning layer.
    ``schedule`` delegating to ``schedule_at`` wraps and counts once."""
    sim_lid = tracer.lid("netsim.simulator")
    clock = tracer.clock

    def traced(self, when, callback, *args):
        if tracer._inserting:
            return orig(self, when, callback, *args)
        tracer.inserts += 1
        callback = tracer.dispatched(callback)
        tracer._inserting = True
        frame = tracer._open(sim_lid, clock())
        try:
            return orig(self, when, callback, *args)
        finally:
            tracer._close(sim_lid, frame, clock())
            tracer._inserting = False

    return traced


def _collector(orig, bucket: dict):
    def __init__(self, *args, **kwargs):
        orig(self, *args, **kwargs)
        bucket[id(self)] = self

    return __init__


def _timed_build(tracer: Tracer, fn):
    """A set-up function: a ``topo.build`` span whose inclusive time is
    also summed into :attr:`Tracer.build_s`."""
    inner = tracer.span(fn, tracer.lid("topo.build"), fn.__name__)
    clock = tracer.clock

    def build(*args, **kwargs):
        start = clock()
        try:
            return inner(*args, **kwargs)
        finally:
            tracer.build_s += clock() - start

    return functools.update_wrapper(build, fn)


@contextmanager
def installed(tracer: Tracer, sim_class):
    """Patch every target for the duration of the ``with`` block.

    ``sim_class`` is the class ``Simulator()`` actually returned, so
    the benchmark names only the public ``Simulator`` constructor."""
    patches = _Patches()
    try:
        for name in _INSERTS:
            insert = getattr(sim_class, name)
            patches.set(sim_class, name, _insert_wrapper(tracer, insert))
        patches.set(
            sim_class, "run", _entry_point(tracer, sim_class.run, "netsim.simulator")
        )
        patches.set(sim_class, "__init__", _collector(sim_class.__init__, tracer.sims))

        timer = _class("repro.netsim.simulator", "Timer")
        timer_init = timer.__init__

        def timer_with_traced_callback(self, sim, callback):
            timer_init(self, sim, tracer.dispatched(callback))

        patches.set(timer, "__init__", timer_with_traced_callback)

        for module, cls_name, methods, layer in METHOD_TARGETS:
            cls = _class(module, cls_name)
            for method in methods:
                patches.set(
                    cls,
                    method,
                    _entry_point(
                        tracer, vars(cls)[method], layer, f"{cls_name}.{method}"
                    ),
                )

        monitors = _class("repro.invariants.monitors", "InvariantSet")
        for method, fn in _methods(monitors):
            if method.startswith("on_"):
                patches.set(
                    monitors,
                    method,
                    _entry_point(
                        tracer, fn, "invariants.monitors", f"InvariantSet.{method}"
                    ),
                )

        base = _class("repro.replication.base", "ReplicationStrategy")
        strategies, todo = [], [base]
        while todo:
            cls = todo.pop()
            strategies.append(cls)
            todo.extend(cls.__subclasses__())
        for cls in strategies:
            for method, fn in _methods(cls):
                if not method.startswith("_"):
                    patches.set(cls, method, _entry_point(tracer, fn, "replication"))

        for key, (module, cls_name) in COLLECT_TARGETS.items():
            cls = _class(module, cls_name)
            patches.set(cls, "__init__", _collector(cls.__init__, tracer.instances[key]))

        for module, fn_name, layer in FUNCTION_TARGETS:
            fn = getattr(importlib.import_module(module), fn_name)
            if layer == "topo.build":
                wrapped = _timed_build(tracer, fn)
            else:
                wrapped = _entry_point(tracer, fn, layer, fn_name)
            for mod in list(sys.modules.values()):
                name = getattr(mod, "__name__", "") or ""
                if name.startswith("repro") and vars(mod).get(fn_name) is fn:
                    patches.set(mod, fn_name, wrapped)
        yield tracer
    finally:
        patches.restore()


def _total(objs, *attrs) -> int:
    return sum(getattr(o, a) for o in objs for a in attrs)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Work counts and self seconds per layer after one traced pass."""
    inst = {key: list(objs.values()) for key, objs in tracer.instances.items()}
    sims = list(tracer.sims.values())
    calls = tracer.calls
    seg_out = _total(inst["connections"], "segments_sent")
    retrans = _total(inst["connections"], "retransmitted_segments")
    monitor_calls = sum(
        n for name, n in calls.items() if name.startswith("InvariantSet.")
    )
    out = {
        "netsim.simulator.events": _total(sims, "events_processed"),
        "netsim.simulator.peak_queue": max((s.peak_queue_len for s in sims), default=0),
        "netsim.simulator.inserts": tracer.inserts,
        "netsim.link.packets": _total(inst["channels"], "packets_sent"),
        "netsim.link.drops": _total(
            inst["channels"], "packets_dropped_queue", "packets_lost"
        ),
        "netsim.nic.packets": _total(inst["nics"], "packets_in", "packets_out"),
        "netsim.host.forwarded": _total(inst["kernels"], "packets_forwarded"),
        "netsim.host.delivered": _total(inst["kernels"], "packets_delivered"),
        "netsim.host.dropped": _total(inst["kernels"], "packets_dropped"),
        "netsim.fragmentation.reassembled": sum(
            k.reassembler.reassembled for k in inst["kernels"]
        ),
        "tcp.segments_in": _total(inst["connections"], "segments_received"),
        "tcp.segments_out": seg_out,
        "tcp.retransmits": retrans,
        "tcp.retransmit_ratio": retrans / seg_out if seg_out else 0.0,
        "tcp.connections": len(inst["connections"]),
        "core.ft_tcp.deposits": calls.get("FtConnectionState.record_deposit", 0),
        "core.ft_tcp.reports": calls.get("FtConnectionState.apply", 0),
        "core.ack_channel.messages": _total(inst["ack_endpoints"], "messages_sent"),
        "core.ack_channel.dropped": _total(
            inst["ack_endpoints"], "messages_corrupt_dropped", "messages_unclaimed"
        ),
        "hydranet.redirector.packets": _total(inst["redirectors"], "packets_redirected"),
        "hydranet.redirector.multicast": _total(inst["redirectors"], "packets_multicast"),
        "hydranet.redirector.fenced": _total(inst["redirectors"], "segments_fenced"),
        "invariants.monitors.calls": monitor_calls,
        "hydranet.daemons.messages": _total(inst["mgmt_sockets"], "messages_sent"),
        "hydranet.daemons.retries": _total(inst["mgmt_sockets"], "retransmissions"),
        "recovery.joins": _total(inst["recovery_managers"], "joins_started"),
        "topo.build.compile_s": tracer.build_s,
    }
    for layer, seconds in tracer.self_seconds().items():
        out[f"{layer}.self_s"] = seconds
    return out
