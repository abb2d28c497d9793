"""Pluggable replication backends (DESIGN.md §15).

The paper's daisy chain (§4) is one point in a design space: uniform
reliable broadcast to all replicas (Hydra networking), checkpoint /
deferred-externalization replication (HyCoR), in-chain state
replication (FTC).  This package factors the replication mechanics out
of :mod:`repro.core.ft_tcp` behind one interface so each backend is a
strategy object, held to the same machine-checked contract by the
conformance matrix in ``tests/replication/``.

One strategy instance is created per :class:`~repro.core.ft_tcp.FtPort`
via :func:`create_strategy`.  The ft-TCP layer keeps ownership of the
TCB hooks, the failure detector, the catch-up log, and the epoch/fence
machinery; the strategy decides

* how the deposit and output gates compute their ceilings
  (:meth:`deposit_ceiling` / :meth:`transmit_ceiling`),
* what a backup's filtered output turns into
  (:meth:`filter_backup_output`),
* how progress reports from other replicas are folded into the
  per-connection watermarks (:meth:`on_report`),
* which replica a quiet acknowledgement channel incriminates
  (:meth:`quiet_successor`),
* how membership changes re-gate existing connections
  (:meth:`on_chain_update` / :meth:`splice_gate` /
  :meth:`on_enter_primary`).

Every strategy maintains ``state.successor_sent_upto`` /
``state.successor_deposited_upto`` as the *effective* gating
watermarks and ``state.successor_ip`` / ``state.last_successor_msg``
as the replica those watermarks are currently limited by.  That
contract is what lets the suspicion machinery (quiet checks, graceful
degradation, the OutputLiveness monitor) work unchanged across
backends — for a multi-member backend the effective watermark is the
member-wise minimum and the named replica is the straggler.

The redirector lays replicas out per strategy: ``layout = "linear"``
is the paper's chain (each replica reports to its predecessor),
``layout = "star"`` hangs every backup directly off the primary.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    from repro.core.ack_channel import AckChannelMessage
    from repro.core.ft_tcp import FtConnectionState, FtPort
    from repro.hydranet.mgmt import ChainUpdate
    from repro.netsim.addressing import IPAddress
    from repro.netsim.packet import TCPSegment


class ReplicationStrategy:
    """Contract every replication backend implements (DESIGN.md §15)."""

    #: Registry key; also travels in the ``Register`` message so the
    #: redirector knows which layout to push.
    name = "abstract"
    #: ``"linear"`` — the paper's daisy chain; ``"star"`` — all backups
    #: hang directly off the primary.
    layout = "linear"

    def __init__(self, port: "FtPort"):
        self.port = port

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Called once the owning port is fully constructed."""

    def on_shutdown(self) -> None:
        """Called when the owning port fail-stops."""

    def connection_state(self, state: "FtConnectionState"):
        """Per-connection strategy-private state (stored as
        ``state.repl``); ``None`` when the backend needs none."""
        return None

    # -- gates -------------------------------------------------------------

    def deposit_ceiling(self, state: "FtConnectionState") -> Optional[int]:
        """Stream offset up to which this replica may deposit client
        bytes (``None`` = unlimited)."""
        raise NotImplementedError

    def transmit_ceiling(self, state: "FtConnectionState") -> Optional[int]:
        """Stream offset up to which this replica may externalize
        response bytes (``None`` = unlimited)."""
        raise NotImplementedError

    # -- replica output / progress reports ---------------------------------

    def filter_backup_output(
        self, state: "FtConnectionState", segment: "TCPSegment"
    ) -> bool:
        """A non-primary replica produced ``segment``.  Return True to
        discard it (the backup is silent toward the client); whatever
        progress information the backend propagates leaves here."""
        raise NotImplementedError

    def on_report(
        self,
        state: "FtConnectionState",
        message: "AckChannelMessage",
        sender: "IPAddress",
    ) -> None:
        """Fold a progress report from ``sender`` into the effective
        watermarks of ``state``."""
        raise NotImplementedError

    # -- suspicion ---------------------------------------------------------

    def quiet_successor(self) -> Optional["IPAddress"]:
        """The replica (if any) that has gone quiet on the
        acknowledgement channel while connections are gated on it."""
        return None

    # -- membership --------------------------------------------------------

    def on_chain_update(
        self,
        update: "ChainUpdate",
        had_successor: bool,
        old_predecessor: Optional["IPAddress"],
    ) -> None:
        """Membership changed (the port already adopted the common
        fields: predecessor, has_successor, epoch bookkeeping)."""

    def splice_gate(self, state: "FtConnectionState", joiner_ip: "IPAddress") -> None:
        """A live joiner now holds state for ``state``'s connection:
        start gating it on the joiner."""

    def on_enter_primary(self) -> None:
        """This replica just entered primary mode for a new epoch."""


#: name -> strategy class.
STRATEGIES: dict[str, type[ReplicationStrategy]] = {}


def register_strategy(cls: type[ReplicationStrategy]) -> type[ReplicationStrategy]:
    """Class decorator: make ``cls`` selectable by name everywhere
    (``setportopt``, scenario specs, the fuzzer's ``--backend``, the
    conformance matrix in ``tests/replication/``)."""
    STRATEGIES[cls.name] = cls
    return cls


def create_strategy(name: str, port: "FtPort") -> ReplicationStrategy:
    try:
        cls = STRATEGIES[name]
    except KeyError:
        raise ValueError(
            f"unknown replication strategy {name!r}; "
            f"available: {', '.join(sorted(STRATEGIES))}"
        ) from None
    return cls(port)


def available_strategies() -> tuple[str, ...]:
    return tuple(sorted(STRATEGIES))


def strategy_layout(name: str) -> str:
    """Chain layout the redirector should push for ``name`` (defaults
    to the classic linear chain for unknown names so a mixed-version
    mesh degrades safely)."""
    cls = STRATEGIES.get(name)
    return cls.layout if cls is not None else "linear"
