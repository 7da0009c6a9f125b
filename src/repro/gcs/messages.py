"""Wire messages of the group-communication protocol.

All of these travel as ``kind="control"`` frames on the Ethernet fabric
(group communication is deliberately *not* on the Myrinet fast path — the
paper's architecture keeps it off the critical data path).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.gcs.endpoint import EndpointId


@dataclass(frozen=True)
class Msg:
    """Base: every protocol message names its group and its sender."""

    group: str
    sender: EndpointId


@dataclass(frozen=True)
class Hb(Msg):
    """Heartbeat (also refreshes liveness of its sender)."""

    epoch: int
    #: How many casts the sender has ordered in this view — the
    #: coordinator's count; a member that has seen fewer lost the tail.
    gseq: int


@dataclass(frozen=True)
class Join(Msg):
    """Request to be added to the group (sent to a contact/coordinator)."""


@dataclass(frozen=True)
class Leave(Msg):
    """Graceful departure notice (sent to the coordinator)."""


@dataclass(frozen=True)
class CastReq(Msg):
    """A member asks the sequencer to order its multicast."""

    epoch: int
    lseq: int            # sender-local sequence number (never reused)
    payload: Any
    size: int


@dataclass(frozen=True)
class Ordered(Msg):
    """Sequencer-assigned multicast, relayed to every member.  Sent bare,
    not in a ``Rel``: a member missing one asks for it by ``gseq``."""

    epoch: int
    gseq: int            # position in the view's total order
    origin: EndpointId   # original caster
    lseq: int
    payload: Any
    size: int

    @property
    def key(self) -> Tuple[EndpointId, int]:
        return (self.origin, self.lseq)


@dataclass(frozen=True)
class Nack(Msg):
    """A member asks the coordinator to send again the casts it ordered
    at ``first`` .. ``upto - 1`` in view ``epoch``."""

    epoch: int
    first: int
    upto: int


@dataclass(frozen=True)
class Flush(Msg):
    """Start of a view change: freeze and report your old-view messages."""

    epoch: int
    survivors: Tuple[EndpointId, ...]


@dataclass(frozen=True)
class FlushOk(Msg):
    """A member's flush report."""

    epoch: int
    old_epoch: int                      # epoch of the view being flushed
    delivered: Tuple[Ordered, ...]      # in delivery order (a prefix)
    ooo: Tuple[Ordered, ...]            # received but not yet delivered
    pending: Tuple[Tuple[int, Any, int], ...]  # own (lseq, payload, size)


@dataclass(frozen=True)
class Sync(Msg):
    """Messages a member must still deliver to close its old view."""

    epoch: int
    msgs: Tuple[Ordered, ...]


@dataclass(frozen=True)
class ViewMsg(Msg):
    """Install a new view.  ``state`` is the transfer blob for joiners."""

    epoch: int
    coordinator: EndpointId
    members: Tuple[EndpointId, ...]
    state: Any = None


@dataclass(frozen=True)
class Announce(Msg):
    """Coordinator gossip for partition merge."""

    epoch: int
    members: Tuple[EndpointId, ...]


@dataclass(frozen=True)
class P2p(Msg):
    """Point-to-point payload between members."""

    payload: Any
    size: int


@dataclass(frozen=True)
class Datagram(Msg):
    """Point-to-point payload sent bare: no ``Rel`` envelope, no ack.  The
    layer above repairs loss itself — the lightweight-group sequencer's
    relays, and the requests and position reports that repair them."""

    payload: Any
    size: int


@dataclass(frozen=True)
class Rel(Msg):
    """Reliable-delivery envelope: per-destination FIFO sequence number
    around an ``inner`` control message.

    The fabric can silently drop frames; heartbeats and gossip are
    periodic so loss only delays them, and a lost ``Ordered`` or
    ``Datagram`` is asked for again by sequence number (a request itself
    re-sent every tick while the gap lasts), but a lost ``CastReq`` /
    ``Flush`` / ``ViewMsg`` would wedge the protocol.  Every other control
    send therefore travels inside a ``Rel``; the receiver reorders,
    de-duplicates and cumulatively acknowledges."""

    seq: int
    inner: Msg


@dataclass(frozen=True)
class RelAck(Msg):
    """Cumulative acknowledgement: all of the sender's ``Rel`` envelopes
    with ``seq <= cum`` were delivered."""

    cum: int
