"""Network frames.

A :class:`Frame` is the unit the fabric moves between NICs.  Its ``size`` is
explicit (rather than derived from the payload) because the simulation
transports Python objects whose modelled wire size — the size the real
system would marshal them to — is what the timing model needs.
"""

from __future__ import annotations

import itertools
from typing import Any, Optional

_frame_ids = itertools.count(1)

#: Minimum modelled wire size: headers of the framing protocol.
MIN_WIRE_SIZE = 16


class Frame:
    """One message on the wire.

    Attributes
    ----------
    src, dst:
        Node ids of the endpoints.
    port:
        Destination demultiplexing key (which rx queue on the NIC).
    payload:
        The carried object (opaque to the network).
    size:
        Modelled wire size in bytes (payload + headers), at least
        :data:`MIN_WIRE_SIZE`.
    kind:
        Free-form tag used by Table 1's message-taxonomy audit
        (e.g. ``"data"``, ``"control"``, ``"coordination"``).
    frame_id:
        Unique per process unless given.
    sent_at:
        The instant the fabric put the frame in flight (``None`` before).

    Slotted with a hand-written constructor: one frame per message.
    """

    __slots__ = ("src", "dst", "port", "payload", "size", "kind",
                 "frame_id", "sent_at")

    def __init__(self, src: str, dst: str, port: str, payload: Any,
                 size: int, kind: str = "data",
                 frame_id: Optional[int] = None,
                 sent_at: Optional[float] = None):
        self.src = src
        self.dst = dst
        self.port = port
        self.payload = payload
        self.size = size if size >= MIN_WIRE_SIZE else MIN_WIRE_SIZE
        self.kind = kind
        self.frame_id = next(_frame_ids) if frame_id is None else frame_id
        self.sent_at = sent_at

    def __repr__(self) -> str:
        return (f"<Frame #{self.frame_id} {self.src}->{self.dst}:{self.port} "
                f"{self.kind} {self.size}B>")
