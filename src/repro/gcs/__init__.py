"""Group communication substrate (system S4) — the Ensemble substitute.

Starfish runs all its daemons as one *process group* managed by the Ensemble
toolkit; Ensemble gives it reliable totally-ordered multicast, automatic
failure detection, and virtually-synchronous membership views.  This package
implements those guarantees over the simulated cluster:

* :class:`~repro.gcs.member.GroupMember` — one endpoint of a process group:
  star-shaped heartbeat failure detection (members and their coordinator
  watch each other; a member whose coordinator falls silent watches the
  whole view until the next one), coordinator-based view agreement with a
  flush protocol (virtual synchrony), sequencer-based total-order multicast,
  point-to-point sends, state transfer to joiners, and gossip-based view
  merge after partitions heal.

Guarantees (property-tested in ``tests/test_gcs_properties.py``):

1. **Total order** — all members deliver casts in a common order (every
   member's delivery sequence is a prefix of the longest one).
2. **Virtual synchrony** — members that transition together between two
   views deliver exactly the same set of messages in the first view.
3. **FIFO** — casts from one sender are delivered in send order.
4. **Self-delivery** — a sender delivers its own casts, totally ordered.
5. **No loss, no duplication** — across view changes, a surviving sender's
   message is delivered exactly once at every surviving member (re-cast
   after the view change if the old view could not order it).

The protocol tolerates crash failures and network partitions (partitionable
membership with merge-on-heal) and frame loss: as in Ensemble, a multicast
is made reliable by negative acknowledgement — a member that misses a
sequenced cast asks the coordinator for it by sequence number — while
point-to-point and membership messages ride a per-destination
acknowledged sublayer (except bare datagrams, whose sender repairs them
the same way: the lightweight-group layer's relays).
"""

from repro.gcs.endpoint import EndpointId, View
from repro.gcs.config import GcsConfig
from repro.gcs.events import CastEvent, GcsEvent, P2pEvent, ViewEvent
from repro.gcs.member import GroupMember

__all__ = [
    "CastEvent",
    "EndpointId",
    "GcsConfig",
    "GcsEvent",
    "GroupMember",
    "P2pEvent",
    "View",
    "ViewEvent",
]
