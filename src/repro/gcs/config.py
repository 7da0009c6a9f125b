"""Tunables of the group-communication protocols."""

from __future__ import annotations

from dataclasses import dataclass

from repro.calibration import (ENSEMBLE_PER_MEMBER, ENSEMBLE_ROUND_BASE,
                               HEARTBEAT_PERIOD, SUSPECT_TIMEOUT)


@dataclass(frozen=True)
class GcsConfig:
    """Protocol timing knobs.

    The defaults follow ``repro.calibration``; long-running benchmarks (the
    once-an-hour checkpoint claim) raise the heartbeat period so failure
    detection traffic does not dominate the event count.
    """

    #: Heartbeat period of the star failure detector: each member to its
    #: coordinator, the coordinator to each member.
    heartbeat_period: float = HEARTBEAT_PERIOD
    #: Silence after which a member suspects its coordinator, and the
    #: coordinator a member.
    suspect_timeout: float = SUSPECT_TIMEOUT
    #: How long a flush coordinator waits for FLUSH_OK before dropping
    #: non-responders and retrying.
    flush_timeout: float = 0.25
    #: Gossip period for coordinator ANNOUNCE messages (partition merge).
    announce_period: float = 0.5
    #: Join-retry cadence for members that have no view yet (independent
    #: of the heartbeat period, which may be slow on long-running setups).
    join_retry: float = 0.1
    #: Enable gossip-based merge of concurrent views.
    gossip: bool = True
    #: Sequencer processing cost per multicast: base + per-member term.
    sequencer_base: float = ENSEMBLE_ROUND_BASE
    sequencer_per_member: float = ENSEMBLE_PER_MEMBER
    #: Modelled wire size of protocol control frames.
    control_size: int = 192
    #: Base retransmit timeout of the reliable-delivery (``Rel``) sublayer;
    #: doubles per retry up to :attr:`rel_backoff_max`.
    rel_retry: float = 0.1
    #: Cap of the exponential retransmit backoff.
    rel_backoff_max: float = 0.8
    #: Retries before giving a destination up for dead (failure suspicion
    #: and the next flush handle it from there).
    rel_max_tries: int = 20
