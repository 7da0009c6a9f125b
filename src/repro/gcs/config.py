"""Tunables of the group-communication protocols, and its constants."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.calibration import (ENSEMBLE_PER_MEMBER, ENSEMBLE_ROUND_BASE,
                               HEARTBEAT_PERIOD, SUSPECT_TIMEOUT)

#: Join-retry cadence for members that have no view yet (independent of
#: the heartbeat period, which may be slow on long-running setups).
JOIN_RETRY = 0.1
#: Sequencer processing cost per multicast: base + per-member term.
SEQUENCER_BASE = ENSEMBLE_ROUND_BASE
SEQUENCER_PER_MEMBER = ENSEMBLE_PER_MEMBER
#: Modelled wire size of protocol control frames.
CONTROL_SIZE = 192
#: Base retransmit timeout of the reliable-delivery (``Rel``) sublayer;
#: doubles per retry up to :data:`REL_BACKOFF_MAX`.
REL_RETRY = 0.1
#: Cap of the exponential retransmit backoff.
REL_BACKOFF_MAX = 0.8
#: Retries before giving a destination up for dead (failure suspicion and
#: the next flush handle it from there).
REL_MAX_TRIES = 20

#: What a retransmitting sender does at a tick (:func:`retry_step`).
WAIT, RETRY, GIVE_UP = "wait", "retry", "give up"


def retry_step(tries: int, last: Optional[float], now: float) -> str:
    """The one retry schedule (``Rel``, the LWG tail re-post): after
    ``tries`` retries, the last at ``last`` (``None``: no wait), wait
    ``REL_RETRY`` doubled per try up to ``REL_BACKOFF_MAX``, then retry —
    or give up once ``REL_MAX_TRIES`` are spent."""
    if last is not None and now - last < min(REL_RETRY * 2 ** tries,
                                             REL_BACKOFF_MAX):
        return WAIT
    return RETRY if tries < REL_MAX_TRIES else GIVE_UP


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
    #: Enable gossip-based merge of concurrent views.
    gossip: bool = True
