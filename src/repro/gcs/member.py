"""One endpoint of a virtually-synchronous process group.

The protocol (coordinator-based, sequencer total order, flush on every
membership change) is described in the package docstring.  A short map of
the moving parts inside each member:

* ``_on_frame`` — the NIC port's sink: arriving messages are delivered to
  the inbox, a :class:`~repro.sim.channel.Mailbox`;
* ``_multicast`` — every outgoing protocol message: one pass over the
  destinations, posting frames to the NIC's transmit FIFO.  Casts
  (``Ordered``) go bare: a member that finds a hole in the view's
  sequence — an ``Ordered`` past it, or a coordinator ``Hb`` counting more
  casts than it has seen — asks the coordinator for the range
  (``Nack``), at once and every tick while it lasts, and the coordinator
  answers from the view's delivery history (``repro.net.seqwin``'s window
  and history, which every numbered stream here uses).  A ``Datagram``
  (``post``) goes bare too: the layer above repairs it the same way.
  Every other message that is not periodic rides the ``Rel`` sublayer
  (per-destination sequence numbers, cumulative ``RelAck``, retransmission);
* ``_dispatch`` — the protocol state machine: one handler per message type,
  run strictly one message at a time (a real daemon's event loop).  An idle
  member handles a message inside the event that delivered it — the frame's
  ``driver_recv``, or the caller of a self-send;
* ``_main`` process — the inbox's consumer: runs the one handler that waits
  (the coordinator's sequencer round) and whatever queued up behind it;
* ``_ticker`` process — heartbeats, failure suspicion, flush retry,
  blocked-too-long recovery, join retry, cast repair requests, ``Rel``
  retransmission, the layer above's ``on_tick``, and coordinator gossip.
  The failure detector is a star: a member heartbeats and times its
  coordinator, the coordinator heartbeats and times every member — 2(n-1)
  frames a period.  A member whose coordinator has been silent for
  ``suspect_timeout`` is in *watch-all*: it starts every other member's
  clock at that instant and heartbeats the whole view, so that the
  lowest-ranked member still alive can be told and start the flush;
  hearing from its coordinator again (a new view stamps everyone) makes it
  a plain member again.

Upcalls leave through ``events``, a mailbox chained behind the inbox: a
served consumer (the daemon) sees each one after the handler that emitted
it has returned, in order — as it did when both sides were queues.

A member can be in three macro-states: *joining* (no view yet), *stable*
(view installed, casts flow through the sequencer), and *blocked* (a flush
is in progress: no new casts are ordered, no deliveries happen, incoming
``Ordered`` messages are buffered and reported to the flush initiator).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.errors import Interrupt, NotMember
from repro.gcs.config import (CONTROL_SIZE, GIVE_UP, JOIN_RETRY, WAIT,
                              SEQUENCER_BASE, SEQUENCER_PER_MEMBER,
                              GcsConfig, retry_step)
from repro.gcs.endpoint import EndpointId, View, fresh_incarnation
from repro.gcs.events import CastEvent, P2pEvent, ViewEvent
from repro.gcs.messages import (Announce, CastReq, Datagram, Flush, FlushOk,
                                Hb, Join, Leave, Msg, Nack, Ordered, P2p, Rel,
                                RelAck, Sync, ViewMsg)
from repro.net.seqwin import RecvWindow, SendHistory
from repro.obs.registry import get_registry
from repro.sim.channel import Mailbox


@dataclass
class _FlushState:
    """Coordinator-side bookkeeping of an in-progress flush."""

    epoch: int
    survivors: Tuple[EndpointId, ...]
    started: float
    replies: Dict[EndpointId, FlushOk] = field(default_factory=dict)


@dataclass
class _RelOut:
    """Per-destination sender state of the reliable-delivery sublayer."""

    #: (Rel envelope, frame kind) from the first seq not acknowledged up.
    unacked: SendHistory = field(default_factory=SendHistory)
    last_tx: float = 0.0
    tries: int = 0


#: Message types that bypass the Rel sublayer: periodic ones (loss only
#: delays the next round), casts and the requests that repair them by
#: sequence number, datagrams (repaired the same way above), and the
#: sublayer's own envelopes.
_UNRELIABLE = (Hb, Announce, Ordered, Nack, Datagram, Rel, RelAck)


class GroupMember:
    """A member endpoint of one process group.

    Parameters
    ----------
    node:
        The :class:`~repro.cluster.node.Node` this member runs on; its
        Ethernet NIC carries the protocol and a node crash kills the member.
    name:
        Endpoint name (daemons use ``"daemon"``).
    group:
        Group name; all members of a group must use the same one.
    state_provider:
        Zero-argument callable returning the application state blob handed
        to joiners (Ensemble-style state transfer).
    """

    def __init__(self, engine, node, name: str = "daemon",
                 group: str = "starfish",
                 config: Optional[GcsConfig] = None,
                 state_provider: Optional[Callable[[], Any]] = None):
        self.engine = engine
        self.node = node
        self.group = group
        self.cfg = config or GcsConfig()
        self.state_provider = state_provider or (lambda: None)
        self.endpoint = EndpointId(node.node_id, name, fresh_incarnation())
        self.nic = node.nic("tcp-ethernet")
        # The port is incarnation-scoped: a reincarnated member on the
        # same node must NOT receive frames addressed to its dead
        # predecessor.  Accepting them poisons the per-sender Rel streams
        # (the old stream's sequence numbers shadow the new one's, so
        # fresh sends get acked away as "duplicates" without delivery) —
        # the transport drops stale-incarnation frames at the NIC instead.
        self._port = f"gcs:{group}:{name}#{self.endpoint.inc}"
        self.nic.open_port(self._port, sink=self._on_frame)
        #: Wire port per destination; this member's own entry is ``None``
        #: (a message to itself is delivered in place, never framed).
        self._peer_ports: Dict[EndpointId, Optional[str]] = {
            self.endpoint: None}
        self._inbox = Mailbox(engine, name=f"gcs-in:{self.endpoint}")
        #: Upcalls for the layer above (daemon / tests).
        self.events = Mailbox(engine, name=f"gcs-ev:{self.endpoint}",
                              behind=self._inbox)

        # --- membership state ---
        self.view: Optional[View] = None
        self.max_epoch = 0
        self.blocked = False
        self._block_since = 0.0
        self._flush_accepted: Optional[Tuple[int, EndpointId]] = None
        self._active_flush: Optional[_FlushState] = None
        self._joiners: Set[EndpointId] = set()
        self._contact: Optional[EndpointId] = None
        self._left = False
        #: Fault-campaign freeze (DaemonPause): while True the member
        #: neither receives nor sends protocol traffic.
        self.paused = False

        # --- reliable-delivery sublayer (per-destination ARQ) ---
        self._rel_out: Dict[EndpointId, _RelOut] = {}
        self._rel_in: Dict[EndpointId, RecvWindow] = defaultdict(RecvWindow)
        self._resync_at = -1.0

        # --- multicast state (reset per view) ---
        self._casts = RecvWindow()                  # by gseq
        self._delivered = SendHistory()             # this view, in order
        self._next_gseq = 0                         # sequencer counter
        self._ordered_keys: Set[Tuple[EndpointId, int]] = set()  # sequencer

        # --- sender state (survives view changes) ---
        self._next_lseq = 0
        self._pending: Dict[int, Tuple[Any, int]] = {}  # lseq -> (payload, size)

        # --- liveness ---
        self.last_heard: Dict[EndpointId, float] = {}
        #: Watch-all (see ``_ticker``): the coordinator is silent, so this
        #: member times and heartbeats the whole view until it is heard again.
        self._watch_all = False
        self.known_endpoints: Set[EndpointId] = set()

        # --- metrics ---
        # Per-member series (labelled by node); a member is recreated when
        # its node restarts, so the series reset here to keep the seed's
        # fresh-instance semantics.
        self._registry = get_registry(engine)
        _mk = lambda what, h: self._registry.counter(
            "gcs." + what, node=node.node_id, help=h)
        self._m = {
            "casts": _mk("casts", "multicasts initiated"),
            "delivered": _mk("delivered", "ordered messages delivered"),
            "duplicates": _mk("duplicates",
                              "re-deliveries suppressed by key"),
            "views": _mk("views", "views installed"),
            "flushes": _mk("flushes", "flush rounds started"),
            "heartbeats": _mk("heartbeats", "heartbeats sent"),
        }
        for m in self._m.values():
            m.reset()
        self._m_retx = self._registry.counter(
            "gcs.rel_retransmits", node=node.node_id,
            help="reliable-sublayer retransmission rounds")
        self._m_retx.reset()
        self._delivered_keys: Set[Tuple[EndpointId, int]] = set()
        #: Called with the time at every tick of a member with a view (the
        #: lightweight-group layer repairs its relays from here).
        self.on_tick: Optional[Callable[[float], None]] = None
        self._procs: List = []
        self._started = False

        self._handlers = {
            Hb: self._on_hb,
            Join: self._on_join,
            Leave: self._on_leave,
            CastReq: self._on_cast_req,
            Ordered: self._on_ordered,
            Flush: self._on_flush,
            FlushOk: self._on_flush_ok,
            Sync: self._on_sync,
            ViewMsg: self._on_view,
            Announce: self._on_announce,
            P2p: self._on_p2p,
            Datagram: self._on_p2p,
            Nack: self._on_nack,
            Rel: self._on_rel,
            RelAck: self._on_rel_ack,
        }

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self, contact: Optional[EndpointId] = None) -> None:
        """Boot the member.

        With ``contact=None`` the member founds the group as a singleton;
        otherwise it keeps sending ``Join`` to ``contact`` until a view that
        includes it is installed.
        """
        if self._started:
            raise NotMember(f"{self.endpoint} already started")
        self._started = True
        self._contact = contact
        self._procs = [
            self.node.spawn(self._main(), name=f"gcs-main:{self.endpoint}"),
            self.node.spawn(self._ticker(), name=f"gcs-tick:{self.endpoint}"),
        ]
        if contact is None:
            epoch = self.max_epoch + 1
            self._inbox.deliver(ViewMsg(
                group=self.group, sender=self.endpoint, epoch=epoch,
                coordinator=self.endpoint, members=(self.endpoint,)))
        else:
            self._post_join(contact)

    def stop(self) -> None:
        """Silently stop (used for graceful leave and tests); frames already
        posted to the NIC still leave, which is how ``leave()`` says goodbye."""
        for p in self._procs:
            if p.is_alive:
                p.interrupt("gcs-stop")
        self._procs = []
        self.nic.close_port(self._port)

    def leave(self) -> None:
        """Graceful departure: notify the coordinator, then stop."""
        self._left = True
        if self.view is not None and self.view.coordinator != self.endpoint:
            self._sendto(self.view.coordinator,
                         Leave(group=self.group, sender=self.endpoint))
        elif self.view is not None and len(self.view) > 1:
            # I am the coordinator: hand off by telling the next-ranked
            # member to form the new view (it will suspect me anyway, but
            # an explicit Leave is faster).
            others = [m for m in self.view.members if m != self.endpoint]
            self._sendto(min(others),
                         Leave(group=self.group, sender=self.endpoint))
        self.stop()

    @property
    def is_coordinator(self) -> bool:
        return self.view is not None and self.view.coordinator == self.endpoint

    # ------------------------------------------------------------------
    # public sends
    # ------------------------------------------------------------------

    def cast(self, payload: Any, size: Optional[int] = None) -> int:
        """Totally-ordered multicast to the current group.

        Returns the sender-local sequence number.  Non-blocking: if a view
        change is in progress the cast is queued and ordered in the next
        view.  The message is delivered back to the sender too.
        """
        size = size if size is not None else CONTROL_SIZE
        lseq = self._next_lseq
        self._next_lseq += 1
        self._pending[lseq] = (payload, size)
        self._m["casts"].inc()
        if self.view is not None and not self.blocked:
            self._sendto(self.view.coordinator,
                         CastReq(group=self.group, sender=self.endpoint,
                                 epoch=self.view.epoch, lseq=lseq,
                                 payload=payload, size=size))
        return lseq

    def send(self, dest: EndpointId, payload: Any,
             size: Optional[int] = None, kind: str = "control") -> None:
        """Reliable FIFO point-to-point message to another member.

        ``kind`` tags the frame for the Table 1 message-taxonomy audit
        (lightweight groups relay application coordination and C/R traffic
        through these sends)."""
        self._sendto(dest, P2p(group=self.group, sender=self.endpoint,
                               payload=payload,
                               size=size if size is not None
                               else CONTROL_SIZE), kind=kind)

    def post(self, dests, payload: Any, size: Optional[int] = None,
             kind: str = "control") -> None:
        """Bare point-to-point message to each of ``dests`` (this member
        skipped), in one pass: no acknowledgement, no retransmission, no
        FIFO with ``send`` — the caller repairs loss itself."""
        self._multicast(dests, Datagram(group=self.group, sender=self.endpoint,
                                        payload=payload,
                                        size=size if size is not None
                                        else CONTROL_SIZE),
                        kind, skip_self=True)

    # ------------------------------------------------------------------
    # transport plumbing
    # ------------------------------------------------------------------

    def _sendto(self, ep: EndpointId, msg: Msg,
                kind: str = "control") -> None:
        self._multicast((ep,), msg, kind)

    def _multicast(self, members, msg: Msg, kind: str = "control",
                   skip_self: bool = False) -> None:
        """Send ``msg`` to ``members``, in order, in one pass.  What depends
        on the message alone (pause, reliability class, frame size, clock) is
        worked out once; a destination costs its port lookup, its ``Rel``
        envelope when the message is reliable, and the NIC post."""
        if self.paused:
            return
        reliable = not isinstance(msg, _UNRELIABLE)
        size = self._frame_size(msg)
        now = self.engine.now
        ports, rel_out, post = self._peer_ports, self._rel_out, self.nic.post
        wire = msg
        for ep in members:
            try:
                port = ports[ep]
            except KeyError:
                port = ports[ep] = f"gcs:{self.group}:{ep.name}#{ep.inc}"
            if port is None:
                if not skip_self:
                    self._inbox.deliver(msg)
                continue
            if reliable:
                # Sequenced, and remembered until the cumulative ack.
                out = rel_out.get(ep)
                if out is None:
                    out = rel_out[ep] = _RelOut()
                out.last_tx = now
                wire = Rel(self.group, self.endpoint, out.unacked.end, msg)
                out.unacked.held.append((wire, kind))
            post(ep.node, port, wire, size, kind)

    def _frame_size(self, msg: Msg) -> int:
        if isinstance(msg, Rel):
            return self._frame_size(msg.inner)
        if isinstance(msg, (CastReq, Ordered, P2p, Datagram)):
            return max(msg.size, CONTROL_SIZE)
        if isinstance(msg, (FlushOk, Sync)):
            payload = getattr(msg, "delivered", ()) or getattr(msg, "msgs", ())
            return CONTROL_SIZE * (1 + len(payload))
        return CONTROL_SIZE

    def _on_frame(self, frame) -> None:
        if self.paused:
            return
        msg = frame.payload
        if isinstance(msg, Msg) and msg.group == self.group:
            self._inbox.deliver(msg)

    def _main(self):
        try:
            yield from self._inbox.serve(self._dispatch)
        except Interrupt:
            return

    def _dispatch(self, msg: Msg):
        """Handle one message; returns a generator iff the handler waits."""
        if msg.sender != self.endpoint:
            self.last_heard[msg.sender] = self.engine.now
            self.known_endpoints.add(msg.sender)
        # Learn the highest epoch in the system from any message, so
        # a rebooted member's proposals are never stuck in the past.
        epoch = getattr(msg, "epoch", 0)
        if epoch > self.max_epoch:
            self.max_epoch = epoch
        handler = self._handlers.get(type(msg))
        return handler(msg) if handler is not None else None

    # -- reliable-delivery sublayer ------------------------------------

    def _on_rel(self, msg: Rel):
        """Receive side: per-sender reorder + dedup, cumulative ack."""
        window = self._rel_in[msg.sender]
        window.offer(msg.seq, msg.inner)
        return self._rel_drain(msg.sender, window)

    def _rel_drain(self, src: EndpointId, window: RecvWindow):
        """Dispatch ``src``'s in-order envelopes, then ack.  An inner
        handler that waits is finished first (``_rel_resume``)."""
        for inner in window.drain():
            waiting = self._dispatch(inner)
            if waiting is not None:
                return self._rel_resume(waiting, src, window)
        # Ack duplicates too: the original ack may have been the lost frame.
        self._sendto(src, RelAck(group=self.group, sender=self.endpoint,
                                 cum=window.next - 1))

    def _rel_resume(self, waiting, src: EndpointId, window: RecvWindow):
        while waiting is not None:
            yield from waiting
            waiting = self._rel_drain(src, window)

    def _on_rel_ack(self, msg: RelAck) -> None:
        out = self._rel_out.get(msg.sender)
        if out is not None and out.unacked.drop_below(msg.cum + 1):
            out.tries = 0

    def _rel_tick(self, now: float) -> None:
        """Retransmit unacked envelopes with exponential backoff; give a
        silent destination up after ``REL_MAX_TRIES`` (failure suspicion
        and the next flush take it from there)."""
        for ep in sorted(self._rel_out):
            out = self._rel_out[ep]
            if not out.unacked.held:
                continue
            step = retry_step(out.tries, out.last_tx, now)
            if step == WAIT:
                continue
            out.tries += 1
            if step == GIVE_UP:
                out.unacked.drop_below(out.unacked.end)
                continue
            self._m_retx.inc()
            out.last_tx = now
            port = self._peer_ports[ep]
            for rel, kind in out.unacked.held:
                self.nic.post(ep.node, port, rel, self._frame_size(rel),
                              kind)

    # ------------------------------------------------------------------
    # the ticker: heartbeats, suspicion, retries, gossip
    # ------------------------------------------------------------------

    def _ticker(self):
        cfg = self.cfg
        try:
            while True:
                yield self.engine.timeout(
                    cfg.heartbeat_period if self.view is not None
                    else JOIN_RETRY)
                now = self.engine.now
                if self._left:
                    return
                if self.paused:
                    continue

                self._rel_tick(now)

                if self.view is None:
                    # Still joining: nag the contact (and anyone we heard of).
                    if self._contact is not None:
                        self._post_join(self._contact)
                    continue
                if self.on_tick is not None:
                    self.on_tick(now)

                # The failure detector is a star (DESIGN §22): a member
                # heartbeats and times its coordinator only; the centre —
                # the coordinator, or a member whose coordinator has gone
                # silent (watch-all) — heartbeats and times the whole view.
                view = self.view
                coordinator = view.coordinator
                if (self.is_coordinator
                        or self._heard_within_timeout(coordinator, now)):
                    self._watch_all = False
                elif not self._watch_all:
                    # Nobody else has been timed in this view: every other
                    # member's clock starts now.
                    self._watch_all = True
                    self.last_heard.update(
                        (m, now) for m in view.members if m != coordinator)
                centre = self._watch_all or self.is_coordinator
                targets = view.members if centre else (coordinator,)
                self._m["heartbeats"].inc(len(view) - 1 if centre else 1)
                self._multicast(targets,
                                Hb(group=self.group, sender=self.endpoint,
                                   epoch=view.epoch, gseq=self._next_gseq),
                                skip_self=True)

                alive = self._alive_members(now)
                stale = len(alive) < len(view)

                if self._active_flush is not None:
                    fl = self._active_flush
                    if now - fl.started > cfg.flush_timeout:
                        # Drop non-responders and retry.
                        responders = set(fl.replies) | {self.endpoint}
                        self._start_flush(responders)
                    continue

                if self.blocked:
                    if now - self._block_since > 3 * cfg.flush_timeout:
                        # The flush initiator died mid-flush.  Unblock and
                        # let the normal suspicion path elect a new one.
                        self.blocked = False
                        self._flush_accepted = None
                        self._recast_pending()
                    continue

                for first, upto in self._casts.holes():
                    self._nack(first, upto)

                if stale or (self.is_coordinator and self._joiners):
                    candidate = min(alive) if alive else self.endpoint
                    if candidate == self.endpoint:
                        survivors = set(alive) | self._joiners
                        self._start_flush(survivors)
                    continue

                # Stable coordinator: gossip for partition merge.
                if self.is_coordinator and cfg.gossip:
                    strangers = (self.known_endpoints
                                 - set(self.view.members))
                    for ep in sorted(strangers):
                        self._sendto(ep, Announce(
                            group=self.group, sender=self.endpoint,
                            epoch=self.view.epoch,
                            members=self.view.members))
        except Interrupt:
            return

    def _heard_within_timeout(self, m: EndpointId, now: float) -> bool:
        heard = self.last_heard.get(m)
        return heard is not None and now - heard <= self.cfg.suspect_timeout

    def _alive_members(self, now: float) -> List[EndpointId]:
        """The members this one does not suspect.  Only the star's centre
        times everybody; any other member hears from its coordinator alone
        and takes the rest of the view on the coordinator's word."""
        members = self.view.members
        if not (self._watch_all or self.is_coordinator):
            return list(members)
        return [m for m in members if m == self.endpoint
                or self._heard_within_timeout(m, now)]

    def _post_join(self, contact: EndpointId) -> None:
        # The Rel sublayer is already retrying an in-flight Join to this
        # contact with backoff; don't pile a duplicate on top.
        out = self._rel_out.get(contact)
        if out is not None and any(isinstance(rel.inner, Join)
                                   for rel, _k in out.unacked.held):
            return
        self._sendto(contact, Join(group=self.group, sender=self.endpoint))

    def _recast_pending(self) -> None:
        if self.view is None:
            return
        for lseq in sorted(self._pending):
            payload, size = self._pending[lseq]
            self._sendto(self.view.coordinator,
                         CastReq(group=self.group, sender=self.endpoint,
                                 epoch=self.view.epoch, lseq=lseq,
                                 payload=payload, size=size))

    # ------------------------------------------------------------------
    # flush / view agreement
    # ------------------------------------------------------------------

    def _start_flush(self, survivors) -> None:
        survivors = tuple(sorted(set(survivors) | {self.endpoint}))
        epoch = self.max_epoch + 1
        self.max_epoch = epoch
        self._active_flush = _FlushState(epoch=epoch, survivors=survivors,
                                         started=self.engine.now)
        self._m["flushes"].inc()
        self._multicast(survivors,
                        Flush(group=self.group, sender=self.endpoint,
                              epoch=epoch, survivors=survivors))

    def _on_flush(self, msg: Flush) -> None:
        if self.view is not None and msg.epoch <= self.view.epoch:
            return
        if self.endpoint not in msg.survivors:
            return
        cur = self._flush_accepted
        better = (cur is None or msg.epoch > cur[0]
                  or (msg.epoch == cur[0] and msg.sender < cur[1]))
        if not better:
            return
        self.max_epoch = max(self.max_epoch, msg.epoch)
        # A competing flush of our own that lost: abandon it.
        if (self._active_flush is not None
                and (self._active_flush.epoch < msg.epoch
                     or (self._active_flush.epoch == msg.epoch
                         and msg.sender < self.endpoint))
                and msg.sender != self.endpoint):
            self._active_flush = None
        self._flush_accepted = (msg.epoch, msg.sender)
        self.blocked = True
        self._block_since = self.engine.now
        old_epoch = self.view.epoch if self.view is not None else -1
        held = self._casts.buffer
        reply = FlushOk(group=self.group, sender=self.endpoint,
                        epoch=msg.epoch, old_epoch=old_epoch,
                        delivered=tuple(self._delivered.held),
                        ooo=tuple(held[k] for k in sorted(held)),
                        pending=tuple((lseq, p, s) for lseq, (p, s)
                                      in sorted(self._pending.items())))
        self._sendto(msg.sender, reply)

    def _on_flush_ok(self, msg: FlushOk) -> None:
        fl = self._active_flush
        if fl is None or msg.epoch != fl.epoch:
            return
        if msg.sender not in fl.survivors:
            return
        fl.replies[msg.sender] = msg
        if len(fl.replies) == len(fl.survivors):
            self._finalize_flush(fl)

    def _finalize_flush(self, fl: _FlushState) -> None:
        self._active_flush = None
        new_members = tuple(sorted(fl.survivors))
        coordinator = new_members[0]

        # Reconcile message histories per old view (virtual synchrony).
        by_old: Dict[int, List[Tuple[EndpointId, FlushOk]]] = {}
        for ep, reply in fl.replies.items():
            by_old.setdefault(reply.old_epoch, []).append((ep, reply))
        for old_epoch, reports in by_old.items():
            if old_epoch < 0:
                continue  # fresh joiners have no old view to close
            longest = max(reports, key=lambda r: len(r[1].delivered))
            final: List[Ordered] = list(longest[1].delivered)
            known = {o.key for o in final}
            extras = []
            for _ep, reply in reports:
                for o in reply.ooo:
                    if o.key not in known:
                        known.add(o.key)
                        extras.append(o)
            extras.sort(key=lambda o: (o.epoch, o.gseq))
            final.extend(extras)
            for ep, reply in reports:
                suffix = tuple(final[len(reply.delivered):])
                if suffix:
                    self._sendto(ep, Sync(group=self.group,
                                          sender=self.endpoint,
                                          epoch=fl.epoch, msgs=suffix))

        state = None
        needs_state = [ep for ep, r in fl.replies.items() if r.old_epoch < 0]
        if needs_state:
            state = self.state_provider()
        for ep in new_members:
            joiner = ep in needs_state
            self._sendto(ep, ViewMsg(group=self.group, sender=self.endpoint,
                                     epoch=fl.epoch, coordinator=coordinator,
                                     members=new_members,
                                     state=state if joiner else None))

    def _on_sync(self, msg: Sync) -> None:
        # Close the old view: deliver what the initiator says we are missing.
        for o in msg.msgs:
            self._deliver(o)

    def _on_view(self, msg: ViewMsg) -> None:
        if self.endpoint not in msg.members:
            return
        if self.view is not None and msg.epoch <= self.view.epoch:
            return
        old = self.view.members if self.view is not None else ()
        self.view = View(group=self.group, epoch=msg.epoch,
                         coordinator=msg.coordinator, members=msg.members)
        self.max_epoch = max(self.max_epoch, msg.epoch)
        self.known_endpoints.update(msg.members)
        now = self.engine.now
        for m in msg.members:
            self.last_heard[m] = now
        # Reset per-view multicast machinery.
        self._casts = RecvWindow()
        self._delivered = SendHistory()
        self._next_gseq = 0
        self._ordered_keys = set()
        self.blocked = False
        self._flush_accepted = None
        self._active_flush = None
        new = set(msg.members)
        self._joiners -= new
        self._m["views"].inc()
        self._registry.events.emit(
            self.engine.now, "gcs.view", node=self.node.node_id,
            epoch=msg.epoch, members=len(msg.members))
        # Member tuples are sorted, so filtering keeps the differences sorted.
        prev = set(old)
        joined = tuple(m for m in msg.members if m not in prev)
        left = tuple(m for m in old if m not in new)
        self.events.deliver(ViewEvent(view=self.view, joined=joined,
                                      left=left, state=msg.state))
        self._recast_pending()

    # ------------------------------------------------------------------
    # multicast path
    # ------------------------------------------------------------------

    def _on_cast_req(self, msg: CastReq):
        if (self.view is None or msg.epoch != self.view.epoch
                or not self.is_coordinator or self.blocked):
            return None
        if (msg.sender, msg.lseq) in self._ordered_keys:
            return None  # duplicate re-cast
        if msg.sender not in self.view:
            return None
        self._ordered_keys.add((msg.sender, msg.lseq))
        return self._sequence(msg)

    def _sequence(self, msg: CastReq):
        # Sequencer processing cost (Ensemble round).
        yield self.engine.timeout(SEQUENCER_BASE
                                  + len(self.view) * SEQUENCER_PER_MEMBER)
        if (self.view is None or msg.epoch != self.view.epoch
                or self.blocked):
            return  # a view change hit while we were processing
        gseq = self._next_gseq
        self._next_gseq += 1
        ordered = Ordered(group=self.group, sender=self.endpoint,
                          epoch=msg.epoch, gseq=gseq, origin=msg.sender,
                          lseq=msg.lseq, payload=msg.payload, size=msg.size)
        self._multicast(self.view.members, ordered)

    def _on_ordered(self, msg: Ordered) -> None:
        if self.view is None or msg.epoch != self.view.epoch:
            return
        casts = self._casts
        if self.blocked:
            casts.buffer[msg.gseq] = msg    # held for the flush report
            return
        for first, upto in casts.hear(msg.gseq):
            self._nack(first, upto)     # a copy was lost mid-stream
        casts.offer(msg.gseq, msg)
        for o in casts.drain():
            self._deliver(o)

    def _nack(self, first: int, upto: int) -> None:
        self._sendto(self.view.coordinator,
                     Nack(group=self.group, sender=self.endpoint,
                          epoch=self.view.epoch, first=first, upto=upto))

    def _on_nack(self, msg: Nack) -> None:
        """Coordinator: send a member the casts it asks for again, from this
        view's history (the one a flush reports; the coordinator delivers
        every cast it orders, in order, so it is numbered by gseq)."""
        if (not self.is_coordinator or self.blocked
                or msg.epoch != self.view.epoch):
            return
        for o in self._delivered.slice(msg.first, msg.upto):
            self._sendto(msg.sender, o)

    def _deliver(self, o: Ordered) -> None:
        self._delivered.held.append(o)
        if o.origin == self.endpoint:
            self._pending.pop(o.lseq, None)
        if o.key in self._delivered_keys:
            self._m["duplicates"].inc()
        else:
            self._delivered_keys.add(o.key)
        self._m["delivered"].inc()
        self.events.deliver(CastEvent(source=o.origin, payload=o.payload,
                                      epoch=o.epoch, gseq=o.gseq))

    # ------------------------------------------------------------------
    # membership requests & gossip
    # ------------------------------------------------------------------

    def _on_join(self, msg: Join) -> None:
        if self.view is None:
            return
        if not self.is_coordinator:
            self._sendto(self.view.coordinator, msg)  # forward
            return
        if msg.sender in self.view.members:
            # It probably missed the ViewMsg; resend with state.
            self._sendto(msg.sender, ViewMsg(
                group=self.group, sender=self.endpoint,
                epoch=self.view.epoch, coordinator=self.view.coordinator,
                members=self.view.members, state=self.state_provider()))
            return
        self._joiners.add(msg.sender)
        if self._active_flush is None and not self.blocked:
            alive = self._alive_members(self.engine.now)
            self._start_flush(set(alive) | self._joiners)

    def _on_leave(self, msg: Leave) -> None:
        if self.view is None or msg.sender not in self.view.members:
            return
        # Coordinator (or the designated successor of a leaving
        # coordinator) removes the leaver immediately.
        if self.is_coordinator or msg.sender == self.view.coordinator:
            survivors = [m for m in self._alive_members(self.engine.now)
                         if m != msg.sender]
            if self.endpoint in survivors:
                self._start_flush(set(survivors) | self._joiners)

    def _on_announce(self, msg: Announce) -> None:
        if self.view is None or not self.cfg.gossip:
            return
        if msg.sender in self.view.members:
            return
        if not self.is_coordinator:
            return
        if self.endpoint < msg.sender:
            if self._active_flush is None and not self.blocked:
                alive = self._alive_members(self.engine.now)
                self._start_flush(set(alive) | set(msg.members)
                                  | self._joiners)
        else:
            # Prompt the other coordinator (smaller id) to merge us.
            self._sendto(msg.sender, Announce(
                group=self.group, sender=self.endpoint,
                epoch=self.view.epoch, members=self.view.members))

    def _on_hb(self, msg: Hb) -> None:
        self.max_epoch = max(self.max_epoch, msg.epoch)
        # Epoch resync backstop: a heartbeat from a newer view means we
        # somehow missed its ViewMsg.  Re-join through the sender (the
        # coordinator resends the current view to existing members);
        # rate-limited to one nag per suspect window.
        if (self.view is not None and msg.epoch > self.view.epoch
                and self.engine.now - self._resync_at
                >= self.cfg.suspect_timeout):
            self._resync_at = self.engine.now
            self._post_join(msg.sender)
        # The coordinator counts the casts it has ordered: more than this
        # member has seen means the tail of the stream was lost.
        if (self.view is not None and msg.sender == self.view.coordinator
                and msg.epoch == self.view.epoch and not self.blocked):
            for first, upto in self._casts.hear(msg.gseq):
                self._nack(first, upto)

    def _on_p2p(self, msg: P2p) -> None:
        self.events.deliver(P2pEvent(source=msg.sender, payload=msg.payload))

    def __repr__(self) -> str:
        v = f"view#{self.view.epoch}x{len(self.view)}" if self.view else "joining"
        flags = "".join(f for f, on in
                        (("B", self.blocked), ("C", self.is_coordinator))
                        if on)
        return f"<GroupMember {self.endpoint} {v} {flags}>"
