"""The lightweight membership module.

One :class:`LwgManager` runs inside every daemon, layered on that daemon's
main-group :class:`~repro.gcs.member.GroupMember`.  The daemon's event loop
feeds every main-group upcall through :meth:`LwgManager.on_main_event`; the
manager consumes the ones that belong to the lightweight layer and returns
``True`` for them.

Protocol envelopes on the main group:

* membership ops (total-order casts): ``("lwg-op", op, app_id, endpoint)``
  with op in {create, join, leave, destroy}; *create* carries the initial
  member tuple instead of one endpoint.  A layer whose own totally-ordered
  cast already names the group and its members (the daemon's ``app-submit``
  / ``app-done``) calls :meth:`LwgManager.open` / :meth:`LwgManager.close`
  while applying it instead of paying a second cast;
* data (point-to-point): ``("lwg-data", app_id, origin, lseq, payload,
  kind, epoch, position)`` to the group's sequencer (reliable, and
  carrying the origin's delivered position) and ``("lwg-ord", app_id,
  epoch, gseq, origin, lseq, payload, kind)`` from the sequencer to
  members;
* repair (bare datagrams, DESIGN §27; ``repro.net.seqwin``'s window and
  history, as main-group casts): the sequencer posts each ``lwg-ord`` copy
  bare and keeps the epoch's copies until every member has reported past
  them.  A member that finds a hole asks for it with ``("lwg-nack",
  app_id, epoch, first, upto)`` — at once, and every tick while it lasts —
  and reports its delivered position with ``("lwg-pos", app_id, epoch,
  position)`` at most once a tick, when it advanced or a duplicate
  arrived.  On its tick the sequencer re-posts its newest copy to each
  member whose report is behind it: it delivers it, finds the hole and
  asks, or — it had it — reports.

Because membership ops are totally ordered, every daemon holds an identical
replica of every group's member list, and a main-group view change shrinks
all lightweight groups locally and consistently — no extra agreement
protocol, which is the entire point of lightweight groups.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.errors import NotMember
from repro.gcs.config import RETRY, retry_step
from repro.gcs.endpoint import EndpointId
from repro.gcs.events import CastEvent, GcsEvent, P2pEvent, ViewEvent
from repro.gcs.member import GroupMember
from repro.lwg.events import LwgCast, LwgP2p, LwgView
from repro.net.seqwin import RecvWindow, SendHistory
from repro.sim.channel import Mailbox


@dataclass
class _Relay:
    """Sequencer side of relay repair for one epoch (DESIGN §27), made on
    first use: the other replicas of a group never allocate it."""

    #: ``(origin, lseq)`` of every data message sequenced in the epoch.
    seen_keys: Set[Tuple[EndpointId, int]] = field(default_factory=set)
    #: Relayed copies by gseq, from the lowest one some member has not
    #: reported up: kept to answer its ``lwg-nack``.
    history: SendHistory = field(default_factory=SendHistory)
    #: Each member's last reported position (the gseq it awaits).
    positions: Dict[EndpointId, int] = field(default_factory=dict)
    #: member -> (re-posts so far, time of the last) of the tail re-post.
    resends: Dict[EndpointId, Tuple[int, float]] = field(default_factory=dict)


@dataclass
class _LwgState:
    """Replicated (per daemon) state of one lightweight group: its members
    and epoch; the rest is made on first use."""

    app_id: str
    members: Tuple[EndpointId, ...] = ()
    #: Ordering epoch: bumped by every membership change.  Membership ops
    #: are totally ordered, so every replica counts the same changes and
    #: the epochs agree — which lets an ``lwg-ord`` receiver tell whether
    #: a gseq belongs to its current numbering or to one it has not
    #: applied yet (direct sends from the sequencer are NOT ordered
    #: against the main group's total order, so both happen).
    epoch: int = 0
    # -- sequencer side (only used by the current coordinator) --
    relay: Optional[_Relay] = None
    #: Data from origins whose membership op we have not applied yet;
    #: re-sequenced at the membership change that admits them.
    stash: Optional[List[tuple]] = None
    # -- member side --
    #: This epoch's relays, by gseq.
    order: Optional[RecvWindow] = None
    #: The position this member last reported; a duplicate since then.
    reported: int = 0
    duplicate: bool = False
    #: ``lwg-ord`` payloads from a future epoch, replayed once we catch
    #: up: epoch -> gseq -> payload.
    future: Optional[Dict[int, Dict[int, tuple]]] = None
    delivered_keys: Optional[Set[Tuple[EndpointId, int]]] = None

    @property
    def coordinator(self) -> Optional[EndpointId]:
        return min(self.members) if self.members else None

    @property
    def next_gseq(self) -> int:
        """The gseq the sequencer gives the epoch's next data message."""
        return self.relay.history.end if self.relay is not None else 0

    def reset_ordering(self) -> None:
        self.epoch += 1
        self.relay = None
        self.order = None
        self.reported = 0
        self.duplicate = False
        # delivered_keys survives: dedup across re-sends spanning a change.
        # future survives too: it may hold this very epoch's messages.


class LwgManager:
    """Lightweight membership + lightweight endpoints' message fan-out."""

    def __init__(self, engine, gm: GroupMember):
        self.engine = engine
        self.gm = gm
        self.groups: Dict[str, _LwgState] = {}
        #: Local subscribers: app_id -> channel of LwgEvent.
        self._subs: Dict[str, Mailbox] = {}
        #: Our un-sequenced data messages per group: app -> {lseq: (payload, kind, size)}
        self._pending: Dict[str, Dict[int, tuple]] = {}
        self._next_lseq: Dict[str, int] = {}
        #: Protocol traffic for groups we hold no replica of (yet): a
        #: joining daemon can receive ops/data/ords BEFORE it absorbs the
        #: state blob — the blob rides the ViewMsg from the view
        #: coordinator while these are direct sends and casts from other
        #: members, and nothing orders the two.  Parked in arrival order
        #: and replayed when the replica materializes.
        self._orphans: Dict[str, List[tuple]] = {}
        gm.on_tick = self._tick

    @property
    def endpoint(self) -> EndpointId:
        return self.gm.endpoint

    # ------------------------------------------------------------------
    # subscriptions (the lightweight *endpoint* side)
    # ------------------------------------------------------------------

    def subscribe(self, app_id: str) -> Mailbox:
        """Mailbox on which this daemon receives the group's upcalls (read
        it with ``get()``, or ``serve()`` it: it is chained behind the
        member's, so a handler runs after the main-group one that fed it)."""
        ch = self._subs.get(app_id)
        if ch is None:
            ch = Mailbox(self.engine, name=f"lwg:{app_id}@{self.endpoint}",
                         behind=self.gm.events)
            self._subs[app_id] = ch
        return ch

    def unsubscribe(self, app_id: str) -> None:
        self._subs.pop(app_id, None)

    def members(self, app_id: str) -> Tuple[EndpointId, ...]:
        state = self.groups.get(app_id)
        return state.members if state else ()

    # ------------------------------------------------------------------
    # state transfer (piggybacks on the daemon's main-group join blob)
    # ------------------------------------------------------------------

    def snapshot(self) -> Dict[str, Tuple[Tuple[EndpointId, ...], int]]:
        """Replicated membership (+ ordering epoch) of every group, for
        the state blob.

        A daemon booted after a group's *create* cast has no replica of
        that group, so without this transfer it would silently drop every
        subsequent ``lwg-op`` naming it (``_apply_op`` has nothing to
        apply the op *to*) and never learn its own membership.
        """
        return {app_id: (state.members, state.epoch)
                for app_id, state in self.groups.items()}

    def absorb(self, groups: Dict[str, Tuple[Tuple[EndpointId, ...], int]]
               ) -> None:
        """Adopt group replicas when joining the main group.

        The snapshot is taken by the view-change coordinator *before* its
        own lwg layer applies that view, so it may still list endpoints
        the new view declared dead; filter against the view we are joining
        under so our replica matches what the old daemons converge to —
        and when the filter drops someone, count the epoch bump the old
        replicas will apply for that same view, so the numbering agrees.
        Ordering counters start at zero — safe, because any op that makes
        us a member resets them on every replica (``_change_members``).
        """
        alive = (set(self.gm.view.members)
                 if self.gm.view is not None else None)
        for app_id, (members, epoch) in groups.items():
            if app_id in self.groups:
                continue
            filtered = tuple(members)
            if alive is not None:
                filtered = tuple(m for m in members if m in alive)
            if filtered != tuple(members):
                epoch += 1
            self.groups[app_id] = _LwgState(app_id=app_id, members=filtered,
                                            epoch=epoch)
            self._replay_orphans(app_id)

    def _park_orphan(self, app_id: str, payload: tuple) -> None:
        self._orphans.setdefault(app_id, []).append(payload)

    def _replay_orphans(self, app_id: str) -> None:
        """Re-dispatch traffic that arrived before the group's replica
        existed here; every handler re-checks its own preconditions."""
        for payload in self._orphans.pop(app_id, []):
            tag = payload[0]
            if tag == "lwg-op":
                self._apply_op(payload)
            elif tag == "lwg-data":
                self._sequence(payload)
            elif tag == "lwg-ord":
                self._receive_ordered(payload)

    # ------------------------------------------------------------------
    # membership operations (ride the main group's total order)
    # ------------------------------------------------------------------

    def create(self, app_id: str, members) -> None:
        """Create a lightweight group spanning ``members`` (daemons)."""
        self.gm.cast(("lwg-op", "create", app_id, tuple(sorted(members))))

    def open(self, app_id: str, members: Tuple[EndpointId, ...]) -> None:
        """Create the group *in place*: what a delivered ``create`` does,
        for a caller that is itself applying a totally-ordered main-group
        cast (so every replica opens it at the same point of the order).
        ``members`` is the sorted tuple that cast carries."""
        if app_id in self.groups:
            return  # duplicate create (e.g. re-cast after view change)
        self.groups[app_id] = _LwgState(app_id=app_id, members=members)
        self._emit(app_id, LwgView, members=members, joined=members, left=())
        if app_id in self._orphans:
            self._replay_orphans(app_id)

    def close(self, app_id: str) -> None:
        """Destroy the group in place (the counterpart of :meth:`open`)."""
        state = self.groups.pop(app_id, None)
        self._orphans.pop(app_id, None)
        if state is not None:
            self._emit(app_id, LwgView, members=(), joined=(),
                       left=state.members)

    def join(self, app_id: str, member: Optional[EndpointId] = None) -> None:
        self.gm.cast(("lwg-op", "join", app_id, member or self.endpoint))

    def leave(self, app_id: str, member: Optional[EndpointId] = None) -> None:
        """Terminate (our or ``member``'s) membership in the group."""
        self.gm.cast(("lwg-op", "leave", app_id, member or self.endpoint))

    def destroy(self, app_id: str) -> None:
        self.gm.cast(("lwg-op", "destroy", app_id, None))

    # ------------------------------------------------------------------
    # data path
    # ------------------------------------------------------------------

    def cast(self, app_id: str, payload: Any, kind: str = "coordination",
             size: int = 256) -> None:
        """Totally-ordered multicast within the lightweight group."""
        state = self.groups.get(app_id)
        if state is None or self.endpoint not in state.members:
            raise NotMember(f"{self.endpoint} is not in lwg {app_id!r}")
        lseq = self._next_lseq.get(app_id, 0)
        self._next_lseq[app_id] = lseq + 1
        self._pending.setdefault(app_id, {})[lseq] = (payload, kind, size)
        self._send_data(app_id, state, lseq, payload, kind, size)

    def send(self, app_id: str, dest: EndpointId, payload: Any,
             kind: str = "coordination", size: int = 256) -> None:
        """Direct message to one member of the lightweight group."""
        self.gm.send(dest, ("lwg-p2p", app_id, payload, kind), size=size,
                     kind=kind)

    def _send_data(self, app_id, state, lseq, payload, kind, size) -> None:
        coord = state.coordinator
        if coord is None:
            return  # group empty; pending is re-sent on membership change
        # The origin's delivered position rides along: a report it need
        # not send on its tick.
        position = state.order.next if state.order is not None else 0
        state.reported = position
        state.duplicate = False
        self.gm.send(coord, ("lwg-data", app_id, self.endpoint, lseq,
                             payload, kind, state.epoch, position),
                     size=size, kind=kind)

    # ------------------------------------------------------------------
    # main-group event intake
    # ------------------------------------------------------------------

    def on_main_event(self, ev: GcsEvent) -> bool:
        """Feed a main-group upcall through the lightweight layer.

        Returns ``True`` if the event was consumed here (pure lwg traffic);
        main-group view changes return ``False`` so the daemon can also act
        on them, but their lwg side effects are applied.
        """
        if isinstance(ev, ViewEvent):
            self._apply_main_view(ev)
            return False
        if isinstance(ev, CastEvent):
            payload = ev.payload
            if isinstance(payload, tuple) and payload and payload[0] == "lwg-op":
                self._apply_op(payload)
                return True
            return False
        if isinstance(ev, P2pEvent):
            payload = ev.payload
            if not (isinstance(payload, tuple) and payload):
                return False
            tag = payload[0]
            if tag == "lwg-data":
                self._sequence(payload)
                return True
            if tag == "lwg-ord":
                self._receive_ordered(payload)
                return True
            if tag == "lwg-nack":
                self._on_nack(ev.source, payload)
                return True
            if tag == "lwg-pos":
                self._on_position(ev.source, payload)
                return True
            if tag == "lwg-p2p":
                # Addressed to this daemon, and not ordered against the cast
                # that makes it a subscriber (a direct send can overtake the
                # main group's total order): it waits in the mailbox for the
                # consumer instead of being dropped.
                _, app_id, inner, kind = payload
                self.subscribe(app_id).deliver(LwgP2p(
                    app_id=app_id, source=ev.source, payload=inner,
                    kind=kind))
                return True
            return False
        return False

    # -- membership mechanics ----------------------------------------------

    def _apply_op(self, payload: tuple) -> None:
        _, op, app_id, arg = payload
        if op == "create":
            self.open(app_id, arg)
            return
        if op == "destroy":
            self.close(app_id)
            return
        state = self.groups.get(app_id)
        if state is None:
            self._park_orphan(app_id, payload)
            return
        old = state.members
        if op == "join" and arg not in old:
            new = tuple(sorted(old + (arg,)))
        elif op == "leave" and arg in old:
            new = tuple(m for m in old if m != arg)
        else:
            return
        self._change_members(state, new)

    def _apply_main_view(self, ev: ViewEvent) -> None:
        alive = set(ev.view.members)
        for state in list(self.groups.values()):
            new = tuple(m for m in state.members if m in alive)
            if new != state.members:
                self._change_members(state, new)

    def _change_members(self, state: _LwgState, new: Tuple[EndpointId, ...]):
        old = state.members
        state.members = new
        state.reset_ordering()
        joined = tuple(sorted(set(new) - set(old)))
        left = tuple(sorted(set(old) - set(new)))
        self._emit(state.app_id, LwgView, members=new, joined=joined,
                   left=left)
        # Re-drive our own unordered messages through the new coordinator.
        if self.endpoint in new:
            for lseq, (payload, kind, size) in sorted(
                    self._pending.get(state.app_id, {}).items()):
                self._send_data(state.app_id, state, lseq, payload, kind, size)
        # Replay ordered messages that arrived under this (then-future)
        # epoch before the change itself did.
        if state.future:
            if self.endpoint in new:
                for _gseq, payload in sorted(state.future.pop(state.epoch,
                                                              {}).items()):
                    self._receive_ordered(payload)
            else:
                state.future = None
        # Re-sequence parked data whose origin this change just admitted
        # (coordinator side; _sequence re-checks every condition).
        if state.coordinator == self.endpoint and state.stash:
            parked, state.stash = state.stash, None
            for payload in parked:
                self._sequence(payload)

    # -- data mechanics ---------------------------------------------------------

    def _sequence(self, payload: tuple) -> None:
        """Coordinator role: order one data message and relay it."""
        _, app_id, origin, lseq, inner, kind, epoch, position = payload
        state = self.groups.get(app_id)
        if state is None:
            self._park_orphan(app_id, payload)
            return
        if state.coordinator != self.endpoint:
            return  # stale coordinator view at sender; it will re-send
        if origin not in state.members:
            # The origin applied its (totally-ordered) join before we
            # did and is already casting.  Dropping would lose the
            # message for good — the origin only re-drives its pending
            # on ITS next membership change.  Park it; the join op that
            # admits the origin re-sequences it (``_change_members``).
            if state.stash is None:
                state.stash = []
            state.stash.append(payload)
            return
        if epoch == state.epoch:
            self._note_position(state, origin, position)
        relay = state.relay = state.relay or _Relay()
        key = (origin, lseq)
        if key in relay.seen_keys:
            return
        relay.seen_keys.add(key)
        out = ("lwg-ord", app_id, state.epoch, relay.history.end, origin,
               lseq, inner, kind)
        relay.history.held.append(out)
        if len(state.members) == 1:         # nobody else to keep it for
            relay.history.drop_below(relay.history.end)
        # The sequencer is min(members): itself first, then one bare copy
        # to every other member.
        self._receive_ordered(out)
        self.gm.post(state.members, out, size=256, kind=kind)

    def _receive_ordered(self, payload: tuple) -> None:
        _, app_id, epoch, gseq, origin, lseq, inner, kind = payload
        state = self.groups.get(app_id)
        if state is None:
            self._park_orphan(app_id, payload)
            return
        if epoch > state.epoch:
            # Sequenced under a membership change we have not applied
            # yet (the sequencer's direct send raced the main group's
            # total order).  Deliverable only after that change resets
            # our numbering — park it for the replay in
            # ``_change_members``; dropping it would wedge the stream
            # at a gseq hole nobody will ever fill.
            if state.future is None:
                state.future = {}
            state.future.setdefault(epoch, {})[gseq] = payload
            return
        if epoch < state.epoch or self.endpoint not in state.members:
            # Stale epoch: the change that obsoleted it re-drove every
            # origin's unacknowledged casts, and ``delivered_keys``
            # dedups whatever did land before the reset.
            return
        order = state.order = state.order or RecvWindow()
        for first, upto in order.hear(gseq):
            self._nack(state, first, upto)  # a copy was lost: ask at once
        if not order.offer(gseq, (origin, lseq, inner, kind)):
            state.duplicate = True      # a re-post: report again
        for item in order.drain():
            self._deliver(state, item)

    # -- repair by sequence number (DESIGN §27) -----------------------------

    def _nack(self, state: _LwgState, first: int, upto: int) -> None:
        self.gm.post((state.coordinator,), ("lwg-nack", state.app_id,
                                            state.epoch, first, upto))

    def _sequencing(self, app_id: str, epoch: int) -> Optional[_LwgState]:
        """The group, if this daemon sequences its epoch ``epoch``."""
        state = self.groups.get(app_id)
        if (state is None or epoch != state.epoch
                or state.coordinator != self.endpoint):
            return None
        return state

    def _on_nack(self, source: EndpointId, payload: tuple) -> None:
        """Sequencer: send a member the copies it asks for again, from this
        epoch's history."""
        _, app_id, epoch, first, upto = payload
        state = self._sequencing(app_id, epoch)
        if state is None or state.relay is None:
            return
        for out in state.relay.history.slice(first, upto):
            self.gm.post((source,), out, size=256, kind=out[-1])

    def _on_position(self, source: EndpointId, payload: tuple) -> None:
        _, app_id, epoch, position = payload
        state = self._sequencing(app_id, epoch)
        if state is not None:
            self._note_position(state, source, position)

    def _note_position(self, state: _LwgState, member: EndpointId,
                       position: int) -> None:
        """Sequencer: ``member`` has delivered everything below
        ``position``; drop the copies every other member has."""
        relay = state.relay = state.relay or _Relay()
        if position <= relay.positions.get(member, 0):
            return
        relay.positions[member] = position
        relay.resends.pop(member, None)
        relay.history.drop_below(min(
            (relay.positions.get(m, 0) for m in state.members
             if m != self.endpoint), default=relay.history.end))

    def _tick(self, now: float) -> None:
        """Every GCS tick: a member asks again for its holes and reports a
        position that moved; the sequencer re-posts its newest copy to each
        member whose report is behind it."""
        me = self.endpoint
        for state in self.groups.values():   # nothing below opens or closes
            if me not in state.members:
                continue
            if state.coordinator == me:
                self._resend_tail(state, now)
                continue
            order = state.order
            if order is None:
                continue        # nothing heard, nothing to report
            for first, upto in order.holes():
                self._nack(state, first, upto)
            if order.next > state.reported or state.duplicate:
                state.reported = order.next
                state.duplicate = False
                self.gm.post((state.coordinator,),
                             ("lwg-pos", state.app_id, state.epoch,
                              order.next))

    def _resend_tail(self, state: _LwgState, now: float) -> None:
        relay = state.relay
        if relay is None or not relay.history.held:
            return      # every member has reported everything
        newest = relay.history.held[-1]
        for m in state.members:
            if (m == self.endpoint
                    or relay.positions.get(m, 0) >= state.next_gseq):
                continue
            tries, last = relay.resends.get(m, (0, None))
            # Given up after REL_MAX_TRIES: the failure detector's business.
            if retry_step(tries, last, now) != RETRY:
                continue
            relay.resends[m] = (tries + 1, now)
            self.gm.post((m,), newest, size=256, kind=newest[-1])

    def _deliver(self, state: _LwgState, item: tuple) -> None:
        origin, lseq, inner, kind = item
        key = (origin, lseq)
        if state.delivered_keys is None:
            state.delivered_keys = set()
        elif key in state.delivered_keys:
            return  # duplicate from a re-send across a membership change
        state.delivered_keys.add(key)
        if origin == self.endpoint:
            self._pending.get(state.app_id, {}).pop(lseq, None)
        self._emit(state.app_id, LwgCast, source=origin, payload=inner,
                   kind=kind)

    def _emit(self, app_id: str, event_type, **fields) -> None:
        """Upcall ``event_type(app_id=app_id, **fields)`` to the group's
        local subscriber; built only if there is one."""
        ch = self._subs.get(app_id)
        if ch is not None:
            ch.deliver(event_type(app_id=app_id, **fields))

    def __repr__(self) -> str:
        return f"<LwgManager {self.endpoint} groups={sorted(self.groups)}>"
