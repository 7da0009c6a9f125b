"""Lightweight groups (system S5), after Guo & Rodrigues' dynamic
light-weight groups — the mechanism Starfish uses to scope per-application
membership and coordination without paying for one full process group per
application.

Design (paper §2.1):

* Lightweight-group **membership operations** (create / join / leave) are
  rare, so they ride the *main* Starfish group's totally-ordered multicast —
  every daemon therefore has an identical replica of every lightweight
  group's member list, and main-group view changes (node failures) shrink
  all lightweight groups consistently and locally, with no extra protocol.
* Lightweight-group **data messages** (coordination and C/R traffic of one
  application) are frequent, so they travel point-to-point: the lightweight
  group's coordinator sequences them and relays them only to that group's
  members — the efficiency argument for lightweight groups.  The relays go
  bare: a member asks for a missing one by sequence number and reports how
  far it has delivered, so the coordinator keeps only what some member
  still lacks (DESIGN §27).

The ``ABL-LWG`` row of ``benchmarks/paper.py`` compares this against the
naive "one full process group per application" design.
"""

from repro.lwg.manager import LwgManager
from repro.lwg.events import LwgCast, LwgEvent, LwgP2p, LwgView

__all__ = ["LwgCast", "LwgEvent", "LwgManager", "LwgP2p", "LwgView"]
