"""The Starfish daemon (systems S6 and S7).

One daemon runs on every cluster node.  All daemons form the *Starfish
group* (an Ensemble-style process group, :mod:`repro.gcs`); per-application
*lightweight groups* (:mod:`repro.lwg`) span the daemons hosting that
application's processes.  The daemon:

* spawns application processes and tracks their health;
* maintains the replicated cluster configuration and application registry
  (all mutations ride the main group's total order);
* relays coordination and checkpoint/restart messages between application
  processes through the lightweight groups (Table 1);
* enforces per-application fault-tolerance policies when nodes fail
  (KILL / VIEW_NOTIFY / RESTART — paper §3.2.2);
* validates every client command in one place (``submit``, ``migrate``),
  whichever format carried it: the library facade, the fleet's JSON API, or
  the ASCII management/user protocol (paper §3.1.1) that
  :mod:`repro.daemon.session` serves on a TCP listener — any daemon can
  serve any client.
"""

from repro.daemon.registry import AppRecord, AppStatus, Registry
from repro.daemon.daemon import StarfishDaemon
from repro.daemon.client import Client
from repro.daemon.protocol import format_response, parse_command

__all__ = [
    "AppRecord",
    "AppStatus",
    "Client",
    "Registry",
    "StarfishDaemon",
    "format_response",
    "parse_command",
]
