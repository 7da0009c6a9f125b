"""The ASCII client protocol (paper §3.1.1).

Line-oriented, telnet-able in spirit: a session starts with a LOGIN that
both authenticates and declares the session type (management or user), and
each subsequent command gets an ``OK``/``ERR`` response.  Management
sessions control the cluster; user sessions control (only their own)
applications.

Commands::

    LOGIN <user> <password> MGMT|USER
    # management
    ADDNODE <node-id>          REMOVENODE <node-id>
    DISABLE <node-id>          ENABLE <node-id>
    SET <key> <value>          GET <key>
    NODES                      APPS
    # user
    SUBMIT <app-id> <nprocs> [key=value ...]
    STATUS <app-id>            RESULT <app-id>
    SUSPEND <app-id>           RESUME <app-id>
    DELETE <app-id>
    CHECKPOINT <app-id>
    MIGRATE <app-id> <rank> <node-id>
    QUIT
"""

from __future__ import annotations

import shlex
from typing import Any, Dict, List, Tuple

from repro.errors import ProtocolError

#: The well-known TCP port every daemon's session server listens on.
CTL_PORT = "starfish-ctl"

MGMT_COMMANDS = {"ADDNODE", "REMOVENODE", "DISABLE", "ENABLE", "SET", "GET",
                 "NODES", "APPS"}
USER_COMMANDS = {"SUBMIT", "STATUS", "RESULT", "SUSPEND", "RESUME", "DELETE",
                 "CHECKPOINT", "MIGRATE"}
COMMON_COMMANDS = {"LOGIN", "QUIT"}

_ARITY = {
    "LOGIN": 3, "ADDNODE": 1, "REMOVENODE": 1, "DISABLE": 1, "ENABLE": 1,
    "SET": 2, "GET": 1, "NODES": 0, "APPS": 0, "STATUS": 1, "RESULT": 1,
    "SUSPEND": 1, "RESUME": 1, "DELETE": 1, "CHECKPOINT": 1, "QUIT": 0,
    "MIGRATE": 3,
}


def parse_command(line: str) -> Tuple[str, List[str]]:
    """Parse one protocol line into ``(verb, args)``."""
    if not isinstance(line, str) or not line.strip():
        raise ProtocolError("empty command line")
    # Not a count of lines: splitlines() drops a trailing "\x1e" or "\u2028".
    if line.splitlines() != [line]:
        raise ProtocolError("a command is one line")
    try:
        parts = shlex.split(line)
    except ValueError as exc:
        raise ProtocolError(f"unparseable command: {exc}") from None
    verb = parts[0].upper()
    args = parts[1:]
    known = MGMT_COMMANDS | USER_COMMANDS | COMMON_COMMANDS
    if verb not in known:
        raise ProtocolError(f"unknown command {verb!r}")
    if verb == "SUBMIT":
        if len(args) < 2:
            raise ProtocolError("SUBMIT needs <app-id> <nprocs> [k=v ...]")
        if not args[1].isdigit():
            raise ProtocolError(f"SUBMIT nprocs must be a number, "
                                f"got {args[1]!r}")
    else:
        want = _ARITY[verb]
        if len(args) != want:
            raise ProtocolError(f"{verb} takes {want} argument(s), "
                                f"got {len(args)}")
    return verb, args


def parse_submit_options(args: List[str]) -> Dict[str, str]:
    """``key=value`` trailing options of SUBMIT."""
    opts: Dict[str, str] = {}
    for item in args:
        if "=" not in item:
            raise ProtocolError(f"bad SUBMIT option {item!r} (want k=v)")
        key, value = item.split("=", 1)
        opts[key] = value
    return opts


def format_response(ok: bool, *fields: Any) -> str:
    """One response line: ``OK ...`` or ``ERR ...``."""
    head = "OK" if ok else "ERR"
    if not fields:
        return head
    return head + " " + " ".join(str(f) for f in fields)
