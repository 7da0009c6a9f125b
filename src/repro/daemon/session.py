"""The ASCII session server (paper §3.1.1): any daemon serves any client.

A text *format* over the daemon's command surface and nothing more.  Each
verb parses its arguments, then calls the validated public method
(:meth:`StarfishDaemon.submit`, :meth:`StarfishDaemon.migrate`), casts the
replicated op that needs no validation, or reads replica state; the JSON
:class:`repro.fleet.ControlAPI` is the other format over the same set.

Whatever a verb raises — a typed :class:`~repro.errors.ReproError` from
the method, or a ``ValueError`` from a hostile argument — becomes that
command's one ``ERR`` line and the session goes on.  Only a connection
error (client vanished, node down) ends a session.
"""

from __future__ import annotations

from repro.daemon.protocol import (MGMT_COMMANDS, USER_COMMANDS,
                                   format_response, parse_command,
                                   parse_submit_options)
from repro.daemon.registry import AppStatus
from repro.errors import (AuthenticationError, DaemonError, Interrupt,
                          NetworkError, NodeDown, ProtocolError)


def accept_loop(daemon, listener):
    """Process generator: one ``session`` process per accepted connection."""
    try:
        while True:
            conn = yield listener.accept()
            daemon.node.spawn(session(daemon, conn),
                              name=f"session:{daemon.node.node_id}")
    except (Interrupt, NetworkError, NodeDown):
        return  # stopped, or the node crashed under us


def session(daemon, conn):
    """Process generator: answer one client's commands, one line each."""
    user, is_admin = None, False
    try:
        while True:
            line = yield conn.recv()
            try:
                verb, args = parse_command(line)
                if verb == "LOGIN":
                    user, is_admin = _login(daemon.users, *args)
                    fields = ("management session" if is_admin
                              else "user session",)
                elif verb == "QUIT":
                    fields = ("bye",)
                else:
                    fields = _run(daemon, verb, args, user, is_admin)
                reply = format_response(True, *fields)
            except Exception as exc:
                verb, reply = None, format_response(False, exc)
            yield from conn.send(reply)
            if verb == "QUIT":
                yield from conn.close()
                return
    except (Interrupt, NetworkError, NodeDown):
        return  # client vanished / node down


def _login(users, name, password, kind):
    cred = users.get(name)
    if cred is None or cred[0] != password:
        raise AuthenticationError("authentication failed")
    mgmt = kind.upper() == "MGMT"
    if mgmt and not cred[1]:
        raise AuthenticationError("not an administrator")
    return name, mgmt


def _run(daemon, verb, args, user, is_admin) -> tuple:
    """One command of a logged-in session -> the fields of its ``OK``."""
    if user is None:
        raise AuthenticationError("login required")
    if verb in MGMT_COMMANDS and not is_admin:
        raise AuthenticationError("management command needs a MGMT session")
    record = None
    if verb in USER_COMMANDS and verb != "SUBMIT":   # names an application
        record = daemon.registry.get(args[0])   # raises UnknownApplication
        if not is_admin and record.owner != user:
            raise AuthenticationError(f"{args[0]} belongs to {record.owner}")
    return _VERBS[verb](daemon, args, user, record)


# -- the verb table: fn(daemon, args, user, record) -> reply fields ---------

def _casts(*head, tail=()):
    """A verb that only multicasts a replicated op (``head`` + the
    command's arguments + ``tail``): there is nothing to validate."""
    def verb(daemon, args, user, record):
        daemon.gm.cast(head + tuple(args) + tail)
        return ()
    return verb


def _get(daemon, args, user, record):
    if args[0] not in daemon.config:
        raise DaemonError(f"no such key {args[0]}")
    return (daemon.config[args[0]],)


def _nodes(daemon, args, user, record):
    view = daemon.gm.view
    return tuple(
        f"{m.node}:" + ("disabled" if m.node in daemon.disabled_nodes
                        else "up")
        for m in (sorted(view.members) if view else ()))


def _apps(daemon, args, user, record):
    return tuple(f"{r.app_id}:{r.status.value}"
                 for r in daemon.registry.all())


def _addnode(daemon, args, user, record):
    if daemon.node_provisioner is None:
        raise DaemonError("no node provisioner")
    daemon.node_provisioner(args[0])
    return (f"node {args[0]} provisioning",)


def _removenode(daemon, args, user, record):
    daemon.gm.cast(("node-admin", "disable", args[0]))
    if args[0] in daemon.cluster.nodes:
        daemon.cluster.remove_node(args[0])
    return ()


def _submit(daemon, args, user, record):
    # Function-level: importing repro.core at module scope would cycle.
    from repro.core.appspec import AppSpec, CheckpointConfig
    opts = parse_submit_options(args[2:])
    name = opts.get("program")
    program = daemon.program_registry.get(name)
    if program is None:
        raise ProtocolError(f"unknown program {name!r}; known: "
                            f"{sorted(daemon.program_registry)}")
    checkpoint = CheckpointConfig(
        protocol=opts.get("ckpt") or None, level=opts.get("level", "vm"),
        interval=float(opts["interval"]) if "interval" in opts else None)
    spec = AppSpec(
        program=program, nprocs=int(args[1]), owner=user,
        params={k[6:]: _auto(v) for k, v in opts.items()
                if k.startswith("param.")},
        ft_policy=opts.get("ft", "kill"), checkpoint=checkpoint,
        transport=opts.get("transport", "bip-myrinet"))
    return (daemon.submit(args[0], spec),)


def _status(daemon, args, user, record):
    # ``done=k/n`` is what *this* daemon knows (DESIGN §21): exact at the
    # app authority while the app runs, and everywhere once it is done.
    return (record.status.value,
            f"done={len(record.done_ranks)}/{len(record.placement)}",
            f"restarts={record.restarts}")


def _result(daemon, args, user, record):
    if record.status is not AppStatus.DONE:
        raise DaemonError(f"not finished ({record.status.value})")
    return (repr([record.results.get(r) for r in sorted(record.results)]),)


def _migrate(daemon, args, user, record):
    rank, target = int(args[1]), args[2]
    daemon.migrate(record.app_id, rank, target)
    return (f"migrating rank {rank} to {target} via the last recovery line",)


_VERBS = {
    "SET": _casts("cfg-set"), "GET": _get, "NODES": _nodes, "APPS": _apps,
    "DISABLE": _casts("node-admin", "disable"),
    "ENABLE": _casts("node-admin", "enable"),
    "ADDNODE": _addnode, "REMOVENODE": _removenode, "SUBMIT": _submit,
    "STATUS": _status, "RESULT": _result, "MIGRATE": _migrate,
    **{cmd.upper(): _casts("app-cmd", tail=(cmd,))
       for cmd in ("suspend", "resume", "delete", "checkpoint")},
}


def _auto(value: str):
    """Best-effort typed parse of an option value."""
    for cast in (int, float):
        try:
            return cast(value)
        except ValueError:
            pass
    if value.lower() in ("true", "false"):
        return value.lower() == "true"
    return value
