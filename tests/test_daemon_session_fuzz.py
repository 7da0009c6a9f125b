"""Hypothesis fuzz of the one text surface (ROADMAP aim 3).

Arbitrary lines, and structured ``VERB args…`` lines drawn from the
protocol's verbs with hostile arguments, go through an administrator's and
a user's ASCII session.  Whatever arrives, each command is answered by
exactly one ``OK``/``ERR`` line, the session stays usable, and no daemon
process on any node dies.

Left out on purpose, because they are *legitimately* destructive or
costly rather than malformed: ``QUIT``, ``REMOVENODE`` of a real node,
and a ``SUBMIT`` of more than a handful of ranks up to ``MAX_NPROCS``
(a larger one is malformed: refused with one ``ERR``).
"""

from hypothesis import given, settings, strategies as st

from repro.apps import ComputeSleep
from repro.core import AppSpec, CheckpointConfig, FaultPolicy, StarfishCluster
from repro.core.appspec import MAX_NPROCS
from repro.daemon.protocol import (COMMON_COMMANDS, MGMT_COMMANDS,
                                   USER_COMMANDS, parse_command)
from repro.errors import ProtocolError
from tests.test_daemon_commands import assert_daemons_alive, drive

NODES = ("n0", "n1", "n2")
HOSTILE = ["", "n99", "-1", "0", "2", "1e9", "1.5", "x" * 300, "9" * 40,
           "k=v", "=", "a=b=c", "param.=", "param.steps=x", "'", '"', "\\",
           "nän", "\x00", "job", "n2", "alice", "MGMT", "program=computesleep",
           "program=", "ckpt=bogus", "level=native", "interval=abc",
           "ft=restart", "transport=tcp-ethernet", "\x1e", "\x85", "\u2028"]

token = st.sampled_from(HOSTILE) | st.text(max_size=12)
structured = st.builds(
    lambda verb, args: " ".join([verb, *args]),
    st.sampled_from(sorted(MGMT_COMMANDS | USER_COMMANDS | COMMON_COMMANDS)),
    st.lists(token, max_size=5))
#: Almost-valid submissions: a known program, then ``k=v`` soup.
option = st.builds("{}={}".format, st.sampled_from(
    ["ckpt", "level", "interval", "ft", "transport", "param.steps", "x", ""]),
    token)
submission = st.builds(
    lambda app_id, nprocs, options: " ".join(
        ["SUBMIT", app_id, nprocs, "program=computesleep", *options]),
    st.sampled_from(["a", "b", "job"]), st.sampled_from(["1", "2", "0"]),
    st.lists(option, max_size=3))


def _malformed_or_harmless(line: str) -> bool:
    try:
        verb, args = parse_command(line)
    except ProtocolError:
        return True
    return not (verb == "QUIT"
                or verb == "REMOVENODE" and args[0] in NODES
                or verb == "SUBMIT" and 4 < int(args[1]) <= MAX_NPROCS)


lines = st.lists((structured | submission | st.text(max_size=80))
                 .filter(_malformed_or_harmless), max_size=6)


@settings(max_examples=50, deadline=None)
@given(admin_lines=lines, user_lines=lines)
def test_every_command_gets_one_reply_and_nothing_dies(admin_lines,
                                                       user_lines):
    sf = StarfishCluster.build(nodes=len(NODES))
    sf.submit(AppSpec(
        program=ComputeSleep, nprocs=2, owner="alice",
        params={"steps": 400, "step_time": 0.05},
        ft_policy=FaultPolicy.RESTART,
        checkpoint=CheckpointConfig(protocol="stop-and-sync", interval=0.5),
        placement={0: "n0", 1: "n1"}), app_id="job")
    sf.engine.run(until=sf.engine.now + 0.8)
    # Each session ends with a command that must still work.
    for user, fuzz, probe in (
            (("admin", "adminpw", True), admin_lines, "NODES"),
            (("alice", "alicepw", False), user_lines,
             "SUBMIT probe 1 program=computesleep param.steps=1")):
        replies = drive(sf, [*fuzz, probe], user=user)
        assert len(replies) == len(fuzz) + 1
        for line, reply in zip([*fuzz, probe], replies):
            assert reply.split(" ")[0] in ("OK", "ERR"), (line, reply)
            assert len(reply.splitlines()) == 1, (line, reply)
        assert replies[-1].startswith("OK"), (fuzz, replies)
    sf.engine.run(until=sf.engine.now + 1.0)
    assert_daemons_alive(sf)


def test_a_line_break_character_inside_a_command_is_one_err_line():
    # splitlines() splits on "\x1e", "\x85" and "\u2028" as well as on
    # "\n"; a node id ending in one used to be echoed back in an OK that a
    # client reads as two lines.
    sf = StarfishCluster.build(nodes=len(NODES))
    reply, probe = drive(sf, ["ADDNODE \x1e", "NODES"],
                         user=("admin", "adminpw", True))
    assert reply.startswith("ERR ") and len(reply.splitlines()) == 1, reply
    assert probe.startswith("OK")
    assert_daemons_alive(sf)
