"""Unit tests for the cluster model: nodes, architectures, disks, faults."""

import pytest

from repro.calibration import NATIVE_DISK_BANDWIDTH
from repro.cluster import (Cluster, DEFAULT_ARCH, NodeState, TABLE2_MACHINES,
                           arch_by_name)
from repro.errors import ClusterError, Interrupt, NodeDown
from repro.faults import CrashNode


def test_build_creates_wired_nodes():
    cluster = Cluster.build(nodes=3)
    assert sorted(cluster.nodes) == ["n0", "n1", "n2"]
    for node in cluster.nodes.values():
        assert node.nic("tcp-ethernet").is_up
        assert node.nic("bip-myrinet").is_up


def test_duplicate_node_id_rejected():
    cluster = Cluster.build(nodes=1)
    with pytest.raises(ClusterError):
        cluster.add_node("n0")


def test_unknown_node_lookup():
    with pytest.raises(ClusterError):
        Cluster.build(nodes=1).node("ghost")


def test_table2_has_six_machines_with_paper_properties():
    assert len(TABLE2_MACHINES) == 6
    endians = {m.endianness for m in TABLE2_MACHINES}
    assert endians == {"little", "big"}
    word_lengths = sorted({m.word_bits for m in TABLE2_MACHINES})
    assert word_lengths == [32, 64]
    # Exactly one 64-bit machine: the Alpha.
    sixty_four = [m for m in TABLE2_MACHINES if m.word_bits == 64]
    assert len(sixty_four) == 1 and "Alpha" in sixty_four[0].name


def test_vm_int_bits_loses_tag_bit():
    assert DEFAULT_ARCH.vm_int_bits == 31
    alpha = arch_by_name("Dual Alpha DS20 500 MHz")
    assert alpha.vm_int_bits == 63


def test_same_representation():
    linux_pii = arch_by_name("Intel P-II 350 MHz, i686")
    winnt_pii = arch_by_name("Intel P-II, 350 MHz")
    sun = arch_by_name("Sun Ultra Enterprise 3000")
    assert linux_pii.same_representation(winnt_pii)
    assert not linux_pii.same_representation(sun)


def test_arch_by_name_unknown():
    with pytest.raises(KeyError):
        arch_by_name("PDP-11")


def test_crash_interrupts_hosted_processes():
    cluster = Cluster.build(nodes=1)
    eng = cluster.engine
    node = cluster.node("n0")

    def worker():
        try:
            yield eng.timeout(100)
            return "finished"
        except Interrupt as exc:
            return ("killed", str(exc.cause))

    p = node.spawn(worker())
    cluster.faults.at(5, CrashNode(node="n0"))
    result = eng.run(p)
    assert result[0] == "killed"
    assert "n0" in result[1]


def test_crash_twice_is_error():
    cluster = Cluster.build(nodes=1)
    cluster.crash_node("n0")
    with pytest.raises(ClusterError):
        cluster.crash_node("n0")


def test_recover_bumps_incarnation_and_rewires():
    cluster = Cluster.build(nodes=2)
    node = cluster.node("n0")
    assert node.incarnation == 0
    cluster.crash_node("n0")
    assert node.state is NodeState.DOWN
    cluster.recover_node("n0")
    assert node.incarnation == 1
    assert node.is_up
    assert node.nic("tcp-ethernet").is_up


def test_recover_up_node_is_error():
    cluster = Cluster.build(nodes=1)
    with pytest.raises(ClusterError):
        cluster.recover_node("n0")


def test_disable_enable_cycle():
    cluster = Cluster.build(nodes=2)
    node = cluster.node("n0")
    node.disable()
    assert node.state is NodeState.DISABLED
    assert node not in cluster.schedulable_nodes()
    assert len(cluster.schedulable_nodes()) == 1
    node.enable()
    assert node in cluster.schedulable_nodes()


def test_disabled_node_keeps_running_processes():
    cluster = Cluster.build(nodes=1)
    eng = cluster.engine
    node = cluster.node("n0")

    def worker():
        yield eng.timeout(10)
        return "done"

    p = node.spawn(worker())
    node.disable()
    assert eng.run(p) == "done"


def test_spawn_on_down_node_raises():
    cluster = Cluster.build(nodes=1)
    cluster.crash_node("n0")

    def worker():
        yield cluster.engine.timeout(1)

    with pytest.raises(NodeDown):
        cluster.node("n0").spawn(worker())


def test_remove_node_crashes_and_forgets_it():
    cluster = Cluster.build(nodes=2)
    events = []
    cluster.watchers.append(lambda nid, ev: events.append((nid, ev)))
    cluster.remove_node("n1")
    assert "n1" not in cluster.nodes
    assert ("n1", "remove") in events


def test_disk_write_time_matches_bandwidth():
    cluster = Cluster.build(nodes=1)
    eng = cluster.engine
    disk = cluster.node("n0").disk

    def writer():
        yield from disk.write(NATIVE_DISK_BANDWIDTH)  # exactly 1 second
        return eng.now

    assert eng.run(eng.process(writer())) == pytest.approx(1.0)
    assert disk.bytes_written == NATIVE_DISK_BANDWIDTH


def test_disk_serializes_writers():
    cluster = Cluster.build(nodes=1)
    eng = cluster.engine
    disk = cluster.node("n0").disk
    ends = []

    def writer():
        yield from disk.write(NATIVE_DISK_BANDWIDTH / 2)  # 0.5 s each
        ends.append(eng.now)

    eng.process(writer())
    eng.process(writer())
    eng.run()
    assert ends == [pytest.approx(0.5), pytest.approx(1.0)]


def test_disk_survives_crash_recover():
    cluster = Cluster.build(nodes=1)
    node = cluster.node("n0")
    disk_before = node.disk
    cluster.crash_node("n0")
    cluster.recover_node("n0")
    assert node.disk is disk_before  # stable storage


def test_scheduled_partition_and_heal():
    from repro.faults import FaultPlan, Heal, Partition
    cluster = Cluster.build(nodes=2)
    eng = cluster.engine
    (FaultPlan()
     .at(1.0, Partition(groups=(("n0",), ("n1",))))
     .at(2.0, Heal())
     .apply_to(cluster))
    eng.run(until=1.5)
    assert not cluster.ethernet._reachable("n0", "n1")
    eng.run(until=2.5)
    assert cluster.ethernet._reachable("n0", "n1")


def test_injector_at_schedules_and_logs_all_actions():
    from repro.faults.actions import CrashNode, Heal, Partition, RecoverNode
    cluster = Cluster.build(nodes=2)
    eng = cluster.engine
    cluster.faults.at(1.0, Partition(groups=(("n0",), ("n1",))))
    cluster.faults.at(2.0, Heal())
    eng.run(until=1.5)
    assert not cluster.ethernet._reachable("n0", "n1")
    eng.run(until=2.5)
    assert cluster.ethernet._reachable("n0", "n1")
    cluster.faults.at(3.0, CrashNode(node="n1"))
    cluster.faults.at(4.0, RecoverNode(node="n1"))
    eng.run(until=3.5)
    assert not cluster.node("n1").is_up
    eng.run(until=4.5)
    assert cluster.node("n1").is_up
    # Everything routes through the one injector: all four scheduled
    # actions show up in its log.
    assert [name for _t, name, _d in cluster.faults.log] == [
        "partition", "heal", "crash-node", "recover-node"]


def test_live_processes_prunes_dead():
    cluster = Cluster.build(nodes=1)
    eng = cluster.engine
    node = cluster.node("n0")

    def quick():
        yield eng.timeout(1)

    node.spawn(quick())
    assert len(node.live_processes) == 1
    eng.run()
    assert node.live_processes == []


def test_host_forgets_dead_processes_and_crash_keeps_registration_order():
    # One short-lived process per isend used to stay in node._procs until
    # somebody read live_processes: host() prunes once the list has doubled.
    cluster = Cluster.build(nodes=1)
    eng = cluster.engine
    node = cluster.node("n0")
    interrupted = []

    def server(tag):
        try:
            yield eng.event()               # parked for good
        except Interrupt:
            interrupted.append(tag)

    def quick():
        yield eng.timeout(0.001)

    longest = 0
    for i in range(10_000):
        if i % 2_000 == 0:
            node.spawn(server(i))
        node.spawn(quick())
        eng.run(until=eng.now + 0.002)
        longest = max(longest, len(node._procs))
    assert longest <= 128                   # 5 live + the amortisation slack
    node.crash()
    eng.run()
    assert interrupted == [0, 2_000, 4_000, 6_000, 8_000]
