"""Unit tests for the calibration models (DESIGN.md §6)."""

import dataclasses
import math

import pytest

from repro import calibration as cal


def test_layer_costs_sum():
    assert cal.BIP_LAYERS.one_way_fixed == pytest.approx(
        sum(dataclasses.astuple(cal.BIP_LAYERS)))
    assert cal.TCP_LAYERS.one_way_fixed == pytest.approx(
        sum(dataclasses.astuple(cal.TCP_LAYERS)))


def test_one_byte_rtt_anchors():
    assert 2 * cal.one_way_time(cal.BIP_LAYERS, cal.BIP_BANDWIDTH, 1) == \
        pytest.approx(cal.RTT_1BYTE_BIP, rel=1e-3)
    assert 2 * cal.one_way_time(cal.TCP_LAYERS, cal.TCP_BANDWIDTH, 1) == \
        pytest.approx(cal.RTT_1BYTE_TCP, rel=1e-3)


def test_sync_residual_hits_anchors_exactly():
    for n, total in cal.FIG3_ANCHORS.items():
        res = cal.sync_residual(n, cal.FIG3_ANCHORS,
                                cal.NATIVE_EMPTY_IMAGE,
                                cal.NATIVE_DISK_BANDWIDTH)
        write = cal.NATIVE_EMPTY_IMAGE / cal.NATIVE_DISK_BANDWIDTH
        assert res + write == pytest.approx(total)


def test_sync_residual_interpolates_and_extrapolates():
    args = (cal.FIG3_ANCHORS, cal.NATIVE_EMPTY_IMAGE,
            cal.NATIVE_DISK_BANDWIDTH)
    r1 = cal.sync_residual(1, *args)
    r2 = cal.sync_residual(2, *args)
    r3 = cal.sync_residual(3, *args)
    r4 = cal.sync_residual(4, *args)
    r8 = cal.sync_residual(8, *args)
    assert r1 < r3 < r4 < r8          # monotone through and beyond anchors
    assert r2 < r3 < r4               # 3 nodes between the 2- and 4-anchors
    # log2-piecewise: 3 nodes sits at log2(3) between the anchors.
    frac = (math.log2(3) - 1) / (2 - 1)
    assert r3 == pytest.approx(r2 + frac * (r4 - r2))


def test_sync_residual_rejects_zero_nodes():
    with pytest.raises(ValueError):
        cal.sync_residual(0, cal.FIG3_ANCHORS, cal.NATIVE_EMPTY_IMAGE,
                          cal.NATIVE_DISK_BANDWIDTH)


def test_checkpoint_time_models_monotone():
    assert cal.native_checkpoint_time(0, 1) < \
        cal.native_checkpoint_time(10**6, 1) < \
        cal.native_checkpoint_time(10**7, 1)
    assert cal.vm_checkpoint_time(10**6, 1) < \
        cal.vm_checkpoint_time(10**6, 2) < \
        cal.vm_checkpoint_time(10**6, 4)


def test_vm_faster_and_smaller_than_native():
    # Same payload: the VM path writes less data at a higher bandwidth.
    assert cal.vm_checkpoint_time(10 * cal.MB, 2) < \
        cal.native_checkpoint_time(10 * cal.MB, 2) / 3
    assert 0 < cal.VM_PAYLOAD_FACTOR < 1


def test_protocol_round_estimate_shape():
    e1 = cal.protocol_round_estimate(1)
    e2 = cal.protocol_round_estimate(2)
    e4 = cal.protocol_round_estimate(4)
    e8 = cal.protocol_round_estimate(8)
    assert e1 == cal.PROTOCOL_ROUND_ANCHORS[1]
    assert e2 == cal.PROTOCOL_ROUND_ANCHORS[2]
    assert e4 == cal.PROTOCOL_ROUND_ANCHORS[4]
    assert e8 > e4
    # Residual minus round estimate never goes negative in the barrier.
    from repro.ckpt.protocols.stop_and_sync import commit_barrier_cost
    for level in ("native", "vm"):
        for n in (1, 2, 3, 4, 6, 8):
            assert commit_barrier_cost(level, n) >= 0


def test_header_constant_consistency():
    from repro.mpi.constants import MSG_HEADER
    assert MSG_HEADER == cal.DATA_HEADER
