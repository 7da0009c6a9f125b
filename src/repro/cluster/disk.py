"""Per-node disk model.

The paper attributes its checkpoint times to "regular IDE bus and
controller" hardware; this model charges ``nbytes / bandwidth`` per
operation and serializes concurrent operations (one head: a channel
holding one token, taken FIFO; a process killed while it waits for the
token never gets it, one killed while it holds it gives it back).  Checkpoint
storage (:mod:`repro.store.checkpoint`) writes through this model, which is what
produces the Figure 3/4 curves.
"""

from __future__ import annotations

from typing import Optional

from repro.calibration import DISK_READ_BANDWIDTH, NATIVE_DISK_BANDWIDTH
from repro.sim.channel import Channel


class Disk:
    """One node's local disk.

    Parameters
    ----------
    write_bandwidth / read_bandwidth:
        Sustained throughput in bytes/second.
    """

    def __init__(self, engine, node_id: str,
                 write_bandwidth: float = NATIVE_DISK_BANDWIDTH,
                 read_bandwidth: float = DISK_READ_BANDWIDTH):
        self.engine = engine
        self.node_id = node_id
        self.write_bandwidth = write_bandwidth
        self.read_bandwidth = read_bandwidth
        self._head = Channel(engine, name=f"disk:{node_id}")
        self._head.put(True)
        self.bytes_written = 0
        self.bytes_read = 0

    def write(self, nbytes: int, bandwidth: Optional[float] = None):
        """Process generator: synchronous write of ``nbytes``.

        ``bandwidth`` overrides the device default — the VM-level checkpoint
        path uses its faster serialize-and-buffered-write rate (Fig. 4).
        """
        bw = bandwidth or self.write_bandwidth
        yield self._head.get()
        try:
            yield self.engine.timeout(nbytes / bw)
            self.bytes_written += nbytes
        finally:
            self._head.put(True)

    def read(self, nbytes: int, bandwidth: Optional[float] = None):
        """Process generator: synchronous read of ``nbytes``."""
        bw = bandwidth or self.read_bandwidth
        yield self._head.get()
        try:
            yield self.engine.timeout(nbytes / bw)
            self.bytes_read += nbytes
        finally:
            self._head.put(True)

    def __repr__(self) -> str:
        return (f"<Disk {self.node_id} written={self.bytes_written} "
                f"read={self.bytes_read}>")
