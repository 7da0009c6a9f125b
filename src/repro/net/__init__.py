"""Network substrate (system S3).

Models the two interconnects of the paper's testbed:

* **TCP/IP over switched Ethernet** — per-message cost dominated by
  syscalls and the kernel protocol stack (``calibration.TCP_LAYERS``);
* **BIP over Myrinet** — a user-level network interface that bypasses the
  kernel (``calibration.BIP_LAYERS``).

A :class:`~repro.net.fabric.Fabric` is one interconnect; every node attaches
a :class:`~repro.net.nic.Nic` per fabric.  Frames are delivered in order and
without loss by default; the fabric supports fault injection (loss,
partitions, detaching crashed nodes), and
:class:`~repro.net.conn.Connection` provides a reliable, in-order,
TCP-socket-like byte/message stream with ARQ that survives configured frame
loss (used for the client↔daemon sessions).
"""

from repro.net.message import Frame
from repro.net.fabric import Fabric, TransportSpec, BIP_MYRINET, TCP_ETHERNET
from repro.net.nic import Nic
from repro.net.conn import Connection, Listener

__all__ = [
    "BIP_MYRINET",
    "Connection",
    "Fabric",
    "Frame",
    "Listener",
    "Nic",
    "TCP_ETHERNET",
    "TransportSpec",
]
