"""The Virtual Network Interface (system S9).

Paper §2.2/§2.2.1: the VNI is the thin, portable layer between the MPI
module and whatever network the cluster has — porting Starfish to a new
network "only requires writing a thin layer of code" inside the VNI.  Two
drivers exist, matching the testbed: BIP/Myrinet and TCP/IP Ethernet.

The VNI also owns the *polling thread*: a low-priority thread that
continuously polls the network and moves arriving messages on to the MPI
module, so (a) a receive operation rarely has to enter the kernel itself
and (b) kernel interaction is interleaved with computation.  The
``polling=False`` mode preserves the naive blocking-receive behaviour for
the ``ABL-POLLING`` row of ``benchmarks/paper.py``.
"""

from repro.vni.interface import Vni, VniMessage

__all__ = ["Vni", "VniMessage"]
