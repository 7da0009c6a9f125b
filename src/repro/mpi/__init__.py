"""The Starfish MPI module (system S10).

An MPI-2 subset faithful to what the paper's runtime provides, implemented
over the VNI fast path:

* blocking and non-blocking point-to-point (``send``/``recv``/``isend``/
  ``irecv``/``probe``) with standard matching semantics — ``ANY_SOURCE`` /
  ``ANY_TAG`` wildcards and non-overtaking FIFO per (source, tag);
* eager delivery with the receive-side polling thread of §2.2.1;
* communicators: ``COMM_WORLD``, ``dup``, ``split``, groups;
* collectives: barrier, bcast (binomial tree), reduce, allreduce, scatter,
  gather, allgather, alltoall, scan — over point-to-point with reserved
  internal tags;
* a program's ``ctx.mpi`` is its world :class:`Communicator`; MPI-2
  dynamic process management and the Starfish extension downcalls
  (user-initiated checkpoint) are ``ctx.spawn`` / ``ctx.checkpoint`` on
  the :class:`~repro.core.program.ProgramContext`, serviced by the
  runtime (:mod:`repro.core.runtime`).

API style follows mpi4py's lowercase, pickle-ish object methods: ``data =
yield from comm.recv(source=0)``.  Every MPI call that can block is a
generator to be driven with ``yield from``.
"""

from repro.mpi.constants import (ANY_SOURCE, ANY_TAG, MAX_USER_TAG,
                                 PROC_NULL, UNDEFINED)
from repro.mpi.reduce_ops import (BAND, BOR, LAND, LOR, MAX, MAXLOC, MIN,
                                  MINLOC, PROD, SUM)
from repro.mpi.status import Status
from repro.mpi.request import Request
from repro.mpi.endpoint import MpiEndpoint
from repro.mpi.communicator import Communicator

__all__ = [
    "ANY_SOURCE", "ANY_TAG", "BAND", "BOR", "Communicator", "LAND", "LOR",
    "MAX", "MAXLOC", "MAX_USER_TAG", "MIN", "MINLOC", "MpiEndpoint",
    "PROC_NULL", "PROD", "Request", "SUM", "Status", "UNDEFINED",
]
