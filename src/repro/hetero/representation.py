"""Portable VM-level checkpoint encoding.

A checkpoint blob is::

    magic "SFVM" | version u8 | endian u8 (0=little 1=big) | word_bits u8 |
    arch-name str | os str | value

where every multi-byte scalar after the three header bytes — including
string/collection lengths — is written in the **source** machine's byte
order, and ``value`` is a tagged recursive encoding of the state tree.
Integers that fit the source VM's unboxed width (``word_bits - 1``, one tag
bit) are stored as native words; wider ones are boxed (8-byte) or big
(arbitrary precision).  NumPy arrays are stored raw in source byte order.

Decoding converts to the target architecture:

* byte order is swapped where needed (cheap: only on restore, paper §4);
* an unboxed source integer that does not fit the target's unboxed width is
  transparently promoted to a boxed integer — or rejected with
  :class:`~repro.errors.WordSizeOverflow` in ``strict`` mode (the paper's
  OCaml VM refuses values a 31-bit int cannot hold).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Any, Optional, Tuple

import numpy as np

from repro.cluster.arch import Architecture
from repro.errors import RepresentationError, WordSizeOverflow

MAGIC = b"SFVM"
VERSION = 1

# Value tags.
T_NONE, T_FALSE, T_TRUE = 0, 1, 2
T_INT, T_BOXINT, T_BIGINT = 3, 4, 5
T_FLOAT = 6
T_STR, T_BYTES = 7, 8
T_LIST, T_TUPLE, T_DICT = 9, 10, 11
T_NDARRAY = 12

_DTYPES = {
    0: np.dtype(np.float64), 1: np.dtype(np.float32),
    2: np.dtype(np.int64), 3: np.dtype(np.int32),
    4: np.dtype(np.uint8), 5: np.dtype(np.bool_),
    6: np.dtype(np.complex128),
}
_DTYPE_CODES = {dt: code for code, dt in _DTYPES.items()}


@dataclass(frozen=True)
class CheckpointBlob:
    """A decoded checkpoint header + payload."""

    source_arch_name: str
    source_os: str
    endianness: str
    word_bits: int
    value: Any
    converted: bool       # True if any representation conversion happened


class _Encoder:
    def __init__(self, arch: Architecture):
        self.arch = arch
        self.bo = "<" if arch.endianness == "little" else ">"
        self.word_fmt = self.bo + ("q" if arch.word_bits == 64 else "i")
        self.parts: list = []

    def u8(self, v: int) -> None:
        self.parts.append(struct.pack("B", v))

    def u32(self, v: int) -> None:
        self.parts.append(struct.pack(self.bo + "I", v))

    def raw(self, b: bytes) -> None:
        self.parts.append(b)

    def value(self, v: Any) -> None:
        if v is None:
            self.u8(T_NONE)
        elif v is True:
            self.u8(T_TRUE)
        elif v is False:
            self.u8(T_FALSE)
        elif isinstance(v, int):
            self._int(v)
        elif isinstance(v, float):
            self.u8(T_FLOAT)
            self.parts.append(struct.pack(self.bo + "d", v))
        elif isinstance(v, str):
            data = v.encode("utf-8")
            self.u8(T_STR)
            self.u32(len(data))
            self.raw(data)
        elif isinstance(v, (bytes, bytearray)):
            self.u8(T_BYTES)
            self.u32(len(v))
            self.raw(bytes(v))
        elif isinstance(v, list):
            self.u8(T_LIST)
            self.u32(len(v))
            for item in v:
                self.value(item)
        elif isinstance(v, tuple):
            self.u8(T_TUPLE)
            self.u32(len(v))
            for item in v:
                self.value(item)
        elif isinstance(v, dict):
            self.u8(T_DICT)
            self.u32(len(v))
            for k, val in v.items():
                self.value(k)
                self.value(val)
        elif isinstance(v, np.ndarray):
            self._ndarray(v)
        elif isinstance(v, (np.integer,)):
            self._int(int(v))
        elif isinstance(v, (np.floating,)):
            self.u8(T_FLOAT)
            self.parts.append(struct.pack(self.bo + "d", float(v)))
        else:
            raise RepresentationError(
                f"cannot encode {type(v).__name__!r} in a VM checkpoint; "
                "program state must be plain data (numbers, strings, "
                "containers, numpy arrays)")

    def _int(self, v: int) -> None:
        bits = self.arch.vm_int_bits
        lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
        if lo <= v <= hi:
            self.u8(T_INT)
            self.parts.append(struct.pack(self.word_fmt, v))
        elif -(1 << 63) <= v < (1 << 63):
            self.u8(T_BOXINT)
            self.parts.append(struct.pack(self.bo + "q", v))
        else:
            data = v.to_bytes((v.bit_length() + 8) // 8,
                              self.arch.endianness, signed=True)
            self.u8(T_BIGINT)
            self.u32(len(data))
            self.raw(data)

    def _ndarray(self, a: np.ndarray) -> None:
        dt = a.dtype.newbyteorder("=")
        code = _DTYPE_CODES.get(np.dtype(dt))
        if code is None:
            raise RepresentationError(f"unsupported array dtype {a.dtype}")
        self.u8(T_NDARRAY)
        self.u8(code)
        self.u8(a.ndim)
        for dim in a.shape:
            self.u32(dim)
        native = a.astype(dt.newbyteorder(self.bo), copy=False)
        # The array itself, not a ``tobytes()`` copy of it: ``encode``'s
        # ``bytes.join`` reads the buffer, so the image is copied once.
        self.parts.append(np.ascontiguousarray(native))


def encode(value: Any, arch: Architecture) -> bytes:
    """Serialize ``value`` in ``arch``'s native representation."""
    enc = _Encoder(arch)
    enc.raw(MAGIC)
    enc.u8(VERSION)
    enc.u8(0 if arch.endianness == "little" else 1)
    enc.u8(arch.word_bits)
    for text in (arch.name, arch.os):
        data = text.encode("utf-8")
        enc.u8(len(data))
        enc.raw(data)
    enc.value(value)
    return b"".join(enc.parts)


def portable_nbytes(value: Any, arch: Architecture) -> int:
    """Size of the portable encoding of ``value`` on ``arch``."""
    return len(encode(value, arch))


class _Decoder:
    def __init__(self, data: bytes, target: Architecture, strict: bool):
        self.data = data
        self.pos = 0
        self.target = target
        self.strict = strict
        self.converted = False

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise RepresentationError("truncated checkpoint blob")
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def u8(self) -> int:
        return self.take(1)[0]

    def header(self) -> Tuple[str, str, str, int]:
        if self.take(4) != MAGIC:
            raise RepresentationError("not a VM checkpoint (bad magic)")
        version = self.u8()
        if version != VERSION:
            raise RepresentationError(f"unsupported version {version}")
        endian = "little" if self.u8() == 0 else "big"
        word_bits = self.u8()
        if word_bits not in (32, 64):
            raise RepresentationError(f"bad word length {word_bits}")
        self.bo = "<" if endian == "little" else ">"
        self.src_endian = endian
        self.src_word_bits = word_bits
        self.word_fmt = self.bo + ("q" if word_bits == 64 else "i")
        self.word_len = word_bits // 8
        name = self.take(self.u8()).decode("utf-8")
        os_name = self.take(self.u8()).decode("utf-8")
        if (endian != self.target.endianness
                or word_bits != self.target.word_bits):
            self.converted = True
        return name, os_name, endian, word_bits

    def u32(self) -> int:
        return struct.unpack(self.bo + "I", self.take(4))[0]

    def value(self) -> Any:
        tag = self.u8()
        if tag == T_NONE:
            return None
        if tag == T_TRUE:
            return True
        if tag == T_FALSE:
            return False
        if tag == T_INT:
            v = struct.unpack(self.word_fmt, self.take(self.word_len))[0]
            return self._fit_int(v)
        if tag == T_BOXINT:
            return struct.unpack(self.bo + "q", self.take(8))[0]
        if tag == T_BIGINT:
            n = self.u32()
            return int.from_bytes(self.take(n), self.src_endian, signed=True)
        if tag == T_FLOAT:
            return struct.unpack(self.bo + "d", self.take(8))[0]
        if tag == T_STR:
            return self.take(self.u32()).decode("utf-8")
        if tag == T_BYTES:
            return self.take(self.u32())
        if tag == T_LIST:
            return [self.value() for _ in range(self.u32())]
        if tag == T_TUPLE:
            return tuple(self.value() for _ in range(self.u32()))
        if tag == T_DICT:
            n = self.u32()
            out = {}
            for _ in range(n):
                k = self.value()
                out[k] = self.value()
            return out
        if tag == T_NDARRAY:
            return self._ndarray()
        raise RepresentationError(f"unknown value tag {tag}")

    def _fit_int(self, v: int) -> int:
        bits = self.target.vm_int_bits
        lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
        if lo <= v <= hi:
            return v
        # A 63-bit unboxed int landing on a 32-bit machine.
        if self.strict:
            raise WordSizeOverflow(
                f"{v} does not fit an unboxed {bits}-bit VM integer on "
                f"{self.target.name}")
        self.converted = True  # promoted to a boxed integer
        return v

    def _ndarray(self) -> np.ndarray:
        code = self.u8()
        dt = _DTYPES.get(code)
        if dt is None:
            raise RepresentationError(f"unknown array dtype code {code}")
        ndim = self.u8()
        shape = tuple(self.u32() for _ in range(ndim))
        src_dt = dt.newbyteorder(self.bo)
        count = 1
        for dim in shape:
            count *= dim
        raw = self.take(count * dt.itemsize)
        arr = np.frombuffer(raw, dtype=src_dt).reshape(shape)
        # Convert to the target's native order (the restore-time cost).
        return np.ascontiguousarray(arr.astype(dt.newbyteorder("="),
                                               copy=False))


def decode(data: bytes, target: Architecture,
           strict: bool = False) -> CheckpointBlob:
    """Decode a checkpoint blob on ``target``, converting representation.

    ``strict=True`` refuses unboxed integers that do not fit the target VM
    word (instead of promoting them to boxed integers).
    """
    dec = _Decoder(data, target, strict)
    name, os_name, endian, word_bits = dec.header()
    value = dec.value()
    if dec.pos != len(data):
        raise RepresentationError(
            f"{len(data) - dec.pos} trailing bytes in checkpoint blob")
    return CheckpointBlob(source_arch_name=name, source_os=os_name,
                          endianness=endian, word_bits=word_bits,
                          value=value, converted=dec.converted)
