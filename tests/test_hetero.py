"""Heterogeneous representation: encode/decode across Table 2 machines."""

import numpy as np
import pytest

from repro.cluster import TABLE2_MACHINES, arch_by_name
from repro.errors import RepresentationError, WordSizeOverflow
from repro.hetero import decode, encode, native_heap_nbytes, portable_nbytes

LINUX_X86 = arch_by_name("Intel P-II 350 MHz, i686")       # little, 32
SUN = arch_by_name("Sun Ultra Enterprise 3000")            # big, 32
ALPHA = arch_by_name("Dual Alpha DS20 500 MHz")            # little, 64

SAMPLE = {
    "step": 17,
    "pi": 3.14159,
    "name": "jacobi",
    "done": False,
    "nothing": None,
    "grid": np.arange(12, dtype=np.float64).reshape(3, 4),
    "ranks": [0, 1, 2],
    "meta": {"sizes": (8, 16), "tag": b"\x00\xffdata"},
}


def assert_state_equal(a, b):
    assert sorted(a) == sorted(b)
    for k in a:
        if isinstance(a[k], np.ndarray):
            assert np.array_equal(a[k], b[k]), k
            assert a[k].dtype == b[k].dtype, k
        else:
            assert a[k] == b[k], k


def test_same_arch_roundtrip_no_conversion():
    blob = encode(SAMPLE, LINUX_X86)
    out = decode(blob, LINUX_X86)
    assert_state_equal(SAMPLE, out.value)
    assert not out.converted
    assert out.source_arch_name == LINUX_X86.name
    assert out.endianness == "little"


def test_cross_endian_roundtrip_converts():
    blob = encode(SAMPLE, SUN)          # big-endian source
    out = decode(blob, LINUX_X86)       # little-endian target
    assert_state_equal(SAMPLE, out.value)
    assert out.converted
    assert out.endianness == "big"


def test_cross_wordsize_roundtrip():
    blob = encode(SAMPLE, ALPHA)        # 64-bit source
    out = decode(blob, SUN)             # 32-bit big-endian target
    assert_state_equal(SAMPLE, out.value)
    assert out.converted


@pytest.mark.parametrize("src", TABLE2_MACHINES, ids=lambda a: a.name)
@pytest.mark.parametrize("dst", TABLE2_MACHINES, ids=lambda a: a.name)
def test_table2_full_matrix(src, dst):
    """Table 2: checkpoint on any machine restarts on any machine."""
    blob = encode(SAMPLE, src)
    out = decode(blob, dst)
    assert_state_equal(SAMPLE, out.value)
    assert out.converted == (not src.same_representation(dst))


def test_wide_int_unboxed_on_64_boxed_on_32():
    wide = (1 << 40)  # fits 63-bit unboxed, not 31-bit
    blob = encode({"v": wide}, ALPHA)
    out = decode(blob, LINUX_X86)       # promoted to boxed
    assert out.value["v"] == wide
    assert out.converted
    with pytest.raises(WordSizeOverflow):
        decode(blob, LINUX_X86, strict=True)


def test_huge_int_bigint_path():
    huge = -(1 << 200) + 12345
    blob = encode({"v": huge}, SUN)
    assert decode(blob, ALPHA).value["v"] == huge


def test_float_bit_exactness_across_endianness():
    specials = [0.0, -0.0, 1e-308, float("inf"), float("-inf"), 2.0**-1074]
    blob = encode(specials, SUN)
    out = decode(blob, ALPHA).value
    for orig, got in zip(specials, out):
        assert (np.float64(orig).tobytes() == np.float64(got).tobytes())


def test_nan_survives():
    blob = encode(float("nan"), SUN)
    assert np.isnan(decode(blob, LINUX_X86).value)


@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64,
                                   np.int32, np.uint8, np.bool_,
                                   np.complex128])
def test_array_dtypes_roundtrip(dtype):
    rng = np.random.default_rng(0)
    if dtype is np.bool_:
        arr = rng.random(10) > 0.5
    elif np.issubdtype(dtype, np.complexfloating):
        arr = (rng.random(10) + 1j * rng.random(10)).astype(dtype)
    elif np.issubdtype(dtype, np.floating):
        arr = rng.random(10).astype(dtype)
    else:
        arr = rng.integers(0, 100, 10).astype(dtype)
    out = decode(encode(arr, SUN), LINUX_X86).value
    assert np.array_equal(arr, out)
    assert out.dtype == np.dtype(dtype)


def test_unsupported_type_rejected():
    with pytest.raises(RepresentationError):
        encode({"bad": object()}, LINUX_X86)


def test_truncated_blob_rejected():
    blob = encode(SAMPLE, LINUX_X86)
    with pytest.raises(RepresentationError):
        decode(blob[:-3], LINUX_X86)


def test_bad_magic_rejected():
    with pytest.raises(RepresentationError):
        decode(b"XXXX" + b"\x00" * 20, LINUX_X86)


def test_trailing_garbage_rejected():
    blob = encode(1, LINUX_X86) + b"junk"
    with pytest.raises(RepresentationError):
        decode(blob, LINUX_X86)


# ---------------------------------------------------------------------------
# sizes: the paper's Figure 3 vs Figure 4 relationship
# ---------------------------------------------------------------------------

def test_native_dump_larger_than_portable_for_big_payloads():
    big = {"grid": np.zeros(500_000, dtype=np.float64)}  # ~4 MB payload
    native = native_heap_nbytes(big, LINUX_X86)
    portable = portable_nbytes(big, LINUX_X86)
    ratio = portable / native
    # 96/135 ~ 0.71 for array-dominated payloads (calibration).
    assert 0.65 < ratio < 0.78


def test_portable_size_independent_of_source_wordsize_for_arrays():
    arr = {"a": np.zeros(1000, dtype=np.float64)}
    assert abs(portable_nbytes(arr, LINUX_X86)
               - portable_nbytes(arr, ALPHA)) < 64


def test_unboxed_ints_cost_word_bytes():
    small = list(range(100))
    # Subtract the per-arch header (arch/os names differ in length).
    n32 = portable_nbytes(small, LINUX_X86) - portable_nbytes([], LINUX_X86)
    n64 = portable_nbytes(small, ALPHA) - portable_nbytes([], ALPHA)
    # 64-bit words double the per-int storage (tag byte excluded).
    assert n64 - n32 == 100 * 4


def test_native_layout_grows_with_nesting():
    flat = [1.0] * 100
    nested = [[1.0]] * 100
    assert (native_heap_nbytes(nested, LINUX_X86)
            > native_heap_nbytes(flat, LINUX_X86))


@pytest.mark.parametrize("dtype", ["<f8", ">f8", "<c16", ">c16", "?", "u1",
                                   "<i4", ">i8", "<f4"])
@pytest.mark.parametrize("arch", [LINUX_X86, SUN, ALPHA],
                         ids=lambda a: f"{a.endianness}{a.word_bits}")
def test_an_array_is_joined_from_its_buffer_byte_for_byte(arch, dtype,
                                                          monkeypatch):
    # The encoder appends the (contiguous, target-order) array and lets
    # bytes.join read its buffer; the image must equal what a tobytes()
    # copy gave, for every dtype and byte order, and for a strided view.
    from repro.hetero import representation as rep
    full = (np.arange(60) % 7).astype(dtype).reshape(6, 10)
    values = [full, full[::2, 1::3]]           # contiguous, and a slice
    assert not values[1].flags.c_contiguous
    blobs = [encode(v, arch) for v in values]

    def copied(self, a):                        # the tobytes() reference
        dt = a.dtype.newbyteorder("=")
        self.u8(rep.T_NDARRAY)
        self.u8(rep._DTYPE_CODES[np.dtype(dt)])
        self.u8(a.ndim)
        for dim in a.shape:
            self.u32(dim)
        native = a.astype(dt.newbyteorder(self.bo), copy=False)
        self.raw(np.ascontiguousarray(native).tobytes())

    monkeypatch.setattr(rep._Encoder, "_ndarray", copied)
    assert blobs == [encode(v, arch) for v in values]
    for v, blob in zip(values, blobs):
        out = decode(blob, ALPHA).value
        assert np.array_equal(out, v)
        assert out.dtype == v.dtype.newbyteorder("=")
