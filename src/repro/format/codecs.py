"""Self-describing column-segment codecs for format v4 (see FORMAT.md).

Format v4 stores each chunk's payload as per-attribute column segments, and
every segment is passed through exactly one *codec* before it hits storage.
A codec is a reversible byte transform; the codec *name* is recorded in the
manifest checksum entry and the recovery trailer, so a reader (or the repair
subsystem working from a trailer alone) can always decode a segment without
out-of-band knowledge — the scda-style serial-equivalence principle the v3
trailers already follow.

The registry is deliberately tiny and append-only:

========================  =====================================================
name                      transform
========================  =====================================================
``none``                  identity (bytes stored verbatim)
``shuffle-zlib``          byte shuffle (stride = attribute itemsize), then zlib
``shuffle-lz4``           byte shuffle, then LZ4 block compression (only
                          registered when the optional ``lz4`` package is
                          importable; never a hard dependency)
========================  =====================================================

Byte shuffle transposes an ``(n, itemsize)`` view of the raw column so all
first bytes of every value land together, then all second bytes, and so on.
For smooth simulation attributes the high-order exponent/sign bytes are
near-constant, which turns an incompressible float stream into long runs a
generic entropy coder handles well — the classic HDF5/Blosc trick.

Decoding is defensive: the encoded bytes come straight from storage, so any
structural problem (bad stream, wrong decoded length) raises
:class:`~repro.errors.DataFileError` rather than an arbitrary library error.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.errors import ConfigError, DataFileError

__all__ = [
    "Codec",
    "available_codecs",
    "byte_shuffle",
    "byte_unshuffle",
    "get_codec",
]

try:  # pragma: no cover - exercised only where lz4 is installed
    import lz4.block as _lz4_block
except ImportError:  # pragma: no cover
    _lz4_block = None


def _check_whole_values(nbytes: int, itemsize: int, verb: str) -> None:
    if itemsize <= 0:
        raise ValueError(f"itemsize must be positive, got {itemsize}")
    if nbytes % itemsize:
        raise DataFileError(
            f"cannot {verb} {nbytes} bytes with itemsize {itemsize}"
        )


def byte_shuffle(raw: bytes, itemsize: int) -> bytes:
    """Transpose ``raw`` from value-major to byte-plane-major order.

    ``raw`` must be a whole number of ``itemsize``-byte values.  With
    ``itemsize == 1`` (or empty input) the transform is the identity.
    """
    _check_whole_values(len(raw), itemsize, "shuffle")
    if itemsize == 1 or not raw:
        return bytes(raw)
    arr = np.frombuffer(raw, dtype=np.uint8).reshape(-1, itemsize)
    return arr.T.tobytes()


def byte_unshuffle(shuffled: bytes, itemsize: int) -> bytes:
    """Invert :func:`byte_shuffle`."""
    _check_whole_values(len(shuffled), itemsize, "unshuffle")
    if itemsize == 1 or not shuffled:
        return bytes(shuffled)
    arr = np.frombuffer(shuffled, dtype=np.uint8).reshape(itemsize, -1)
    return arr.T.tobytes()


class Codec:
    """One named, reversible segment transform.

    ``encode`` maps raw column bytes to stored bytes; ``decode`` inverts it.
    ``itemsize`` is the attribute's scalar width (the shuffle stride) and
    ``raw_len`` the expected decoded length — both come from the particle
    dtype and the chunk geometry, so they are never stored per segment.

    Reads decode whole chunk runs, in two steps that together equal
    ``decode`` on each segment: :meth:`inflate` undoes the entropy stage
    of *one* segment (the step that can fail per segment, so a degraded
    read knows which chunk to drop), then :meth:`decode_run` undoes the
    shuffle of *many* equal-length inflated segments in one pass.
    """

    name: str = "none"

    def encode(self, raw: bytes, itemsize: int) -> bytes:
        return bytes(raw)

    def decode(self, enc: bytes, itemsize: int, raw_len: int) -> bytes:
        out = bytes(enc)
        self._check_len(out, raw_len)
        return out

    def inflate(self, enc, itemsize: int, raw_len: int):
        """One stored segment back to its ``raw_len`` pre-entropy bytes."""
        self._check_len(enc, raw_len)
        return enc

    def decode_run(self, inflated: list, itemsize: int) -> np.ndarray:
        """The raw column bytes of consecutive equal-length segments
        (each from :meth:`inflate`), as one contiguous uint8 array."""
        return np.frombuffer(b"".join(inflated), dtype=np.uint8)

    def _check_len(self, out, raw_len: int) -> None:
        if len(out) != raw_len:
            raise DataFileError(
                f"codec {self.name!r} decoded {len(out)} bytes, "
                f"expected {raw_len}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Codec({self.name!r})"


class _ShuffleZlibCodec(Codec):
    name = "shuffle-zlib"

    def encode(self, raw: bytes, itemsize: int) -> bytes:
        return zlib.compress(byte_shuffle(raw, itemsize), level=6)

    def _decompress(self, enc) -> bytes:
        try:
            return zlib.decompress(enc)
        except zlib.error as exc:
            raise DataFileError(f"zlib segment decode failed: {exc}") from exc

    def decode(self, enc: bytes, itemsize: int, raw_len: int) -> bytes:
        out = byte_unshuffle(self._decompress(enc), itemsize)
        self._check_len(out, raw_len)
        return out

    def inflate(self, enc, itemsize: int, raw_len: int) -> bytes:
        planes = self._decompress(enc)
        if len(planes) != raw_len:
            # Same complaints, in the same order, as ``decode`` makes.
            _check_whole_values(len(planes), itemsize, "unshuffle")
            self._check_len(planes, raw_len)
        return planes

    def decode_run(self, inflated: list, itemsize: int) -> np.ndarray:
        # Each segment is (itemsize, values) byte planes; one transposed
        # copy over the whole run puts every value's bytes back together.
        planes = np.frombuffer(b"".join(inflated), dtype=np.uint8)
        planes = planes.reshape(len(inflated), itemsize, -1)
        return np.ascontiguousarray(planes.transpose(0, 2, 1)).reshape(-1)


class _ShuffleLz4Codec(_ShuffleZlibCodec):  # pragma: no cover - needs optional lz4
    name = "shuffle-lz4"

    def encode(self, raw: bytes, itemsize: int) -> bytes:
        assert _lz4_block is not None
        return _lz4_block.compress(byte_shuffle(raw, itemsize))

    def _decompress(self, enc) -> bytes:
        assert _lz4_block is not None
        try:
            return _lz4_block.decompress(bytes(enc))
        except Exception as exc:
            raise DataFileError(f"lz4 segment decode failed: {exc}") from exc


_REGISTRY: dict[str, Codec] = {"none": Codec(), "shuffle-zlib": _ShuffleZlibCodec()}
if _lz4_block is not None:  # pragma: no cover - needs optional lz4
    _REGISTRY["shuffle-lz4"] = _ShuffleLz4Codec()


def available_codecs() -> tuple[str, ...]:
    """Names of every codec usable in this process, registration order."""
    return tuple(_REGISTRY)


def get_codec(name: str) -> Codec:
    """Look up a codec by its registered name.

    Unknown names raise :class:`~repro.errors.ConfigError`; the error for
    ``shuffle-lz4`` on a host without the optional ``lz4`` package says so
    explicitly, since the file (not the request) may legitimately need it.
    """
    codec = _REGISTRY.get(name)
    if codec is None:
        if name == "shuffle-lz4":
            raise ConfigError(
                "codec 'shuffle-lz4' requires the optional 'lz4' package, "
                "which is not importable on this host"
            )
        raise ConfigError(
            f"unknown codec {name!r}; available: {', '.join(_REGISTRY)}"
        )
    return codec
