"""Bloom filter used to guard SSTable point lookups.

A standard k-hash bloom filter over a fixed bit array.  Hashes are derived
from two independent 64-bit hashes combined linearly (Kirsch-Mitzenmacher),
which is the construction RocksDB uses.  The filter guarantees no false
negatives; the false-positive rate follows the usual ``(1 - e^{-kn/m})^k``
formula and is sized from a target rate at construction.
"""

from __future__ import annotations

import hashlib
import math
import struct
from collections import deque
from itertools import repeat

import numpy as np

from repro.errors import StorageError


_HEADER = struct.Struct("<QQIQ")  # capacity, num_bits, num_hashes, count
_HALVES = struct.Struct("<QQ")
_BYTES = frozenset((bytes,))
_HASHERS = {size: hashlib.blake2b(digest_size=size) for size in (8, 16)}


def blake2b_digests(keys: list[bytes], digest_size: int) -> bytes:
    """The keys' ``blake2b(key, digest_size=...)`` digests, joined: copies
    of one initialised hasher, fed and read by C-level maps."""
    hashers = list(map(hashlib.blake2b.copy,
                       repeat(_HASHERS[digest_size], len(keys))))
    deque(map(hashlib.blake2b.update, hashers, keys), maxlen=0)
    return b"".join(map(hashlib.blake2b.digest, hashers))


def key_digest(key: bytes) -> tuple[int, int]:
    """A key's 16-byte digest as its little-endian halves ``(h1, h2)``."""
    return _HALVES.unpack(hashlib.blake2b(key, digest_size=16).digest())


class BloomFilter:
    """Fixed-size bloom filter with configurable target false-positive rate."""

    def __init__(self, capacity: int, fp_rate: float = 0.01) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if not 0.0 < fp_rate < 1.0:
            raise ValueError("fp_rate must be in (0, 1)")
        self.capacity = capacity
        self.fp_rate = fp_rate
        # Optimal sizing: m = -n ln(p) / (ln 2)^2, k = m/n ln 2.
        self.num_bits = max(
            8, int(-capacity * math.log(fp_rate) / (math.log(2) ** 2)))
        self.num_hashes = max(1, round(self.num_bits / capacity * math.log(2)))
        self._bits = np.zeros(self.num_bits, dtype=bool)
        self._count = 0

    def _positions(self, keys: list) -> np.ndarray:
        """The ``(len(keys), num_hashes)`` bit positions of ``bytes`` keys.

        One 16-byte digest per key, read as two little-endian ``uint64``
        halves ``h1, h2``; position ``i`` is ``(h1 + i * h2) % num_bits``
        in wrapping ``uint64`` arithmetic.  The block form computes each
        row with exactly the operations a single key would, so a filter
        filled in one call holds the bits of one filled key by key.
        """
        halves = np.frombuffer(blake2b_digests(keys, 16),
                               dtype="<u8").reshape(-1, 2)
        idx = np.arange(self.num_hashes, dtype=np.uint64) * halves[:, 1:]
        idx += halves[:, :1]
        idx %= np.uint64(self.num_bits)
        return idx.view(np.int64)

    def positions_of(self, digest: tuple[int, int]) -> list[int]:
        """One key's row of :meth:`_positions`, from its :func:`key_digest`."""
        h1, h2 = digest
        return [(h1 + i * h2) % 2**64 % self.num_bits
                for i in range(self.num_hashes)]

    def holds(self, positions: list[int]) -> bool:
        """True when every bit at ``positions`` is set."""
        return all(map(self._bits.data.__getitem__, positions))

    def add_many(self, keys: list) -> None:
        """Insert every key of a list (``str`` is utf-8 encoded), setting
        all their bits in one store."""
        if keys:
            if not _BYTES.issuperset(map(type, keys)):
                keys = [key.encode() if isinstance(key, str) else key
                        for key in keys]
            self._bits[self._positions(keys)] = True
            self._count += len(keys)

    def add(self, key: bytes | str) -> None:
        """Insert a key."""
        self.add_many([key])

    def might_contain(self, key: bytes | str) -> bool:
        """True if the key *may* be present; False means definitely absent."""
        return self.holds(self.positions_of(key_digest(
            key.encode() if isinstance(key, str) else key)))

    def __contains__(self, key: bytes | str) -> bool:
        return self.might_contain(key)

    def __len__(self) -> int:
        """Number of keys added (not the number of distinct keys)."""
        return self._count

    def to_bytes(self) -> bytes:
        """Serialize for embedding inside an SSTable footer."""
        return (_HEADER.pack(self.capacity, self.num_bits, self.num_hashes,
                             self._count)
                + np.packbits(self._bits).tobytes())

    @staticmethod
    def from_bytes(raw: bytes) -> "BloomFilter":
        """Inverse of :meth:`to_bytes`; a short or inconsistent blob is a
        :class:`StorageError`."""
        try:
            capacity, num_bits, num_hashes, count = _HEADER.unpack_from(raw)
            if not 0 < num_bits <= 8 * (len(raw) - _HEADER.size):
                raise struct.error(f"{num_bits} bits declared")
        except struct.error as exc:
            raise StorageError(
                f"bloom filter blob truncated at offset "
                f"{min(len(raw), _HEADER.size)} of {len(raw)}: {exc}") from None
        bloom = BloomFilter.__new__(BloomFilter)
        bloom.capacity = capacity
        bloom.fp_rate = 0.0  # unknown after round-trip; sizing already fixed
        bloom.num_bits = num_bits
        bloom.num_hashes = num_hashes
        bits = np.unpackbits(np.frombuffer(raw[_HEADER.size:], dtype=np.uint8))
        bloom._bits = bits[:num_bits].astype(bool)
        bloom._count = count
        return bloom
