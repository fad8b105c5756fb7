"""Log-structured merge tree for the logger's entity->segment map.

Section 3.3: "The logger also writes the mapping of the new entity ID to
segment ID into a local LSM tree and periodically flushes the incremental
part of the LSM tree to object storage, which keeps the entity to segment
mapping using the SSTable format of RocksDB."

This module implements that structure from scratch:

* a sorted in-memory **memtable** absorbing writes;
* immutable **SSTables** — sorted key/value runs with a bloom filter and a
  sparse index, serialized into single object-store blobs;
* point lookups that consult the memtable then SSTables newest-first,
  skipping tables whose bloom filter rules the key out;
* deletes via **tombstones**;
* size-triggered **flush** and leveled **compaction** merging all tables
  into one (sufficient for the logger's workload, which is append-heavy
  with point lookups).

Keys and values are ``bytes``; the logger stores utf-8 entity ids mapping to
utf-8 segment ids.
"""

from __future__ import annotations

import itertools
import operator
import struct
from bisect import bisect_right
from typing import Iterator, Optional

from repro.errors import StorageError
from repro.storage.bloom import _BYTES, BloomFilter, key_digest
from repro.storage.object_store import ObjectStore

_TOMBSTONE = b"\x00__tombstone__"
_MAGIC = b"SSTB"
_COUNT = struct.Struct("<I")
_ENTRY = struct.Struct("<II")


def _encode(items) -> list[bytes]:
    """Keys or values as ``bytes`` (``str`` utf-8 encoded); neither str
    nor bytes-like is a :class:`TypeError`."""
    items = list(items)
    if _BYTES.issuperset(map(type, items)):
        return items
    return [_encode_one(item) for item in items]


def _encode_one(item) -> bytes:
    if isinstance(item, str):
        return item.encode()
    if isinstance(item, (bytes, bytearray, memoryview)):
        return bytes(item)
    raise TypeError(f"LSM keys and values are str or bytes, not "
                    f"{type(item).__name__}")


class SSTable:
    """An immutable sorted run of key/value pairs with a bloom filter."""

    def __init__(self, entries: list[tuple[bytes, bytes]]) -> None:
        self._keys = list(map(operator.itemgetter(0), entries))
        self._values = list(map(operator.itemgetter(1), entries))
        if not all(map(operator.lt, self._keys, self._keys[1:])):
            raise ValueError("SSTable entries must be strictly sorted")
        self.bloom = BloomFilter(max(1, len(entries)))
        self.bloom.add_many(self._keys)

    def __len__(self) -> int:
        return len(self._keys)

    @property
    def min_key(self) -> Optional[bytes]:
        return self._keys[0] if self._keys else None

    @property
    def max_key(self) -> Optional[bytes]:
        return self._keys[-1] if self._keys else None

    def get(self, key: bytes) -> Optional[bytes]:
        """Point lookup; returns the raw value (possibly a tombstone)."""
        if not self.bloom.might_contain(key):
            return None
        return self._find(key)

    def _find(self, key: bytes) -> Optional[bytes]:
        """The stored value of ``key``, past the bloom filter."""
        idx = bisect_right(self._keys, key) - 1
        if idx >= 0 and self._keys[idx] == key:
            return self._values[idx]
        return None

    def items(self) -> Iterator[tuple[bytes, bytes]]:
        return zip(self._keys, self._values)

    # ------------------------------------------------------------------
    # serialization: MAGIC | n | (klen vlen key value)* | bloomlen bloom
    # ------------------------------------------------------------------

    def to_bytes(self) -> bytes:
        heads = map(_ENTRY.pack, map(len, self._keys),
                    map(len, self._values))
        bloom = self.bloom.to_bytes()
        return b"".join([
            _MAGIC, _COUNT.pack(len(self._keys)),
            *itertools.chain.from_iterable(
                zip(heads, self._keys, self._values)),
            _COUNT.pack(len(bloom)), bloom])

    @staticmethod
    def from_bytes(raw: bytes) -> "SSTable":
        """Inverse of :meth:`to_bytes`; a blob that is not one — wrong
        magic, cut short, lengths running past its end — is a
        :class:`StorageError` naming the offset."""
        if raw[:4] != _MAGIC:
            raise StorageError("not an SSTable blob (bad magic at offset 0)")
        table = SSTable.__new__(SSTable)
        table._keys, table._values = [], []
        offset = 4
        try:
            (count,) = _COUNT.unpack_from(raw, offset)
            offset = 8
            for _ in range(count):
                klen, vlen = _ENTRY.unpack_from(raw, offset)
                value_at = offset + 8 + klen
                if value_at + vlen > len(raw):
                    raise struct.error(f"entry of {klen}+{vlen} bytes")
                table._keys.append(raw[offset + 8:value_at])
                table._values.append(raw[value_at:value_at + vlen])
                offset = value_at + vlen
            (bloom_len,) = _COUNT.unpack_from(raw, offset)
            if offset + 4 + bloom_len > len(raw):
                raise struct.error(f"bloom filter of {bloom_len} bytes")
        except struct.error as exc:
            raise StorageError(f"SSTable blob truncated at offset {offset} "
                               f"of {len(raw)}: {exc}") from None
        table.bloom = BloomFilter.from_bytes(
            raw[offset + 4:offset + 4 + bloom_len])
        return table


class LsmTree:
    """Memtable + SSTable LSM tree with optional object-store persistence.

    When constructed with an :class:`ObjectStore` and a key prefix, flushed
    SSTables are also written to the store (the logger's "flush the
    incremental part to object storage"), and :meth:`recover` rebuilds the
    tree from those blobs after a logger failure.
    """

    def __init__(self, memtable_limit: int = 1024,
                 store: Optional[ObjectStore] = None,
                 store_prefix: str = "lsm") -> None:
        if memtable_limit <= 0:
            raise ValueError("memtable_limit must be positive")
        self.memtable_limit = memtable_limit
        self._memtable: dict[bytes, bytes] = {}
        self._tables: list[SSTable] = []  # newest last
        self._store = store
        self._store_prefix = store_prefix.rstrip("/")
        self._flush_seq = itertools.count()

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------

    def put(self, key: bytes | str, value: bytes | str) -> None:
        """Insert or overwrite a key."""
        self.put_many([(key, value)])

    def delete(self, key: bytes | str) -> None:
        """Delete a key (writes a tombstone)."""
        self.delete_many([key])

    def put_many(self, items) -> None:
        """Insert or overwrite many (key, value) pairs — all of them, or
        none when one is refused — with a single memtable-limit check at
        the end; a dict of bytes (the logger's flush overlay) as it is."""
        if not (type(items) is dict and _BYTES.issuperset(map(type, items))
                and _BYTES.issuperset(map(type, items.values()))):
            items = list(items.items() if isinstance(items, dict) else items)
            keys = _encode([key for key, _ in items])
            items = dict(zip(keys, _encode([value for _, value in items])))
        if _TOMBSTONE in items.values():
            raise ValueError("value collides with the tombstone marker")
        self._apply(items)

    def delete_many(self, keys) -> None:
        """Write tombstones for many keys with a single memtable-limit
        check at the end."""
        self._apply(dict.fromkeys(_encode(keys), _TOMBSTONE))

    def _apply(self, items: dict[bytes, bytes]) -> None:
        self._memtable.update(items)
        if len(self._memtable) >= self.memtable_limit:
            self.flush()

    def flush(self) -> Optional[SSTable]:
        """Write the memtable out as a new SSTable; returns it (or None)."""
        if not self._memtable:
            return None
        table = SSTable(sorted(self._memtable.items()))
        self._tables.append(table)
        self._memtable = {}
        if self._store is not None:
            seq = next(self._flush_seq)
            self._store.put(f"{self._store_prefix}/{seq:08d}.sst",
                            table.to_bytes())
        return table

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------

    def get(self, key: bytes | str) -> Optional[bytes]:
        """Point lookup honoring tombstones; None when absent.  The key
        is hashed once; tables of one size share its bloom positions."""
        key = _encode_one(key)
        value = self._memtable.get(key)
        if value is None and self._tables:
            digest = key_digest(key)
            positions: dict[tuple[int, int], list[int]] = {}
            for table in reversed(self._tables):
                bloom = table.bloom
                shape = (bloom.num_bits, bloom.num_hashes)
                if shape not in positions:
                    positions[shape] = bloom.positions_of(digest)
                if bloom.holds(positions[shape]):
                    value = table._find(key)
                    if value is not None:
                        break
        return None if value == _TOMBSTONE else value

    def __contains__(self, key: bytes | str) -> bool:
        return self.get(key) is not None

    def items(self) -> Iterator[tuple[bytes, bytes]]:
        """Merged view of all live key/value pairs, sorted by key."""
        merged: dict[bytes, bytes] = {}
        for table in self._tables:
            merged.update(table.items())
        merged.update(self._memtable)
        for key in sorted(merged):
            if merged[key] != _TOMBSTONE:
                yield key, merged[key]

    def __len__(self) -> int:
        return sum(1 for _ in self.items())

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------

    @property
    def num_tables(self) -> int:
        return len(self._tables)

    def compact(self) -> None:
        """Merge every SSTable (dropping tombstones) into a single run.

        The memtable is flushed first so the result reflects all writes; the
        object store keeps only the compacted blob afterwards.
        """
        self.flush()
        live = list(self.items())
        self._tables = [SSTable(live)] if live else []
        if self._store is not None:
            for key in self._store.list(self._store_prefix + "/"):
                self._store.delete(key)
            if self._tables:
                seq = next(self._flush_seq)
                self._store.put(f"{self._store_prefix}/{seq:08d}.sst",
                                self._tables[0].to_bytes())

    def recover(self) -> None:
        """Rebuild the table list from object-store blobs (crash recovery);
        the next flush is numbered after the newest blob found."""
        if self._store is None:
            raise ValueError("recover() needs an object store")
        self._tables = []
        self._memtable = {}
        keys = self._store.list(self._store_prefix + "/")
        for key in keys:
            self._tables.append(SSTable.from_bytes(self._store.get(key)))
        if keys:
            newest = keys[-1].rsplit("/", 1)[1].removesuffix(".sst")
            self._flush_seq = itertools.count(int(newest) + 1)
