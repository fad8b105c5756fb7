"""etcd-like metadata store (Section 3.2).

Coordinators keep system status and collection metadata in a transactional
key-value store with:

* monotonically increasing **revisions** — every mutation bumps a global
  revision counter and records it on the key;
* **compare-and-swap** (``put(..., expected_revision=...)``) for coordinator
  leader election and optimistic metadata updates;
* **watches** — callbacks fired on every change under a key prefix, which is
  how coordinators learn about metadata updates ("when metadata is updated,
  the updated data is first written to etcd, and then synchronized to
  coordinators");
* **leases** — keys bound to a lease vanish when the lease expires, used for
  worker-node liveness tracking.

Values are arbitrary JSON-serializable objects; the store keeps them as
deep-copied snapshots so callers cannot mutate stored state in place.
"""

from __future__ import annotations

import copy
import itertools
from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.errors import RevisionConflict


@dataclass(frozen=True)
class KeyValue:
    """A key's current value and bookkeeping revisions."""

    key: str
    value: Any
    create_revision: int
    mod_revision: int
    lease_id: Optional[int] = None


@dataclass(frozen=True)
class WatchEvent:
    """Delivered to watchers on every mutation under their prefix."""

    type: str  # 'put' | 'delete'
    key: str
    value: Any
    revision: int


class _Watch:
    __slots__ = ("prefix", "callback", "cancelled")

    def __init__(self, prefix: str,
                 callback: Callable[[WatchEvent], None]) -> None:
        self.prefix = prefix
        self.callback = callback
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class MetaStore:
    """In-process etcd-like MVCC store with watches and leases.

    Lease expiry is driven by ``expire_leases(now_ms)``, called by the
    cluster's event loop; outside a simulation leases simply never expire
    unless the caller drives expiry.
    """

    def __init__(self) -> None:
        self._data: dict[str, KeyValue] = {}
        #: The keys of ``_data``, sorted: a prefix read bisects to its
        #: first key instead of sorting the keyspace.
        self._keys: list[str] = []
        self._revision = 0
        self._watches: list[_Watch] = []
        self._lease_seq = itertools.count(1)
        self._leases: dict[int, float] = {}  # lease id -> deadline ms
        self._lease_keys: dict[int, set[str]] = {}

    # ------------------------------------------------------------------
    # basic KV
    # ------------------------------------------------------------------

    @property
    def revision(self) -> int:
        """Current global revision (increments on every mutation)."""
        return self._revision

    def put(self, key: str, value: Any,
            expected_revision: Optional[int] = None,
            lease_id: Optional[int] = None) -> int:
        """Store ``value`` under ``key``; returns the new mod revision.

        With ``expected_revision`` the put succeeds only if the key's current
        mod revision matches (0 meaning "key must not exist"); otherwise
        :class:`RevisionConflict` is raised — this is the CAS primitive
        behind leader election.
        """
        current = self._data.get(key)
        if expected_revision is not None:
            actual = current.mod_revision if current is not None else 0
            if actual != expected_revision:
                raise RevisionConflict(
                    f"key {key!r}: expected revision {expected_revision}, "
                    f"found {actual}")
        if lease_id is not None and lease_id not in self._leases:
            raise RevisionConflict(f"lease {lease_id} does not exist")
        self._revision += 1
        create_rev = (current.create_revision if current is not None
                      else self._revision)
        stored = KeyValue(key, copy.deepcopy(value), create_rev,
                          self._revision, lease_id)
        if current is None:
            insort(self._keys, key)
        elif current.lease_id is not None and current.lease_id != lease_id:
            # Put under another lease, or none: the old lease no longer
            # holds the key (etcd's rule), so its expiry leaves it.
            self._lease_keys.get(current.lease_id, set()).discard(key)
        self._data[key] = stored
        if lease_id is not None:
            self._lease_keys.setdefault(lease_id, set()).add(key)
        self._notify(WatchEvent("put", key, copy.deepcopy(value),
                                self._revision))
        return self._revision

    def get(self, key: str) -> Optional[KeyValue]:
        """Current value of ``key`` (or None); the value is a private copy."""
        current = self._data.get(key)
        if current is None:
            return None
        return KeyValue(current.key, copy.deepcopy(current.value),
                        current.create_revision, current.mod_revision,
                        current.lease_id)

    def get_value(self, key: str, default: Any = None) -> Any:
        """Convenience: the value of ``key`` or ``default``."""
        current = self.get(key)
        return current.value if current is not None else default

    def delete(self, key: str) -> bool:
        """Remove ``key``; returns whether it existed."""
        current = self._data.pop(key, None)
        if current is None:
            return False
        del self._keys[bisect_left(self._keys, key)]
        self._revision += 1
        if current.lease_id is not None:
            self._lease_keys.get(current.lease_id, set()).discard(key)
        self._notify(WatchEvent("delete", key, None, self._revision))
        return True

    def _under(self, prefix: str) -> list[str]:
        """The keys under a prefix, sorted: the run of the sorted keys from
        the prefix up to the first string past every key it begins."""
        keys = self._keys
        if not prefix:
            return keys[:]
        past = prefix[:-1] + chr(ord(prefix[-1]) + 1)
        return keys[bisect_left(keys, prefix):bisect_left(keys, past)]

    def range(self, prefix: str) -> list[KeyValue]:
        """All key-values under a prefix, sorted by key."""
        return [self.get(k) for k in self._under(prefix)]

    def keys(self, prefix: str = "") -> list[str]:
        return self._under(prefix)

    def exists(self, key: str) -> bool:
        """Whether ``key`` is set — a predicate, so nothing is copied."""
        return key in self._data

    def field_values(self, prefix: str, field: str) -> list[tuple[str, Any]]:
        """``(key, value[field])`` for every record under a prefix, sorted
        by key (None where a record has no such field).  Copies the one
        field, not the records: what a readiness poll over a catalogue of
        segment records needs."""
        return [(k, copy.deepcopy(self._data[k].value.get(field)))
                for k in self._under(prefix)]

    # ------------------------------------------------------------------
    # watches
    # ------------------------------------------------------------------

    def watch(self, prefix: str,
              callback: Callable[[WatchEvent], None]) -> _Watch:
        """Register a callback for mutations under ``prefix``.

        Returns a handle whose ``cancel()`` stops delivery.  Callbacks run
        synchronously inside the mutating call, mirroring the way our
        single-threaded cluster consumes etcd watch streams.
        """
        handle = _Watch(prefix, callback)
        self._watches.append(handle)
        return handle

    def _notify(self, event: WatchEvent) -> None:
        self._watches = [w for w in self._watches if not w.cancelled]
        for watch in list(self._watches):
            if not watch.cancelled and event.key.startswith(watch.prefix):
                watch.callback(event)

    # ------------------------------------------------------------------
    # leases
    # ------------------------------------------------------------------

    def grant_lease(self, ttl_ms: float, now_ms: float) -> int:
        """Create a lease expiring at ``now_ms + ttl_ms``; returns its id."""
        lease_id = next(self._lease_seq)
        self._leases[lease_id] = now_ms + ttl_ms
        self._lease_keys[lease_id] = set()
        return lease_id

    def keep_alive(self, lease_id: int, ttl_ms: float, now_ms: float) -> None:
        """Refresh a lease's deadline (worker heartbeat)."""
        if lease_id not in self._leases:
            raise RevisionConflict(f"lease {lease_id} does not exist")
        self._leases[lease_id] = now_ms + ttl_ms

    def revoke_lease(self, lease_id: int) -> None:
        """Drop a lease and delete every key bound to it."""
        self._leases.pop(lease_id, None)
        for key in sorted(self._lease_keys.pop(lease_id, set())):
            self.delete(key)

    def expire_leases(self, now_ms: float) -> list[int]:
        """Expire all leases past their deadline; returns the expired ids."""
        expired = [lid for lid, deadline in self._leases.items()
                   if deadline <= now_ms]
        for lease_id in expired:
            self.revoke_lease(lease_id)
        return expired
