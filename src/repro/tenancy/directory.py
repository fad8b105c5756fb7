"""Tenant directory map: logger overrides and fence epochs.

The consistent-hash ring gives every WAL shard a *default* logger
placement; the directory layers explicit overrides on top (installed by
the rebalancer when it moves a hot bucket off an overloaded logger).  It
also owns the per-shard **fence epoch** — the monotone counter the
migration protocol bumps before ownership moves, so a stale owner can
recognize and reject post-fence writes.  Which query node serves a
channel is not recorded here: the query coordinator is the one record
of serving placement.

Everything here serializes to a plain dict; the cluster persists it to
the object store alongside the tenant registry so overrides and fences
survive crash-recovery (a recovering cluster must not un-fence a shard
that was mid-migration when it died).
"""

from __future__ import annotations

from typing import Optional


class TenantDirectory:
    """tenant → collection/shard placement, layered over the hash ring."""

    def __init__(self) -> None:
        #: physical collection -> shard count (placement record).
        self._collections: dict[str, int] = {}
        #: ring bucket key ("<collection>/shard-<n>") -> logger override.
        self._bucket_overrides: dict[str, str] = {}
        #: (collection, shard) -> fence epoch; missing means epoch 0.
        self._fences: dict[tuple[str, int], int] = {}

    # ------------------------------------------------------------------
    # collection placement
    # ------------------------------------------------------------------

    def place_collection(self, collection: str, num_shards: int) -> None:
        self._collections[collection] = num_shards

    def drop_collection(self, collection: str) -> None:
        self._collections.pop(collection, None)
        prefix = f"{collection}/shard-"
        for key in [k for k in self._bucket_overrides
                    if k.startswith(prefix)]:
            del self._bucket_overrides[key]
        for key in [k for k in self._fences if k[0] == collection]:
            del self._fences[key]

    def num_shards(self, collection: str) -> int:
        return self._collections.get(collection, 0)

    @property
    def collections(self) -> list[str]:
        return sorted(self._collections)

    # ------------------------------------------------------------------
    # logger-side bucket overrides (consulted before the ring)
    # ------------------------------------------------------------------

    def bucket_override(self, bucket_key: str) -> Optional[str]:
        """Explicit logger placement for a shard bucket, if any."""
        return self._bucket_overrides.get(bucket_key)

    def set_bucket_override(self, bucket_key: str, logger: str) -> None:
        self._bucket_overrides[bucket_key] = logger

    def clear_overrides_for(self, logger: str) -> list[str]:
        """Drop every override pointing at ``logger`` (it left the
        ring); returns the affected bucket keys so callers can re-place
        them."""
        stale = [k for k, v in self._bucket_overrides.items()
                 if v == logger]
        for key in stale:
            del self._bucket_overrides[key]
        return stale

    @property
    def bucket_overrides(self) -> dict[str, str]:
        return dict(self._bucket_overrides)

    # ------------------------------------------------------------------
    # fence epochs
    # ------------------------------------------------------------------

    def fence_epoch(self, collection: str, shard: int) -> int:
        return self._fences.get((collection, shard), 0)

    def bump_fence(self, collection: str, shard: int) -> int:
        """Advance the shard's epoch; returns the new value.

        Must happen *before* ownership moves: any writer still holding
        the old epoch is thereby fenced.
        """
        epoch = self._fences.get((collection, shard), 0) + 1
        self._fences[(collection, shard)] = epoch
        return epoch

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "collections": dict(self._collections),
            "bucket_overrides": dict(self._bucket_overrides),
            "fences": [{"collection": c, "shard": s, "epoch": e}
                       for (c, s), e in sorted(self._fences.items())],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TenantDirectory":
        directory = cls()
        directory._collections = dict(data.get("collections", {}))
        directory._bucket_overrides = dict(
            data.get("bucket_overrides", {}))
        for entry in data.get("fences", ()):
            directory._fences[(entry["collection"], entry["shard"])] = \
                entry["epoch"]
        return directory
