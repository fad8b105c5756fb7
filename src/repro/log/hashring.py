"""Consistent-hash ring placing shards on loggers (Section 3.3, Figure 4).

"The loggers are organized in a hash ring, and each logger handles one or
more logical buckets in the hash ring based on consistent hashing."

Each node is mapped to many virtual points on a 64-bit ring; a key belongs
to the first node point clockwise from the key's hash.  Adding or removing a
node only moves the keys adjacent to its points — the property that lets
Manu scale loggers without rehashing every shard.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from operator import itemgetter
from typing import Iterable


def _hash64(data: str) -> int:
    digest = hashlib.blake2b(data.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


class HashRing:
    """Consistent-hash ring with virtual nodes."""

    def __init__(self, nodes: Iterable[str] = (),
                 vnodes_per_node: int = 64) -> None:
        if vnodes_per_node <= 0:
            raise ValueError("vnodes_per_node must be positive")
        self.vnodes_per_node = vnodes_per_node
        self._points: list[tuple[int, str]] = []
        self._nodes: set[str] = set()
        self._weights: dict[str, float] = {}
        for node in nodes:
            self.add_node(node)

    def __len__(self) -> int:
        return len(self._nodes)

    @property
    def nodes(self) -> set[str]:
        return set(self._nodes)

    def add_node(self, node: str, weight: float = 1.0) -> None:
        """Place a node's virtual points on the ring (idempotent).

        ``weight`` scales the node's virtual-point count: a weight-2 node
        claims ~2x the key space of a weight-1 node.  Re-adding an
        existing node with a different weight re-weights it in place
        (only the keys adjacent to the added/removed points move — the
        consistent-hashing property split-shard placement relies on).
        """
        if weight <= 0:
            raise ValueError("node weight must be positive")
        if node in self._nodes:
            if weight == self._weights[node]:
                return
            self.remove_node(node)
        self._nodes.add(node)
        self._weights[node] = weight
        vnodes = max(1, round(self.vnodes_per_node * weight))
        for replica in range(vnodes):
            self._points.append((_hash64(f"{node}#{replica}"), node))
        self._points.sort()

    def remove_node(self, node: str) -> None:
        """Remove a node and all its virtual points (idempotent)."""
        if node not in self._nodes:
            return
        self._nodes.discard(node)
        self._weights.pop(node, None)
        self._points = [(h, n) for h, n in self._points if n != node]

    def weight(self, node: str) -> float:
        """The node's placement weight (1.0 unless re-weighted)."""
        return self._weights.get(node, 0.0)

    def owner(self, key: str) -> str:
        """The node owning ``key``; raises when the ring is empty."""
        if not self._points:
            raise ValueError("hash ring has no nodes")
        idx = bisect_right(self._points, _hash64(key), key=itemgetter(0))
        if idx == len(self._points):
            idx = 0
        return self._points[idx][1]

    def owners(self, key: str, count: int) -> list[str]:
        """The first ``count`` distinct nodes clockwise from ``key``.

        Used for replication: the primary plus ``count - 1`` successors.
        """
        if not self._points:
            raise ValueError("hash ring has no nodes")
        count = min(count, len(self._nodes))
        idx = bisect_right(self._points, _hash64(key), key=itemgetter(0))
        result: list[str] = []
        seen: set[str] = set()
        for step in range(len(self._points)):
            _, node = self._points[(idx + step) % len(self._points)]
            if node not in seen:
                seen.add(node)
                result.append(node)
                if len(result) == count:
                    break
        return result

    def distribution(self, keys: Iterable[str]) -> dict[str, int]:
        """How many of ``keys`` land on each node (balance diagnostics)."""
        counts = {node: 0 for node in self._nodes}
        for key in keys:
            counts[self.owner(key)] += 1
        return counts
