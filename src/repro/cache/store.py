"""Byte-accounted cache stores on the simulator clock.

:class:`CacheStore` holds values keyed by
:class:`~repro.cache.keys.FrameFingerprint` with *content-aware* lookup:
a probe hits any entry within the store's Hamming-distance threshold,
not just bit-identical keys.  The store is sized in **bytes**, not
entries — on unified-memory edge devices the cache competes with
preprocessing buffers and the engine for the same physical pool, so a
:class:`~repro.hardware.memory.MemoryPool` can be attached and every
resident entry charges it (the Fig. 8 "combined memory consumption"
constraint extends to the cache).

Eviction is pluggable (:class:`LRUEviction`, :class:`FIFOEviction`),
freshness is bounded by an optional TTL (expired entries count as
*stale* — a miss that also names its cause), and admission is optionally
guarded by a TinyLFU-style :class:`FrequencySketch`: a candidate only
displaces a victim it is provably hotter than, which keeps one-shot
scans (a panning camera) from flushing the working set.

Every hot operation costs about the same at any resident count.
Lookup uses pigeonhole multi-index hashing (Norouzi et al., CVPR
2012): the fingerprint's bits are split into ``match_threshold + 1``
disjoint chunks, one dict per chunk maps a chunk value to the residents
holding it, and only residents sharing a chunk with the probe are
compared.  Victims come off a lazy min-heap of eviction ranks, and the
resident byte total is kept as a running sum.  Results, stats and
``entries()`` order are those of a full scan.

Everything runs on a caller-supplied ``clock`` (wire it to
``lambda: sim.now``) and is deterministic: the frequency sketch uses
fixed multiplicative hashing, never wall time or Python's randomized
string hashing.
"""

from __future__ import annotations

import abc
import dataclasses
import heapq
import itertools
from collections.abc import Callable

from repro.cache.keys import FrameFingerprint

#: Fixed odd multipliers for the sketch's row hashes (splitmix-style).
_SKETCH_SEEDS = (0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F,
                 0x165667B19E3779F9, 0x27D4EB2F165667C5)


class FrequencySketch:
    """TinyLFU's approximate frequency counter (count-min with aging).

    ``depth`` independent rows of ``width`` 4-bit-style counters (we
    cap at 15 like the paper's implementation); :meth:`increment` on
    every cache reference, :meth:`estimate` answers "how hot is this
    key".  After ``sample_size`` increments every counter is halved —
    the aging step that lets the sketch track a *moving* working set.
    """

    _COUNTER_CAP = 15

    def __init__(self, width: int = 1024, depth: int = 4,
                 sample_size: int = 10_000):
        if width < 16 or width & (width - 1):
            raise ValueError("width must be a power of two >= 16")
        if not 1 <= depth <= len(_SKETCH_SEEDS):
            raise ValueError(
                f"depth must be in 1..{len(_SKETCH_SEEDS)}")
        if sample_size < 1:
            raise ValueError("sample_size must be >= 1")
        self.width = width
        self.depth = depth
        self.sample_size = sample_size
        self._rows = [[0] * width for _ in range(depth)]
        self._increments = 0

    def _indices(self, key: int) -> list[int]:
        mask = self.width - 1
        return [((key * _SKETCH_SEEDS[row] + row) >> 17) & mask
                for row in range(self.depth)]

    def increment(self, key: int) -> None:
        """Record one reference to ``key`` (ages the sketch as needed)."""
        for row, index in zip(self._rows, self._indices(key)):
            if row[index] < self._COUNTER_CAP:
                row[index] += 1
        self._increments += 1
        if self._increments >= self.sample_size:
            self._age()

    def estimate(self, key: int) -> int:
        """Approximate reference count of ``key`` (never underestimates
        by more than the aging halvings; may overestimate on collisions)."""
        return min(row[index]
                   for row, index in zip(self._rows, self._indices(key)))

    def _age(self) -> None:
        for row in self._rows:
            for i, value in enumerate(row):
                row[i] = value >> 1
        self._increments //= 2


@dataclasses.dataclass
class CacheEntry:
    """One resident value: fingerprint key, payload, byte cost, ages."""

    fingerprint: FrameFingerprint
    value: object
    size_bytes: float
    inserted_at: float
    last_access_at: float
    #: Monotone insertion sequence — the deterministic LRU/FIFO tie-break.
    sequence: int
    hits: int = 0
    #: Live reservation when the store charges a memory pool.
    allocation: object | None = None


class EvictionPolicy(abc.ABC):
    """Orders resident entries for eviction.

    The store evicts the resident with the smallest :meth:`rank`, i.e.
    always ``min(entries, key=policy.rank)`` with insertion order
    breaking equal ranks.  The store keeps ranks in a heap and pushes a
    fresh one on every insert and hit, so ``rank`` must depend only on
    the entry's own fields.
    """

    name = "abstract"

    @abc.abstractmethod
    def rank(self, entry: CacheEntry) -> tuple:
        """Eviction order key of one entry (smallest is evicted first)."""


class LRUEviction(EvictionPolicy):
    """Evict the least recently *used* entry (access-ordered)."""

    name = "lru"

    def rank(self, entry: CacheEntry) -> tuple:
        """Oldest ``last_access_at`` first; insertion order breaks ties."""
        return (entry.last_access_at, entry.sequence)


class FIFOEviction(EvictionPolicy):
    """Evict the oldest *inserted* entry regardless of access."""

    name = "fifo"

    def rank(self, entry: CacheEntry) -> tuple:
        """Lowest insertion sequence first."""
        return (entry.sequence,)


@dataclasses.dataclass
class CacheStats:
    """Monotone counters describing a store's lifetime behaviour."""

    hits: int = 0
    misses: int = 0
    #: Lookups that found a match past its TTL (also counted as misses).
    stale: int = 0
    insertions: int = 0
    evictions: int = 0
    #: Insertions refused by the TinyLFU admission filter.
    admission_rejects: int = 0
    #: Insertions refused because the value exceeds the whole capacity.
    uncacheable: int = 0

    @property
    def lookups(self) -> int:
        """Total probes (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        """Hits over lookups (0.0 before any probe)."""
        return self.hits / self.lookups if self.lookups else 0.0


class CacheStore:
    """A byte-bounded, content-aware store on the simulator clock.

    Parameters
    ----------
    capacity_bytes:
        Total payload budget; inserts evict until the candidate fits.
    clock:
        Virtual-time source (``lambda: sim.now``).
    match_threshold:
        Hamming budget for content-aware lookup (0 = exact fingerprints
        only, a plain dict lookup).  A budget at or past the
        fingerprint's bit width compares every resident.
    eviction:
        An :class:`EvictionPolicy`; defaults to LRU.
    ttl_seconds:
        Result freshness bound; a matching entry older than this counts
        as *stale*, is dropped, and the lookup misses (field results
        must be revalidated periodically — the scene may really have
        changed in ways the fingerprint quantizes away).
    admission:
        A :class:`FrequencySketch` enabling TinyLFU admission: every
        lookup trains the sketch, and an insert that needs an eviction
        only proceeds if the candidate is at least as hot as each
        victim; a refused insert changes nothing.
    pool:
        Optional :class:`~repro.hardware.memory.MemoryPool`; resident
        entries hold live allocations in it, so the cache shows up in
        the unified-memory accounting next to engine and preprocessing
        buffers.
    """

    def __init__(self, capacity_bytes: float,
                 clock: Callable[[], float],
                 match_threshold: int = 0,
                 eviction: EvictionPolicy | None = None,
                 ttl_seconds: float | None = None,
                 admission: FrequencySketch | None = None,
                 pool=None, name: str = "cache"):
        if capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        if match_threshold < 0:
            raise ValueError("match_threshold must be >= 0")
        if ttl_seconds is not None and ttl_seconds <= 0:
            raise ValueError("ttl_seconds must be positive (or None)")
        self.capacity_bytes = float(capacity_bytes)
        self._clock = clock
        self.match_threshold = match_threshold
        self.eviction = eviction if eviction is not None else LRUEviction()
        self.ttl_seconds = ttl_seconds
        self.admission = admission
        self.pool = pool
        self.name = name
        self.stats = CacheStats()
        self._sequence = itertools.count()
        #: Residents by sequence; dict order is insertion order.
        self._entries: dict[int, CacheEntry] = {}
        self._used_bytes = 0.0
        #: (hash_size, block_grid) shared by every resident.
        self._geometry: tuple[int, int] | None = None
        #: (shift, mask) of each index chunk.
        self._chunks: list[tuple[int, int]] = []
        #: Per chunk: chunk value -> sequences of residents holding it.
        self._index: list[dict[int, list[int]]] = []
        #: Lazy min-heap of (rank, sequence); stale items are skipped.
        self._heap: list[tuple[tuple, int]] = []

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    @property
    def used_bytes(self) -> float:
        """Bytes held by resident entries (a running total)."""
        return self._used_bytes

    def entries(self) -> list[CacheEntry]:
        """Snapshot of resident entries in insertion order."""
        return list(self._entries.values())

    # ------------------------------------------------------------------
    def _set_geometry(self, fp: FrameFingerprint) -> None:
        """Lay out the candidate index for ``fp``'s geometry.

        Pigeonhole multi-index hashing: ``match_threshold + 1`` disjoint
        bit chunks, so any fingerprint within the threshold of a probe
        agrees with it on at least one whole chunk.  Threshold 0 is one
        chunk, an exact-key dict.  A threshold at or past the bit width
        matches every resident: one empty chunk puts them all in one
        bucket.
        """
        self._geometry = (fp.hash_size, fp.block_grid)
        parts = self.match_threshold + 1
        self._chunks = [(0, 0)]
        if parts <= fp.nbits:
            base, extra = divmod(fp.nbits, parts)
            self._chunks, shift = [], 0
            for part in range(parts):
                width = base + (part < extra)
                self._chunks.append((shift, (1 << width) - 1))
                shift += width
        self._index = [{} for _ in self._chunks]

    def _match(self, fp: FrameFingerprint) -> CacheEntry | None:
        """Closest resident entry within the threshold (ties: oldest).

        Only residents sharing a chunk with the probe can match, so the
        ``(distance, sequence)`` minimum over them is the full-scan
        answer.
        """
        entries = self._entries
        if not entries:
            return None
        if (fp.hash_size, fp.block_grid) != self._geometry:
            # Raises the mixed-geometry ValueError.
            fp.distance(next(iter(entries.values())).fingerprint)
        probe = fp.packed
        best_distance, best = self.match_threshold + 1, -1
        for (shift, mask), buckets in zip(self._chunks, self._index):
            for sequence in buckets.get((probe >> shift) & mask, ()):
                if sequence == best:
                    # Found again through another chunk.
                    continue
                distance = (probe
                            ^ entries[sequence].fingerprint.packed
                            ).bit_count()
                if distance < best_distance or (
                        distance == best_distance and sequence < best):
                    best_distance, best = distance, sequence
        return entries[best] if best >= 0 else None

    def _expired(self, entry: CacheEntry, now: float) -> bool:
        return (self.ttl_seconds is not None
                and now - entry.inserted_at > self.ttl_seconds)

    def _push_rank(self, entry: CacheEntry) -> None:
        heap = self._heap
        heapq.heappush(heap, (self.eviction.rank(entry), entry.sequence))
        if len(heap) > 2 * len(self._entries):
            heap[:] = [(self.eviction.rank(e), seq)
                       for seq, e in self._entries.items()]
            heapq.heapify(heap)

    def _pop_victim(self) -> tuple[tuple, int]:
        """Pop the live ``(rank, sequence)`` heap top (store non-empty).

        Items whose entry is gone or whose rank has since moved are
        discarded.  A hit that leaves the rank unchanged pushes a copy
        of a live item; copies sit at the top right after it and are
        discarded with it, so no entry is returned twice.
        """
        heap = self._heap
        while True:
            item = heapq.heappop(heap)
            entry = self._entries.get(item[1])
            if entry is not None and self.eviction.rank(entry) == item[0]:
                while heap and heap[0] == item:
                    heapq.heappop(heap)
                return item

    def _drop(self, entry: CacheEntry) -> None:
        sequence = entry.sequence
        del self._entries[sequence]
        if self._entries:
            self._used_bytes -= entry.size_bytes
        else:
            self._used_bytes = 0.0
            self._heap.clear()
        packed = entry.fingerprint.packed
        for (shift, mask), buckets in zip(self._chunks, self._index):
            key = (packed >> shift) & mask
            bucket = buckets[key]
            bucket.remove(sequence)
            if not bucket:
                del buckets[key]
        if entry.allocation is not None:
            self.pool.free(entry.allocation)
            entry.allocation = None

    def lookup(self, fp: FrameFingerprint) -> CacheEntry | None:
        """Probe for a frame; returns the hit entry or None.

        Trains the admission sketch, refreshes LRU recency on a hit,
        and retires (counting ``stale``) a matching entry past its TTL.
        """
        now = self._clock()
        if self.admission is not None:
            self.admission.increment(fp.packed)
        entry = self._match(fp)
        if entry is not None and self._expired(entry, now):
            self._drop(entry)
            self.stats.stale += 1
            entry = None
        if entry is None:
            self.stats.misses += 1
            return None
        entry.hits += 1
        entry.last_access_at = now
        self._push_rank(entry)
        self.stats.hits += 1
        return entry

    def peek(self, fp: FrameFingerprint) -> bool:
        """Whether a probe *would* hit right now (no state mutated)."""
        entry = self._match(fp)
        return entry is not None and not self._expired(entry,
                                                       self._clock())

    def insert(self, fp: FrameFingerprint, value: object,
               size_bytes: float) -> bool:
        """Make a value resident; returns whether it was admitted.

        A resident within the threshold is the same content: the new
        value replaces it.  The policy's lowest-ranked other residents
        are chosen as victims until the candidate fits.  With TinyLFU
        admission the candidate must be at least as hot as every
        victim; otherwise the insert is refused and changes nothing,
        the replaced entry included.  Only an admitted insert drops the
        replaced entry and the victims.  A memory pool squeezed by
        other tenants may then shed further entries, and the insert
        fails as ``uncacheable`` if the pool cannot fit the value even
        with the cache empty.
        """
        if size_bytes <= 0:
            raise ValueError("size_bytes must be positive")
        now = self._clock()
        if size_bytes > self.capacity_bytes:
            self.stats.uncacheable += 1
            return False
        existing = self._match(fp)
        projected = self._used_bytes
        others = len(self._entries)
        if existing is not None:
            projected -= existing.size_bytes
            others -= 1
        victims: list[CacheEntry] = []
        popped: list[tuple[tuple, int]] = []
        while (len(victims) < others
               and projected + size_bytes > self.capacity_bytes):
            item = self._pop_victim()
            popped.append(item)
            victim = self._entries[item[1]]
            if victim is existing:
                continue
            if (self.admission is not None
                    and self.admission.estimate(fp.packed)
                    < self.admission.estimate(
                        victim.fingerprint.packed)):
                for kept in popped:
                    heapq.heappush(self._heap, kept)
                self.stats.admission_rejects += 1
                return False
            victims.append(victim)
            projected -= victim.size_bytes
        if existing is not None:
            self._drop(existing)
        for victim in victims:
            self._drop(victim)
        self.stats.evictions += len(victims)
        allocation = None
        if self.pool is not None:
            if not self.pool.can_fit(size_bytes):
                # The pool is squeezed by non-cache tenants (engine,
                # preprocessing buffers): shed cache entries first, and
                # give up gracefully if the cache alone cannot help.
                while self._entries and not self.pool.can_fit(size_bytes):
                    self._drop(self._entries[self._pop_victim()[1]])
                    self.stats.evictions += 1
                if not self.pool.can_fit(size_bytes):
                    self.stats.uncacheable += 1
                    return False
            allocation = self.pool.allocate(size_bytes,
                                            tag=f"cache:{self.name}")
        if not self._entries:
            self._set_geometry(fp)
        entry = CacheEntry(
            fingerprint=fp, value=value, size_bytes=float(size_bytes),
            inserted_at=now, last_access_at=now,
            sequence=next(self._sequence), allocation=allocation)
        sequence = entry.sequence
        self._entries[sequence] = entry
        self._used_bytes += entry.size_bytes
        packed = fp.packed
        for (shift, mask), buckets in zip(self._chunks, self._index):
            buckets.setdefault((packed >> shift) & mask,
                               []).append(sequence)
        self._push_rank(entry)
        self.stats.insertions += 1
        return True

    def expire(self) -> int:
        """Drop every TTL-expired entry now; returns how many went."""
        if self.ttl_seconds is None:
            return 0
        now = self._clock()
        expired = [e for e in self._entries.values()
                   if self._expired(e, now)]
        for entry in expired:
            self._drop(entry)
        self.stats.evictions += len(expired)
        return len(expired)

    def clear(self) -> None:
        """Drop every resident entry (stats are kept)."""
        for entry in list(self._entries.values()):
            self._drop(entry)
