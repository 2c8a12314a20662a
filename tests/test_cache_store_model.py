"""Differential test: the indexed CacheStore against a full-scan model.

``ScanStore`` below is the store written the direct way: a list of
entries, every probe compared against every resident with
``FrameFingerprint.distance``, the victim taken as
``min(entries, key=policy.rank)`` and the byte total summed on demand.
Generated operation sequences run against both, and after every step
the returned values, stats, ``entries()`` order and ``used_bytes``
must agree.
"""

import dataclasses
import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.keys import FrameFingerprint
from repro.cache.store import (
    CacheEntry,
    CacheStats,
    CacheStore,
    FIFOEviction,
    FrequencySketch,
    LRUEviction,
)

#: A 13-bit geometry: wide enough for 9 chunks at threshold 8.
HASH_SIZE, BLOCK_GRID = 3, 2
NBITS = HASH_SIZE ** 2 + BLOCK_GRID ** 2
BLOCK_BITS = BLOCK_GRID ** 2
#: Generated keys come from a small pool so that probes hit residents
#: and land at equal distances from several of them.
KEYS = [FrameFingerprint(dhash=packed >> BLOCK_BITS,
                         blocks=packed & ((1 << BLOCK_BITS) - 1),
                         hash_size=HASH_SIZE, block_grid=BLOCK_GRID)
        for packed in sorted({base ^ flips
                              for base in (0, 0b1010101010101,
                                           0b0110011001100)
                              for flips in (0, 0b1, 0b11, 0b111,
                                            0b1000000, 0b1000001,
                                            0b1000000000000,
                                            0b1100000000000,
                                            0b1111100000000)})]


class ScanStore:
    """Reference model: full scans, no index, no heap, no running total."""

    def __init__(self, capacity_bytes, clock, match_threshold, eviction,
                 ttl_seconds, admission):
        self.capacity_bytes = float(capacity_bytes)
        self._clock = clock
        self.match_threshold = match_threshold
        self.eviction = eviction
        self.ttl_seconds = ttl_seconds
        self.admission = admission
        self.stats = CacheStats()
        self._entries: list[CacheEntry] = []
        self._sequence = itertools.count()

    def __len__(self):
        return len(self._entries)

    @property
    def used_bytes(self):
        return sum(e.size_bytes for e in self._entries)

    def entries(self):
        return sorted(self._entries, key=lambda e: e.sequence)

    def _match(self, fp):
        best, found = None, None
        for entry in self._entries:
            distance = fp.distance(entry.fingerprint)
            if distance > self.match_threshold:
                continue
            rank = (distance, entry.sequence)
            if best is None or rank < best:
                best, found = rank, entry
        return found

    def _expired(self, entry, now):
        return (self.ttl_seconds is not None
                and now - entry.inserted_at > self.ttl_seconds)

    def lookup(self, fp):
        now = self._clock()
        if self.admission is not None:
            self.admission.increment(fp.packed)
        entry = self._match(fp)
        if entry is not None and self._expired(entry, now):
            self._entries.remove(entry)
            self.stats.stale += 1
            entry = None
        if entry is None:
            self.stats.misses += 1
            return None
        entry.hits += 1
        entry.last_access_at = now
        self.stats.hits += 1
        return entry

    def peek(self, fp):
        entry = self._match(fp)
        return entry is not None and not self._expired(entry,
                                                       self._clock())

    def insert(self, fp, value, size_bytes):
        now = self._clock()
        if size_bytes > self.capacity_bytes:
            self.stats.uncacheable += 1
            return False
        existing = self._match(fp)
        remaining = [e for e in self._entries if e is not existing]
        victims = []
        while sum(e.size_bytes for e in remaining) + size_bytes \
                > self.capacity_bytes:
            victim = min(remaining, key=self.eviction.rank)
            if (self.admission is not None
                    and self.admission.estimate(fp.packed)
                    < self.admission.estimate(victim.fingerprint.packed)):
                self.stats.admission_rejects += 1
                return False
            remaining.remove(victim)
            victims.append(victim)
        self._entries = remaining
        self.stats.evictions += len(victims)
        self._entries.append(CacheEntry(
            fingerprint=fp, value=value, size_bytes=float(size_bytes),
            inserted_at=now, last_access_at=now,
            sequence=next(self._sequence)))
        self.stats.insertions += 1
        return True

    def expire(self):
        if self.ttl_seconds is None:
            return 0
        now = self._clock()
        expired = [e for e in self._entries if self._expired(e, now)]
        for entry in expired:
            self._entries.remove(entry)
        self.stats.evictions += len(expired)
        return len(expired)

    def clear(self):
        self._entries.clear()


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


#: A key: an index into KEYS, or (negative) one of the last four keys
#: inserted, so that probes hit residents.
_keys = st.one_of(st.integers(0, len(KEYS) - 1), st.integers(-4, -1))
_sizes = st.sampled_from([1, 5, 10, 10, 20, 45])
_steps = st.one_of(
    st.tuples(st.just("insert"), _keys, _sizes),
    st.tuples(st.just("insert"), _keys, _sizes),
    st.tuples(st.just("lookup"), _keys),
    st.tuples(st.just("lookup"), _keys),
    st.tuples(st.just("lookup"), _keys),
    st.tuples(st.just("peek"), _keys),
    st.tuples(st.just("advance"), st.sampled_from([0.0, 0.5, 1.0, 2.5])),
    st.tuples(st.just("advance"), st.sampled_from([0.0, 0.5, 1.0, 2.5])),
    st.tuples(st.just("expire")),
    st.tuples(st.just("clear")),
)


def _snapshot(store):
    return ([dataclasses.astuple(e) for e in store.entries()],
            store.stats, store.used_bytes, len(store))


def _returned(result):
    if isinstance(result, CacheEntry):
        return dataclasses.astuple(result)
    return result


@settings(max_examples=300, deadline=None)
@given(threshold=st.sampled_from([0, 1, 8, NBITS, NBITS + 4]),
       policy=st.sampled_from([LRUEviction, FIFOEviction]),
       tinylfu=st.booleans(),
       ttl=st.sampled_from([None, 2.0]),
       capacity=st.sampled_from([40, 200]),
       steps=st.lists(_steps, min_size=20, max_size=80))
def test_indexed_store_matches_full_scan_model(threshold, policy, tinylfu,
                                               ttl, capacity, steps):
    clock = Clock()
    stores = [cls(capacity, clock, match_threshold=threshold,
                  eviction=policy(), ttl_seconds=ttl,
                  admission=FrequencySketch() if tinylfu else None)
              for cls in (CacheStore, ScanStore)]
    inserted = []
    for value, (step, *args) in enumerate(steps):
        if step == "advance":
            clock.now += args[0]
            continue
        if args:
            index = args[0]
            key = (inserted[index] if -len(inserted) <= index < 0
                   else KEYS[index])
            if step == "insert":
                inserted.append(key)
                args = [value, args[1]]
            else:
                args = []
            args.insert(0, key)
        results = [getattr(s, step)(*args) for s in stores]
        assert _returned(results[0]) == _returned(results[1]), step
        assert _snapshot(stores[0]) == _snapshot(stores[1]), step
