"""Tests for the byte-accounted cache store (repro.cache.store)."""

import pytest

from repro.cache.keys import FrameFingerprint
from repro.cache.store import (
    CacheStore,
    FIFOEviction,
    FrequencySketch,
    LRUEviction,
)
from repro.hardware.memory import MemoryPool


def fp(bits: int) -> FrameFingerprint:
    """A fingerprint whose dhash is the given bit pattern."""
    return FrameFingerprint(dhash=bits, blocks=0)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


@pytest.fixture
def clock():
    return FakeClock()


class TestLookupAndMatch:
    def test_exact_hit_and_miss(self, clock):
        store = CacheStore(1024, clock)
        store.insert(fp(0b1), "v", 10)
        assert store.lookup(fp(0b1)).value == "v"
        assert store.lookup(fp(0b10)) is None
        assert store.stats.hits == 1 and store.stats.misses == 1

    def test_threshold_matches_nearby_fingerprints(self, clock):
        store = CacheStore(1024, clock, match_threshold=2)
        store.insert(fp(0b1111), "v", 10)
        assert store.lookup(fp(0b1100)).value == "v"  # distance 2
        assert store.lookup(fp(0b0000)) is None       # distance 4

    def test_closest_entry_wins(self, clock):
        store = CacheStore(1024, clock, match_threshold=4)
        store.insert(fp(0b1111), "far", 10)
        store.insert(fp(0b1110), "near", 10)
        assert store.lookup(fp(0b1100)).value == "near"

    def test_tie_breaks_to_oldest_entry(self, clock):
        # The two residents are 4 bits apart (distinct content), the
        # probe is 2 bits from each: equidistant -> oldest entry wins.
        store = CacheStore(1024, clock, match_threshold=2)
        store.insert(fp(0b0011), "first", 10)
        store.insert(fp(0b1100), "second", 10)
        assert store.lookup(fp(0b0110)).value == "first"

    def test_tie_across_index_chunks_breaks_to_oldest(self, clock):
        # Threshold 1 splits the 80 bits into two chunks.  The probe
        # shares only the high chunk with the older entry and only the
        # low chunk with the newer one, at distance 1 from each.
        store = CacheStore(1024, clock, match_threshold=1)
        store.insert(fp(0b1), "older", 10)
        store.insert(fp(1 << 63), "newer", 10)
        assert store.lookup(fp(0)).value == "older"

    def test_reinsert_within_threshold_replaces(self, clock):
        # A near-duplicate fingerprint is the *same* content: inserting
        # it refreshes the resident entry instead of duplicating it.
        store = CacheStore(1024, clock, match_threshold=2)
        store.insert(fp(0b01), "old", 10)
        store.insert(fp(0b10), "new", 10)
        assert len(store) == 1
        assert store.lookup(fp(0b01)).value == "new"

    def test_mixed_geometry_probe_raises_on_non_empty_store(self, clock):
        other = FrameFingerprint(dhash=1, blocks=0, hash_size=4,
                                 block_grid=2)
        store = CacheStore(1024, clock, match_threshold=2)
        assert store.lookup(other) is None
        store.insert(fp(1), "v", 10)
        for probe in (store.lookup, store.peek):
            with pytest.raises(ValueError, match="geometry"):
                probe(other)
        with pytest.raises(ValueError, match="geometry"):
            store.insert(other, "w", 10)
        store.clear()
        assert store.insert(other, "w", 10)
        assert store.lookup(other).value == "w"

    def test_threshold_past_bit_width_matches_everything(self, clock):
        # 81 chunks cannot split 80 bits: every resident is a candidate.
        store = CacheStore(1024, clock, match_threshold=80)
        store.insert(fp(0b1), "a", 10)
        store.insert(fp((1 << 64) - 1), "b", 10)
        assert len(store) == 1
        assert store.lookup(fp(0)).value == "b"

    def test_peek_does_not_mutate(self, clock):
        store = CacheStore(1024, clock)
        store.insert(fp(1), "v", 10)
        assert store.peek(fp(1))
        assert not store.peek(fp(2))
        assert store.stats.lookups == 0


class TestTTL:
    def test_expired_match_counts_stale_and_misses(self, clock):
        store = CacheStore(1024, clock, ttl_seconds=5.0)
        store.insert(fp(1), "v", 10)
        clock.now = 6.0
        assert store.lookup(fp(1)) is None
        assert store.stats.stale == 1
        assert store.stats.misses == 1
        assert len(store) == 0

    def test_fresh_entry_still_hits(self, clock):
        store = CacheStore(1024, clock, ttl_seconds=5.0)
        store.insert(fp(1), "v", 10)
        clock.now = 4.9
        assert store.lookup(fp(1)) is not None

    def test_reinsert_refreshes_freshness(self, clock):
        store = CacheStore(1024, clock, ttl_seconds=5.0)
        store.insert(fp(1), "old", 10)
        clock.now = 4.0
        store.insert(fp(1), "new", 10)
        clock.now = 8.0
        assert store.lookup(fp(1)).value == "new"
        assert len(store) == 1

    def test_expire_sweeps_all_stale(self, clock):
        store = CacheStore(1024, clock, ttl_seconds=1.0)
        store.insert(fp(1), "a", 10)
        store.insert(fp(2), "b", 10)
        clock.now = 2.0
        assert store.expire() == 2
        assert store.stats.evictions == 2

    def test_peek_respects_ttl(self, clock):
        store = CacheStore(1024, clock, ttl_seconds=1.0)
        store.insert(fp(1), "v", 10)
        clock.now = 2.0
        assert not store.peek(fp(1))


class TestEviction:
    def test_lru_evicts_least_recently_used(self, clock):
        store = CacheStore(30, clock, eviction=LRUEviction())
        store.insert(fp(1), "a", 10)
        store.insert(fp(2), "b", 10)
        store.insert(fp(3), "c", 10)
        clock.now = 1.0
        store.lookup(fp(1))  # refresh a
        store.insert(fp(4), "d", 10)
        assert store.peek(fp(1)) and not store.peek(fp(2))

    def test_lru_refresh_keeps_access_order(self, clock):
        store = CacheStore(30, clock, eviction=LRUEviction())
        store.insert(fp(1), "a", 10)
        store.insert(fp(2), "b", 10)
        store.insert(fp(4), "c", 10)
        clock.now = 1.0
        store.lookup(fp(1))
        store.insert(fp(8), "d", 10)   # evicts b
        clock.now = 2.0
        store.insert(fp(16), "e", 10)  # evicts c
        clock.now = 3.0
        store.insert(fp(32), "f", 10)  # a and d tie at 1.0: a is older
        assert [e.value for e in store.entries()] == ["d", "e", "f"]

    def test_same_timestamp_hit_then_two_victims(self, clock):
        # All cameras fire on one trigger: a hit at the insert time
        # leaves a's rank unchanged, and a's is still the lowest.
        store = CacheStore(30, clock, eviction=LRUEviction())
        store.insert(fp(1), "a", 10)
        store.insert(fp(2), "b", 10)
        store.insert(fp(4), "c", 10)
        store.lookup(fp(1))
        assert store.insert(fp(8), "d", 20)
        assert [e.value for e in store.entries()] == ["c", "d"]
        assert store.stats.evictions == 2 and store.used_bytes == 30

    def test_fifo_ignores_recency(self, clock):
        store = CacheStore(20, clock, eviction=FIFOEviction())
        store.insert(fp(1), "a", 10)
        store.insert(fp(2), "b", 10)
        clock.now = 1.0
        store.lookup(fp(1))
        store.insert(fp(3), "c", 10)
        assert not store.peek(fp(1)) and store.peek(fp(2))

    def test_oversized_value_is_uncacheable(self, clock):
        store = CacheStore(100, clock)
        assert not store.insert(fp(1), "v", 101)
        assert store.stats.uncacheable == 1

    def test_byte_accounting_tracks_residency(self, clock):
        store = CacheStore(100, clock)
        store.insert(fp(1), "a", 40)
        store.insert(fp(2), "b", 40)
        assert store.used_bytes == 80
        store.insert(fp(3), "c", 40)  # evicts one
        assert store.used_bytes == 80
        assert store.stats.evictions == 1

    def test_invalid_sizes_rejected(self, clock):
        store = CacheStore(100, clock)
        with pytest.raises(ValueError, match="size_bytes"):
            store.insert(fp(1), "v", 0)
        with pytest.raises(ValueError, match="capacity"):
            CacheStore(0, clock)


class TestTinyLFUAdmission:
    def test_cold_candidate_cannot_displace_hot_victim(self, clock):
        store = CacheStore(10, clock, admission=FrequencySketch())
        store.insert(fp(1), "hot", 10)
        for _ in range(5):
            store.lookup(fp(1))  # trains the sketch
        assert not store.insert(fp(2), "cold", 10)
        assert store.stats.admission_rejects == 1
        assert store.peek(fp(1))

    def test_hot_candidate_displaces_cold_victim(self, clock):
        store = CacheStore(10, clock, admission=FrequencySketch())
        store.insert(fp(1), "cold", 10)
        for _ in range(5):
            store.lookup(fp(2))  # misses, but trains the candidate
        assert store.insert(fp(2), "hot", 10)
        assert not store.peek(fp(1))

    def test_no_admission_filter_always_displaces(self, clock):
        store = CacheStore(10, clock)
        store.insert(fp(1), "a", 10)
        assert store.insert(fp(2), "b", 10)

    def test_refused_insert_evicts_nothing(self, clock):
        # Making room for 20 B needs two victims: cold (evictable) and
        # then hot (hotter than the candidate).  The refusal must leave
        # cold resident too.
        store = CacheStore(30, clock, admission=FrequencySketch())
        store.insert(fp(1), "cold", 10)
        store.insert(fp(2), "hot", 10)
        store.insert(fp(4), "x", 10)
        for _ in range(5):
            store.lookup(fp(2))
        assert not store.insert(fp(8), "big", 20)
        assert [e.value for e in store.entries()] == ["cold", "hot", "x"]
        assert store.stats.evictions == 0
        assert store.stats.admission_rejects == 1
        assert store.used_bytes == 30

    def test_refused_reinsert_keeps_the_replaced_entry(self, clock):
        # fp(0b11) is within the threshold of old: admitted, it would
        # replace old, but it also needs hot's bytes and is refused.
        store = CacheStore(20, clock, match_threshold=1,
                           admission=FrequencySketch())
        store.insert(fp(0b1), "old", 10)
        store.insert(fp(0b110000), "hot", 10)
        for _ in range(5):
            store.lookup(fp(0b110000))
        assert not store.insert(fp(0b11), "new", 20)
        assert [e.value for e in store.entries()] == ["old", "hot"]
        assert store.lookup(fp(0b1)).value == "old"
        assert store.stats.evictions == 0


class TestFrequencySketch:
    def test_estimate_tracks_increments(self):
        sketch = FrequencySketch()
        for _ in range(3):
            sketch.increment(42)
        assert sketch.estimate(42) == 3
        assert sketch.estimate(43) == 0

    def test_counters_cap(self):
        sketch = FrequencySketch()
        for _ in range(40):
            sketch.increment(7)
        assert sketch.estimate(7) == 15

    def test_aging_halves_counts(self):
        sketch = FrequencySketch(sample_size=10)
        for _ in range(10):
            sketch.increment(1)
        assert sketch.estimate(1) <= 5

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError, match="width"):
            FrequencySketch(width=100)
        with pytest.raises(ValueError, match="depth"):
            FrequencySketch(depth=0)
        with pytest.raises(ValueError, match="sample_size"):
            FrequencySketch(sample_size=0)


class TestMemoryPoolCharging:
    def test_resident_entries_charge_the_pool(self, clock):
        pool = MemoryPool(1000, name="jetson")
        store = CacheStore(500, clock, pool=pool, name="edge")
        store.insert(fp(1), "v", 200)
        assert pool.used_bytes == 200
        assert "cache:edge" in pool.breakdown()

    def test_eviction_frees_the_pool(self, clock):
        pool = MemoryPool(1000)
        store = CacheStore(200, clock, pool=pool)
        store.insert(fp(1), "a", 150)
        store.insert(fp(2), "b", 150)  # evicts a
        assert pool.used_bytes == 150

    def test_squeezed_pool_sheds_cache_first(self, clock):
        # Non-cache tenants (engine buffers) shrink the pool: the cache
        # gives up residency gracefully instead of raising OOM.
        pool = MemoryPool(300)
        store = CacheStore(300, clock, pool=pool)
        store.insert(fp(1), "a", 100)
        pool.allocate(150, tag="engine")
        assert store.insert(fp(2), "b", 120)  # sheds entry a
        assert not store.peek(fp(1))

    def test_pool_too_tight_is_uncacheable(self, clock):
        pool = MemoryPool(100)
        pool.allocate(90, tag="engine")
        store = CacheStore(100, clock, pool=pool)
        assert not store.insert(fp(1), "v", 50)
        assert store.stats.uncacheable == 1

    def test_clear_releases_everything(self, clock):
        pool = MemoryPool(1000)
        store = CacheStore(500, clock, pool=pool)
        store.insert(fp(1), "a", 100)
        store.insert(fp(2), "b", 100)
        store.clear()
        assert pool.used_bytes == 0 and len(store) == 0
