"""Property tests: the keystream cache's budget and admission policy.

The cache may never change a byte (pinned in ``test_prop_bulk_crypto``);
these pin *what it keeps*: at most ``max_bytes`` of streams, only for keys
that came back within the doorkeeper's span, never for a key requested once.
"""

from collections import Counter
from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.aes import AES
from repro.crypto.modes import BLOCK_SIZE, KeystreamCache, ctr_keystream

BUDGET = 4096
LONGEST = 3000
SPAN = KeystreamCache.DOORKEEPER_KEYS


def key_of(index: int) -> bytes:
    return index.to_bytes(16, "big")


@lru_cache(maxsize=None)
def reference_stream(index: int) -> bytes:
    """The first ``LONGEST`` keystream bytes of a key, from the scalar path."""
    return ctr_keystream(AES(key_of(index)), 0, -(-LONGEST // BLOCK_SIZE))[:LONGEST]


def resident(cache: KeystreamCache, index: int) -> bool:
    """Whether a request for *index* would be a hit, without making it."""
    return (key_of(index), 0) in cache._entries


requests = st.lists(
    st.tuples(st.integers(min_value=0, max_value=11), st.integers(min_value=0, max_value=LONGEST)),
    max_size=60,
)


class TestAnySequence:
    @settings(max_examples=60, deadline=None)
    @given(requests)
    def test_budget_bytes_and_counters(self, sequence):
        cache = KeystreamCache(max_bytes=BUDGET)
        for calls, (index, nbytes) in enumerate(sequence, start=1):
            stream = cache.keystream(key_of(index), 0, nbytes)
            assert stream == reference_stream(index)[:nbytes]
            assert cache.hits + cache.misses == calls
            assert cache.resident_bytes <= BUDGET
            assert cache.resident_bytes == sum(len(s) for s in cache._entries.values())

    @settings(max_examples=60, deadline=None)
    @given(requests)
    def test_keys_requested_once_never_become_resident(self, sequence):
        cache = KeystreamCache(max_bytes=BUDGET)
        counts = Counter(index for index, _ in sequence)
        for index, nbytes in sequence:
            cache.keystream(key_of(index), 0, nbytes)
            assert not any(resident(cache, i) for i, n in counts.items() if n == 1)

    @settings(max_examples=30, deadline=None)
    @given(requests)
    def test_clear_empties_both_structures(self, sequence):
        cache = KeystreamCache(max_bytes=BUDGET)
        for index, nbytes in sequence:
            cache.keystream(key_of(index), 0, nbytes)
        cache.clear()
        assert len(cache) == 0 and cache.resident_bytes == 0
        # Nothing is remembered: every key is at first sight again, so it
        # takes two misses before the third request can hit.
        for index in {i for i, _ in sequence}:
            hits = cache.hits
            cache.keystream(key_of(index), 0, 64)
            cache.keystream(key_of(index), 0, 64)
            assert cache.hits == hits
            cache.keystream(key_of(index), 0, 64)
            assert cache.hits == hits + 1


class TestSecondSight:
    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=0, max_value=SPAN - 1),
        st.integers(min_value=1, max_value=LONGEST),
    )
    def test_repeat_within_the_span_is_cached_on_third_request(self, others, nbytes):
        cache = KeystreamCache(max_bytes=BUDGET)
        cache.keystream(key_of(0), 0, nbytes)
        for other in range(1, others + 1):  # one-shot content in between
            cache.keystream(key_of(other), 0, 16)
        cache.keystream(key_of(0), 0, nbytes)
        assert (cache.hits, cache.misses) == (0, others + 2)
        assert cache.keystream(key_of(0), 0, nbytes) == reference_stream(0)[:nbytes]
        assert (cache.hits, cache.misses) == (1, others + 2)
        assert len(cache) == 1  # none of the one-shot streams was kept

    def test_repeat_beyond_the_span_is_first_sight_again(self):
        cache = KeystreamCache(max_bytes=BUDGET)
        cache.keystream(key_of(0), 0, 64)
        for other in range(1, SPAN + 1):
            cache.keystream(key_of(other), 0, 16)
        cache.keystream(key_of(0), 0, 64)
        assert len(cache) == 0
        assert len(cache._seen) == SPAN  # the doorkeeper itself is bounded

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=1, max_value=2 * BLOCK_SIZE))
    def test_stream_larger_than_the_budget_is_returned_not_stored(self, over):
        cache = KeystreamCache(max_bytes=1024)
        nbytes = 1024 + over
        for _ in range(3):
            assert cache.keystream(key_of(1), 0, nbytes) == reference_stream(1)[:nbytes]
        assert (cache.hits, len(cache), cache.resident_bytes) == (0, 0, 0)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=1, max_value=LONGEST),
        st.integers(min_value=1, max_value=LONGEST),
    )
    def test_prefix_extension_equals_cold_generation(self, first, second):
        cache = KeystreamCache(max_bytes=BUDGET)
        cache.keystream(key_of(2), 0, first)
        cache.keystream(key_of(2), 0, first)  # admitted at ``first`` bytes
        assert cache.keystream(key_of(2), 0, second) == reference_stream(2)[:second]
        longest = max(first, second)
        assert cache.resident_bytes == -(-longest // BLOCK_SIZE) * BLOCK_SIZE
        hits = cache.hits
        cache.keystream(key_of(2), 0, longest)
        assert cache.hits == hits + 1

    def test_eviction_is_least_recently_used_by_bytes(self):
        cache = KeystreamCache(max_bytes=4 * 1024)
        for index in (1, 2, 3, 4):  # four 1 KiB streams fill the budget
            cache.keystream(key_of(index), 0, 1024)
            cache.keystream(key_of(index), 0, 1024)
        cache.keystream(key_of(1), 0, 1024)  # touch the oldest
        cache.keystream(key_of(5), 0, 2048)
        cache.keystream(key_of(5), 0, 2048)  # 2 KiB in: two streams must go
        assert [resident(cache, i) for i in (1, 2, 3, 4, 5)] == [True, False, False, True, True]
        assert cache.resident_bytes == 4 * 1024
