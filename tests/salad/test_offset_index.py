"""Count-based guards on the paged store's in-RAM index.

No timing here: probe counts and table bytes are exact, so these fail the
same way on any host.
"""

import random

import pytest

from repro.salad.storage import _OFFSET_LIMIT, _TAG_MASK, _OffsetIndex


class CountingTable:
    """Stands in for the index's table and counts value-word reads.

    Every probe step reads one value word (an odd position), whatever the
    home slot is derived from, so this counts probes without knowing how
    the index hashes.
    """

    def __init__(self, table):
        self.table = table
        self.probes = 0

    def __getitem__(self, position):
        self.probes += position & 1
        return self.table[position]

    def __len__(self):
        return len(self.table)


def filled(keys) -> _OffsetIndex:
    index = _OffsetIndex()
    for n, key in enumerate(keys):
        index.add(key, 10 + 40 * n, n & _TAG_MASK)
    return index


def test_keys_sharing_their_low_16_bits_do_not_cluster():
    # What a leaf at W = 16 stores: the cell-ID is the low W bits of the
    # content hash (Eq. 7), hence of every key on that leaf.  A home slot
    # taken from those bits sends all 2,000 keys to one slot and makes a
    # lookup a scan of the whole run (mean 2,001 probes, counted on the
    # index as it was before the mix); spread homes at this load (2,000 in
    # 4,096 slots) read 4.3 probes to the first EMPTY.
    rng = random.Random(16)
    keys = [rng.getrandbits(48) << 16 | 0xBEEF for _ in range(2000)]
    index = filled(keys)
    counting = index._table = CountingTable(index._table)
    for key in keys:
        assert len(index.lookup(key)) == 1
    assert counting.probes / len(keys) <= 6.0


def test_index_bytes_per_record_stay_within_the_slot_budget():
    # 16-byte slots at a load factor between 1/3 and 2/3: at most 48 bytes
    # of index per live record.  The tag costs no bytes.
    rng = random.Random(20)
    index = filled(rng.getrandbits(64) for _ in range(20_000))
    table = index._table
    assert table.itemsize == 8
    assert len(table) * table.itemsize / len(index) <= 48


@pytest.mark.parametrize(
    "offset, tag",
    [(0, 0), (_OFFSET_LIMIT, 0), (10, _TAG_MASK + 1), (10, -1)],
)
def test_add_refuses_what_does_not_fit_a_slot(offset, tag):
    index = _OffsetIndex()
    with pytest.raises(OverflowError):
        index.add(7, offset, tag)
    assert len(index) == 0 and index.lookup(7) == []


def test_widest_offset_and_tag_round_trip():
    index = _OffsetIndex()
    index.add(7, _OFFSET_LIMIT - 1, _TAG_MASK)
    assert index.lookup(7) == [_OFFSET_LIMIT - 1]
    assert index.lookup(7, _TAG_MASK) == [_OFFSET_LIMIT - 1]
    assert list(index.items()) == [(7, _OFFSET_LIMIT - 1, _TAG_MASK)]
