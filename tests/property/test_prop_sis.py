"""Property tests: Single-Instance Store invariants under random workloads."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.farsite.sis import NoSuchFileError, SingleInstanceStore

operations = st.lists(
    st.tuples(
        st.sampled_from(["store", "write", "delete"]),
        st.integers(min_value=0, max_value=6),  # name index
        st.integers(min_value=0, max_value=3),  # content index (few -> dups)
    ),
    max_size=80,
)

CONTENTS = [b"", b"aaa", b"bbbb" * 10, b"c" * 100]


class TestSisInvariants:
    @settings(max_examples=80, deadline=None)
    @given(operations)
    def test_reads_always_return_last_write(self, ops):
        sis = SingleInstanceStore()
        expected = {}
        for op, name_idx, content_idx in ops:
            name = f"file{name_idx}"
            content = CONTENTS[content_idx]
            if op == "store":
                sis.store(name, content)
                expected[name] = content
            elif op == "write" and name in expected:
                sis.store(name, content)  # a rewrite of an existing link
                expected[name] = content
            elif op == "delete" and name in expected:
                sis.delete(name)
                del expected[name]
        for name, content in expected.items():
            assert sis.read(name) == content

    @settings(max_examples=80, deadline=None)
    @given(operations)
    def test_physical_never_exceeds_logical(self, ops):
        sis = SingleInstanceStore()
        for op, name_idx, content_idx in ops:
            name = f"file{name_idx}"
            try:
                if op == "store":
                    sis.store(name, CONTENTS[content_idx])
                elif op == "write":
                    sis.store(name, CONTENTS[content_idx])
                else:
                    sis.delete(name)
            except KeyError:
                pass
            stats = sis.stats()
            assert stats.physical_bytes <= stats.logical_bytes

    @settings(max_examples=80, deadline=None)
    @given(operations)
    def test_blob_count_equals_distinct_live_contents(self, ops):
        sis = SingleInstanceStore()
        expected = {}
        for op, name_idx, content_idx in ops:
            name = f"file{name_idx}"
            try:
                if op == "store":
                    sis.store(name, CONTENTS[content_idx])
                    expected[name] = CONTENTS[content_idx]
                elif op == "write":
                    sis.store(name, CONTENTS[content_idx])
                    expected[name] = CONTENTS[content_idx]
                else:
                    sis.delete(name)
                    expected.pop(name, None)
            except KeyError:
                pass
        assert sis.blob_count() == len(set(expected.values()))


#: Model-test alphabet: the empty blob, and contents that share a length and
#: their leading bytes yet differ in the tail (or share only the leading
#: bytes), so a store that trusted its signature would coalesce them.
MODEL_CONTENTS = [
    b"",
    b"a" * 40 + b"X",
    b"a" * 40 + b"Y",
    b"a" * 40 + b"XZ",
    b"a" * 32,
    b"abc",
]

model_steps = st.lists(
    st.tuples(
        st.sampled_from(["store", "delete", "read"]),
        st.integers(min_value=0, max_value=5),  # name index
        st.integers(min_value=0, max_value=len(MODEL_CONTENTS) - 1),
        st.booleans(),  # pass a distinct but equal bytes object
    ),
    max_size=60,
)


class TestSisAgainstModel:
    """Random store/delete/read sequences against a dict model, checked
    after every step."""

    @settings(max_examples=60, deadline=None)
    @given(steps=model_steps)
    def test_matches_dict_model(self, steps):
        sis = SingleInstanceStore()
        model = {}
        for op, name_idx, content_idx, fresh in steps:
            name = f"file{name_idx}"
            content = MODEL_CONTENTS[content_idx]
            data = bytes(bytearray(content)) if fresh else content
            if op == "store":
                others = {v for k, v in model.items() if k != name}
                assert sis.store(name, data) == (content in others)
                model[name] = content
            elif name not in model:
                with pytest.raises(NoSuchFileError):
                    getattr(sis, op)(name)
            elif op == "delete":
                sis.delete(name)
                del model[name]
            else:
                assert sis.read(name) == model[name]
            self._check(sis, model)

    @staticmethod
    def _check(sis, model):
        assert len(sis) == len(model)
        for name, content in model.items():
            assert name in sis
            assert sis.read(name) == content
        live = set(model.values())
        assert sis.blob_count() == len(live)
        stats = sis.stats()
        assert stats.logical_bytes == sum(len(v) for v in model.values())
        assert stats.physical_bytes == sum(len(v) for v in live)
        # The signature index holds each live blob once, and no signature
        # outlives its last blob.
        assert sum(len(keys) for keys in sis._index.values()) == len(live)
        assert all(sis._index.values())
