"""Seed sequences: reproducible, independent named streams."""

from repro.sim.rng import SeedSequence


class TestSeedSequence:
    def test_same_name_same_stream(self):
        assert SeedSequence(1).stream("a").random() == SeedSequence(1).stream("a").random()

    def test_different_names_different_streams(self):
        seeds = SeedSequence(1)
        assert seeds.stream("a").random() != seeds.stream("b").random()

    def test_different_masters_different_streams(self):
        assert SeedSequence(1).stream("a").random() != SeedSequence(2).stream("a").random()

    def test_child_sequences_are_namespaced(self):
        seeds = SeedSequence(7)
        child_a = SeedSequence(seeds.derive("x"))
        child_b = SeedSequence(seeds.derive("y"))
        assert child_a.stream("s").random() != child_b.stream("s").random()

    def test_derive_is_stable(self):
        assert SeedSequence(3).derive("k") == SeedSequence(3).derive("k")
