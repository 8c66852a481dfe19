"""The paper's headline claims, asserted end-to-end at miniature scale.

Abstract: "Measurement of over 500 desktop file systems shows that nearly
half of all consumed space is occupied by duplicate files. ... Our mechanism
includes 1) convergent encryption, which enables duplicate files to [be]
coalesced into the space of a single file, even if the files are encrypted
with different users' keys, and 2) SALAD ... Large-scale simulation
experiments show that the duplicate-file coalescing system is scalable,
highly effective, and fault-tolerant."

Each test here is one sentence of that abstract.
"""

import random

import pytest

from repro.core import convergent_decrypt, convergent_encrypt
from repro.core.keyring import UserDirectory
from repro.experiments.dfc_run import DfcConfig, DfcRun
from repro.workload.generator import CorpusSpec, generate_corpus


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(
        CorpusSpec(machines=120, mean_files_per_machine=30), seed=17
    )


class TestNearlyHalfTheSpaceIsDuplicates:
    def test_corpus_duplication(self, corpus):
        fraction = corpus.summary().duplicate_byte_fraction
        assert 0.35 <= fraction <= 0.60  # "nearly half"


class TestConvergentEncryptionCoalescesAcrossKeys:
    def test_different_users_one_blob(self):
        users = UserDirectory()
        rng = random.Random(0)
        writers = [users.create_user(f"user{i}", rng=rng) for i in range(4)]
        document = b"common application binary " * 64
        ciphertexts = [
            convergent_encrypt(document, {u.name: u.public_key}) for u in writers
        ]
        blobs = {c.data for c in ciphertexts}
        assert len(blobs) == 1  # one stored copy serves all four users
        for user, ciphertext in zip(writers, ciphertexts):
            assert convergent_decrypt(ciphertext, user) == document


class TestHighlyEffective:
    def test_reclaims_nearly_all_duplicate_space(self, corpus):
        run = DfcRun(corpus, DfcConfig(target_redundancy=2.5, seed=17))
        run.build()
        run.insert_all()
        ideal = corpus.summary().duplicate_byte_fraction
        assert run.reclaimed_fraction() >= 0.80 * ideal


class TestScalable:
    def test_per_machine_state_grows_sublinearly(self, corpus):
        """Leaf tables are O(sqrt(L)) and databases O(F/L * lambda): doubling
        the corpus roughly preserves per-machine record load."""
        small = DfcRun(
            generate_corpus(CorpusSpec(machines=60, mean_files_per_machine=30), seed=3),
            DfcConfig(target_redundancy=2.0, seed=3),
        )
        small.build()
        small.insert_all()
        large = DfcRun(
            generate_corpus(CorpusSpec(machines=240, mean_files_per_machine=30), seed=3),
            DfcConfig(target_redundancy=2.0, seed=3),
        )
        large.build()
        large.insert_all()
        small_db = sum(small.database_sizes()) / 60
        large_db = sum(large.database_sizes()) / 240
        assert large_db < 2.5 * small_db  # constant-ish, not 4x
        small_t = sum(small.salad.leaf_table_sizes()) / 60
        large_t = sum(large.salad.leaf_table_sizes()) / 240
        assert large_t < 3.0 * small_t  # ~2x for 4x machines


class TestFaultTolerant:
    def test_half_downtime_still_reclaims_majority(self, corpus):
        run = DfcRun(corpus, DfcConfig(target_redundancy=2.5, seed=19))
        run.build()
        run.set_failure_probability(0.5)
        run.insert_all()
        ideal = corpus.summary().duplicate_byte_fraction
        assert run.reclaimed_fraction() >= 0.5 * ideal  # paper: 38 of 46


class TestDecentralized:
    def test_no_machine_is_special(self, corpus):
        """No central coordinator: removing any single machine before
        dissemination barely changes the outcome."""
        baseline = DfcRun(corpus, DfcConfig(target_redundancy=2.5, seed=23))
        baseline.build()
        baseline.insert_all()

        lesioned = DfcRun(corpus, DfcConfig(target_redundancy=2.5, seed=23))
        lesioned.build()
        first_leaf = next(iter(lesioned.salad.leaves.values()))
        first_leaf.fail()
        lesioned.insert_all()
        assert (
            lesioned.reclaimed_fraction()
            >= 0.9 * baseline.reclaimed_fraction()
        )
