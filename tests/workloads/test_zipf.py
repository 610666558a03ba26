"""Tests for Zipf popularity and the word corpus."""

import collections

import pytest

from repro.workloads import Zipf, word_corpus


class TestZipf:
    def test_deterministic_per_seed(self):
        z = Zipf(["a", "b", "c"], s=1.0, seed=9)
        assert list(z.stream(50)) == list(Zipf(["a", "b", "c"], s=1.0, seed=9).stream(50))

    def test_skew_favors_first_ranks(self):
        items = list(range(100))
        z = Zipf(items, s=1.5, seed=0)
        counts = collections.Counter(z.stream(5000))
        top = counts[0]
        tail = counts[99] if 99 in counts else 0
        assert top > 50 * max(tail, 1)

    def test_zero_exponent_is_roughly_uniform(self):
        items = list(range(10))
        z = Zipf(items, s=0.0, seed=0)
        counts = collections.Counter(z.stream(10000))
        assert max(counts.values()) < 2 * min(counts.values())

    def test_empty_items_rejected(self):
        with pytest.raises(ValueError):
            Zipf([])

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            Zipf(["a"], s=-1)


class TestWordCorpus:
    def test_size_and_uniqueness(self):
        words = word_corpus(500)
        assert len(words) == 500
        assert len(set(words)) == 500

    def test_deterministic(self):
        assert word_corpus(50) == word_corpus(50)
