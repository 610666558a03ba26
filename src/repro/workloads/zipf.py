"""Zipf-distributed key popularity.

Benchmark E3 (dictionary combining) needs workloads where some words are
much more popular than others — the regime in which combining duplicate
searches pays off.  A Zipf distribution with exponent ``s`` over ``n``
items produces the classic skew: ``s=0`` is uniform (few duplicates,
combining useless), large ``s`` concentrates requests on a handful of
words (combining shines).  The crossover is the experiment.
"""

from __future__ import annotations

import bisect
import itertools
import random
from typing import Iterator, Sequence


class Zipf:
    """Sampler over ``items`` with Zipf(s) popularity (rank 1 = first item)."""

    def __init__(self, items: Sequence, s: float = 1.0, seed: int = 0) -> None:
        if not items:
            raise ValueError("Zipf needs at least one item")
        if s < 0:
            raise ValueError(f"exponent must be >= 0, got {s}")
        self.items = list(items)
        self.s = s
        self.seed = seed
        weights = [1.0 / (rank ** s) for rank in range(1, len(self.items) + 1)]
        self._cumulative = list(itertools.accumulate(weights))
        self._total = self._cumulative[-1]

    def sample(self, rng: random.Random):
        """One item drawn with Zipf weights."""
        point = rng.random() * self._total
        index = bisect.bisect_left(self._cumulative, point)
        return self.items[min(index, len(self.items) - 1)]

    def stream(self, count: int | None = None) -> Iterator:
        """A reproducible stream of samples (infinite if count is None)."""
        rng = random.Random(self.seed)
        if count is None:
            while True:
                yield self.sample(rng)
        else:
            for _ in range(count):
                yield self.sample(rng)


def word_corpus(size: int) -> list[str]:
    """A deterministic corpus of ``size`` distinct pseudo-words."""
    consonants = "bcdfglmnprst"
    vowels = "aeiou"
    words = []
    index = 0
    while len(words) < size:
        i = index
        chars = []
        for position in range(4):
            if position % 2 == 0:
                chars.append(consonants[i % len(consonants)])
                i //= len(consonants)
            else:
                chars.append(vowels[i % len(vowels)])
                i //= len(vowels)
        words.append("".join(chars) + str(index // 3600))
        index += 1
    return words
