"""Synthetic corpora for desk-scale experiments.

The copy task checks that a model can learn an identity mapping. The
cipher task builds two artificial "languages" that are deterministic
character substitutions of a common target language, with disjoint source
alphabets, so one model can learn both directions from a mixed stream
without any language identifiers: the characters themselves reveal the
language.
"""

from __future__ import annotations

import numpy as np

from .data import ParallelCorpus

TARGET_ALPHABET = "abcdefghij"
MIN_LEN, MAX_LEN = 5, 20  # string lengths are drawn uniformly from [MIN_LEN, MAX_LEN]
CIPHERS = {
    "lang_a": dict(zip(TARGET_ALPHABET, "klmnopqrst")),
    "lang_b": dict(zip(TARGET_ALPHABET, "uvwxyz0123")),
}


def random_strings(n: int, seed: int) -> list[str]:
    rng = np.random.Generator(np.random.PCG64(seed))
    lengths = rng.integers(MIN_LEN, MAX_LEN + 1, size=n)
    return ["".join(TARGET_ALPHABET[i]
                    for i in rng.integers(0, len(TARGET_ALPHABET), size=length))
            for length in lengths]


def copy_corpus(n_pairs: int, seed: int) -> ParallelCorpus:
    """Pairs whose target equals the source."""
    return ParallelCorpus(pairs=[(s, s) for s in random_strings(n_pairs, seed)])


def cipher_corpus(n_pairs: int, seed: int, cipher_name: str) -> ParallelCorpus:
    """Pairs (cipher(t), t) for random targets t; the source alphabet is
    disjoint from the target alphabet and from every other cipher's."""
    if cipher_name not in CIPHERS:
        raise ValueError(f"cipher_name must be one of {sorted(CIPHERS)}")
    table = str.maketrans(CIPHERS[cipher_name])
    targets = random_strings(n_pairs, seed)
    return ParallelCorpus(pairs=[(t.translate(table), t) for t in targets])
