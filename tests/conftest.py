"""Shared fixtures: tiny vocabularies, models, and batches."""

import numpy as np
import pytest
from hypothesis import settings

from charnmt.data import ParallelCorpus, batch_from_rows, build_vocab, encode_pair
from charnmt.model import ModelConfig, build_params

# every property test draws the same examples on every run, however long one takes
settings.register_profile("charnmt", derandomize=True, deadline=None)
settings.load_profile("charnmt")


@pytest.fixture
def tiny_vocab():
    corpus = ParallelCorpus(pairs=[("abcd", "abcd")])
    return build_vocab([corpus], 1)


@pytest.fixture
def tiny_setup(tiny_vocab):
    """A small random 2-layer model plus its vocabulary."""
    config = ModelConfig(vocab_size=tiny_vocab.size, d_model=16, n_layers=2,
                         n_heads=2, d_ff=32, max_len=64, dropout=0.0)
    params = build_params(config, seed=3)
    return params, config, tiny_vocab


def make_batch(pairs, vocab):
    return batch_from_rows([encode_pair(s, t, vocab) for s, t in pairs])


def rand_rng(seed):
    return np.random.Generator(np.random.PCG64(seed))
