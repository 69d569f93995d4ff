"""Shared fixtures: tiny vocabularies, models, batches, and checkpoint byte edits."""

import struct

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


def with_first_extent(raw, extent):
    """Checkpoint bytes with the first record's first shape entry set to ``extent``."""
    (header_len,) = struct.unpack("<I", raw[5:9])
    (name_len,) = struct.unpack("<H", raw[13 + header_len:15 + header_len])
    at = 17 + header_len + name_len
    return raw[:at] + struct.pack("<q", extent) + raw[at + 8:]


# a JSON header too deeply nested for the json module's recursion limit
NESTED_HEADER = b"[" * 200_000 + b"]" * 200_000


def with_header_text(raw, text):
    """Checkpoint bytes with the JSON header replaced by ``text``."""
    (header_len,) = struct.unpack("<I", raw[5:9])
    return raw[:5] + struct.pack("<I", len(text)) + text + raw[9 + header_len:]
