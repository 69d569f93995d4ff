"""Character vocabularies, transliteration, parallel corpora, and batching.

Text is handled at the raw character level: one shared vocabulary covers
every language in play, reserved ids 0..3 are PAD/BOS/EOS/UNK, and
non-latin scripts can be folded into the latin range up front with a
per-character transliteration table. Corpora from several languages are
mixed into a single training stream with no language identifiers; the mix
is a plain concatenate-and-shuffle. Text files are read by ``read_text``, line-oriented
ones by ``read_lines`` (``read_paired`` for two that pair) and written by ``write_lines``.
"""

from __future__ import annotations

import unicodedata
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

PAD_ID, BOS_ID, EOS_ID, UNK_ID = 0, 1, 2, 3
N_RESERVED = 4


def read_text(path) -> str:
    """The text of a UTF-8 file, as stored: a byte-order mark and undecodable
    bytes are errors naming the file."""
    raw = Path(path).read_bytes()
    if raw.startswith(b"\xef\xbb\xbf"):
        raise ValueError(f"{path}: byte-order mark not allowed")
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ValueError(f"{path}: not UTF-8 ({e.reason} at byte {e.start})") from None


def read_lines(path) -> list[str]:
    """The NFC-normalized lines of a UTF-8 text file, final newline dropped: the one reader
    of every line-oriented input, so inference sees text as training does. Besides
    ``read_text``'s errors, a CR is an error naming the file and its 1-based line."""
    text = read_text(path)
    if "\r" in text:
        line = text.count("\n", 0, text.index("\r")) + 1
        raise ValueError(f"{path}: line {line} holds a CR; expected LF line endings")
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    return [unicodedata.normalize("NFC", line) for line in lines]


def write_lines(path, lines) -> None:
    """The one writer of line-oriented text: UTF-8, each line ended by LF."""
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")


@dataclass
class Vocabulary:
    """Bijective char<->id map with four reserved leading ids.

    ``chars`` holds the non-reserved characters in id order; character c
    has id ``chars.index(c) + 4``. Unknown characters encode to UNK.
    """

    chars: tuple[str, ...]
    _char_to_id: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_vocab_entries(self.chars)
        self._char_to_id = {c: i + N_RESERVED for i, c in enumerate(self.chars)}

    @property
    def size(self) -> int:
        return len(self.chars) + N_RESERVED

    def id_for(self, char: str) -> int:
        return self._char_to_id.get(char, UNK_ID)

    def save(self, path) -> None:
        """One character per line; line i (0-based) holds the char with id i+4."""
        write_lines(path, self.chars)

    @classmethod
    def load(cls, path) -> "Vocabulary":
        """Read ``save``'s file; a bad entry is an error naming the file and its line."""
        chars = tuple(read_lines(path))
        _check_vocab_entries(chars, lambda i: f"{path}: line {i + 1}: ")
        return cls(chars=chars)


def _check_vocab_entries(chars, where=lambda i: "") -> None:
    """Reject the first entry that is not one character (an empty line included) or
    repeats an earlier one; ``where`` of its 0-based position leads the error."""
    seen = set()
    for i, c in enumerate(chars):
        if len(c) != 1:
            raise ValueError(f"{where(i)}vocabulary entries must be single characters, got {c!r}")
        if c in seen:
            raise ValueError(f"{where(i)}duplicate vocabulary character {c!r}")
        seen.add(c)


def build_vocab(corpora: list["ParallelCorpus"], min_count: int) -> Vocabulary:
    """Shared character vocabulary over both sides of every corpus.

    Characters appearing at least ``min_count`` times in total are kept and
    assigned ids in lexicographic order after the reserved block, so two
    builds over reshuffled copies of the same data agree exactly.
    """
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    if not corpora or all(len(c.pairs) == 0 for c in corpora):
        raise ValueError("cannot build a vocabulary from empty corpora")
    counts = Counter(ch for corpus in corpora for src, tgt in corpus.pairs for ch in src + tgt)
    kept = sorted(c for c, n in counts.items() if n >= min_count)
    return Vocabulary(chars=tuple(kept))


def encode(s: str, vocab: Vocabulary) -> list[int]:
    """Per-character ids, unknown characters mapped to UNK."""
    return [vocab.id_for(c) for c in s]


def decode(ids, vocab: Vocabulary) -> str:
    """Inverse of encode on known characters; reserved ids are dropped."""
    return "".join(vocab.chars[i - N_RESERVED] for i in ids
                   if N_RESERVED <= i < vocab.size)


# ---------------------------------------------------------------------------
# transliteration
# ---------------------------------------------------------------------------

TRANSLIT_SEPARATOR = "|"


@dataclass
class TransliterationTable:
    """Per-character latinization map (e.g. a Wubi table for Chinese).

    Every mapped output must be non-empty ASCII. ``TRANSLIT_SEPARATOR`` is
    appended after each mapped token so the latinized stream stays
    reversible given the table; characters outside the table pass through
    untouched.
    """

    mapping: dict[str, str]

    def __post_init__(self):
        for char, latin in self.mapping.items():
            if len(char) != 1:
                raise ValueError(f"table keys must be single characters, got {char!r}")
            if not latin or not latin.isascii():
                raise ValueError(f"mapped output for {char!r} must be non-empty ASCII")

    @classmethod
    def from_tsv(cls, path) -> "TransliterationTable":
        """Load "char<TAB>latin" rows; duplicate characters are an error."""
        mapping: dict[str, str] = {}
        for lineno, line in enumerate(read_lines(path), start=1):
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected 'char<TAB>latin'")
            char, latin = parts
            if char in mapping:
                raise ValueError(f"{path}:{lineno}: duplicate entry for {char!r}")
            mapping[char] = latin
        return cls(mapping=mapping)


def transliterate(s: str, table: TransliterationTable) -> str:
    """Replace each mapped character by its latin token plus the separator;
    unmapped characters (spaces, punctuation, digits, latin text) are copied
    verbatim."""
    out = []
    for ch in s:
        latin = table.mapping.get(ch)
        out.append(ch if latin is None else latin + TRANSLIT_SEPARATOR)
    return "".join(out)


# ---------------------------------------------------------------------------
# parallel corpora
# ---------------------------------------------------------------------------

@dataclass
class ParallelCorpus:
    """Aligned (source, target) sentence pairs."""

    pairs: list[tuple[str, str]]

    def __len__(self) -> int:
        return len(self.pairs)


def read_paired(path_a, path_b) -> tuple[list[str], list[str]]:
    """The lines of two files that pair line for line, through ``read_lines``:
    the one statement of the pairing rule, whose count mismatch names both."""
    a, b = read_lines(path_a), read_lines(path_b)
    if len(a) != len(b):
        raise ValueError(f"{path_a} has {len(a)} lines but {path_b} has {len(b)}")
    return a, b


def load_parallel(src_path, tgt_path) -> ParallelCorpus:
    """Load two aligned one-sentence-per-line files through ``read_paired``;
    empty files and empty lines are rejected as well."""
    src_lines, tgt_lines = read_paired(src_path, tgt_path)
    for path, lines in ((src_path, src_lines), (tgt_path, tgt_lines)):
        if not lines:
            raise ValueError(f"{path}: no lines")
        if "" in lines:
            raise ValueError(f"{path}:{lines.index('') + 1}: empty line")
    return ParallelCorpus(pairs=list(zip(src_lines, tgt_lines)))


def mix_corpora(corpora: list[ParallelCorpus], seed: int) -> ParallelCorpus:
    """Concatenate corpora and shuffle pairs with a seeded permutation.

    Pairs stay intact (a source is never recombined with another pair's
    target) and no language identifiers are attached.
    """
    if not corpora:
        raise ValueError("need at least one corpus to mix")
    pairs = [p for c in corpora for p in c.pairs]
    rng = np.random.Generator(np.random.PCG64(seed))
    order = rng.permutation(len(pairs))
    return ParallelCorpus(pairs=[pairs[i] for i in order])


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------

@dataclass
class Batch:
    """Right-padded id matrices for one training step.

    ``tgt_in_ids`` is the BOS-prefixed decoder input and ``tgt_out_ids``
    the EOS-terminated prediction target; the two are the same sequence
    shifted by one. PAD_ID in the ids is the only record of padding: the
    masks are derived from it, True at real positions, and ``tgt_mask``
    serves both target views because BOS and EOS pad them to the same
    length.
    """

    src_ids: np.ndarray
    tgt_in_ids: np.ndarray
    tgt_out_ids: np.ndarray

    @property
    def src_mask(self) -> np.ndarray:
        return self.src_ids != PAD_ID

    @property
    def tgt_mask(self) -> np.ndarray:
        return self.tgt_out_ids != PAD_ID

    @property
    def n_target_tokens(self) -> int:
        return int(self.tgt_mask.sum())


def overlong_pair(pairs: list[tuple[str, str]], limit: int) -> tuple[int, int] | None:
    """The 1-based position and token count of the first pair that needs
    more than ``limit`` tokens, or None. A pair needs its longer side plus
    one token: EOS ends the source and BOS starts the target."""
    for i, (src, tgt) in enumerate(pairs, start=1):
        need = max(len(src), len(tgt)) + 1
        if need > limit:
            return i, need
    return None


def encode_pair(src: str, tgt: str, vocab: Vocabulary) -> tuple[list[int], list[int], list[int]]:
    """Encode one pair: source with a terminal EOS, target as BOS-shifted
    input and EOS-terminated output."""
    src_ids = encode(src, vocab) + [EOS_ID]
    tgt_ids = encode(tgt, vocab)
    return src_ids, [BOS_ID] + tgt_ids, tgt_ids + [EOS_ID]


def batch_from_rows(rows: list[tuple[list[int], list[int], list[int]]]) -> Batch:
    b = len(rows)
    t_s = max(len(r[0]) for r in rows)
    t_t = max(len(r[1]) for r in rows)
    src = np.full((b, t_s), PAD_ID, dtype=np.int64)
    tin = np.full((b, t_t), PAD_ID, dtype=np.int64)
    tout = np.full((b, t_t), PAD_ID, dtype=np.int64)
    for i, (s, ti, to) in enumerate(rows):
        src[i, :len(s)] = s
        tin[i, :len(ti)] = ti
        tout[i, :len(to)] = to
    return Batch(src, tin, tout)


def make_batches(corpus: ParallelCorpus, vocab: Vocabulary, max_tokens: int,
                 seed: int) -> list[Batch]:
    """Pack the corpus into padded batches with B*max(T_s, T_t) <= max_tokens.

    Pairs are shuffled by seed, then stably sorted by source length so each
    batch pads little; the final batch order is shuffled again. Every pair
    appears exactly once. A pair that cannot fit in a batch alone is
    rejected with its 1-based position in the corpus.
    """
    if len(corpus.pairs) == 0:
        return []
    overlong = overlong_pair(corpus.pairs, max_tokens)
    if overlong is not None:
        raise ValueError(f"line {overlong[0]}: pair needs {overlong[1]} tokens, "
                         f"over the {max_tokens} budget")
    encoded = [encode_pair(src, tgt, vocab) for src, tgt in corpus.pairs]
    rng = np.random.Generator(np.random.PCG64(seed))
    order = list(rng.permutation(len(encoded)))
    order.sort(key=lambda i: len(encoded[i][0]))  # stable: shuffle breaks ties
    batches: list[Batch] = []
    current: list[tuple[list[int], list[int], list[int]]] = []
    width = 0
    for i in order:
        s, ti, to = encoded[i]
        new_width = max(width, len(s), len(ti))
        if current and (len(current) + 1) * new_width > max_tokens:
            batches.append(batch_from_rows(current))
            current, width = [], 0
            new_width = max(len(s), len(ti))
        current.append((s, ti, to))
        width = new_width
    if current:
        batches.append(batch_from_rows(current))
    batch_order = rng.permutation(len(batches))
    return [batches[i] for i in batch_order]
