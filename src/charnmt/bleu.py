"""Corpus-level BLEU: geometric mean of modified n-gram precisions
(n = 1..4) with a brevity penalty, scaled to [0, 100]."""

from __future__ import annotations

import math
from collections import Counter

MAX_N = 4
TOKENIZERS = ("whitespace", "char")  # "char" suits corpora without spaces
DEFAULT_TOKENIZER = "whitespace"


def _ngrams(tokens: list[str], n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def corpus_bleu(hypotheses: list[str], references: list[str],
                tokenizer: str = DEFAULT_TOKENIZER, smooth: bool = False) -> float:
    """Corpus BLEU over paired hypothesis/reference sentences.

    ``tokenizer`` is "whitespace" for word-level scoring of detokenized
    text, or "char" to score raw character sequences (useful for corpora
    without spaces). Without smoothing any zero n-gram precision zeroes the
    whole score, as in the classic definition; ``smooth`` replaces zero
    counts with 1 so tiny corpora stay comparable.
    """
    if tokenizer not in TOKENIZERS:
        raise ValueError(f"tokenizer must be one of {TOKENIZERS}")
    if len(hypotheses) != len(references):
        raise ValueError(f"{len(hypotheses)} hypotheses vs {len(references)} references")
    if not hypotheses:
        raise ValueError("nothing to score")
    tok = (lambda s: s.split()) if tokenizer == "whitespace" else list
    matched = [0] * MAX_N
    total = [0] * MAX_N
    hyp_len = ref_len = 0
    for hyp, ref in zip(hypotheses, references):
        ht, rt = tok(hyp), tok(ref)
        hyp_len += len(ht)
        ref_len += len(rt)
        for n in range(1, MAX_N + 1):
            hc = _ngrams(ht, n)
            rc = _ngrams(rt, n)
            matched[n - 1] += sum(min(count, rc[gram]) for gram, count in hc.items())
            total[n - 1] += max(0, len(ht) - n + 1)
    if smooth:
        matched = [max(m, 1) for m in matched]
    if hyp_len == 0:
        return 0.0
    # orders the corpus is too short to have any n-grams of drop out of the
    # geometric mean, so identical corpora score 100 regardless of length
    orders = [(m, t) for m, t in zip(matched, total) if t > 0]
    if any(m == 0 for m, _ in orders):
        return 0.0
    log_prec = sum(math.log(m / t) for m, t in orders) / len(orders)
    brevity = 1.0 if hyp_len > ref_len else math.exp(1.0 - ref_len / hyp_len)
    return 100.0 * brevity * math.exp(log_prec)
