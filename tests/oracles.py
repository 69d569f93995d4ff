"""Independent reference implementations the tests compare against.

Everything here is written in the most literal way available (explicit
loops, dictionaries, no shared helpers with the package) so that a bug in
the package cannot hide inside its own oracle.
"""

import math
from collections import Counter

import numpy as np

from charnmt.data import BOS_ID, EOS_ID


# ---------------------------------------------------------------------------
# dense numerics
# ---------------------------------------------------------------------------

def naive_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Triple-loop 2D matrix product."""
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            s = 0.0
            for l in range(k):
                s += a[i, l] * b[l, j]
            out[i, j] = s
    return out


def brute_conv1d(x: np.ndarray, kernels: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Sliding-window convolution of [T, d_in] with explicit zero pads."""
    t, d_in = x.shape
    w, _, d_out = kernels.shape
    pad = (w - 1) // 2
    out = np.zeros((t, d_out))
    for pos in range(t):
        acc = bias.astype(float).copy()
        for k in range(w):
            src = pos + k - pad
            if 0 <= src < t:
                for o in range(d_out):
                    acc[o] += float(x[src] @ kernels[k, :, o])
        out[pos] = acc
    return out


def positions_closed_form(max_len: int, d_model: int) -> np.ndarray:
    """sin/cos position table evaluated entry by entry."""
    enc = np.zeros((max_len, d_model))
    for pos in range(max_len):
        for dim in range(d_model):
            angle = pos / 10000.0 ** (2 * (dim // 2) / d_model)
            enc[pos, dim] = math.sin(angle) if dim % 2 == 0 else math.cos(angle)
    return enc


def stable_softmax(z: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    if mask is not None:
        z = z + np.where(np.broadcast_to(mask, z.shape), 0.0, -1e9)
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def brute_layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray,
                     eps: float = 1e-5) -> np.ndarray:
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gain + bias


# ---------------------------------------------------------------------------
# taped ops as plain expressions: each takes the op's inputs and the gradient
# ``g`` of its output, and returns the output and every input's gradient,
# written as the ops wrote them before they computed in place. The ops must
# equal these bit for bit, signed zeros included.
# ---------------------------------------------------------------------------

def _sum_to(grad, shape):
    """A broadcast gradient summed back down to ``shape``."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def expr_add(a, b, g):
    return a + b, _sum_to(g, a.shape), _sum_to(g, b.shape)


def expr_mul(a, b, g):
    return a * b, _sum_to(g * b, a.shape), _sum_to(g * a, b.shape)


def expr_linear(x, w, b, g):
    return (np.matmul(x, w) + b, _sum_to(np.matmul(g, np.swapaxes(w, -1, -2)), x.shape),
            _sum_to(np.matmul(np.swapaxes(x, -1, -2), g), w.shape), _sum_to(g, b.shape))


def expr_attention(q, k, v, n_heads, mask, g):
    """Returns the context, the map, and the q, k and v gradients."""
    b, tq, d = q.shape
    tk = k.shape[1]
    dk = d // n_heads
    scale = 1.0 / math.sqrt(dk)
    qh = q.reshape(b, tq, n_heads, dk).transpose(0, 2, 1, 3)
    kt = k.reshape(b, tk, n_heads, dk).transpose(0, 2, 3, 1)
    vh = v.reshape(b, tk, n_heads, dk).transpose(0, 2, 1, 3)
    z = np.matmul(qh, kt) * scale
    if mask is not None:
        z = z + np.where(mask, 0.0, -1e9)
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    y = e / e.sum(axis=-1, keepdims=True)
    ctx = np.matmul(y, vh).transpose(0, 2, 1, 3).reshape(b, tq, d)
    gctx = np.ascontiguousarray(g.reshape(b, tq, n_heads, dk).transpose(0, 2, 1, 3))
    gy = np.matmul(gctx, np.swapaxes(vh, -1, -2))
    gz = y * (gy - (gy * y).sum(axis=-1, keepdims=True)) * scale
    gq = np.matmul(gz, np.swapaxes(kt, -1, -2))
    gkt = np.matmul(np.swapaxes(qh, -1, -2), gz)
    gv = np.matmul(np.swapaxes(y, -1, -2), gctx)
    return (ctx, y, gq.transpose(0, 2, 1, 3).reshape(b, tq, d),
            gkt.transpose(0, 3, 1, 2).reshape(b, tk, d),
            gv.transpose(0, 2, 1, 3).reshape(b, tk, d))


def expr_layer_norm(x, gain, bias, g, eps=1e-5):
    d = x.shape[-1]
    mu = x.sum(axis=-1, keepdims=True) / d
    xc = x - mu
    var = (xc * xc).sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    dxhat = g * gain
    term = dxhat - dxhat.sum(axis=-1, keepdims=True) / d \
        - xhat * ((dxhat * xhat).sum(axis=-1, keepdims=True) / d)
    axes = tuple(range(g.ndim - 1))
    return xhat * gain + bias, inv * term, (g * xhat).sum(axis=axes), g.sum(axis=axes)


def expr_log_softmax(x, g):
    z = x - x.max(axis=-1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    p = np.exp(logp)
    return logp, g - p * g.sum(axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# straight-line transformer forward (plain numpy, eval mode only)
# ---------------------------------------------------------------------------

def _sl_linear(x, w, prefix):
    return x @ w[f"{prefix}.weight"] + w[f"{prefix}.bias"]


def heads_attention(q, k, v, n_heads, mask=None):
    """Per-head scaled dot-product attention with explicit head loops:
    [T_q, d] queries over [T_k, d] keys and values, ``mask`` broadcasting to
    [T_q, T_k]. Returns the merged context [T_q, d] and the maps [h, T_q, T_k]."""
    dk = q.shape[-1] // n_heads
    heads = []
    attns = []
    for h in range(n_heads):
        qh = q[:, h * dk:(h + 1) * dk]
        kh = k[:, h * dk:(h + 1) * dk]
        vh = v[:, h * dk:(h + 1) * dk]
        logits = qh @ kh.T / math.sqrt(dk)
        a = stable_softmax(logits, mask)
        heads.append(a @ vh)
        attns.append(a)
    return np.concatenate(heads, axis=-1), np.stack(attns)


def _sl_attention(x_q, x_kv, w, prefix, n_heads, mask):
    """Per-head attention with explicit head loops; [T_q, d] inputs."""
    merged, attns = heads_attention(_sl_linear(x_q, w, f"{prefix}.q_proj"),
                                    _sl_linear(x_kv, w, f"{prefix}.k_proj"),
                                    _sl_linear(x_kv, w, f"{prefix}.v_proj"), n_heads, mask)
    return _sl_linear(merged, w, f"{prefix}.out_proj"), attns


def _sl_conv_block(m, w, prefix, pad_mask):
    """The paper's conv block: windows 3, 5 and 7, fused by a window-3 convolution."""
    x = m * pad_mask[:, None] if pad_mask is not None else m
    branches = [brute_conv1d(x, w[f"{prefix}.w{win}.weight"], w[f"{prefix}.w{win}.bias"])
                for win in (3, 5, 7)]
    fused_in = np.concatenate(branches, axis=-1)
    if pad_mask is not None:
        fused_in = fused_in * pad_mask[:, None]
    return m + brute_conv1d(fused_in, w[f"{prefix}.fuse.weight"], w[f"{prefix}.fuse.bias"])


def _sl_sublayer(x, sub, w, prefix):
    return brute_layer_norm(x + sub, w[f"{prefix}.gain"], w[f"{prefix}.bias"])


def _sl_ffn(x, w, prefix):
    h = np.maximum(_sl_linear(x, w, f"{prefix}.w1"), 0.0)
    return _sl_linear(h, w, f"{prefix}.w2")


def _sl_embed(ids, w, which, d_model, max_len):
    x = w[f"{which}.weight"][ids] * math.sqrt(d_model)
    return x + positions_closed_form(max_len, d_model)[:len(ids)]


def straight_line_encoder(src_ids, src_mask, weights, config) -> np.ndarray:
    """One sentence, [T_s] ids -> [T_s, d_model], eval mode."""
    w = weights
    x = _sl_embed(src_ids, w, "src_embed", config.d_model, config.max_len)
    for i in range(config.n_layers):
        if config.encoder_kind == "conv":
            x = _sl_conv_block(x, w, f"enc.{i}.conv", src_mask)
        a, _ = _sl_attention(x, x, w, f"enc.{i}.attn", config.n_heads, src_mask[None, :])
        x = _sl_sublayer(x, a, w, f"enc.{i}.attn_norm")
        x = _sl_sublayer(x, _sl_ffn(x, w, f"enc.{i}.ff"), w, f"enc.{i}.ff_norm")
    return x


def straight_line_decoder(tgt_in_ids, enc_out, src_mask, weights, config):
    """One sentence decoder pass -> ([T_t, vocab] logits, last cross attn)."""
    w = weights
    t = len(tgt_in_ids)
    x = _sl_embed(tgt_in_ids, w, "tgt_embed", config.d_model, config.max_len)
    causal = np.tril(np.ones((t, t), dtype=bool))
    cross = None
    for i in range(config.n_layers):
        a, _ = _sl_attention(x, x, w, f"dec.{i}.self_attn", config.n_heads, causal)
        x = _sl_sublayer(x, a, w, f"dec.{i}.self_norm")
        c, cross = _sl_attention(x, enc_out, w, f"dec.{i}.cross_attn",
                                 config.n_heads, src_mask[None, :])
        x = _sl_sublayer(x, c, w, f"dec.{i}.cross_norm")
        x = _sl_sublayer(x, _sl_ffn(x, w, f"dec.{i}.ff"), w, f"dec.{i}.ff_norm")
    return _sl_linear(x, w, "out"), cross


# ---------------------------------------------------------------------------
# losses and schedules
# ---------------------------------------------------------------------------

def brute_cross_entropy(logits: np.ndarray, tgt: np.ndarray, mask: np.ndarray,
                        smoothing: float) -> float:
    """Per-position log-softmax cross-entropy, position by position."""
    b, t, v = logits.shape
    total, count = 0.0, 0
    for i in range(b):
        for j in range(t):
            if not mask[i, j]:
                continue
            z = logits[i, j] - logits[i, j].max()
            logp = z - math.log(np.exp(z).sum())
            q = np.full(v, smoothing / v)
            q[tgt[i, j]] += 1.0 - smoothing
            total += -(q * logp).sum()
            count += 1
    return total / count


def adam_and_clip(weights: dict, m: dict, v: dict, t: int, grads: dict, lr: float,
                  max_norm: float):
    """One gradient clip and one Adam step (beta1 0.9, beta2 0.98, eps 1e-9)
    over per-name arrays, parameter by parameter in sorted-name order.
    Returns new (weights, m, v, t, pre-clip norm); the inputs are unchanged."""
    total = 0.0
    for name in sorted(grads):
        total += float((grads[name] * grads[name]).sum())
    norm = total ** 0.5
    if np.isfinite(norm) and norm > max_norm:
        factor = max_norm / norm
        grads = {name: g * factor for name, g in grads.items()}
    t += 1
    c1 = 1.0 - 0.9 ** t
    c2 = 1.0 - 0.98 ** t
    new_w, new_m, new_v = {}, {}, {}
    for name in sorted(weights):
        g = grads[name]
        new_m[name] = 0.9 * m[name] + (1.0 - 0.9) * g
        new_v[name] = 0.98 * v[name] + (1.0 - 0.98) * g * g
        m_hat = new_m[name] / c1
        v_hat = new_v[name] / c2
        new_w[name] = weights[name] - lr * m_hat / (np.sqrt(v_hat) + 1e-9)
    return new_w, new_m, new_v, t, norm


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------

def exhaustive_best_sequence(params, config, src: str, vocab):
    """Enumerate every id sequence the decoder could emit (EOS- or
    cap-terminated) and return the best one under the beam scoring rule:
    max logP, ties to the lexicographically smallest ids."""
    from charnmt.data import Batch, encode
    from charnmt.model import DecoderState, decoder_forward, encoder_forward
    from charnmt.tensor import Tensor, no_grad

    src_ids = encode(src, vocab) + [EOS_ID]
    cap = max(1, min(int(3.0 * len(src_ids)) + 10, config.max_len - 1))
    src_row = np.asarray([src_ids], dtype=np.int64)
    src_mask = np.ones((1, len(src_ids)), dtype=bool)

    def gen_batch(tgt_in):
        # the decoder reads the source from its state: the batch's source is zero-width
        no_src = np.zeros((len(tgt_in), 0), dtype=np.int64)
        return Batch(no_src, tgt_in, tgt_in)

    with no_grad():
        bos = np.full((1, 1), BOS_ID, dtype=np.int64)
        enc = encoder_forward(Batch(src_row, bos, bos), params, config)
        leaves = []
        frontier = [((), 0.0)]
        while frontier:
            tgt_in = np.asarray([(BOS_ID,) + ids for ids, _ in frontier], dtype=np.int64)
            enc_rep = Tensor(np.repeat(enc.data, len(frontier), axis=0))
            mask_rep = np.repeat(src_mask, len(frontier), axis=0)
            state = DecoderState(enc_rep, mask_rep, params, config)  # fresh: the whole prefix runs
            logits, _ = decoder_forward(gen_batch(tgt_in), state, params, config)
            last = logits.data[:, -1, :]
            last = last - last.max(axis=-1, keepdims=True)
            logp_tok = last - np.log(np.exp(last).sum(axis=-1, keepdims=True))
            nxt = []
            for row, (ids, logp) in enumerate(frontier):
                for tok in range(config.vocab_size):
                    seq = ids + (tok,)
                    seq_logp = logp + float(logp_tok[row, tok])
                    if tok == EOS_ID or len(seq) >= cap:
                        leaves.append((seq, seq_logp))
                    else:
                        nxt.append((seq, seq_logp))
            frontier = nxt

    best_ids, best_logp = min(leaves, key=lambda leaf: (-leaf[1], leaf[0]))
    ids = list(best_ids)
    if EOS_ID in ids:
        ids = ids[:ids.index(EOS_ID)]
    from charnmt.data import decode as decode_ids
    return decode_ids(ids, vocab), best_logp


def uncached_search(params, config, src: str, vocab, width: int):
    """Beam search that re-runs the decoder over the whole prefix of every
    live hypothesis at every step, under the package's rules: each live
    hypothesis expands to every token, finished ones keep competing with
    frozen log-probabilities, the kept ``width`` are the smallest (-logP,
    ids), and the search ends once every kept hypothesis has emitted EOS or
    reached the cap. Returns the best id sequence (EOS included) and the
    number of steps that had several live hypotheses and after which the
    i-th live hypothesis was not a child of the i-th one before."""
    from charnmt.data import Batch, encode
    from charnmt.model import DecoderState, decoder_forward, encoder_forward
    from charnmt.tensor import Tensor, no_grad

    src_ids = encode(src, vocab) + [EOS_ID]
    cap = max(1, min(int(3.0 * len(src_ids)) + 10, config.max_len - 1))
    src_row = np.asarray([src_ids], dtype=np.int64)
    src_mask = np.ones((1, len(src_ids)), dtype=bool)

    def gen_batch(tgt_in):
        # the decoder reads the source from its state: the batch's source is zero-width
        no_src = np.zeros((len(tgt_in), 0), dtype=np.int64)
        return Batch(no_src, tgt_in, tgt_in)

    beam = [((), 0.0, False, None)]  # (ids, logP, finished, parent)
    reparented = 0
    with no_grad():
        bos = np.full((1, 1), BOS_ID, dtype=np.int64)
        enc = encoder_forward(Batch(src_row, bos, bos), params, config)
        while True:
            live = [h for h in beam if not h[2]]
            if not live:
                break
            tgt_in = np.asarray([(BOS_ID,) + h[0] for h in live], dtype=np.int64)
            enc_rep = Tensor(np.repeat(enc.data, len(live), axis=0))
            mask_rep = np.repeat(src_mask, len(live), axis=0)
            state = DecoderState(enc_rep, mask_rep, params, config)  # fresh: the whole prefix runs
            logits, _ = decoder_forward(gen_batch(tgt_in), state, params, config)
            last = logits.data[:, -1, :]
            last = last - last.max(axis=-1, keepdims=True)
            logp_tok = last - np.log(np.exp(last).sum(axis=-1, keepdims=True))
            cands = [h for h in beam if h[2]]
            for row, (ids, logp, _, _) in enumerate(live):
                for tok in range(config.vocab_size):
                    seq = ids + (tok,)
                    cands.append((seq, logp + float(logp_tok[row, tok]),
                                  tok == EOS_ID or len(seq) >= cap, row))
            beam = sorted(cands, key=lambda h: (-h[1], h[0]))[:width]
            parents = [h[3] for h in beam if not h[2]]
            reparented += len(live) > 1 and parents != list(range(len(parents)))
    return beam[0][0], reparented


# ---------------------------------------------------------------------------
# BLEU
# ---------------------------------------------------------------------------

def brute_bleu(hypotheses, references, tokenizer="whitespace", smooth=False) -> float:
    """Corpus BLEU by explicit n-gram counting.

    Modified precision per order n in 1..4: clipped n-gram matches over
    hypothesis n-gram totals, summed across the corpus. Orders whose
    corpus-wide total is zero are left out of the geometric mean; a zero
    match count at any remaining order gives 0 (unless smoothing clamps
    match counts to at least one). Brevity penalty exp(1 - R/H) when H <= R.
    """
    assert len(hypotheses) == len(references) and hypotheses

    def toks(s):
        return list(s) if tokenizer == "char" else s.split()

    matched = {n: 0 for n in range(1, 5)}
    totals = {n: 0 for n in range(1, 5)}
    hyp_len = ref_len = 0
    for hyp, ref in zip(hypotheses, references):
        h, r = toks(hyp), toks(ref)
        hyp_len += len(h)
        ref_len += len(r)
        for n in range(1, 5):
            h_counts = Counter(tuple(h[i:i + n]) for i in range(len(h) - n + 1))
            r_counts = Counter(tuple(r[i:i + n]) for i in range(len(r) - n + 1))
            for gram, c in h_counts.items():
                matched[n] += min(c, r_counts.get(gram, 0))
                totals[n] += c
    if smooth:
        matched = {n: max(1, m) for n, m in matched.items()}
    if hyp_len == 0:
        return 0.0
    live = [n for n in range(1, 5) if totals[n] > 0]
    if any(matched[n] == 0 for n in live):
        return 0.0
    log_prec = sum(math.log(matched[n] / totals[n]) for n in live) / len(live)
    bp = 1.0 if hyp_len > ref_len else math.exp(1.0 - ref_len / hyp_len)
    return 100.0 * bp * math.exp(log_prec)


# ---------------------------------------------------------------------------
# alignment analysis
# ---------------------------------------------------------------------------

def bilinear_eval(matrix: np.ndarray, g_out: int, g_in: int) -> np.ndarray:
    """Align-corners bilinear resampling evaluated cell by cell, then
    renormalized so the grid total equals g_out."""
    t_out, t_in = matrix.shape

    def coord(g, size, grid):
        if grid == 1:
            return (size - 1) / 2.0
        return g * (size - 1) / (grid - 1)

    out = np.zeros((g_out, g_in))
    for a in range(g_out):
        for b in range(g_in):
            y = coord(a, t_out, g_out)
            x = coord(b, t_in, g_in)
            y0, x0 = int(math.floor(y)), int(math.floor(x))
            y1, x1 = min(y0 + 1, t_out - 1), min(x0 + 1, t_in - 1)
            fy, fx = y - y0, x - x0
            out[a, b] = (matrix[y0, x0] * (1 - fy) * (1 - fx)
                         + matrix[y1, x0] * fy * (1 - fx)
                         + matrix[y0, x1] * (1 - fy) * fx
                         + matrix[y1, x1] * fy * fx)
    total = out.sum()
    if total > 0:
        out *= g_out / total
    return out


def _inv_sqrt_psd(s: np.ndarray) -> np.ndarray:
    w, u = np.linalg.eigh(s)
    w = np.clip(w, 1e-12, None)
    return (u * w ** -0.5) @ u.T


def p_space_cca_correlations(x: np.ndarray, y: np.ndarray, k: int, reg: float) -> np.ndarray:
    """Regularized CCA in the full feature space: p x p covariances with reg
    on the diagonal, inverse square roots, and the SVD of the whitened
    cross-covariance; each correlation is the Pearson correlation of the
    paired variates, clipped to [0, 1] and sorted descending."""
    n, p = x.shape
    xc, yc = x - x.mean(axis=0), y - y.mean(axis=0)
    wx = _inv_sqrt_psd(xc.T @ xc / (n - 1) + reg * np.eye(p))
    wy = _inv_sqrt_psd(yc.T @ yc / (n - 1) + reg * np.eye(p))
    u, _, vt = np.linalg.svd(wx @ (xc.T @ yc / (n - 1)) @ wy)
    corrs = np.empty(k)
    for i in range(k):
        a, b = xc @ (wx @ u[:, i]), yc @ (wy @ vt[i])
        sa, sb = a.std(), b.std()
        if sa < 1e-12 or sb < 1e-12:
            corrs[i] = 1.0 if np.allclose(a, b, atol=1e-12) else 0.0
        else:
            corrs[i] = np.dot(a - a.mean(), b - b.mean()) / (n * sa * sb)
    return np.sort(np.clip(corrs, 0.0, 1.0))[::-1]


# ---------------------------------------------------------------------------
# parameter accounting
# ---------------------------------------------------------------------------

def closed_form_param_count(config) -> int:
    """Closed-form parameter total, written out term by term."""
    d, ff, v = config.d_model, config.d_ff, config.vocab_size
    attn = 4 * (d * d + d)
    norm = 2 * d
    ffn = d * ff + ff + ff * d + d
    enc_layer = attn + norm + ffn + norm
    dec_layer = 2 * (attn + norm) + ffn + norm
    total = 2 * v * d                       # src and tgt embeddings
    total += d * v + v                      # output projection
    total += config.n_layers * (enc_layer + dec_layer)
    if config.encoder_kind == "conv":
        total += config.n_layers * conv_excess_per_layer(config)
    return total


def conv_excess_per_layer(config) -> int:
    d = config.d_model
    per_window = sum(w * d * d + d for w in (3, 5, 7))
    fuse = 3 * (3 * d) * d + d  # a window-3 convolution over the three branches
    return per_window + fuse
