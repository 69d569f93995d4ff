"""Attention-alignment analysis.

Collects last-layer encoder-decoder attention over a sentence sample,
projects the variable-size matrices onto a fixed grid so they live in one
vector space, and scores two models' alignments against each other with
regularized canonical correlation analysis. Attention is collected with
teacher forcing against the reference targets so that two models produce
matrices of identical shape for the same sentence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Vocabulary, batch_from_rows, encode_pair
from .model import ModelConfig, extract_cross_attention
from .tensor import ParameterSet, _map_untaped

DEFAULT_GRID = 32    # grid extent on both axes
DEFAULT_K = 10       # canonical correlations averaged into rho_mean
DEFAULT_REG = 1e-4   # ridge added to each side's covariance
_COLLECT_CHUNK = 32


@dataclass
class CcaReport:
    """Canonical correlations between two models' alignment maps.

    ``correlations`` are sorted descending and clipped to [0, 1];
    ``rho_mean`` is the mean of the top k.
    """

    rho_mean: float
    correlations: tuple[float, ...]
    k: int
    n: int


def cross_attention_maps(params: ParameterSet, config: ModelConfig,
                         pairs: list[tuple[str, str]], vocab: Vocabulary) -> list[np.ndarray]:
    """Last-layer, head-averaged cross-attention of each (source, target)
    pair under teacher forcing, batched in chunks of _COLLECT_CHUNK pairs.
    The chunks run through ``_map_untaped``, on up to ``UNTAPED_THREADS``
    threads; the maps come back in pair order."""
    def chunk_maps(start: int) -> list[np.ndarray]:
        chunk = pairs[start:start + _COLLECT_CHUNK]
        batch = batch_from_rows([encode_pair(src, tgt, vocab) for src, tgt in chunk])
        return extract_cross_attention(batch, params, config)

    starts = list(range(0, len(pairs), _COLLECT_CHUNK))
    return [m for maps in _map_untaped(chunk_maps, starts) for m in maps]


def collect_alignments(models: list[tuple[ParameterSet, ModelConfig, Vocabulary]],
                       pairs: list[tuple[str, str]], n: int,
                       seed: int) -> tuple[list[int], list[list[np.ndarray]]]:
    """Sample n sentence pairs without replacement (seeded), once for every
    (params, config, vocab) model. Returns the sorted ids and, per model,
    each sampled pair's last-layer, head-averaged cross-attention under
    teacher forcing, [target_len x source_len], in id order."""
    if not pairs:
        raise ValueError("no sentence pairs to sample from")
    if not 1 <= n <= len(pairs):
        raise ValueError(f"sample size {n} must be in [1, {len(pairs)}]")
    rng = np.random.Generator(np.random.PCG64(seed))
    ids = sorted(rng.choice(len(pairs), size=n, replace=False).tolist())
    sample = [pairs[i] for i in ids]
    return ids, [cross_attention_maps(params, config, sample, vocab)
                 for params, config, vocab in models]


def _axis_coords(t: int, g: int) -> np.ndarray:
    """Align-corners sample coordinates for resizing an axis of length t to g."""
    if g == 1:
        return np.asarray([(t - 1) / 2.0])
    if t == 1:
        return np.zeros(g)
    return np.arange(g) * (t - 1) / (g - 1)


def _interp_axis(a: np.ndarray, g: int, axis: int) -> np.ndarray:
    t = a.shape[axis]
    c = _axis_coords(t, g)
    lo = np.floor(c).astype(int)
    hi = np.minimum(lo + 1, t - 1)
    frac = c - lo
    shape = [1, 1]
    shape[axis] = g
    frac = frac.reshape(shape)
    return np.take(a, lo, axis=axis) * (1.0 - frac) + np.take(a, hi, axis=axis) * frac


def project_to_grid(matrix: np.ndarray,
                    grid: tuple[int, int] = (DEFAULT_GRID, DEFAULT_GRID)) -> np.ndarray:
    """Bilinearly resample the T_out x T_in matrix to the grid and flatten
    row-major, renormalizing total mass to G_out (one unit per output row,
    as in the original row-stochastic matrix)."""
    g_out, g_in = grid
    if g_out < 1 or g_in < 1:
        raise ValueError("grid extents must be >= 1")
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2 or m.size == 0:
        raise ValueError("alignment matrix must be 2D and non-empty")
    resized = _interp_axis(_interp_axis(m, g_out, 0), g_in, 1)
    total = resized.sum()
    if total <= 0:
        raise ValueError("resampled matrix has no mass")
    return (resized * (g_out / total)).reshape(-1)


def _whiten(xc: np.ndarray, reg: float) -> np.ndarray:
    """Whitened coordinates of centred samples in their own data subspace.

    With xc = q r (thin QR) and r r^T = u diag(w) u^T, the return value b
    satisfies b v^T = xc (xc^T xc / (n-1) + reg I)^(-1/2) for an orthonormal
    basis v of xc's row space, so no matrix is p x p when n < p.
    """
    q, r = np.linalg.qr(xc)
    w, u = np.linalg.eigh(r @ r.T)
    w = np.clip(w, 0.0, None)
    return (q @ u) * np.sqrt(w / (w / (xc.shape[0] - 1) + reg))


def cca_mean_correlation(x: np.ndarray, y: np.ndarray, k: int = DEFAULT_K,
                         reg: float = DEFAULT_REG) -> CcaReport:
    """Regularized CCA between two paired sample matrices.

    Columns are centered, covariances get reg added to the diagonal, and
    each side is whitened in its own data subspace (``_whiten``); the
    canonical directions are the eigenvectors kappa of c c^T for the
    whitened cross-covariance c, each paired with c^T kappa normalized to
    unit length. Each reported correlation is the empirical (Pearson)
    correlation of the paired canonical variates, which is exactly 1 for
    identical inputs no matter the regularization strength; the mean of the
    top k is the headline number.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 2:
        raise ValueError("inputs must be 2D sample x feature matrices")
    if x.shape[0] != y.shape[0]:
        raise ValueError("sample counts differ")
    if x.shape[1] != y.shape[1]:
        raise ValueError("feature counts differ (projected to different grids?)")
    if k < 1 or k > x.shape[1]:
        raise ValueError(f"k must be in [1, {x.shape[1]}] for this feature count")
    if x.shape[0] < k + 2:
        raise ValueError(f"need at least k+2 = {k + 2} samples, got {x.shape[0]}")
    if reg <= 0:
        raise ValueError("reg must be positive")
    n = x.shape[0]
    bx = _whiten(x - x.mean(axis=0), reg)
    by = _whiten(y - y.mean(axis=0), reg)
    cross = bx.T @ by / (n - 1)
    _, u = np.linalg.eigh(cross @ cross.T)
    kappa = u[:, ::-1][:, :k]
    eta = cross.T @ kappa
    norms = np.linalg.norm(eta, axis=0)
    eta = np.where(norms > 1e-12, eta / np.maximum(norms, 1e-300), 0.0)
    corrs = np.empty(k)
    for i in range(k):
        a = bx @ kappa[:, i]
        b = by @ eta[:, i]
        sa, sb = a.std(), b.std()
        if sa < 1e-12 or sb < 1e-12:
            corrs[i] = 1.0 if np.allclose(a, b, atol=1e-12) else 0.0
        else:
            corrs[i] = float(np.dot(a - a.mean(), b - b.mean()) / (n * sa * sb))
    if not np.isfinite(corrs).all():
        raise FloatingPointError("CCA produced non-finite correlations; "
                                 "features are rank-deficient beyond the regularizer")
    corrs = np.clip(corrs, 0.0, 1.0)
    corrs[::-1].sort()
    return CcaReport(rho_mean=float(corrs.mean()), correlations=tuple(corrs),
                     k=k, n=n)


def dump_matrix(matrix: np.ndarray, path) -> None:
    """Plot-ready text dump: first line "T_out T_in", then one line of
    decimal values per output position."""
    m = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
    np.savetxt(path, m, fmt="%.8e", header=f"{m.shape[0]} {m.shape[1]}", comments="")


def alignment_report(maps_a: list[np.ndarray], maps_b: list[np.ndarray],
                     grid: tuple[int, int] = (DEFAULT_GRID, DEFAULT_GRID),
                     k: int = DEFAULT_K, reg: float = DEFAULT_REG) -> CcaReport:
    """CCA between two models' maps of the same sentences, in the same
    order (one ``collect_alignments`` call), each projected to the grid."""
    x = np.stack([project_to_grid(m, grid) for m in maps_a])
    y = np.stack([project_to_grid(m, grid) for m in maps_b])
    return cca_mean_correlation(x, y, k=k, reg=reg)
