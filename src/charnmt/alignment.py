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
from pathlib import Path

import numpy as np

from .data import Vocabulary, batch_from_rows, encode_pair, write_lines
from .model import ModelConfig, extract_cross_attention
from .tensor import ParameterSet

DEFAULT_GRID = (32, 32)
_COLLECT_CHUNK = 32


@dataclass
class AlignmentSample:
    """One sentence's head-averaged cross-attention, [target_len x source_len]."""

    sentence_id: int
    matrix: np.ndarray


@dataclass
class AlignmentSet:
    """Alignment samples from a single model over a fixed sentence sample."""

    samples: list[AlignmentSample]
    model_tag: str = ""
    language_tag: str = ""

    @property
    def n(self) -> int:
        return len(self.samples)

    def sentence_ids(self) -> list[int]:
        return [s.sentence_id for s in self.samples]


@dataclass
class CcaReport:
    """Canonical correlations between two alignment sets.

    ``correlations`` are sorted descending and clipped to [0, 1];
    ``rho_mean`` is the mean of the top k.
    """

    rho_mean: float
    correlations: tuple[float, ...]
    k: int
    n: int
    grid: tuple[int, int] = DEFAULT_GRID
    model_a: str = ""
    model_b: str = ""
    test_lang: str = ""


def cross_attention_maps(params: ParameterSet, config: ModelConfig,
                         pairs: list[tuple[str, str]], vocab: Vocabulary) -> list[np.ndarray]:
    """Last-layer, head-averaged cross-attention of each (source, target)
    pair under teacher forcing, batched in chunks of _COLLECT_CHUNK pairs."""
    maps: list[np.ndarray] = []
    for start in range(0, len(pairs), _COLLECT_CHUNK):
        chunk = pairs[start:start + _COLLECT_CHUNK]
        batch = batch_from_rows([encode_pair(src, tgt, vocab) for src, tgt in chunk])
        maps += extract_cross_attention(batch, params, config)
    return maps


def collect_alignments(params: ParameterSet, config: ModelConfig,
                       pairs: list[tuple[str, str]], vocab: Vocabulary,
                       n: int, seed: int, model_tag: str = "",
                       language_tag: str = "") -> AlignmentSet:
    """Sample n sentence pairs without replacement (seeded) and store each
    one's last-layer, head-averaged cross-attention under teacher forcing."""
    if not pairs:
        raise ValueError("no sentence pairs to sample from")
    if not 1 <= n <= len(pairs):
        raise ValueError(f"sample size {n} must be in [1, {len(pairs)}]")
    rng = np.random.Generator(np.random.PCG64(seed))
    ids = sorted(rng.choice(len(pairs), size=n, replace=False).tolist())
    maps = cross_attention_maps(params, config, [pairs[i] for i in ids], vocab)
    samples = [AlignmentSample(sentence_id=sid, matrix=m) for sid, m in zip(ids, maps)]
    return AlignmentSet(samples=samples, model_tag=model_tag, language_tag=language_tag)


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


def project_to_grid(sample: AlignmentSample, grid: tuple[int, int] = DEFAULT_GRID
                    ) -> np.ndarray:
    """Bilinearly resample the T_out x T_in matrix to the grid and flatten
    row-major, renormalizing total mass to G_out (one unit per output row,
    as in the original row-stochastic matrix)."""
    g_out, g_in = grid
    if g_out < 1 or g_in < 1:
        raise ValueError("grid extents must be >= 1")
    m = np.asarray(sample.matrix, dtype=np.float64)
    if m.ndim != 2 or m.size == 0:
        raise ValueError("alignment matrix must be 2D and non-empty")
    resized = _interp_axis(_interp_axis(m, g_out, 0), g_in, 1)
    total = resized.sum()
    if total <= 0:
        raise ValueError("resampled matrix has no mass")
    return (resized * (g_out / total)).reshape(-1)


def _inv_sqrt_psd(s: np.ndarray) -> np.ndarray:
    w, u = np.linalg.eigh(s)
    w = np.clip(w, 1e-12, None)
    return (u * w ** -0.5) @ u.T


def _svd_directions(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Left/right singular vectors of a square matrix.

    LAPACK's divide-and-conquer SVD can fail to converge when the grid
    dimension dwarfs the sample count and m is noise beyond a low-rank
    core. Fall back to the (much more robust) symmetric eigendecomposition
    of m m^T, recovering each right vector as m^T u / |m^T u|.
    """
    try:
        u, _, vt = np.linalg.svd(m)
        return u, vt
    except np.linalg.LinAlgError:
        w, u = np.linalg.eigh(m @ m.T)
        u = u[:, np.argsort(w)[::-1]]
        vcols = m.T @ u
        norms = np.linalg.norm(vcols, axis=0)
        safe = np.maximum(norms, 1e-300)
        vt = np.where(norms > 1e-12, vcols / safe, 0.0).T
        return u, vt


def cca_mean_correlation(x: np.ndarray, y: np.ndarray, k: int = 10,
                         reg: float = 1e-4) -> CcaReport:
    """Regularized CCA between two paired sample matrices.

    Columns are centered, covariances get reg added to the diagonal, and
    the canonical directions come from the SVD of the whitened
    cross-covariance. Each reported correlation is the empirical (Pearson)
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
    xc = x - x.mean(axis=0)
    yc = y - y.mean(axis=0)
    eye = np.eye(x.shape[1])
    sxx = xc.T @ xc / (n - 1) + reg * eye
    syy = yc.T @ yc / (n - 1) + reg * eye
    sxy = xc.T @ yc / (n - 1)
    wx = _inv_sqrt_psd(sxx)
    wy = _inv_sqrt_psd(syy)
    u, vt = _svd_directions(wx @ sxy @ wy)
    corrs = np.empty(k)
    for i in range(k):
        a = xc @ (wx @ u[:, i])
        b = yc @ (wy @ vt[i])
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


def write_reports_csv(reports: list[CcaReport], path) -> None:
    rows = ["model_a,model_b,test_lang,n,grid,k,rho_mean"]
    for r in reports:
        rows.append(f"{r.model_a},{r.model_b},{r.test_lang},{r.n},"
                    f"{r.grid[0]}x{r.grid[1]},{r.k},{r.rho_mean:.6f}")
    write_lines(path, rows)


def alignment_report(set_a: AlignmentSet, set_b: AlignmentSet,
                     grid: tuple[int, int] = DEFAULT_GRID, k: int = 10,
                     reg: float = 1e-4, csv_path=None, dump_dir=None) -> CcaReport:
    """CCA between two alignment sets collected over the same sentences.

    Optionally writes the one-row report CSV and, for heatmap rendering,
    per-sentence matrix dumps under dump_dir/<model tag>/.
    """
    if set_a.sentence_ids() != set_b.sentence_ids():
        raise ValueError("alignment sets cover different sentence ids")
    x = np.stack([project_to_grid(s, grid) for s in set_a.samples])
    y = np.stack([project_to_grid(s, grid) for s in set_b.samples])
    report = cca_mean_correlation(x, y, k=k, reg=reg)
    report.grid = grid
    report.model_a = set_a.model_tag
    report.model_b = set_b.model_tag
    report.test_lang = set_a.language_tag or set_b.language_tag
    if csv_path is not None:
        write_reports_csv([report], csv_path)
    if dump_dir is not None:
        for tag, aset in ((set_a.model_tag or "a", set_a), (set_b.model_tag or "b", set_b)):
            sub = Path(dump_dir) / tag
            sub.mkdir(parents=True, exist_ok=True)
            for s in aset.samples:
                dump_matrix(s.matrix, sub / f"sent{s.sentence_id}.txt")
    return report
