"""Alignment collection, grid projection, and CCA comparison."""

import numpy as np
import pytest

from charnmt.alignment import (alignment_report, cca_mean_correlation,
                               collect_alignments, cross_attention_maps,
                               project_to_grid)
from charnmt.cli import main
from charnmt.data import ParallelCorpus, build_vocab, write_lines
from charnmt.model import ModelConfig, build_params
from charnmt.training import checkpoint_save
from oracles import bilinear_eval, p_space_cca_correlations

from conftest import rand_rng


def _rand_pairs(n, seed, alphabet="abcd", min_len=3, max_len=8):
    rng = rand_rng(seed)
    pairs = []
    for _ in range(n):
        def s():
            k = int(rng.integers(min_len, max_len + 1))
            return "".join(alphabet[i] for i in rng.integers(0, len(alphabet), size=k))
        pairs.append((s(), s()))
    return pairs


@pytest.fixture(scope="module")
def align_setup():
    pairs = _rand_pairs(40, seed=31)
    vocab = build_vocab([ParallelCorpus(pairs=pairs)], 1)
    config = ModelConfig(vocab_size=vocab.size, d_model=16, n_layers=1,
                         n_heads=2, d_ff=32, max_len=64, dropout=0.0)
    params = build_params(config, seed=7)
    return params, config, vocab, pairs


# ---------------------------------------------------------------------------
# collection
# ---------------------------------------------------------------------------

def test_collect_all_pairs_covers_every_id(align_setup):
    params, config, vocab, pairs = align_setup
    ids, (sampled,) = collect_alignments([(params, config, vocab)], pairs, n=len(pairs), seed=0)
    assert ids == list(range(len(pairs)))
    maps = cross_attention_maps(params, config, pairs, vocab)
    for s, m, (src, tgt) in zip(sampled, maps, pairs):
        assert s.shape == (len(tgt) + 1, len(src) + 1)
        assert np.array_equal(s, m)
    assert cross_attention_maps(params, config, [], vocab) == []


def test_collect_rows_are_stochastic(align_setup):
    params, config, vocab, pairs = align_setup
    _, (maps,) = collect_alignments([(params, config, vocab)], pairs, n=10, seed=3)
    for s in maps:
        assert np.allclose(s.sum(axis=-1), 1.0, atol=1e-9)
        assert (s >= 0).all()


def test_collect_is_seeded(align_setup):
    params, config, vocab, pairs = align_setup
    model = [(params, config, vocab)]
    a_ids, (a,) = collect_alignments(model, pairs, n=15, seed=5)
    b_ids, (b,) = collect_alignments(model, pairs, n=15, seed=5)
    assert a_ids == b_ids
    for sa, sb in zip(a, b):
        assert np.array_equal(sa, sb)
    c_ids, _ = collect_alignments(model, pairs, n=15, seed=6)
    assert a_ids != c_ids


def test_collect_validates_sample_size(align_setup):
    params, config, vocab, pairs = align_setup
    model = [(params, config, vocab)]
    with pytest.raises(ValueError):
        collect_alignments(model, pairs, n=0, seed=0)
    with pytest.raises(ValueError):
        collect_alignments(model, pairs, n=len(pairs) + 1, seed=0)
    with pytest.raises(ValueError):
        collect_alignments(model, [], n=1, seed=0)


@pytest.mark.invariant
def test_collect_samples_once_for_every_model(align_setup):
    params, config, vocab, pairs = align_setup
    models = [build_params(config, seed=2), build_params(config, seed=99),
              build_params(config, seed=2)]
    ids, maps = collect_alignments([(p, config, vocab) for p in models], pairs, n=15, seed=4)
    assert ids == sorted(set(ids)) and len(ids) == 15
    assert 0 <= ids[0] and ids[-1] < len(pairs)
    assert len(maps) == 3
    sample = [pairs[i] for i in ids]
    for p, model_maps in zip(models, maps):
        expected = cross_attention_maps(p, config, sample, vocab)
        assert len(model_maps) == 15
        assert all(np.array_equal(m, e) for m, e in zip(model_maps, expected))
    assert all(np.array_equal(a, b) for a, b in zip(maps[0], maps[2]))
    assert not all(np.array_equal(a, b) for a, b in zip(maps[0], maps[1]))


# ---------------------------------------------------------------------------
# grid projection
# ---------------------------------------------------------------------------

def test_projection_is_identity_at_native_size():
    rng = rand_rng(40)
    m = rng.random((5, 7))
    m /= m.sum(axis=-1, keepdims=True)  # row-stochastic: mass already 5
    out = project_to_grid(m, grid=(5, 7))
    assert np.allclose(out, m.reshape(-1), atol=1e-12)


def test_projection_of_constant_matrix_is_constant():
    out = project_to_grid(np.full((3, 9), 0.25), grid=(4, 4))
    assert np.allclose(out, 1.0 / 4.0)  # g_out / (g_out * g_in)


def test_projection_upscales_identity_to_corners():
    out = project_to_grid(np.eye(2), grid=(4, 4)).reshape(4, 4)
    assert out[0].argmax() == 0 and out[3].argmax() == 3
    want = bilinear_eval(np.eye(2), 4, 4)
    assert np.allclose(out, want, atol=1e-12)


@pytest.mark.parametrize("shape", [(1, 1), (1, 5), (5, 1), (3, 4), (17, 9)])
@pytest.mark.parametrize("grid", [(32, 32), (4, 4), (1, 1), (8, 3)])
def test_projection_matches_pointwise_oracle(shape, grid):
    rng = rand_rng(41)
    m = rng.random(shape) + 0.01
    out = project_to_grid(m, grid=grid)
    want = bilinear_eval(m, *grid).reshape(-1)
    assert np.allclose(out, want, atol=1e-12)


def test_projection_mass_equals_output_rows():
    rng = rand_rng(42)
    for shape in [(2, 3), (11, 6), (31, 33)]:
        m = rng.random(shape)
        assert abs(project_to_grid(m, grid=(16, 8)).sum() - 16.0) < 1e-9


def test_projection_rejects_bad_inputs():
    with pytest.raises(ValueError):
        project_to_grid(np.ones((2, 2)), grid=(0, 4))
    with pytest.raises(ValueError):
        project_to_grid(np.zeros((3, 3)))  # no mass to renormalize


# ---------------------------------------------------------------------------
# CCA
# ---------------------------------------------------------------------------

def test_cca_self_comparison_is_one():
    rng = rand_rng(50)
    x = rng.normal(size=(200, 24))
    report = cca_mean_correlation(x, x.copy(), k=10)
    assert abs(report.rho_mean - 1.0) < 1e-6
    assert all(abs(c - 1.0) < 1e-6 for c in report.correlations)
    assert report.k == 10 and report.n == 200


def test_cca_invariant_under_orthonormal_transform():
    rng = rand_rng(51)
    x = rng.normal(size=(300, 32))
    q, _ = np.linalg.qr(rng.normal(size=(32, 32)))
    report = cca_mean_correlation(x, x @ q, k=10)
    assert abs(report.rho_mean - 1.0) < 1e-4


def test_cca_separates_related_from_independent():
    for seed in range(10):
        rng = rand_rng(1000 + seed)
        x = rng.normal(size=(500, 64))
        noisy = x + 0.5 * rng.normal(size=(500, 64))
        indep = rng.normal(size=(500, 64))
        rho_noisy = cca_mean_correlation(x, noisy, k=10).rho_mean
        rho_indep = cca_mean_correlation(x, indep, k=10).rho_mean
        assert rho_noisy > rho_indep, seed
        # top-10 correlations of independent data sit near 0.58 at this
        # sample-to-feature ratio; the noisy pair stays above 0.9
        assert rho_noisy > 0.9 and rho_indep < 0.7, seed
        assert rho_noisy - rho_indep > 0.2, seed


def test_cca_correlations_sorted_and_clipped():
    rng = rand_rng(52)
    x = rng.normal(size=(100, 8))
    y = rng.normal(size=(100, 8))
    report = cca_mean_correlation(x, y, k=8)
    corrs = np.asarray(report.correlations)
    assert (corrs[:-1] >= corrs[1:]).all()
    assert ((corrs >= 0.0) & (corrs <= 1.0)).all()


def test_cca_survives_svd_convergence_failure(monkeypatch):
    # CCA calls no SVD, so an SVD that refuses to converge (as the dense
    # SVD sometimes does on wide, noisy grids) cannot reach it
    def unstable(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", unstable)
    rng = rand_rng(54)
    x = rng.normal(size=(60, 16))
    report = cca_mean_correlation(x, x.copy(), k=5)
    assert abs(report.rho_mean - 1.0) < 1e-6
    q = np.linalg.qr(rng.normal(size=(16, 16)))[0]
    rot = cca_mean_correlation(x, x @ q, k=5)
    assert abs(rot.rho_mean - 1.0) < 1e-4


def test_cca_validates_arguments():
    rng = rand_rng(53)
    x = rng.normal(size=(30, 8))
    with pytest.raises(ValueError):
        cca_mean_correlation(x, rng.normal(size=(29, 8)), k=4)
    with pytest.raises(ValueError):
        cca_mean_correlation(x, rng.normal(size=(30, 9)), k=4)
    with pytest.raises(ValueError):
        cca_mean_correlation(x, x, k=0)
    with pytest.raises(ValueError):
        cca_mean_correlation(x, x, k=9)
    with pytest.raises(ValueError):
        cca_mean_correlation(x[:5], x[:5], k=4)  # fewer than k+2 samples
    with pytest.raises(ValueError):
        cca_mean_correlation(x, x, k=4, reg=0.0)
    with pytest.raises(ValueError):
        cca_mean_correlation(x[0], x[0], k=1)




def _related(rng, n, p, noise=0.5):
    x = rng.normal(size=(n, p)) * np.logspace(0, -3, p)
    return x, x + noise * rng.normal(size=(n, p)) * np.logspace(0, -3, p)


def _duplicated_columns(rng):
    x, y = _related(rng, 200, 12)
    return np.hstack([x, x[:, :6]]), np.hstack([y, y[:, :6]])


def _self(rng):
    x = rng.normal(size=(100, 16))
    return x, x.copy()


def _rotation(rng):
    x = rng.normal(size=(300, 32))
    return x, x @ np.linalg.qr(rng.normal(size=(32, 32)))[0]


@pytest.mark.invariant
@pytest.mark.parametrize("make, reg", [
    (lambda rng: _related(rng, 40, 300), 1e-4),
    (lambda rng: _related(rng, 40, 300), 1.0),  # spreads the n < p correlations below 1
    (lambda rng: _related(rng, 300, 20), 1e-4),
    (_duplicated_columns, 1e-4),
    (_self, 1e-4),
    (_rotation, 1e-4),
], ids=["n_below_p", "n_below_p_reg1", "n_above_p", "rank_deficient", "self", "rotation"])
def test_cca_matches_p_space_oracle(make, reg):
    x, y = make(rand_rng(55))
    report = cca_mean_correlation(x, y, k=10, reg=reg)
    want = p_space_cca_correlations(x, y, k=10, reg=reg)
    assert np.abs(np.asarray(report.correlations) - want).max() < 1e-10
    assert abs(report.rho_mean - want.mean()) < 1e-10


@pytest.mark.invariant
def test_cca_stays_in_the_sample_subspace(monkeypatch):
    # 40 samples of 1,024 features (a 32x32 grid): no SVD runs and no
    # decomposed matrix is larger than 40 x 40
    shapes = {"eigh": [], "qr": [], "svd": []}

    def spy(name):
        real = getattr(np.linalg, name)

        def recorded(a, *args, **kwargs):
            shapes[name].append(np.shape(a))
            return real(a, *args, **kwargs)
        return recorded

    for name in shapes:
        monkeypatch.setattr(np.linalg, name, spy(name))
    x, y = _related(rand_rng(56), 40, 1024)
    cca_mean_correlation(x, y, k=10)
    assert shapes["svd"] == []
    assert shapes["qr"] == [(40, 1024)] * 2
    assert shapes["eigh"] and max(max(shape) for shape in shapes["eigh"]) <= 40


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def test_report_self_comparison(align_setup):
    params, config, vocab, pairs = align_setup
    _, (a, b) = collect_alignments([(params, config, vocab)] * 2, pairs, n=12, seed=1)
    report = alignment_report(a, b, grid=(8, 8), k=5)
    assert report.rho_mean > 1.0 - 1e-6
    assert (report.k, report.n) == (5, 12)


def test_report_is_symmetric(align_setup):
    params, config, vocab, pairs = align_setup
    other = build_params(config, seed=99)
    _, (a, b) = collect_alignments([(params, config, vocab), (other, config, vocab)], pairs,
                                   n=12, seed=1)
    fwd = alignment_report(a, b, grid=(8, 8), k=5).rho_mean
    rev = alignment_report(b, a, grid=(8, 8), k=5).rho_mean
    assert abs(fwd - rev) < 1e-9


@pytest.mark.invariant
def test_report_rejects_map_lists_of_different_lengths():
    rng = rand_rng(41)
    maps = [rng.random((4, 5)) for _ in range(12)]
    with pytest.raises(ValueError, match="sample counts differ"):
        alignment_report(maps, maps[:11], grid=(8, 8), k=5)


def _analyze(align_setup, tmp_path, *extra):
    """Run `charnmt analyze` on the setup's model (saved as standard.ckpt)
    against a second seed (conv.ckpt) over the setup's pairs; return the
    two models' parameters in that order."""
    params, config, vocab, pairs = align_setup
    models = {"standard": params, "conv": build_params(config, seed=99)}
    for stem, p in models.items():
        checkpoint_save(p, config, vocab, None, tmp_path / f"{stem}.ckpt", step=0, epoch=0)
    write_lines(tmp_path / "test.src", [src for src, _ in pairs])
    write_lines(tmp_path / "test.ref", [ref for _, ref in pairs])
    assert main(["analyze", "--ckpt-a", str(tmp_path / "standard.ckpt"),
                 "--ckpt-b", str(tmp_path / "conv.ckpt"), "--src", str(tmp_path / "test.src"),
                 "--ref", str(tmp_path / "test.ref"), "--seed", "1", "--grid", "8",
                 "--k", "5", "--out", str(tmp_path / "report.csv"), *extra]) == 0
    return models


def test_report_csv_layout(align_setup, tmp_path, capsys):
    _, config, vocab, pairs = align_setup
    models = _analyze(align_setup, tmp_path, "--n", "12", "--lang", "lang_a")
    _, maps = collect_alignments([(p, config, vocab) for p in models.values()], pairs,
                                 n=12, seed=1)
    rho = alignment_report(*maps, grid=(8, 8), k=5).rho_mean
    assert capsys.readouterr().out == f"rho_mean {rho:.6f}\n"
    lines = (tmp_path / "report.csv").read_text().splitlines()
    assert lines[0] == "model_a,model_b,test_lang,n,grid,k,rho_mean"
    assert lines[1] == f"standard,conv,lang_a,12,8x8,5,{rho:.6f}"
    assert len(lines) == 2


def test_report_dump_files_parse_back(align_setup, tmp_path):
    _, config, vocab, pairs = align_setup
    dump = tmp_path / "heat"
    models = _analyze(align_setup, tmp_path, "--n", "8", "--dump-attn", str(dump))
    assert sorted(d.name for d in dump.iterdir()) == ["conv", "standard"]
    ids, maps = collect_alignments([(p, config, vocab) for p in models.values()], pairs,
                                   n=8, seed=1)
    for stem, model_maps in zip(models, maps):
        assert len(list((dump / stem).iterdir())) == 8
        for sid, m in zip(ids, model_maps):
            path = dump / stem / f"sent{sid}.txt"
            first = path.read_text().splitlines()[0].split()
            assert [int(v) for v in first] == list(m.shape)
            back = np.loadtxt(path, skiprows=1).reshape(m.shape)
            assert np.allclose(back, m, atol=1e-7)
