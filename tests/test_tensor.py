"""Tensor library: op semantics, shape checks, and gradient correctness."""

import math
import threading

import numpy as np
import pytest

from charnmt.model import ModelConfig, build_params
from charnmt.tensor import (MaskError, NonFiniteError, ParameterSet, ShapeError,
                            Tensor, add, concat, conv1d_same, dropout, embedding,
                            grad_check, init_param, layer_norm, log_softmax_lastdim,
                            matmul, mul, no_grad, relu, reshape, seed_for_name,
                            softmax_lastdim, transpose, tsum)
from charnmt.training import AdamState, adam_step
from oracles import brute_conv1d, naive_matmul, stable_softmax

from conftest import rand_rng


# ---------------------------------------------------------------------------
# init_param
# ---------------------------------------------------------------------------

def test_init_param_zeros():
    t = init_param((4, 4), "zeros", 0)
    assert t.shape == (4, 4)
    assert not t.data.any()
    assert t.requires_grad


def test_init_param_deterministic():
    a = init_param((2, 3), "uniform-scaled", 7)
    b = init_param((2, 3), "uniform-scaled", 7)
    assert np.array_equal(a.data, b.data)


def test_init_param_mean_near_zero():
    t = init_param((1000, 1000), "uniform-scaled", 1)
    assert abs(t.data.mean()) < 0.01


def test_init_param_bounds_follow_fan():
    t = init_param((8, 24), "uniform-scaled", 2)
    a = math.sqrt(6.0 / (8 + 24))
    assert t.data.max() <= a and t.data.min() >= -a


def test_init_param_rejects_bad_extents():
    with pytest.raises(ShapeError):
        init_param((0, 3), "zeros", 0)
    with pytest.raises(ShapeError):
        init_param((2, -1), "uniform-scaled", 0)
    with pytest.raises(ValueError):
        init_param((2, 2), "unheard-of", 0)


# ---------------------------------------------------------------------------
# matmul
# ---------------------------------------------------------------------------

def test_matmul_identity():
    x = Tensor(rand_rng(0).normal(size=(3, 5)))
    out = matmul(Tensor(np.eye(3)), x)
    assert np.allclose(out.data, x.data)


def test_matmul_known_product():
    a = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
    b = Tensor(np.array([[5.0, 6.0], [7.0, 8.0]]))
    assert np.array_equal(matmul(a, b).data, [[19.0, 22.0], [43.0, 50.0]])


def test_matmul_matches_naive_oracle():
    rng = rand_rng(1)
    a, b = rng.normal(size=(4, 6)), rng.normal(size=(6, 3))
    assert np.allclose(matmul(Tensor(a), Tensor(b)).data, naive_matmul(a, b),
                       atol=1e-12)


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeError):
        matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))


def test_matmul_backward_finite_differences():
    rng = rand_rng(2)
    params = ParameterSet({"a": Tensor(rng.normal(size=(3, 4)), requires_grad=True),
                           "b": Tensor(rng.normal(size=(4, 2)), requires_grad=True)})
    report = grad_check(lambda p: tsum(matmul(p["a"], p["b"])), params, tol=1e-6)
    assert report.passed, report.per_param


# ---------------------------------------------------------------------------
# softmax
# ---------------------------------------------------------------------------

def test_softmax_symmetry():
    out = softmax_lastdim(Tensor(np.array([0.0, 0.0])))
    assert np.allclose(out.data, [0.5, 0.5])


def test_softmax_analytic():
    out = softmax_lastdim(Tensor(np.array([0.0, math.log(3.0)])))
    assert np.allclose(out.data, [0.25, 0.75])


def test_softmax_mask_zeroes_positions():
    out = softmax_lastdim(Tensor(np.array([5.0, 5.0, 5.0])),
                          mask=np.array([True, True, False]))
    assert np.array_equal(out.data, [0.5, 0.5, 0.0])


def test_softmax_fully_masked_slice_is_error():
    with pytest.raises(MaskError):
        softmax_lastdim(Tensor(np.ones((2, 3))),
                        mask=np.array([[True, True, True], [False, False, False]]))


@pytest.mark.invariant
def test_softmax_rows_stochastic():
    rng = rand_rng(3)
    for _ in range(100):
        x = Tensor(rng.normal(scale=5.0, size=(4, 7)))
        out = softmax_lastdim(x).data
        assert np.all(out >= 0.0) and np.all(out <= 1.0)
        assert np.allclose(out.sum(axis=-1), 1.0, atol=1e-9)


def test_log_softmax_matches_log_of_softmax():
    rng = rand_rng(4)
    x = rng.normal(size=(3, 6))
    assert np.allclose(log_softmax_lastdim(Tensor(x)).data,
                       np.log(stable_softmax(x)), atol=1e-12)


# ---------------------------------------------------------------------------
# layer_norm
# ---------------------------------------------------------------------------

def test_layer_norm_constant_input_goes_to_zero():
    x = Tensor(np.full((5,), 3.7))
    out = layer_norm(x, Tensor(np.ones(5)), Tensor(np.zeros(5)))
    assert np.allclose(out.data, 0.0)


def test_layer_norm_two_point_analytic():
    out = layer_norm(Tensor(np.array([1.0, 3.0])), Tensor(np.ones(2)),
                     Tensor(np.zeros(2)), eps=1e-12)
    assert np.allclose(out.data, [-1.0, 1.0], atol=1e-6)


def test_layer_norm_standardizes_rows():
    x = Tensor(rand_rng(5).normal(loc=2.0, scale=3.0, size=(4, 8)))
    out = layer_norm(x, Tensor(np.ones(8)), Tensor(np.zeros(8)), eps=1e-12).data
    assert np.all(np.abs(out.mean(axis=-1)) < 1e-9)
    assert np.all(np.abs(out.var(axis=-1) - 1.0) < 1e-6)


def test_layer_norm_rejects_bad_shapes():
    with pytest.raises(ShapeError):
        layer_norm(Tensor(np.ones((2, 4))), Tensor(np.ones(3)), Tensor(np.zeros(4)))


# ---------------------------------------------------------------------------
# conv1d_same
# ---------------------------------------------------------------------------

def _identity_kernels(w, d):
    k = np.zeros((w, d, d))
    k[w // 2] = np.eye(d)
    return k


def test_conv_identity_kernel():
    x = rand_rng(6).normal(size=(5, 3))
    out = conv1d_same(Tensor(x), Tensor(_identity_kernels(3, 3)), Tensor(np.zeros(3)))
    assert np.allclose(out.data, x)


def test_conv_known_average():
    x = Tensor(np.array([[1.0], [2.0], [3.0]]))
    k = Tensor(np.full((3, 1, 1), 1.0 / 3.0))
    out = conv1d_same(x, k, Tensor(np.zeros(1)))
    assert np.allclose(out.data[:, 0], [1.0, 2.0, 5.0 / 3.0])


def test_conv_matches_brute_oracle():
    rng = rand_rng(7)
    for w in (1, 3, 5, 7):
        x = rng.normal(size=(6, 4))
        kernels = rng.normal(size=(w, 4, 2))
        bias = rng.normal(size=2)
        out = conv1d_same(Tensor(x), Tensor(kernels), Tensor(bias))
        assert np.allclose(out.data, brute_conv1d(x, kernels, bias), atol=1e-12)


@pytest.mark.invariant
def test_conv_preserves_length():
    rng = rand_rng(8)
    for t in range(1, 65, 7):
        for w in (1, 3, 5, 7):
            x = Tensor(rng.normal(size=(t, 2)))
            out = conv1d_same(x, Tensor(rng.normal(size=(w, 2, 2))),
                              Tensor(np.zeros(2)))
            assert out.shape == (t, 2)


def test_conv_padding_reaches_exactly_half_window():
    # with pad = (w-1)/2 the first output sees ceil(w/2) real inputs
    for w, pad in ((3, 1), (5, 2), (7, 3)):
        t = 9
        x = np.ones((t, 1))
        k = np.ones((w, 1, 1))
        out = conv1d_same(Tensor(x), Tensor(k), Tensor(np.zeros(1))).data[:, 0]
        assert out[0] == w - pad
        assert out[t // 2] == w


def test_conv_rejects_even_window():
    with pytest.raises(ShapeError):
        conv1d_same(Tensor(np.ones((4, 2))), Tensor(np.ones((2, 2, 2))),
                    Tensor(np.zeros(2)))


def test_conv_backward_finite_differences():
    rng = rand_rng(9)
    params = ParameterSet({
        "x": Tensor(rng.normal(size=(5, 3)), requires_grad=True),
        "k": Tensor(rng.normal(size=(3, 3, 2)), requires_grad=True),
        "b": Tensor(rng.normal(size=(2,)), requires_grad=True),
    })
    report = grad_check(lambda p: tsum(conv1d_same(p["x"], p["k"], p["b"])),
                        params, tol=1e-6)
    assert report.passed, report.per_param


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------

def test_backward_sum_gives_ones():
    x = Tensor(rand_rng(10).normal(size=(2, 2)), requires_grad=True)
    tsum(x).backward()
    assert np.array_equal(x.grad, np.ones((2, 2)))


def test_backward_quadratic():
    x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    tsum(mul(x, x)).backward()
    assert np.allclose(x.grad, [2.0, -4.0])


def test_backward_accumulates_across_uses():
    x = Tensor(np.array([3.0]), requires_grad=True)
    tsum(add(x, x)).backward()
    assert np.allclose(x.grad, [2.0])


def test_backward_rejects_non_scalar():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ShapeError):
        add(x, x).backward()


def test_no_grad_suppresses_tape():
    x = Tensor(np.ones(3), requires_grad=True)
    with no_grad():
        y = mul(x, x)
    assert not y.requires_grad
    assert y.node is None


def test_no_grad_is_per_thread():
    """A thread inside no_grad leaves another thread's tape recording."""
    inside, release, untaped = threading.Event(), threading.Event(), []

    def hold():
        with no_grad():
            untaped.append(mul(Tensor(np.ones(2), requires_grad=True), Tensor(np.ones(2))))
            inside.set()
            release.wait(timeout=30)

    worker = threading.Thread(target=hold)
    worker.start()
    try:
        assert inside.wait(timeout=30)
        x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        tsum(mul(x, x)).backward()
        assert np.array_equal(x.grad, [2.0, -4.0])
    finally:
        release.set()
        worker.join(timeout=30)
    assert not worker.is_alive()
    assert untaped[0].node is None


def test_non_finite_result_is_an_error():
    big = Tensor(np.array([1e308]))
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError) as err:
        mul(big, big)
    assert "mul" in str(err.value)


# ---------------------------------------------------------------------------
# per-op gradient properties
# ---------------------------------------------------------------------------

def _op_cases():
    return [
        ("add", lambda p: tsum(add(p["x"], p["y"])), {"x": (3, 4), "y": (3, 4)}),
        ("mul", lambda p: tsum(mul(p["x"], p["y"])), {"x": (3, 4), "y": (3, 4)}),
        ("relu", lambda p: tsum(relu(p["x"])), {"x": (3, 4)}),
        ("matmul", lambda p: tsum(matmul(p["x"], p["y"])), {"x": (3, 4), "y": (4, 2)}),
        ("softmax", lambda p: tsum(mul(softmax_lastdim(p["x"]), p["y"])),
         {"x": (3, 5), "y": (3, 5)}),
        ("log_softmax", lambda p: tsum(mul(log_softmax_lastdim(p["x"]), p["y"])),
         {"x": (3, 5), "y": (3, 5)}),
        ("layer_norm", lambda p: tsum(layer_norm(p["x"], p["g"], p["b"])),
         {"x": (3, 6), "g": (6,), "b": (6,)}),
        ("layer_norm_1d", lambda p: tsum(mul(layer_norm(p["x"], p["g"], p["b"]), p["y"])),
         {"x": (6,), "g": (6,), "b": (6,), "y": (6,)}),
        ("conv1d_same_w1", lambda p: tsum(mul(conv1d_same(p["x"], p["k"], p["b"]), p["y"])),
         {"x": (2, 5, 3), "k": (1, 3, 4), "b": (4,), "y": (2, 5, 4)}),
        ("reshape", lambda p: tsum(mul(reshape(p["x"], (2, 6)), reshape(p["x"], (2, 6)))),
         {"x": (3, 4)}),
        ("transpose", lambda p: tsum(matmul(transpose(p["x"], (1, 0)), p["x"])),
         {"x": (3, 4)}),
        ("concat", lambda p: tsum(mul(concat([p["x"], p["y"]], axis=-1),
                                      concat([p["y"], p["x"]], axis=-1))),
         {"x": (2, 3), "y": (2, 3)}),
        ("mean", lambda p: tsum(mul(p["x"], p["x"])) * (1.0 / p["x"].size), {"x": (3, 4)}),
        ("broadcast_add", lambda p: tsum(mul(add(p["x"], p["b"]), p["x"])),
         {"x": (3, 4), "b": (4,)}),
        # the generator is built inside f, so every evaluation draws the same mask
        ("dropout", lambda p: tsum(mul(dropout(p["x"], 0.3, rand_rng(17)), p["y"])),
         {"x": (4, 5), "y": (4, 5)}),
    ]


@pytest.mark.parametrize("name,f,shapes", _op_cases(), ids=[c[0] for c in _op_cases()])
def test_op_gradients_match_finite_differences(name, f, shapes):
    for trial in range(20):
        rng = rand_rng(1000 + 31 * trial)
        params = ParameterSet({
            k: Tensor(rng.normal(size=shape) + (0.6 if name == "relu" else 0.0),
                      requires_grad=True)
            for k, shape in shapes.items()})
        report = grad_check(f, params, tol=1e-4)
        assert report.passed, (name, trial, report.per_param)


def test_embedding_gradients():
    rng = rand_rng(11)
    params = ParameterSet({"w": Tensor(rng.normal(size=(7, 4)), requires_grad=True)})
    ids = np.array([[0, 3, 3], [6, 1, 0]])
    report = grad_check(lambda p: tsum(mul(embedding(p["w"], ids),
                                           embedding(p["w"], ids))), params, tol=1e-5)
    assert report.passed, report.per_param


# ---------------------------------------------------------------------------
# grad_check harness itself
# ---------------------------------------------------------------------------

def test_grad_check_passes_matmul_chain():
    rng = rand_rng(12)
    params = ParameterSet({"a": Tensor(rng.normal(size=(3, 3)), requires_grad=True),
                           "b": Tensor(rng.normal(size=(3, 3)), requires_grad=True)})
    report = grad_check(lambda p: tsum(matmul(matmul(p["a"], p["b"]), p["a"])),
                        params, tol=1e-6)
    assert report.passed


def test_grad_check_passes_softmax_cross_entropy():
    rng = rand_rng(13)
    params = ParameterSet({"z": Tensor(rng.normal(size=(4, 6)), requires_grad=True)})
    target = np.zeros((4, 6))
    target[np.arange(4), [1, 0, 5, 2]] = 1.0

    def f(p):
        return tsum(mul(log_softmax_lastdim(p["z"]), Tensor(target))) * -1.0

    assert grad_check(f, params, tol=1e-5).passed


def test_grad_check_flags_detached_path():
    # mul by a detached copy drops that path's gradient, so the analytic
    # grad is x instead of 2x and the check must fail
    params = ParameterSet({"x": Tensor(np.array([1.0, 2.0]), requires_grad=True)})
    report = grad_check(lambda p: tsum(mul(p["x"], Tensor(p["x"].data.copy()))),
                        params, tol=1e-4)
    assert not report.passed


# ---------------------------------------------------------------------------
# dropout, seeds, parameter sets
# ---------------------------------------------------------------------------

def test_dropout_zero_rate_is_identity():
    x = Tensor(rand_rng(14).normal(size=(4, 4)))
    assert np.array_equal(dropout(x, 0.0, rand_rng(0)).data, x.data)


def test_dropout_scales_survivors():
    x = Tensor(np.ones((200, 50)))
    out = dropout(x, 0.25, rand_rng(15)).data
    kept = out[out != 0.0]
    assert np.allclose(kept, 1.0 / 0.75)
    assert abs((out == 0.0).mean() - 0.25) < 0.02


def test_dropout_seeded_mask_is_reproducible():
    x = Tensor(np.ones((6, 6)))
    a = dropout(x, 0.5, rand_rng(16)).data
    b = dropout(x, 0.5, rand_rng(16)).data
    assert np.array_equal(a, b)


def test_seed_for_name_stable_and_distinct():
    assert seed_for_name(0, "enc.0.attn.q_proj.weight") == \
        seed_for_name(0, "enc.0.attn.q_proj.weight")
    assert seed_for_name(0, "a") != seed_for_name(0, "b")
    assert seed_for_name(0, "a") != seed_for_name(1, "a")


def test_parameter_set_sorted_iteration_and_copy():
    params = ParameterSet({"b": Tensor(np.ones(2), requires_grad=True),
                           "a": Tensor(np.zeros(3), requires_grad=True)})
    assert params.names() == ["a", "b"]
    snap = params.copy()
    params["a"].data += 5.0
    params.load_data(snap)
    assert np.array_equal(params["a"].data, np.zeros(3))


def _small_conv_params():
    config = ModelConfig(vocab_size=12, d_model=8, n_layers=1, n_heads=2, max_len=16,
                         encoder_kind="conv", dropout=0.0)
    return build_params(config, seed=3)


@pytest.mark.invariant
def test_parameter_views_sit_at_sorted_offsets():
    params = _small_conv_params()
    assert params.names() == sorted(params.names())
    base = params.data.ctypes.data, params.grad.ctypes.data
    offset = 0
    for name, t in params.items():
        assert t.data.ctypes.data == base[0] + 8 * offset, name
        assert t.grad.ctypes.data == base[1] + 8 * offset, name
        assert np.shares_memory(t.data, params.data) and np.shares_memory(t.grad, params.grad)
        assert np.array_equal(t.data.reshape(-1), params.data[offset:offset + t.size])
        offset += t.size
    assert offset == params.data.size == params.grad.size
    params.grad[:] = np.arange(params.grad.size)
    views = params.views(params.grad)
    for name, t in params.items():
        assert np.array_equal(t.grad, views[name])
    params.zero_grad()
    assert not any(t.grad.any() for _, t in params.items())


@pytest.mark.invariant
def test_parameter_copy_shares_no_memory():
    params = _small_conv_params()
    snap = params.copy()
    for buf in (params.data, params.grad):
        assert not np.shares_memory(buf, snap.data) and not np.shares_memory(buf, snap.grad)
    before = snap.data.copy()
    params.data += 1.0
    params.grad += 1.0
    assert np.array_equal(snap.data, before) and not snap.grad.any()
    params.load_data(snap)
    assert np.array_equal(params.data, before)
    assert not np.shares_memory(params.data, snap.data)


@pytest.mark.invariant
def test_parameter_grad_cannot_be_rebound():
    params = _small_conv_params()
    name = params.names()[0]
    view = params[name].grad
    with pytest.raises(AttributeError):
        params[name].grad = np.ones(view.shape)
    assert params[name].grad is view and not params.grad.any()
    tsum(mul(params[name], params[name])).backward()
    assert np.array_equal(params.views(params.grad)[name], 2.0 * params[name].data)


@pytest.mark.invariant
def test_parameter_data_cannot_be_rebound():
    params = ParameterSet({"a": Tensor(np.ones(2), requires_grad=True)})
    with pytest.raises(AttributeError):
        params["a"].data = np.zeros(2)
    params["a"].data[:] = 0.0
    params.grad.fill(1.0)
    adam_step(params, AdamState.for_params(params), lr=0.1)
    assert np.shares_memory(params["a"].data, params.data) and params.data[0] != 0.0
    assert np.array_equal(params["a"].data, params.data)
    plain = Tensor(np.ones(2))
    plain.data = np.zeros(3)
    assert plain.shape == (3,)


def test_parameter_views_reject_other_layouts():
    params = _small_conv_params()
    with pytest.raises(ShapeError):
        params.views(np.zeros(params.data.size + 1))
    other = ParameterSet({"a": Tensor(np.zeros(3), requires_grad=True)})
    with pytest.raises(ValueError):
        params.load_data(other)
