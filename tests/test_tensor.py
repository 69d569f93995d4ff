"""Tensor library: op semantics, shape checks, and gradient correctness."""

import ast
import math
import multiprocessing
import os
import sys
import threading
import time
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import charnmt
from charnmt.model import ModelConfig, build_params
from charnmt.tensor import (MaskError, NonFiniteError, ParameterSet, ShapeError,
                            Tensor, _map_untaped, add, attention, concat, conv1d_same, dropout,
                            embedding, grad_check, init_param, layer_norm, linear,
                            log_softmax_lastdim, matmul, mul, no_grad, relu, require_finite,
                            rerun_checked, seed_for_name, tsum)
from charnmt.training import AdamState, adam_step
from charnmt.model import model_forward
from charnmt.training import masked_cross_entropy
from oracles import (brute_conv1d, brute_layer_norm, expr_add, expr_attention, expr_layer_norm,
                     expr_linear, expr_log_softmax, expr_mul, heads_attention, naive_matmul,
                     stable_softmax)

from conftest import make_batch, rand_rng


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
# attention's masked softmax
# ---------------------------------------------------------------------------

def _softmax_of(logits, mask=None) -> np.ndarray:
    """attention's map for one head of depth 1 and one query of 1.0 against
    keys that hold ``logits``: the scale is 1, so the map is their softmax."""
    logits = np.asarray(logits, dtype=float)
    keys = Tensor(logits.reshape(1, -1, 1))
    return attention(Tensor(np.ones((1, 1, 1))), keys, keys, 1, mask)[1].data.reshape(-1)


def test_softmax_symmetry():
    assert np.allclose(_softmax_of([0.0, 0.0]), [0.5, 0.5])


def test_softmax_analytic():
    assert np.allclose(_softmax_of([0.0, math.log(3.0)]), [0.25, 0.75])


@pytest.mark.invariant
def test_softmax_mask_zeroes_positions():
    assert np.array_equal(_softmax_of([5.0, 5.0, 5.0], np.array([True, True, False])),
                          [0.5, 0.5, 0.0])


@pytest.mark.invariant
def test_softmax_fully_masked_slice_is_error():
    """The all-masked check reads the mask at its own shape: a False key row
    of a mask that broadcasts over queries (or heads), or a False entry of
    one that broadcasts over keys, still masks every key of some slice."""
    q, kv = Tensor(np.ones((2, 3, 4))), Tensor(np.ones((2, 5, 4)))  # logits [2, 2, 3, 5]
    for mask_shape in ((2, 1, 1, 5), (3, 5), (5,), (2, 2, 3, 1), (1, 1, 1, 1)):
        mask = np.ones(mask_shape, dtype=bool)
        mask[(-1,) * (len(mask_shape) - 1)] = False  # the last slice along the key axis
        with pytest.raises(MaskError):
            attention(q, kv, kv, 2, mask)


@pytest.mark.invariant
@pytest.mark.parametrize("mask_shape", [(2, 2, 3, 5), (2, 1, 1, 5), (3, 5), (5,), ()])
def test_softmax_all_true_mask_is_no_mask_bit_for_bit(mask_shape):
    """Adding the all-True mask's 0.0 turns a -0.0 logit into +0.0 and
    changes nothing else, and exp(z - max) erases that sign: attention's
    context, map and q/k/v gradients equal those of mask=None bit for bit,
    whatever the mask broadcasts over. ``model._unless_all_true`` drops
    such masks on this property."""
    rng = rand_rng(5)
    q, k, v = (rng.normal(scale=3.0, size=(2, t, 8)) for t in (3, 5, 5))  # 2 heads of depth 4
    # in head 0, q.k is -2**-1074, which the scale 1/2 rounds to a -0.0 logit:
    # for query (0, 0) against key (0, 1), and for query (1, 2) against every key
    tiny = [2.0 ** -537, 0.0, 0.0, 0.0]
    q[0, 0, :4] = q[1, 2, :4] = tiny
    k[0, 1, :4] = k[1, :, :4] = np.negative(tiny)
    logits = np.array([q[0, 0, :4] @ k[0, 1, :4]] + [q[1, 2, :4] @ key for key in k[1, :, :4]])
    assert not (logits * 0.5).any() and np.signbit(logits * 0.5).all()
    g = rand_rng(6).normal(size=q.shape)
    got = []
    for mask in (None, np.ones(mask_shape, dtype=bool)):
        qt, kt, vt = (Tensor(a.copy(), requires_grad=True) for a in (q, k, v))
        ctx, attn = attention(qt, kt, vt, 2, mask)
        tsum(ctx * Tensor(g)).backward()
        got.append([a.tobytes() for a in (ctx.data, attn.data, qt.grad, kt.grad, vt.grad)])
    assert got[0] == got[1]


@pytest.mark.invariant
@pytest.mark.parametrize("mask_shape", [(3, 4), (2, 3, 3, 5), (1, 2, 2, 3, 5)])
def test_softmax_mask_that_does_not_broadcast_names_both_shapes(mask_shape):
    """A mask must broadcast to the logits [2, 2, 3, 5] without enlarging them."""
    q, kv = Tensor(np.ones((2, 3, 4))), Tensor(np.ones((2, 5, 4)))
    with pytest.raises(ShapeError) as err:
        attention(q, kv, kv, 2, np.ones(mask_shape, dtype=bool))
    assert str(mask_shape) in str(err.value) and "(2, 2, 3, 5)" in str(err.value)


@pytest.mark.invariant
def test_softmax_rows_stochastic():
    rng = rand_rng(3)
    for _ in range(100):
        q, k = Tensor(rng.normal(scale=5.0, size=(2, 4, 6))), Tensor(rng.normal(size=(2, 7, 6)))
        attn = attention(q, k, k, 3)[1].data
        assert np.all(attn >= 0.0) and np.all(attn <= 1.0)
        assert np.allclose(attn.sum(axis=-1), 1.0, atol=1e-9)


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


@pytest.mark.invariant
def test_backward_twice_on_one_graph_gives_each_leaf_twice_its_gradient():
    """``y`` feeds both inputs of the add. Each call seeds the root afresh
    and leaves no gradient on a tensor with a node, so the second call adds
    exactly the first call's gradients: 2 x 6 = 12 on ``x``, where gradients
    kept on ``y`` and ``z`` would compound to 30."""
    x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    a = Tensor(np.array(3.0), requires_grad=True)
    y = mul(x, a)
    s = add(y, y)
    z = tsum(s)
    z.backward()
    once = x.grad.copy(), a.grad.copy()
    assert np.array_equal(once[0], [6.0, 6.0]) and once[1] == -2.0
    assert y.grad is None and s.grad is None and z.grad is None
    z.backward()
    assert np.array_equal(x.grad, 2.0 * once[0]) and a.grad == 2.0 * once[1]
    assert y.grad is None and s.grad is None and z.grad is None


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


@pytest.mark.invariant
def test_rerun_checked_runs_untaped():
    """The decorator opens ``no_grad`` itself: its function needs no block of its own."""
    x = Tensor(np.array([1.0, -2.0]), requires_grad=True)

    @rerun_checked
    def square():
        return mul(x, x)

    y = square()
    assert not y.requires_grad
    assert y.node is None


def _overflowing_caller(runs: list[str], label: str, inner=None):
    """A decorated caller that counts its runs; an overflowing ``mul`` makes
    its output (or its inner caller's) non-finite."""
    big = Tensor(np.array([1e308]))

    @rerun_checked
    def caller():
        runs.append(label)
        if inner is not None:
            return inner()
        out = mul(big, big)
        require_finite("the product", out.data)
        return out

    return caller


@pytest.mark.invariant
def test_rerun_checked_reruns_a_failed_check_once_and_names_the_op():
    runs: list[str] = []
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError, match="'mul'"):
        _overflowing_caller(runs, "body")()
    assert runs == ["body", "body"]


@pytest.mark.invariant
def test_nested_rerun_checked_does_not_rerun_inside_a_checked_rerun():
    """The inner caller runs unchecked, then checked; the outer caller's
    checked re-run runs the inner one once more, checked, and no further."""
    runs: list[str] = []
    outer = _overflowing_caller(runs, "outer", _overflowing_caller(runs, "inner"))
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError, match="'mul'"):
        outer()
    assert runs.count("inner") == 3
    assert runs.count("outer") == 2


def _thread_count_with_helper(monkeypatch) -> int:
    """Patch two threads, make sure the one helper thread is running, and
    return the process's thread count, which later calls must not change."""
    monkeypatch.setattr(charnmt.tensor, "UNTAPED_THREADS", 2)
    _map_untaped(abs, [1, 2])
    return threading.active_count()


def _finishes(fn, timeout: float = 30.0):
    """``fn()`` run in a thread of its own: its result, or its error raised
    here; a call still running after ``timeout`` seconds fails the test."""
    out: dict = {}

    def call():
        try:
            out["result"] = fn()
        except BaseException as err:  # re-raised below, on the test's thread
            out["error"] = err

    worker = threading.Thread(target=call, daemon=True)
    worker.start()
    worker.join(timeout)
    assert not worker.is_alive(), f"still running after {timeout} s: a deadlock"
    if "error" in out:
        raise out["error"]
    return out["result"]


def _custom(op: str, inputs, backward) -> Tensor:
    """A one-element taped op over ``inputs`` with the given backward rule."""
    return charnmt.tensor._make(op, np.zeros(1), tuple(inputs), backward)


def test_map_untaped_runs_parts_on_two_threads_in_order_and_untaped(monkeypatch):
    """The first two parts wait for each other, so two threads run them;
    each part runs under ``no_grad`` though the caller records a tape, the
    results come back in part order, and the second thread is the one
    persistent helper, so the thread count does not change."""
    start, threads = _thread_count_with_helper(monkeypatch), set()
    both_running = threading.Barrier(2, timeout=30)
    x = Tensor(np.arange(3.0), requires_grad=True)

    def part(k):
        threads.add(threading.get_ident())
        if k < 2:
            both_running.wait()
        return mul(x, Tensor(np.full(3, float(k))))

    out = _map_untaped(part, list(range(7)))
    assert [o.data.tolist() for o in out] == [[0.0, k, 2.0 * k] for k in range(7)]
    assert all(o.node is None and not o.requires_grad for o in out)
    assert len(threads) == 2
    assert threading.active_count() == start


def test_map_untaped_takes_every_part_once_under_fast_thread_switching(monkeypatch):
    """The caller and the helper, switching every microsecond: each part is
    taken by exactly one thread and its result lands in its own slot."""
    start, taken = _thread_count_with_helper(monkeypatch), []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        out = _map_untaped(lambda k: taken.append(k) or k * k, list(range(500)))
    finally:
        sys.setswitchinterval(interval)
    assert out == [k * k for k in range(500)]
    assert sorted(taken) == list(range(500))
    assert threading.active_count() == start


def test_map_untaped_raises_the_first_failing_part_once_every_part_finished(monkeypatch):
    """Part 1 fails after part 3 has failed, and part 4 is the last to
    finish; the error is part 1's, raised once part 4 is done, and no
    thread is added."""
    start, finished = _thread_count_with_helper(monkeypatch), []

    def part(k):
        time.sleep({1: 0.05, 4: 0.1}.get(k, 0.0))
        finished.append(k)
        if k in (1, 3):
            raise ValueError(f"part {k}")
        return k

    with pytest.raises(ValueError, match="part 1"):
        _map_untaped(part, list(range(5)))
    assert sorted(finished) == list(range(5))
    assert threading.active_count() == start


def test_map_untaped_parts_run_checked_inside_a_checked_rerun(monkeypatch):
    """Each part copies the caller's context, so in the checked re-run of a
    ``rerun_checked`` caller the parts' ops check and the error names the op."""
    monkeypatch.setattr(charnmt.tensor, "UNTAPED_THREADS", 2)
    big, runs = Tensor(np.array([1e308])), []

    @rerun_checked
    def caller():
        runs.append("caller")
        outs = _map_untaped(lambda k: mul(big, Tensor(np.array([k]))), [1.0, 2.0, 3.0])
        require_finite("the products", *(o.data for o in outs))

    with np.errstate(over="ignore"), pytest.raises(NonFiniteError, match="'mul'"):
        caller()
    assert runs == ["caller", "caller"]


def test_backward_raises_the_error_of_a_leaf_job_and_works_after_it(monkeypatch):
    """A deferred leaf gradient fails on the helper: ``backward`` raises its
    error, and the next ``backward`` fills the gradient as usual."""
    start = _thread_count_with_helper(monkeypatch)
    x, ran_on = Tensor(np.ones(1), requires_grad=True), []

    def fail():
        ran_on.append(threading.get_ident())
        raise ValueError("leaf job failed")

    with pytest.raises(ValueError, match="leaf job failed"):
        _finishes(_custom("fail", [x], lambda g: (fail,)).backward)
    assert ran_on == [charnmt.tensor._helper.ident] and x.grad is None
    _finishes(tsum(mul(x, x)).backward)
    assert np.array_equal(x.grad, [2.0])
    assert threading.active_count() == start


def test_backward_that_fails_on_the_caller_waits_for_its_leaf_jobs(monkeypatch):
    """The caller raises while a leaf job still runs on the helper;
    ``backward`` returns only once the job has written its gradient, and
    nothing writes to the arena after that."""
    _thread_count_with_helper(monkeypatch)
    params = ParameterSet({"x": Tensor(np.ones(1), requires_grad=True),
                           "z": Tensor(np.ones(1), requires_grad=True)})
    started, finished = threading.Event(), []

    def slow_leaf():
        started.set()
        time.sleep(0.2)
        finished.append(True)
        return np.full(1, 3.0)

    def fail(g):
        assert started.wait(timeout=30)
        raise ValueError("caller failed")

    y = _custom("fail", [params["z"]], fail)
    with pytest.raises(ValueError, match="caller failed"):
        _finishes(_custom("pair", [params["x"], y], lambda g: (slow_leaf, g)).backward)
    assert finished == [True]
    after = params.grad.copy()
    time.sleep(0.3)
    assert np.array_equal(params.grad, after) and np.array_equal(after, [3.0, 0.0])


def test_map_untaped_and_backward_inside_a_helper_job_run_inline(monkeypatch):
    """A job on the helper that calls ``backward`` or ``_map_untaped`` runs
    their work itself instead of waiting for the helper, that is, for itself."""
    start = _thread_count_with_helper(monkeypatch)
    helper, out = charnmt.tensor._helper.ident, {}

    def job():
        x = Tensor(np.ones(2), requires_grad=True)
        leaf_on = []
        _custom("probe", [x], lambda g: (lambda: leaf_on.append(threading.get_ident())
                                         or np.ones(2),)).backward()
        out.update(job=threading.get_ident(), leaf=leaf_on, grad=x.grad,
                   parts=_map_untaped(lambda k: threading.get_ident(), [0, 1, 2]))

    jobs = charnmt.tensor._Jobs()
    jobs.submit(job)
    _finishes(jobs.wait)
    assert out["job"] == helper and out["leaf"] == [helper] and out["parts"] == [helper] * 3
    assert np.array_equal(out["grad"], np.ones(2))
    assert threading.active_count() == start


def test_thread_count_stays_flat_over_many_steps(monkeypatch):
    """Backward, Adam and ``_map_untaped`` share the one helper thread: a
    few hundred calls start no thread."""
    start = _thread_count_with_helper(monkeypatch)
    rng = rand_rng(23)
    params = ParameterSet({"w": Tensor(rng.normal(size=(4, 3)), requires_grad=True),
                           "b": Tensor(rng.normal(size=3), requires_grad=True)})
    adam, x = AdamState.for_params(params), Tensor(rng.normal(size=(2, 5, 4)))
    for _ in range(200):
        params.zero_grad()
        tsum(linear(x, params["w"], params["b"])).backward()
        adam_step(params, adam, lr=1e-3)
        assert _map_untaped(abs, [1, -2, 3]) == [1, 2, 3]
        assert threading.active_count() == start


def test_a_forked_child_starts_its_own_helper(monkeypatch):
    """A forked child has no copy of the helper thread; its first backward
    starts a new one instead of waiting forever for the missing one."""
    _thread_count_with_helper(monkeypatch)
    x = Tensor(np.ones(3), requires_grad=True)

    def step():
        tsum(mul(x, x)).backward()
        os._exit(0 if np.array_equal(x.grad, [2.0, 2.0, 2.0]) else 1)

    child = multiprocessing.get_context("fork").Process(target=step)
    child.start()
    child.join(timeout=60)
    if child.is_alive():
        child.kill()
    assert child.exitcode == 0


def _leaf_op_cases():
    """The ops whose leaf gradients are deferred, with a forward oracle from
    ``oracles.py`` (numpy indexing for ``embedding``) and the input shapes;
    each op is affine in every input but ``x``."""
    ids = np.array([[0, 3, 3, 5], [6, 1, 0, 2]])
    return [
        ("linear", linear,
         lambda x, w, b: np.stack([naive_matmul(row, w) for row in x]) + b,
         {"x": (2, 3, 4), "w": (4, 5), "b": (5,)}),
        ("conv1d_same", conv1d_same,
         lambda x, k, b: np.stack([brute_conv1d(row, k, b) for row in x]),
         {"x": (2, 6, 3), "k": (3, 3, 4), "b": (4,)}),
        ("layer_norm", layer_norm, brute_layer_norm, {"x": (2, 3, 6), "g": (6,), "b": (6,)}),
        ("embedding", lambda w: embedding(w, ids), lambda w: w[ids], {"w": (7, 4)}),
    ]


@pytest.mark.invariant
@pytest.mark.parametrize("name,op,oracle,shapes", _leaf_op_cases(),
                         ids=[c[0] for c in _leaf_op_cases()])
def test_deferred_leaf_gradients_equal_on_one_and_two_threads(name, op, oracle, shapes,
                                                              monkeypatch):
    """Every gradient is equal with one thread and with two; each leaf's
    gradient also matches the oracle's, which (the op being affine in the
    leaf) is its loss at each unit entry less its loss at zero."""
    rng = rand_rng(41)
    arrays = {k: rng.normal(size=shape) for k, shape in shapes.items()}
    r = rng.normal(size=oracle(*arrays.values()).shape)
    grads = {}
    for threads in (1, 2):
        monkeypatch.setattr(charnmt.tensor, "UNTAPED_THREADS", threads)
        leaves = {k: Tensor(a, requires_grad=True) for k, a in arrays.items()}
        tsum(mul(op(*leaves.values()), Tensor(r))).backward()
        grads[threads] = {k: t.grad for k, t in leaves.items()}
    for k in arrays:
        assert np.array_equal(grads[1][k], grads[2][k]), k

    def loss(k, value):
        return float((oracle(*{**arrays, k: value}.values()) * r).sum())

    for k in (k for k in arrays if k != "x"):
        zero = np.zeros(shapes[k])
        expected = np.empty(shapes[k])
        for i in np.ndindex(*shapes[k]):
            unit = zero.copy()
            unit[i] = 1.0
            expected[i] = loss(k, unit) - loss(k, zero)
        assert np.allclose(grads[2][k], expected, rtol=1e-9, atol=1e-9), k


@pytest.mark.invariant
def test_only_the_tensor_module_names_no_grad():
    """Untaped callers are declared with ``rerun_checked``, which opens ``no_grad``."""
    users = set()
    for path in sorted(Path(charnmt.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = (node.id if isinstance(node, ast.Name) else
                    node.attr if isinstance(node, ast.Attribute) else
                    node.name if isinstance(node, ast.alias) else None)
            if name == "no_grad":
                users.add(path.name)
    assert users == {"tensor.py"}


# ---------------------------------------------------------------------------
# per-op gradient properties
# ---------------------------------------------------------------------------

def _op_cases():
    return [
        ("add", lambda p: tsum(add(p["x"], p["y"])), {"x": (3, 4), "y": (3, 4)}),
        ("mul", lambda p: tsum(mul(p["x"], p["y"])), {"x": (3, 4), "y": (3, 4)}),
        ("relu", lambda p: tsum(relu(p["x"])), {"x": (3, 4)}),
        ("matmul", lambda p: tsum(matmul(p["x"], p["y"])), {"x": (3, 4), "y": (4, 2)}),
        ("log_softmax", lambda p: tsum(mul(log_softmax_lastdim(p["x"]), p["y"])),
         {"x": (3, 5), "y": (3, 5)}),
        ("layer_norm", lambda p: tsum(layer_norm(p["x"], p["g"], p["b"])),
         {"x": (3, 6), "g": (6,), "b": (6,)}),
        ("layer_norm_1d", lambda p: tsum(mul(layer_norm(p["x"], p["g"], p["b"]), p["y"])),
         {"x": (6,), "g": (6,), "b": (6,), "y": (6,)}),
        ("conv1d_same_w1", lambda p: tsum(mul(conv1d_same(p["x"], p["k"], p["b"]), p["y"])),
         {"x": (2, 5, 3), "k": (1, 3, 4), "b": (4,), "y": (2, 5, 4)}),
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


_DIMS = st.lists(st.integers(1, 3), min_size=1, max_size=3).map(tuple)
_SIZE = st.integers(1, 3)


@st.composite
def _broadcast_pair(draw, keep_one_axis=True):
    """Two shapes that broadcast together: each side drops some leading axes
    of one drawn shape and sets some of the others to 1."""
    full = draw(_DIMS)

    def side():
        drop = draw(st.integers(0, len(full) - keep_one_axis))
        return tuple(1 if draw(st.booleans()) else n for n in full[drop:])

    return side(), side()


def _linear_shapes(draw):
    """x [..., k] (2-D or batched), w [k, n] and b [n]."""
    k, n = draw(_SIZE), draw(_SIZE)
    lead = draw(st.lists(_SIZE, min_size=1, max_size=3).map(tuple))
    return lead + (k,), (k, n), (n,)


@st.composite
def _attention_case(draw):
    """B, T_q, heads and d_k, and one of the model's three mask cases: none,
    causal [T_q, T_k] or key padding [B, 1, 1, T_k] that keeps a key in
    every row."""
    b, tq, heads, dk = draw(_SIZE), draw(_SIZE), draw(_SIZE), draw(_SIZE)
    kind = draw(st.sampled_from(["none", "causal", "keys"]))
    if kind == "none":
        return b, tq, heads, dk, None
    if kind == "causal":  # the decoder's mask over a past of ``start`` positions
        start = draw(st.integers(0, 2))
        return b, tq, heads, dk, np.tri(tq, start + tq, start, dtype=bool)
    tk = draw(st.integers(1, 4))
    keep = np.asarray(draw(st.lists(st.booleans(), min_size=b * tk, max_size=b * tk)))
    keep = keep.reshape(b, 1, 1, tk)
    keep[..., draw(st.integers(0, tk - 1))] = True
    return b, tq, heads, dk, keep


@st.composite
def _tape_case(draw, op):
    """A function of a parameter set that applies ``op`` once, and the
    parameter shapes it takes, drawn for ``op``."""
    if op in ("add", "mul"):
        x, y = draw(_broadcast_pair())
        fn = add if op == "add" else mul
        return (lambda p: fn(p["x"], p["y"])), {"x": x, "y": y}
    if op == "matmul":
        x, y = draw(_broadcast_pair(keep_one_axis=False))
        m, k, n = draw(_SIZE), draw(_SIZE), draw(_SIZE)
        return (lambda p: matmul(p["x"], p["y"])), {"x": x + (m, k), "y": y + (k, n)}
    if op == "linear":
        x, w, b = _linear_shapes(draw)
        return (lambda p: linear(p["x"], p["w"], p["b"])), {"x": x, "w": w, "b": b}
    if op == "layer_norm":
        d = draw(st.integers(3, 5))
        x = draw(st.lists(_SIZE, max_size=2).map(tuple)) + (d,)
        return (lambda p: layer_norm(p["x"], p["g"], p["b"])), {"x": x, "g": (d,), "b": (d,)}
    if op == "conv1d_same":
        w, d_in, d_out = draw(st.sampled_from([1, 3, 5])), draw(_SIZE), draw(_SIZE)
        lead = draw(st.lists(_SIZE, min_size=1, max_size=2).map(tuple))
        x = lead + (draw(st.integers(1, 4)), d_in)
        return ((lambda p: conv1d_same(p["x"], p["k"], p["b"])),
                {"x": x, "k": (w, d_in, d_out), "b": (d_out,)})
    if op == "concat":
        base = draw(_DIMS)
        axis = draw(st.integers(-len(base), len(base) - 1))
        sizes = draw(st.lists(_SIZE, min_size=1, max_size=3))
        shapes = {f"x{i}": base[:axis % len(base)] + (n,) + base[axis % len(base) + 1:]
                  for i, n in enumerate(sizes)}
        return (lambda p: concat([p[name] for name in shapes], axis=axis)), shapes
    if op == "attention":
        b, tq, heads, dk, mask = draw(_attention_case())
        tk = mask.shape[-1] if mask is not None else draw(_SIZE)
        return ((lambda p: attention(p["q"], p["k"], p["v"], heads, mask)[0]),
                {"q": (b, tq, heads * dk), "k": (b, tk, heads * dk), "v": (b, tk, heads * dk)})
    assert op == "tsum"
    return (lambda p: mul(tsum(p["x"]), tsum(mul(p["x"], p["x"])))), {"x": draw(_DIMS)}


@pytest.mark.parametrize("op", ["add", "mul", "matmul", "linear", "attention", "layer_norm",
                                "conv1d_same", "concat", "tsum"])
@settings(max_examples=25)
@given(data=st.data())
def test_tape_op_gradients_over_drawn_shapes(op, data):
    """Each differentiable op's backward agrees with central differences
    over drawn shapes, broadcasts, masks and windows; every output entry
    reaches the checked sum through its own fixed random weight."""
    fn, shapes = data.draw(_tape_case(op))
    rng = rand_rng(data.draw(st.integers(0, 2**16)))
    params = ParameterSet({name: Tensor(rng.normal(size=shape), requires_grad=True)
                           for name, shape in shapes.items()})
    with no_grad():
        weight = Tensor(rng.normal(size=fn(params).shape))
    report = grad_check(lambda p: tsum(mul(fn(p), weight)), params, tol=1e-4)
    assert report.passed, (op, shapes, report.per_param)


@pytest.mark.invariant
@settings(max_examples=40)
@given(data=st.data())
def test_linear_is_bit_equal_to_matmul_then_add(data):
    """The fused op rounds exactly as the two ops it replaces, in the
    forward and in all three gradients, for 2-D and batched inputs."""
    x_shape, w_shape, b_shape = _linear_shapes(data.draw)
    rng = rand_rng(data.draw(st.integers(0, 2**16)))
    values = [rng.normal(size=shape) for shape in (x_shape, w_shape, b_shape)]
    out_weight = rng.normal(size=x_shape[:-1] + w_shape[1:])
    runs = []
    for fn in (linear, lambda x, w, b: add(matmul(x, w), b)):
        x, w, b = (Tensor(v.copy(), requires_grad=True) for v in values)
        out = fn(x, w, b)
        tsum(mul(out, Tensor(out_weight))).backward()
        runs.append((out.data, x.grad, w.grad, b.grad))
    for fused, chained in zip(*runs):
        assert fused.shape == chained.shape
        assert fused.tobytes() == chained.tobytes()


def _with_signed_zeros(rng, a: np.ndarray) -> np.ndarray:
    """``a`` with about a fifth of its entries set to +0.0 and a fifth to -0.0."""
    a = np.array(a)
    u = rng.random(a.shape)
    a[u < 0.2] = 0.0
    a[u > 0.8] = -0.0
    return a


_KEY_MASK = np.array([True, True, False, True, False])[None, None, None, :]
# name: (op, its plain expression in oracles.py, input shapes); attention's
# heads have depth 3, so that its scale 1/sqrt(3) rounds
_EXPR_CASES = {
    "add": (add, expr_add, [(2, 3, 4), (2, 3, 4)]),
    "add_broadcast": (add, expr_add, [(2, 1, 4), (3, 1)]),
    "add_scalar": (add, expr_add, [(3, 4), ()]),
    "mul": (mul, expr_mul, [(2, 3, 4), (2, 3, 4)]),
    "mul_broadcast": (mul, expr_mul, [(2, 1, 4), (3, 1)]),
    "mul_scalar": (mul, expr_mul, [(3, 4), ()]),
    "linear": (linear, expr_linear, [(2, 3, 5), (5, 4), (4,)]),
    "linear_2d": (linear, expr_linear, [(3, 5), (5, 4), (4,)]),
    "layer_norm": (layer_norm, expr_layer_norm, [(2, 3, 6), (6,), (6,)]),
    "log_softmax": (log_softmax_lastdim, expr_log_softmax, [(2, 3, 7)]),
    "attention": (lambda q, k, v: attention(q, k, v, 2),
                  lambda q, k, v, g: expr_attention(q, k, v, 2, None, g),
                  [(2, 3, 6), (2, 5, 6), (2, 5, 6)]),
    "attention_key_mask": (lambda q, k, v: attention(q, k, v, 2, _KEY_MASK),
                           lambda q, k, v, g: expr_attention(q, k, v, 2, _KEY_MASK, g),
                           [(2, 3, 6), (2, 5, 6), (2, 5, 6)]),
    "attention_causal": (lambda q, k, v: attention(q, k, v, 2, np.tri(4, dtype=bool)),
                         lambda q, k, v, g: expr_attention(q, k, v, 2, np.tri(4, dtype=bool), g),
                         [(2, 4, 6), (2, 4, 6), (2, 4, 6)]),
}


@pytest.mark.invariant
@pytest.mark.parametrize("case", list(_EXPR_CASES))
def test_ops_equal_their_plain_expressions_bit_for_bit(case):
    """The ops that compute in place (or defer their gradients) give the
    bytes of the expressions they replaced: every output (attention's map
    too) and every input's gradient, with signed zeros in the inputs and
    in the output's gradient."""
    op, expr, shapes = _EXPR_CASES[case]
    rng = rand_rng(43)
    arrays = [_with_signed_zeros(rng, rng.normal(scale=3.0, size=shape)) for shape in shapes]
    leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    outs = op(*leaves)
    outs = outs if isinstance(outs, tuple) else (outs,)
    g = _with_signed_zeros(rng, rng.normal(size=outs[0].shape))
    tsum(mul(outs[0], Tensor(g))).backward()
    got = [t.data for t in outs] + [t.grad for t in leaves]
    want = expr(*arrays, g)
    assert len(got) == len(want)
    for i, (a, b) in enumerate(zip(got, want)):
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), i


@settings(max_examples=40)
@given(data=st.data())
def test_attention_matches_per_head_oracle(data):
    """The op's merged context and its untaped maps equal explicit per-head
    loops, row by row, for each mask case the models pass."""
    b, tq, heads, dk, mask = data.draw(_attention_case())
    tk = mask.shape[-1] if mask is not None else data.draw(_SIZE)
    rng = rand_rng(data.draw(st.integers(0, 2**16)))
    q, k, v = (rng.normal(size=(b, t, heads * dk)) for t in (tq, tk, tk))
    ctx, attn = attention(Tensor(q, requires_grad=True), Tensor(k), Tensor(v), heads, mask)
    assert ctx.node is not None and attn.node is None and not attn.requires_grad
    assert ctx.shape == (b, tq, heads * dk) and attn.shape == (b, heads, tq, tk)
    for row in range(b):
        row_mask = mask if mask is None or mask.ndim == 2 else mask[row, 0]
        want_ctx, want_attn = heads_attention(q[row], k[row], v[row], heads, row_mask)
        assert np.allclose(ctx.data[row], want_ctx, rtol=0.0, atol=1e-12)
        assert np.allclose(attn.data[row], want_attn, rtol=0.0, atol=1e-12)


@pytest.mark.invariant
def test_attention_rejects_bad_shapes_and_masks():
    """Mismatched q/k/v ranks or extents and a width the heads do not divide
    are shape errors naming every shape; a mask that does not broadcast to
    the logits names both shapes, and an all-masked row is a mask error."""
    q, kv = Tensor(np.ones((2, 3, 4))), Tensor(np.ones((2, 5, 4)))
    for args in ((Tensor(np.ones((3, 4))), kv, kv, 2),
                 (q, Tensor(np.ones((2, 1, 5, 4))), kv, 2),
                 (q, Tensor(np.ones((1, 5, 4))), Tensor(np.ones((1, 5, 4))), 2),
                 (q, Tensor(np.ones((2, 5, 6))), Tensor(np.ones((2, 5, 6))), 2),
                 (q, kv, Tensor(np.ones((2, 4, 4))), 2),
                 (q, kv, kv, 3),
                 (q, kv, kv, 0)):
        with pytest.raises(ShapeError) as err:
            attention(*args)
        assert all(str(t.shape) in str(err.value) for t in args[:3]), err.value
    for mask_shape in ((2, 4), (5, 3), (2, 2, 2, 3, 5), (3, 1, 1, 5)):
        with pytest.raises(ShapeError) as err:
            attention(q, kv, kv, 2, np.ones(mask_shape, dtype=bool))
        assert str(mask_shape) in str(err.value) and "(2, 2, 3, 5)" in str(err.value)
    for mask in (np.tri(3, 5, -1, dtype=bool), np.arange(2)[:, None, None, None] * np.ones(5) > 0):
        with pytest.raises(MaskError):
            attention(q, kv, kv, 2, mask)


def test_linear_rejects_bad_shapes():
    x, w = Tensor(np.ones((2, 3))), Tensor(np.ones((3, 4)))
    for args in ((Tensor(np.ones(3)), w, Tensor(np.ones(4))),
                 (x, Tensor(np.ones((2, 3, 4))), Tensor(np.ones(4))),
                 (x, Tensor(np.ones((4, 4))), Tensor(np.ones(4))),
                 (x, w, Tensor(np.ones(3))),
                 (x, w, Tensor(np.ones((1, 4))))):
        with pytest.raises(ShapeError):
            linear(*args)


@pytest.mark.invariant
def test_first_gradients_are_private_copies_laid_out_like_data(tiny_vocab):
    """``add`` hands one array to both parents; each keeps its own copy,
    laid out like its own data, not like the array it was handed. Over one
    training step of each encoder kind, whether adopted or copied, the
    gradient each rule receives and each parameter's gradient are laid out
    like their tensor's data and no two share memory; afterwards only the
    parameters hold a gradient."""
    rng = rand_rng(18)
    a = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
    b = Tensor(rng.normal(size=(6, 4)).T, requires_grad=True)
    assert not b.data.flags.c_contiguous
    tsum(mul(add(a, b), Tensor(rng.normal(size=(4, 6))))).backward()
    assert not np.shares_memory(a.grad, b.grad)
    assert a.grad.strides == a.data.strides and b.grad.strides == b.data.strides
    assert np.array_equal(a.grad, b.grad)

    def recording(t, rule, g):
        received.append((t.data, g))
        return rule(g)

    batch = make_batch([("abcd", "dcba"), ("ab", "ba"), ("dca", "acd")], tiny_vocab)
    for kind in ("standard", "conv"):
        config = ModelConfig(vocab_size=tiny_vocab.size, d_model=16, n_layers=2, n_heads=2,
                             d_ff=32, max_len=64, encoder_kind=kind, dropout=0.1)
        params = build_params(config, seed=7)
        logits, _ = model_forward(batch, params, config, rng=rand_rng(3))
        loss = masked_cross_entropy(logits, batch.tgt_out_ids, batch.tgt_mask, 0.1)
        received, taped, todo = [], {}, [loss]
        while todo:
            t = todo.pop()
            if t.node is not None and id(t) not in taped:
                taped[id(t)] = t
                t.node.backward = partial(recording, t, t.node.backward)
                todo.extend(t.node.inputs)
        loss.backward()
        assert len(received) == len(taped), kind
        grads = received + [(p.data, p.grad) for _, p in params.items()]
        for i, (data, g) in enumerate(grads):
            assert g.shape == data.shape and g.strides == data.strides, (kind, i)
            assert not any(np.shares_memory(g, h) for _, h in grads[i + 1:]), (kind, i)
        assert all(t.grad is None for t in taped.values()), kind


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


def test_grad_check_raises_on_a_non_finite_value():
    """Untaped passes skip the per-op checks, and a NaN central difference
    would fail every comparison and pass; a non-finite f is an error naming
    the parameter, the flat index and the op."""
    params = ParameterSet({"x": Tensor(np.array([0.5, 1.0, 1.5 - 1e-6, 0.2]),
                                       requires_grad=True)})

    def f(p):  # NaN once x[2] is pushed above 1.5
        return tsum(mul(p["x"], Tensor(np.where(p["x"].data > 1.5, np.nan, 1.0))))

    with pytest.raises(NonFiniteError, match=r"'x' entry 2 perturbed.*'mul'"):
        grad_check(f, params)
    assert np.array_equal(params["x"].data, [0.5, 1.0, 1.5 - 1e-6, 0.2])


def test_grad_check_calls_f_twice_plus_twice_per_checked_entry():
    """Two forward passes for the determinism check, backward on the first
    one's tape, then two per checked entry for its central difference."""
    params = ParameterSet({"a": Tensor(np.array([0.5, -1.0, 2.0]), requires_grad=True),
                           "b": Tensor(np.ones((2, 2)), requires_grad=True)})
    calls = []

    def f(p):
        calls.append(1)
        return tsum(mul(p["a"], p["a"])) + tsum(mul(p["b"], p["b"]))

    assert grad_check(f, params, sample=2).passed
    assert len(calls) == 2 + 2 * 4
    calls.clear()
    assert grad_check(f, params).passed
    assert len(calls) == 2 + 2 * 7


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
    assert np.array_equal(snap["a"].data, np.zeros(3))


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
