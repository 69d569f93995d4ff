"""Dense float64 tensors with reverse-mode automatic differentiation.

Implements the operations the encoder/decoder models need: broadcasting
elementwise arithmetic, the affine map ``linear`` (x @ W + b as one op),
multi-head scaled dot-product ``attention`` (head split, both products,
masked softmax and head merge as one op, and the only softmax the models
run), log-softmax over the last axis, layer normalization, same-padded 1D
convolution, embedding lookup, dropout, concatenation, and reductions.
(Batched) ``matmul`` is no model's op: it stays as the reference that
``linear`` must equal bit for bit, and for the benchmark's tracer.

Gradients: the first gradient that reaches an intermediate tensor is
copied into a fresh array laid out like its data, and later ones are added
with ``+=``. A parameter's gradient is a view into its ParameterSet's
arena, so every gradient is added to it; call ``ParameterSet.zero_grad``
between optimizer steps.

Finite checks: an op checks its output while a tape is recorded or inside
a checked re-run; a ``rerun_checked`` function runs untaped and checks its
outputs once, with ``require_finite``, and after a failure runs again with
every op checked, so the error still names the op. Ops that only move,
select or clamp values never check, so a non-finite leaf is caught at the
first arithmetic op that reads it.

Threads: one helper thread, started on first use and kept for the life
of the process, shares the work of the calling thread (``_Jobs``). A tape
is recorded and walked on the calling thread, and ``_make`` and the finite
checks run there; ``Tensor.backward`` hands every leaf's gradient to the
helper, in tape order, and ``adam_step`` one half of its arena. An untaped
caller may split its rows into parts and run them through
``_map_untaped``, the two threads each taking the next part. numpy
releases the interpreter lock inside its products and reductions, so the
two threads overlap there. With ``UNTAPED_THREADS`` below 2, everything
runs on the calling thread.
"""

from __future__ import annotations

import hashlib
import math
import os
import queue
import threading
from contextlib import contextmanager
from contextvars import ContextVar, copy_context
from dataclasses import dataclass, field
from functools import partial, wraps
from typing import Callable, Iterable, Iterator

import numpy as np

MASK_NEG = -1e9  # additive logit for masked positions; underflows to 0 after softmax


class ShapeError(ValueError):
    """Operand shapes violate an op's contract."""


class MaskError(ValueError):
    """An attention slice (or a loss) has every position masked."""


class NonFiniteError(FloatingPointError):
    """An op produced NaN or Inf."""


_grad_enabled = ContextVar("grad_enabled", default=True)
_checks_forced = ContextVar("checks_forced", default=False)


@contextmanager
def no_grad():
    """Disable tape recording in this thread inside the block (forward
    values unchanged)."""
    token = _grad_enabled.set(False)
    try:
        yield
    finally:
        _grad_enabled.reset(token)


# ops whose output holds only input values (or zeros): finite in, finite out
_PASS_THROUGH = frozenset({"concat", "embedding", "relu"})


def _finite(arr: np.ndarray) -> bool:
    # sum is NaN/Inf iff the array holds one (values here stay far below
    # overflow, so a finite array cannot overflow the sum)
    return math.isfinite(float(arr.sum()))


def require_finite(what: str, *arrays: np.ndarray) -> None:
    """The one finite check of an untaped caller's outputs (see ``rerun_checked``)."""
    if not all(_finite(a) for a in arrays):
        raise NonFiniteError(f"non-finite values in {what}")


def rerun_checked(fn: Callable) -> Callable:
    """Declare ``fn`` an untaped caller. ``fn`` is deterministic, runs under
    ``no_grad`` with the per-op checks off and checks its outputs with
    ``require_finite``; after a ``NonFiniteError`` it runs once more with
    every op checked, so the error names the op, and inside that checked
    re-run it is not re-run again. On an error path only, a decorated caller
    of a decorated function also re-runs, though the inner error named the op."""
    @wraps(fn)
    def call(*args, **kwargs):
        with no_grad():
            try:
                return fn(*args, **kwargs)
            except NonFiniteError:
                if _checks_forced.get():
                    raise
            token = _checks_forced.set(True)
            try:
                return fn(*args, **kwargs)
            finally:
                _checks_forced.reset(token)

    return call


def _affinity_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


# 2: the caller and the helper thread share work; below 2, every job of
# ``_Jobs`` runs inline in its caller. Read at each call, so a test may patch it.
UNTAPED_THREADS = min(2, _affinity_cpus())

_helper: threading.Thread | None = None  # started on first use
_helper_jobs: queue.SimpleQueue = queue.SimpleQueue()
_helper_lock = threading.Lock()


def _serve(jobs: queue.SimpleQueue) -> None:
    while True:
        jobs.get()()  # a ``_Jobs`` job, which never raises


def _forget_helper() -> None:
    """In a forked child: the helper thread was not copied, so the next job starts a new one."""
    global _helper, _helper_jobs, _helper_lock
    _helper, _helper_jobs, _helper_lock = None, queue.SimpleQueue(), threading.Lock()


if hasattr(os, "register_at_fork"):  # platforms that fork
    os.register_at_fork(after_in_child=_forget_helper)


class _Jobs:
    """Jobs run one after another, in the order given, on the one helper
    thread, while the caller goes on with its own work. They run in a copy
    of the caller's context, so numpy's ``errstate`` carries over.

    ``wait`` returns once every job given has finished, then raises the
    first job's error; the jobs after a failed one are skipped. Where the
    helper is not used (``UNTAPED_THREADS`` below 2, or a caller that is
    itself a job on the helper, which would wait for itself), each job runs
    inline when given and its error is raised there.
    """

    def __init__(self):
        global _helper
        self._queue: queue.SimpleQueue | None = None
        self._error: BaseException | None = None
        self._context = copy_context()
        if UNTAPED_THREADS < 2 or threading.current_thread() is _helper:
            return
        with _helper_lock:
            if _helper is None:
                _helper = threading.Thread(target=_serve, args=(_helper_jobs,),
                                           name="charnmt-helper", daemon=True)
                _helper.start()
            self._queue = _helper_jobs

    def submit(self, job: Callable[[], object]) -> None:
        if self._queue is None:
            job()
        else:
            self._queue.put(lambda: self._run(job))

    def _run(self, job: Callable[[], object]) -> None:
        if self._error is None:
            try:
                self._context.run(job)
            except BaseException as err:  # raised by ``wait``, on the caller
                self._error = err

    def wait(self) -> None:
        if self._queue is not None:
            done = threading.Event()
            self._queue.put(done.set)
            done.wait()
        if self._error is not None:
            raise self._error


def _map_untaped(fn: Callable, parts: list) -> list:
    """``[fn(part) for part in parts]``, each call under ``no_grad``, shared
    by the calling thread and the helper thread of ``_Jobs``: each takes the
    next part not yet taken.

    Each part runs in its own copy of the caller's context, so the checked
    re-run flag of ``rerun_checked`` carries over. Results come back in part
    order. If parts fail, the first failing part's error is raised, once
    every part has finished. Fewer than two parts, or a caller for which
    ``_Jobs`` runs inline, run every part in the calling thread.

    The name is private so that perfbench's layer tracer, which makes a span
    of every public function, does not stand between a search's span and
    the decoder calls it counts under it.
    """
    def run(part):
        with no_grad():
            return fn(part)

    if len(parts) < 2:
        return [run(part) for part in parts]
    context, lock, todo = copy_context(), threading.Lock(), iter(range(len(parts)))
    results: list = [None] * len(parts)
    errors: list[BaseException | None] = [None] * len(parts)

    def work():
        while True:
            with lock:
                i = next(todo, None)
            if i is None:
                return
            try:
                results[i] = context.copy().run(run, parts[i])
            except BaseException as err:  # re-raised by the caller, in part order
                errors[i] = err

    jobs = _Jobs()
    jobs.submit(work)  # where ``_Jobs`` runs inline, this takes every part
    try:
        work()
    finally:
        jobs.wait()
    for err in errors:
        if err is not None:
            raise err
    return results


@dataclass
class TapeNode:
    """One reverse-mode record: the op, its inputs, and a backward rule.

    Per-op cached forward values live in the ``backward`` closure. The tape
    formed by following ``inputs`` is acyclic; ``Tensor.backward`` visits
    each node exactly once in reverse topological order. ``backward`` maps
    the output's gradient to one gradient per input: an array, or a
    zero-argument callable that returns one, which ``Tensor.backward`` calls
    only for an input that requires a gradient, off the critical path if
    that input is a leaf.
    """

    op: str
    inputs: tuple["Tensor", ...]
    backward: Callable[[np.ndarray], tuple]


class Tensor:
    """N-dimensional float64 array with an optional gradient.

    ``data`` is a row-major numpy array; ``grad`` has the same shape once
    populated by ``backward``. Tensors are plain values: ops return new
    tensors and never mutate inputs. A tape is recorded and walked on one
    thread; ``backward`` hands the leaves' gradients to the helper thread
    (see ``_Jobs``), and untaped callers may split their rows over both
    threads through ``_map_untaped``.
    """

    __slots__ = ("data", "_grad", "requires_grad", "node")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self._grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.node: TapeNode | None = None

    @property
    def grad(self) -> np.ndarray | None:
        """Read-only, so a parameter's gradient stays a view into the buffer
        of its ParameterSet; ``backward`` accumulates into it in place."""
        return self._grad

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- operator sugar -------------------------------------------------
    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __mul__(self, other):
        return mul(self, _as_tensor(other))

    def backward(self) -> None:
        """Populate ``grad`` on every requires_grad tensor reachable from here.

        Only valid on scalar (single-element) tensors. Gradients accumulate
        across calls until ``ParameterSet.zero_grad``. The calling thread
        walks the tape and accumulates the gradients of intermediate
        tensors; every leaf's gradient (a tensor with no node: in the models,
        a parameter) is computed and accumulated by the ``_Jobs`` helper, in
        tape order, so each sum runs in the same order on one thread or two.
        No leaf job still runs when this returns or raises; a leaf job's
        error is raised here, after every job has stopped.
        """
        if self.size != 1:
            raise ShapeError(f"backward on non-scalar tensor of shape {self.shape}")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            t, expanded = stack.pop()
            if expanded:
                topo.append(t)
                continue
            if id(t) in seen or t.node is None:
                continue
            seen.add(id(t))
            stack.append((t, True))
            for parent in t.node.inputs:
                stack.append((parent, False))
        if self._grad is None:
            self._grad = np.zeros_like(self.data)
        self._grad += 1.0
        leaves = _Jobs()
        try:
            for t in reversed(topo):
                node = t.node
                assert node is not None
                grads = node.backward(t._grad)
                for parent, g in zip(node.inputs, grads):
                    if not parent.requires_grad:
                        continue
                    if parent.node is None:
                        leaves.submit(partial(parent._accumulate, g))
                    else:
                        parent._accumulate(g)
        finally:
            leaves.wait()

    def _accumulate(self, g) -> None:
        """Add ``g``, an array or a callable returning one, to ``grad``."""
        if callable(g):
            g = g()
        if self._grad is None:
            # laid out like the data: kept in ``g``'s strides, later products
            # would round differently
            self._grad = np.empty_like(self.data)
            np.copyto(self._grad, g)
        else:
            self._grad += g


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(op: str, out: np.ndarray, inputs: tuple[Tensor, ...],
          backward: Callable[[np.ndarray], tuple]) -> Tensor:
    taping = _grad_enabled.get()
    if (taping or _checks_forced.get()) and op not in _PASS_THROUGH and not _finite(out):
        raise NonFiniteError(f"non-finite values produced by op '{op}'")
    result = Tensor(out)
    if taping and any(t.requires_grad for t in inputs):
        result.requires_grad = True
        result.node = TapeNode(op, inputs, backward)
    return result


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise ops
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data

    def backward(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _make("add", out, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data
    a_data, b_data = a.data, b.data

    def backward(g):
        return _unbroadcast(g * b_data, a.shape), _unbroadcast(g * a_data, b.shape)

    return _make("mul", out, (a, b), backward)


def relu(a: Tensor) -> Tensor:
    out = np.maximum(a.data, 0.0)
    pos = a.data > 0.0

    def backward(g):
        return (g * pos,)

    return _make("relu", out, (a,), backward)


# ---------------------------------------------------------------------------
# matmul
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product with numpy-style leading-dim broadcasting.

    Backward: dA = dC @ B^T, dB = A^T @ dC (summed over broadcast dims).
    """
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError("matmul requires tensors of rank >= 2")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner extents differ: {a.shape} x {b.shape}")
    out = np.matmul(a.data, b.data)
    a_data, b_data = a.data, b.data
    return _make("matmul", out, (a, b),
                 lambda g: _matmul_grads(g, a_data, b_data, a.shape, b.shape))


def _matmul_grads(g: np.ndarray, a_data: np.ndarray, b_data: np.ndarray,
                  a_shape: tuple[int, ...], b_shape: tuple[int, ...]) -> tuple:
    """dA = dC @ B^T and dB = A^T @ dC, batched, each summed over its
    broadcast dims; dB is deferred (see ``TapeNode``)."""
    return (_unbroadcast(np.matmul(g, np.swapaxes(b_data, -1, -2)), a_shape),
            lambda: _unbroadcast(np.matmul(np.swapaxes(a_data, -1, -2), g), b_shape))


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """The affine map x @ w + b as one op: ``x`` is [..., k], ``w`` [k, n], ``b`` [n].

    Rounds exactly as ``add(matmul(x, w), b)``: the same batched products,
    forward and backward.
    """
    if x.ndim < 2 or w.ndim != 2:
        raise ShapeError("linear requires x of rank >= 2 and a 2-D weight")
    if x.shape[-1] != w.shape[0] or b.shape != w.shape[1:]:
        raise ShapeError(f"linear extents differ: {x.shape} x {w.shape} + {b.shape}")
    out = np.matmul(x.data, w.data) + b.data
    x_data, w_data = x.data, w.data

    def backward(g):
        return *_matmul_grads(g, x_data, w_data, x.shape, w.shape), \
            lambda: _unbroadcast(g, b.shape)

    return _make("linear", out, (x, w, b), backward)


# ---------------------------------------------------------------------------
# softmax family
# ---------------------------------------------------------------------------

def attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int,
              mask: np.ndarray | None = None) -> tuple[Tensor, Tensor]:
    """Multi-head scaled dot-product attention, softmax(Q K^T / sqrt(d_k)) V
    per head, as one op.

    ``q`` is [B, T_q, d], ``k`` and ``v`` are [B, T_k, d]; each is split into
    ``n_heads`` heads of depth d_k = d / n_heads, as views. ``mask`` is a
    boolean array, True at the keys to keep, that broadcasts to the logits
    [B, n_heads, T_q, T_k]; masked logits receive an additive -1e9, so their
    weights come out exactly 0. Returns the context with its heads merged
    back, [B, T_q, d], and the attention map [B, n_heads, T_q, T_k] as an
    untaped tensor: nothing differentiates through the map. The backward
    copies the context gradient contiguous before its products.
    """
    if q.ndim != 3 or k.ndim != 3 or v.shape != k.shape or n_heads < 1 or \
            (q.shape[0], q.shape[2]) != (k.shape[0], k.shape[2]) or q.shape[2] % n_heads:
        raise ShapeError(f"attention with {n_heads} heads takes q [B, T_q, d] and k, v "
                         f"[B, T_k, d], d divisible by the heads; got q {q.shape}, "
                         f"k {k.shape} and v {v.shape}")
    b, tq, d = q.shape
    tk = k.shape[1]
    dk = d // n_heads
    scale = 1.0 / math.sqrt(dk)
    qh = q.data.reshape(b, tq, n_heads, dk).transpose(0, 2, 1, 3)
    kt = k.data.reshape(b, tk, n_heads, dk).transpose(0, 2, 3, 1)
    vh = v.data.reshape(b, tk, n_heads, dk).transpose(0, 2, 1, 3)
    z = np.matmul(qh, kt) * scale
    if mask is not None:
        # The mask must broadcast to the logits without enlarging them, and
        # keep some key of every slice. It is checked, and turned into its
        # -1e9 term, at its own shape; the addition broadcasts. An all-True
        # mask gives the output of no mask bit for bit: adding 0.0 changes
        # only the sign of a zero logit, which exp(z - max) erases.
        mask = np.atleast_1d(np.asarray(mask, dtype=bool))
        if mask.ndim > z.ndim or any(m not in (1, n) for m, n in
                                     zip(mask.shape[::-1], z.shape[::-1])):
            raise ShapeError(f"attention mask of shape {mask.shape} does not broadcast to "
                             f"the logits' {z.shape}")
        if not mask.any(axis=-1).all():
            raise MaskError("attention slice with all keys masked")
        z = z + np.where(mask, 0.0, MASK_NEG)
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    y = e / e.sum(axis=-1, keepdims=True)
    ctx = np.matmul(y, vh).transpose(0, 2, 1, 3).reshape(b, tq, d)

    def backward(g):
        gctx = np.ascontiguousarray(g.reshape(b, tq, n_heads, dk).transpose(0, 2, 1, 3))
        gy = np.matmul(gctx, np.swapaxes(vh, -1, -2))
        gz = y * (gy - (gy * y).sum(axis=-1, keepdims=True)) * scale
        gq = np.matmul(gz, np.swapaxes(kt, -1, -2))
        gkt = np.matmul(np.swapaxes(qh, -1, -2), gz)
        gv = np.matmul(np.swapaxes(y, -1, -2), gctx)
        return (gq.transpose(0, 2, 1, 3).reshape(b, tq, d),
                gkt.transpose(0, 3, 1, 2).reshape(b, tk, d),
                gv.transpose(0, 2, 1, 3).reshape(b, tk, d))

    return _make("attention", ctx, (q, k, v), backward), Tensor(y)


def log_softmax_lastdim(x: Tensor) -> Tensor:
    z = x.data - x.data.max(axis=-1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    p = np.exp(logp)

    def backward(g):
        return (g - p * g.sum(axis=-1, keepdims=True),)

    return _make("log_softmax_lastdim", logp, (x,), backward)


# ---------------------------------------------------------------------------
# layer norm
# ---------------------------------------------------------------------------

def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to mean 0 / variance 1, then apply gain and bias."""
    if gain.shape != x.shape[-1:] or bias.shape != x.shape[-1:]:
        raise ShapeError("layer_norm gain/bias must match the last dim of x")
    if eps <= 0:
        raise ValueError("eps must be positive")
    d = x.shape[-1]
    # sum / d is mean's own reduction and division, without its wrapper
    mu = x.data.sum(axis=-1, keepdims=True) / d
    xc = x.data - mu
    var = (xc * xc).sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = xhat * gain.data + bias.data
    gain_data = gain.data

    def backward(g):
        dxhat = g * gain_data
        term = dxhat - dxhat.sum(axis=-1, keepdims=True) / d \
            - xhat * ((dxhat * xhat).sum(axis=-1, keepdims=True) / d)
        dx = inv * term
        axes = tuple(range(g.ndim - 1))
        return dx, lambda: (g * xhat).sum(axis=axes), lambda: g.sum(axis=axes)

    return _make("layer_norm", out, (x, gain, bias), backward)


# ---------------------------------------------------------------------------
# 1D convolution, same padding
# ---------------------------------------------------------------------------

def conv1d_same(x: Tensor, kernels: Tensor, bias: Tensor) -> Tensor:
    """1D convolution over the second-to-last axis with same padding.

    ``x`` is [..., T, d_in], ``kernels`` is [w, d_in, d_out] with odd w,
    ``bias`` is [d_out]. The input is zero-padded by floor((w-1)/2) on each
    side so the output keeps temporal length T for every T >= 1.
    """
    if kernels.ndim != 3:
        raise ShapeError("kernels must be [w, d_in, d_out]")
    w, d_in, d_out = kernels.shape
    if w % 2 == 0 or w < 1:
        raise ShapeError(f"window must be odd and >= 1, got {w}")
    if x.ndim < 2 or x.shape[-1] != d_in:
        raise ShapeError(f"input channels {x.shape} do not match kernels {kernels.shape}")
    if bias.shape != (d_out,):
        raise ShapeError("bias must be [d_out]")
    t = x.shape[-2]
    pad = (w - 1) // 2
    pad_spec = [(0, 0)] * (x.ndim - 2) + [(pad, pad), (0, 0)]
    xp = np.pad(x.data, pad_spec)
    out = np.zeros(x.shape[:-1] + (d_out,))
    for k in range(w):
        out += np.matmul(xp[..., k:k + t, :], kernels.data[k])
    out += bias.data
    k_data = kernels.data

    def backward(g):
        dxp = np.zeros_like(xp)
        for k in range(w):
            dxp[..., k:k + t, :] += np.matmul(g, k_data[k].T)
        g2 = g.reshape(-1, d_out)

        def kernel_grad():
            dk = np.zeros_like(k_data)
            for k in range(w):
                dk[k] = xp[..., k:k + t, :].reshape(-1, d_in).T @ g2
            return dk

        return dxp[..., pad:pad + t, :], kernel_grad, lambda: g2.sum(axis=0)

    return _make("conv1d_same", out, (x, kernels, bias), backward)


# ---------------------------------------------------------------------------
# concatenation and reductions
# ---------------------------------------------------------------------------

def concat(tensors: list[Tensor], axis: int) -> Tensor:
    out = np.concatenate([t.data for t in tensors], axis=axis)

    def backward(g):
        return tuple(np.split(g, np.cumsum([t.shape[axis] for t in tensors])[:-1], axis=axis))

    return _make("concat", out, tuple(tensors), backward)


def tsum(x: Tensor) -> Tensor:
    """Sum of every entry, as a scalar tensor."""
    shape = x.shape
    return _make("sum", x.data.sum(), (x,), lambda g: (np.broadcast_to(g, shape).copy(),))


def embedding(weight: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup into ``weight`` [V, d] by an integer id array."""
    ids = np.asarray(ids)
    if np.any(ids < 0) or np.any(ids >= weight.shape[0]):
        bad = ids[(ids < 0) | (ids >= weight.shape[0])].flat[0]
        raise ShapeError(f"embedding id {bad} out of range for {weight.shape[0]} rows")
    out = weight.data[ids]
    d = weight.shape[1]

    def backward(g):
        def weight_grad():
            dw = np.zeros_like(weight.data)
            np.add.at(dw, ids.reshape(-1), g.reshape(-1, d))
            return dw

        return (weight_grad,)

    return _make("embedding", out, (weight,), backward)


def dropout(x: Tensor, p: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: zero with probability p, scale survivors by 1/(1-p).

    The model calls it only when given an rng (training); p == 0 is the
    identity and draws nothing.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError("dropout probability must be in [0, 1)")
    if p == 0.0:
        return x
    keep = (rng.random(x.shape) >= p) / (1.0 - p)

    def backward(g):
        return (g * keep,)

    return _make("dropout", x.data * keep, (x,), backward)


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

def init_param(shape: Iterable[int], scheme: str, seed: int) -> Tensor:
    """Create a trainable tensor.

    Schemes: "uniform-scaled" draws U(-a, a) with a = sqrt(6/(fan_in+fan_out)),
    fan_in = prod(shape[:-1]) and fan_out = shape[-1]; "zeros" and "ones" are
    constant fills. Draws are bit-identical for a fixed seed.
    """
    shape = tuple(int(s) for s in shape)
    if any(s <= 0 for s in shape):
        raise ShapeError(f"extents must be positive, got {shape}")
    if scheme == "zeros":
        data = np.zeros(shape)
    elif scheme == "ones":
        data = np.ones(shape)
    elif scheme == "uniform-scaled":
        fan_out = shape[-1]
        fan_in = int(np.prod(shape[:-1])) if len(shape) > 1 else shape[0]
        a = math.sqrt(6.0 / (fan_in + fan_out))
        rng = np.random.Generator(np.random.PCG64(seed))
        data = rng.uniform(-a, a, size=shape)
    else:
        raise ValueError(f"unknown init scheme '{scheme}'")
    return Tensor(data, requires_grad=True)


def seed_for_name(root_seed: int, name: str) -> int:
    """Stable per-name child seed, so a parameter's init does not depend on
    which other parameters exist (architecture variants share weights)."""
    digest = hashlib.sha256(f"{root_seed}/{name}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


class _Parameter(Tensor):
    """A ParameterSet entry. Its ``data``, like every tensor's ``grad``,
    cannot be rebound, so both stay views into the arena: write in place."""

    __slots__ = ()

    def __init__(self, data: np.ndarray, grad: np.ndarray):
        super().__init__(data, requires_grad=True)  # asarray keeps the float64 view
        self._grad = grad

    def __setattr__(self, name: str, value) -> None:
        # guards writes only, so reads of ``data`` stay a plain slot lookup;
        # ``p.data += x`` adds in place, then rebinds the same array
        if name == "data" and hasattr(self, "data") and value is not self.data:
            raise AttributeError("a parameter's data is a view into its ParameterSet; "
                                 "write it in place")
        super().__setattr__(name, value)


class ParameterSet:
    """Named trainable tensors in one flat arena: the contiguous float64
    buffers ``data`` and ``grad`` hold every value and gradient in
    sorted-name order, and each parameter's ``data`` and ``grad`` are views
    into them. Iteration is in sorted-name order, for reproducibility."""

    def __init__(self, tensors: dict[str, Tensor]):
        self._shapes = {name: tensors[name].shape for name in sorted(tensors)}
        self.data = np.concatenate([tensors[name].data.reshape(-1) for name in self._shapes])
        self.grad = np.zeros_like(self.data)
        self._params = {name: _Parameter(data, grad) for (name, data), grad
                        in zip(self.views(self.data).items(), self.views(self.grad).values())}

    def views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Per-name views, in sorted-name order, of a flat array laid out like ``data``."""
        if flat.shape != self.data.shape:
            raise ShapeError(f"flat array of shape {flat.shape}, arena is {self.data.shape}")
        out, start = {}, 0
        for name, shape in self._shapes.items():
            stop = start + math.prod(shape)
            out[name] = flat[start:stop].reshape(shape)
            start = stop
        return out

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def names(self) -> list[str]:
        return list(self._params)

    def items(self) -> Iterator[tuple[str, Tensor]]:
        return iter(self._params.items())

    def zero_grad(self) -> None:
        self.grad.fill(0.0)

    def copy(self) -> "ParameterSet":
        return ParameterSet(self._params)


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------

@dataclass
class GradCheckReport:
    """Per-parameter max relative error between analytic and numeric grads."""

    per_param: dict[str, float]
    tol: float
    passed: bool = field(init=False)
    max_rel_error: float = field(init=False)

    def __post_init__(self):
        self.max_rel_error = max(self.per_param.values()) if self.per_param else 0.0
        self.passed = self.max_rel_error <= self.tol


@rerun_checked
def _checked_value(f: Callable[[ParameterSet], Tensor], params: ParameterSet) -> float:
    out = f(params)
    require_finite("the value of f", out.data)
    return out.item()


def grad_check(f: Callable[[ParameterSet], Tensor], params: ParameterSet,
               h: float = 1e-5, tol: float = 1e-4,
               sample: int | None = None, seed: int = 0) -> GradCheckReport:
    """Compare analytic gradients of ``f(params)`` against central differences.

    ``f`` must be deterministic (two forward passes are compared exactly and
    disagreement is an error). Relative error per entry is
    |a - n| / max(|a|, |n|, 1e-4); the small floor keeps noise on near-zero
    gradients from registering as failures. ``sample`` optionally limits the
    check to that many randomly chosen entries per parameter. A non-finite
    value of ``f`` at a perturbed entry is an error naming the parameter,
    the flat index and the op.
    """
    out = f(params)
    if f(params).item() != out.item():
        raise ValueError("f is not deterministic: two forward passes disagree")
    params.zero_grad()
    out.backward()
    analytic = params.views(params.grad.copy())
    rng = np.random.Generator(np.random.PCG64(seed))
    report: dict[str, float] = {}
    for name, t in params.items():
        flat = t.data.reshape(-1)
        idx = np.arange(flat.size)
        if sample is not None and sample < flat.size:
            idx = np.sort(rng.choice(flat.size, size=sample, replace=False))
        worst = 0.0
        for i in idx:
            orig = flat[i]
            try:
                flat[i] = orig + h
                fp = _checked_value(f, params)
                flat[i] = orig - h
                fm = _checked_value(f, params)
            except NonFiniteError as e:
                raise NonFiniteError(f"f is not finite with '{name}' entry {i} perturbed: "
                                     f"{e}") from e
            finally:
                flat[i] = orig
            numeric = (fp - fm) / (2.0 * h)
            a = analytic[name].reshape(-1)[i]
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-4)
            if rel > worst:
                worst = rel
        report[name] = worst
    return GradCheckReport(report, tol)
