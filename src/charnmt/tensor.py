"""Dense float64 tensors with reverse-mode automatic differentiation.

Implements exactly the operations the encoder/decoder models need:
broadcasting elementwise arithmetic, (batched) matmul, masked softmax and
log-softmax over the last axis, layer normalization, same-padded 1D
convolution, embedding lookup, dropout, shape ops, and reductions.
Gradients accumulate with ``+=``; call ``ParameterSet.zero_grad`` between
optimizer steps. Every op that can turn finite inputs into NaN/Inf checks its
output and raises instead of propagating silently; ops that only move, select
or clamp values do not, so a non-finite leaf is caught at the first arithmetic
op that reads it.
"""

from __future__ import annotations

import hashlib
import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

import numpy as np

MASK_NEG = -1e9  # additive logit for masked positions; underflows to 0 after softmax


class ShapeError(ValueError):
    """Operand shapes violate an op's contract."""


class MaskError(ValueError):
    """A softmax slice has every position masked."""


class NonFiniteError(FloatingPointError):
    """An op produced NaN or Inf."""


_grad_enabled = ContextVar("grad_enabled", default=True)


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
_PASS_THROUGH = frozenset({"reshape", "transpose", "concat", "embedding", "relu"})


def _check_finite(op: str, arr: np.ndarray) -> None:
    # sum is NaN/Inf iff the array holds one (values here stay far below
    # overflow, so a finite array cannot overflow the sum)
    if not math.isfinite(float(arr.sum())):
        raise NonFiniteError(f"non-finite values produced by op '{op}'")


@dataclass
class TapeNode:
    """One reverse-mode record: the op, its inputs, and a backward rule.

    Per-op cached forward values live in the ``backward`` closure. The tape
    formed by following ``inputs`` is acyclic; ``Tensor.backward`` visits
    each node exactly once in reverse topological order.
    """

    op: str
    inputs: tuple["Tensor", ...]
    backward: Callable[[np.ndarray], tuple]


class Tensor:
    """N-dimensional float64 array with an optional gradient.

    ``data`` is a row-major numpy array; ``grad`` has the same shape once
    populated by ``backward``. Tensors are plain values: ops return new
    tensors and never mutate inputs. A tensor (and the tape hanging off
    it) must stay confined to one thread.
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
        across calls until ``ParameterSet.zero_grad``.
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
        for t in reversed(topo):
            node = t.node
            assert node is not None
            grads = node.backward(t._grad)
            for parent, g in zip(node.inputs, grads):
                if g is None or not parent.requires_grad:
                    continue
                if parent._grad is None:
                    parent._grad = np.zeros_like(parent.data)
                parent._grad += g


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(op: str, out: np.ndarray, inputs: tuple[Tensor, ...],
          backward: Callable[[np.ndarray], tuple]) -> Tensor:
    if op not in _PASS_THROUGH:
        _check_finite(op, out)
    result = Tensor(out)
    if _grad_enabled.get() and any(t.requires_grad for t in inputs):
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

    def backward(g):
        da = _unbroadcast(np.matmul(g, np.swapaxes(b_data, -1, -2)), a.shape)
        db = _unbroadcast(np.matmul(np.swapaxes(a_data, -1, -2), g), b.shape)
        return da, db

    return _make("matmul", out, (a, b), backward)


# ---------------------------------------------------------------------------
# softmax family
# ---------------------------------------------------------------------------

def softmax_lastdim(x: Tensor, mask: np.ndarray | None = None) -> Tensor:
    """Softmax over the last axis, numerically stabilized by max-subtraction.

    ``mask`` is a boolean array broadcastable to ``x`` with True marking
    positions to keep; masked positions receive an additive -1e9 and come
    out exactly 0. A slice with every position masked is an error.
    """
    z = x.data
    if mask is not None:
        mask = np.broadcast_to(np.asarray(mask, dtype=bool), x.shape)
        if np.any(~mask.any(axis=-1)):
            raise MaskError("softmax slice with all positions masked")
        z = z + np.where(mask, 0.0, MASK_NEG)
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    y = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        return (y * (g - (g * y).sum(axis=-1, keepdims=True)),)

    return _make("softmax_lastdim", y, (x,), backward)


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
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = xhat * gain.data + bias.data
    gain_data = gain.data

    def backward(g):
        dxhat = g * gain_data
        term = dxhat - dxhat.mean(axis=-1, keepdims=True) \
            - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
        dx = inv * term
        axes = tuple(range(g.ndim - 1))
        return dx, (g * xhat).sum(axis=axes), g.sum(axis=axes)

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
        dk = np.zeros_like(k_data)
        g2 = g.reshape(-1, d_out)
        for k in range(w):
            dxp[..., k:k + t, :] += np.matmul(g, k_data[k].T)
            dk[k] = xp[..., k:k + t, :].reshape(-1, d_in).T @ g2
        return dxp[..., pad:pad + t, :], dk, g2.sum(axis=0)

    return _make("conv1d_same", out, (x, kernels, bias), backward)


# ---------------------------------------------------------------------------
# shape ops and reductions
# ---------------------------------------------------------------------------

def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    out = x.data.reshape(shape)
    orig = x.shape

    def backward(g):
        return (g.reshape(orig),)

    return _make("reshape", out, (x,), backward)


def transpose(x: Tensor, axes: tuple[int, ...]) -> Tensor:
    out = np.transpose(x.data, axes)

    def backward(g):
        return (np.transpose(g, np.argsort(axes)),)

    return _make("transpose", out, (x,), backward)


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
        raise ShapeError("embedding id out of range")
    out = weight.data[ids]
    d = weight.shape[1]

    def backward(g):
        dw = np.zeros_like(weight.data)
        np.add.at(dw, ids.reshape(-1), g.reshape(-1, d))
        return (dw,)

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

    def load_data(self, other: "ParameterSet") -> None:
        """Copy parameter values from ``other`` in place (names and shapes must match)."""
        if self._shapes != other._shapes:
            raise ValueError("parameter sets have different names or shapes")
        np.copyto(self.data, other.data)


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


def grad_check(f: Callable[[ParameterSet], Tensor], params: ParameterSet,
               h: float = 1e-5, tol: float = 1e-4,
               sample: int | None = None, seed: int = 0) -> GradCheckReport:
    """Compare analytic gradients of ``f(params)`` against central differences.

    ``f`` must be deterministic (two forward passes are compared exactly and
    disagreement is an error). Relative error per entry is
    |a - n| / max(|a|, |n|, 1e-4); the small floor keeps noise on near-zero
    gradients from registering as failures. ``sample`` optionally limits the
    check to that many randomly chosen entries per parameter.
    """
    base = f(params).item()
    if f(params).item() != base:
        raise ValueError("f is not deterministic: two forward passes disagree")
    params.zero_grad()
    f(params).backward()
    analytic = params.views(params.grad.copy())
    rng = np.random.Generator(np.random.PCG64(seed))
    report: dict[str, float] = {}
    with no_grad():
        for name, t in params.items():
            flat = t.data.reshape(-1)
            idx = np.arange(flat.size)
            if sample is not None and sample < flat.size:
                idx = np.sort(rng.choice(flat.size, size=sample, replace=False))
            worst = 0.0
            for i in idx:
                orig = flat[i]
                flat[i] = orig + h
                fp = f(params).item()
                flat[i] = orig - h
                fm = f(params).item()
                flat[i] = orig
                numeric = (fp - fm) / (2.0 * h)
                a = analytic[name].reshape(-1)[i]
                rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-4)
                if rel > worst:
                    worst = rel
            report[name] = worst
    return GradCheckReport(report, tol)
