"""Per-layer tracing from outside the program.

``Tracer`` replaces every public charnmt function in the namespaces its
callers look it up in (``charnmt.model.matmul``, ``charnmt.training.adam_step``,
``charnmt.cli.collect_alignments``, ...) with a wrapper that records a span:
its name (``<module>.<function>``), the span that was open when it started,
its duration, and its self time (duration minus the spans nested inside it).
Backward time comes from wrapping the ``backward`` rule of each TapeNode an
op returns, and ``Tensor.backward`` is wrapped on the class, so its self time
is the tape traversal plus the gradient accumulation. Spans are kept in
memory as sums; ``layer_metrics`` turns them into the per-layer table.

No program source is edited and nothing is copied: removing the wrappers
(``uninstall``) restores every original function object.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict

LAYERS = ("tensor", "model", "data", "training", "decoding", "bleu", "alignment", "cli")
TIMED_OPS = ("matmul", "conv1d_same", "layer_norm", "softmax_lastdim", "log_softmax_lastdim",
             "add", "mul", "embedding")
DECODERS = ("decoding.greedy_decode_batch", "decoding.beam_decode")
_NOT_SPANS = {"no_grad"}  # a context-manager factory, not work


class Tracer:
    """Span sums for one traced stretch of work. Install, run, uninstall."""

    def __init__(self, charnmt):
        self._modules = [getattr(charnmt, name) for name in LAYERS]
        self._tensor_cls = charnmt.tensor.Tensor
        self._decode_ratio = charnmt.decoding.DecodeConfig().max_len_ratio
        self._stack: list[list] = []          # [span name, time of nested spans]
        self._patches: list[tuple[object, str, object]] = []
        self.inclusive: dict[tuple[str, str | None], float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self._hooks = {
            "tensor.matmul": self._on_matmul,
            "training.masked_cross_entropy": self._on_loss,
            "data.make_batches": self._on_batches,
            "model.decoder_forward": self._on_decoder_call,
            "decoding.greedy_decode_batch": self._on_greedy,
            "decoding.beam_decode": self._on_beam,
        }

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        wrappers: dict[object, object] = {}
        for module in self._modules:
            for attr, value in list(vars(module).items()):
                if (attr.startswith("_") or attr in _NOT_SPANS or not inspect.isfunction(value)
                        or not value.__module__.startswith("charnmt.")):
                    continue
                if value not in wrappers:
                    name = f"{value.__module__.rsplit('.', 1)[-1]}.{value.__name__}"
                    wrappers[value] = self._span(name, value, self._hooks.get(name),
                                                 value.__module__ == "charnmt.tensor")
                self._patches.append((module, attr, value))
                setattr(module, attr, wrappers[value])
        original = self._tensor_cls.backward
        self._patches.append((self._tensor_cls, "backward", original))
        self._tensor_cls.backward = self._span("tensor.Tensor.backward", original, None, False)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    # -- spans ----------------------------------------------------------
    def _span(self, name, fn, hook, wraps_tape_op):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                tracer.inclusive[(name, parent)] += elapsed
                tracer.self_time[name] += elapsed - frame[1]
                tracer.calls[name] += 1
            # bookkeeping below is charged to no span: the parent counts it as nested
            mark = time.perf_counter()
            if wraps_tape_op:
                tracer._wrap_node(result)
            if hook is not None:
                hook(args, kwargs, result, parent)
            if stack:
                stack[-1][1] += elapsed + (time.perf_counter() - mark)
            return result

        return traced

    def _wrap_node(self, result) -> None:
        node = getattr(result, "node", None)
        if node is None or getattr(node.backward, "traced", False):
            return
        rule, name = node.backward, f"tensor.bwd.{node.op}"
        tracer = self

        def backward(g):
            stack = tracer._stack
            parent = stack[-1][0] if stack else None
            start = time.perf_counter()
            grads = rule(g)
            elapsed = time.perf_counter() - start
            tracer.inclusive[(name, parent)] += elapsed
            tracer.self_time[name] += elapsed
            tracer.calls[name] += 1
            if stack:
                stack[-1][1] += elapsed
            return grads

        backward.traced = True
        node.backward = backward
        self.counts["tensor.nodes"] += 1

    # -- counters at layer boundaries ------------------------------------
    def _on_matmul(self, args, kwargs, out, parent) -> None:
        # 2*K flop per output element; a recorded node adds the backward's two GEMMs
        flop = 2.0 * out.size * args[0].shape[-1]
        self.counts["tensor.matmul_flop"] += flop * (3.0 if out.node is not None else 1.0)

    def _on_loss(self, args, kwargs, loss, parent) -> None:
        if parent == "training.train":
            self.counts["training.target_tokens"] += int(args[2].sum())

    def _on_batches(self, args, kwargs, batches, parent) -> None:
        if parent != "training.train":
            return
        for b in batches:
            self.counts["data.pad_slots"] += b.src_mask.size + b.tgt_mask.size
            self.counts["data.real_slots"] += int(b.src_mask.sum()) + int(b.tgt_mask.sum())

    def _on_decoder_call(self, args, kwargs, out, parent) -> None:
        if parent in DECODERS:
            self.counts["decoding.decoder_calls"] += 1
            self.counts["decoding.positions_computed"] += args[0].tgt_in_ids.size

    def _emitted(self, src: str, hyp: str, config, cfg) -> None:
        # the decoding module's cap rule: ratio * (source ids incl. EOS) + 10
        ratio = cfg.max_len_ratio if cfg is not None else self._decode_ratio
        cap = max(1, min(int(ratio * (len(src) + 1)) + 10, config.max_len - 1))
        self.counts["decoding.tokens_emitted"] += min(len(hyp) + 1, cap)
        self.counts["decoding.cap_hits"] += len(hyp) >= cap

    def _on_greedy(self, args, kwargs, hyps, parent) -> None:
        config, srcs = args[1], args[2]
        cfg = args[4] if len(args) > 4 else kwargs.get("cfg")
        for src, hyp in zip(srcs, hyps):
            self._emitted(src, hyp, config, cfg)

    def _on_beam(self, args, kwargs, hyp, parent) -> None:
        cfg = args[4] if len(args) > 4 else kwargs.get("cfg")
        self._emitted(args[2], hyp, args[1], cfg)

    # -- the per-layer table ----------------------------------------------
    def total(self, name: str, parent: str | None = "*") -> float:
        """Summed duration of span ``name``, under ``parent`` or under any."""
        return sum(v for (n, p), v in self.inclusive.items()
                   if n == name and (parent == "*" or p == parent))

    def layer_metrics(self) -> dict[str, float]:
        c, t = self.counts, self.total
        m: dict[str, float] = {}
        for op in TIMED_OPS:
            m[f"tensor.fwd_s.{op}"] = t(f"tensor.{op}")
            m[f"tensor.bwd_s.{op}"] = t(f"tensor.bwd.{op}")
        m["tensor.backward_self_s"] = self.self_time.get("tensor.Tensor.backward", 0.0)
        m["tensor.nodes"] = c["tensor.nodes"]
        m["tensor.calls.matmul"] = self.calls.get("tensor.matmul", 0)
        m["tensor.matmul_gflop"] = c["tensor.matmul_flop"] / 1e9
        for fn in ("encoder_forward", "decoder_forward", "conv_sub_block", "multi_head_attention"):
            m[f"model.{fn}_s"] = t(f"model.{fn}")
        m["training.forward_s"] = t("model.model_forward", "training.train")
        m["training.loss_s"] = t("training.masked_cross_entropy", "training.train")
        m["training.backward_s"] = t("tensor.Tensor.backward", "training.train")
        m["training.clip_s"] = t("training.clip_grad_norm", "training.train")
        m["training.adam_s"] = t("training.adam_step", "training.train")
        m["training.evaluate_s"] = t("training.evaluate")
        m["training.checkpoint_save_s"] = t("training.checkpoint_save")
        m["training.checkpoint_load_s"] = t("training.checkpoint_load")
        m["training.steps"] = self.calls.get("training.adam_step", 0)
        m["training.target_tokens"] = c["training.target_tokens"]
        m["decoding.greedy_s"] = t("decoding.greedy_decode_batch")
        m["decoding.beam_s"] = t("decoding.beam_decode")
        for key in ("decoder_calls", "positions_computed", "tokens_emitted", "cap_hits"):
            m[f"decoding.{key}"] = c[f"decoding.{key}"]
        positions = c["decoding.positions_computed"]
        m["decoding.useful_position_ratio"] = (c["decoding.tokens_emitted"] / positions
                                               if positions else 0.0)
        m["data.make_batches_s"] = t("data.make_batches")
        slots = c["data.pad_slots"]
        m["data.pad_ratio"] = 1.0 - c["data.real_slots"] / slots if slots else 0.0
        m["bleu.corpus_bleu_s"] = t("bleu.corpus_bleu")
        m["alignment.collect_s"] = t("alignment.collect_alignments")
        m["alignment.project_s"] = t("alignment.project_to_grid")
        m["alignment.cca_s"] = t("alignment.cca_mean_correlation")
        m["cli.self_s"] = sum(v for n, v in self.self_time.items() if n.startswith("cli."))
        return {k: float(v) for k, v in m.items()}

    def top_self_times(self, n: int = 12) -> list[tuple[str, float, int]]:
        ranked = sorted(self.self_time.items(), key=lambda kv: -kv[1])[:n]
        return [(name, secs, self.calls[name]) for name, secs in ranked]
