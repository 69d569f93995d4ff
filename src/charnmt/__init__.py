"""Character-level NMT lab: a numpy-backed autograd core, transformer and
convtransformer architectures, training/decoding/BLEU, and CCA-based
attention-alignment analysis.

The library is used through its modules (``charnmt.model``,
``charnmt.training``, ...); the package root re-exports nothing."""

from . import alignment, bleu, data, decoding, model, tensor, training  # noqa: F401

__version__ = "0.1.0"
