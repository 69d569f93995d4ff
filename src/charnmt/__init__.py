"""Character-level NMT lab: a numpy-backed autograd core, transformer and
convtransformer architectures, training/decoding/BLEU, and CCA-based
attention-alignment analysis."""

from .alignment import (
    AlignmentSet,
    CcaReport,
    alignment_report,
    cca_mean_correlation,
    collect_alignments,
    cross_attention_maps,
    project_to_grid,
)
from .bleu import corpus_bleu
from .data import (
    BOS_ID,
    EOS_ID,
    PAD_ID,
    UNK_ID,
    Batch,
    ParallelCorpus,
    TransliterationTable,
    Vocabulary,
    build_vocab,
    decode,
    encode,
    load_parallel,
    make_batches,
    mix_corpora,
    transliterate,
)
from .decoding import DecodeConfig, beam_decode, greedy_decode_batch
from .model import (
    ModelConfig,
    build_params,
    conv_sub_block,
    decoder_forward,
    encoder_forward,
    extract_cross_attention,
    model_forward,
    multi_head_attention,
    param_shapes,
    scaled_dot_attention,
    sinusoidal_positions,
)
from .tensor import (
    GradCheckReport,
    MaskError,
    NonFiniteError,
    ParameterSet,
    ShapeError,
    Tensor,
    grad_check,
    init_param,
    no_grad,
    seed_for_name,
)
from .training import (
    AdamState,
    CheckpointBundle,
    TrainConfig,
    TrainLog,
    adam_step,
    checkpoint_load,
    checkpoint_save,
    clip_grad_norm,
    lr_at_step,
    masked_cross_entropy,
    train,
)

__version__ = "0.1.0"
