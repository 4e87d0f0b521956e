"""Occlusion-invariant self-supervised representation learning for
multivariate time series: tensor engine, backbone, pretraining objective,
training harness, data tools, and CLI."""

from .backbone import Backbone, EncoderConfig, PatcherConfig, patch_count, positional_encoding
from .data import (
    Dataset,
    NormStats,
    SplitSpec,
    SyntheticConfig,
    batch_iter,
    generate_synthetic,
    load_csv,
    load_dataset,
    normalize,
    save_dataset,
    split,
)
from .objective import (
    Decoder,
    MaskConfig,
    TCRConfig,
    decode_full,
    encode_visible,
    lof_loss,
    sample_masks,
    tcr_loss,
)
from .tensor import Tensor, no_grad, parameter, use_dtype
from .training import (
    AdamW,
    Metrics,
    OptimConfig,
    TrainRun,
    build_model,
    evaluate,
    finetune,
    linear_probe,
    pretrain,
    transfer_eval,
)

__version__ = "0.1.0"
