"""Long-tailed classification heads over frozen vision-language embeddings.

A numpy library for training a lightweight transformer decoder plus linear
classifier on precomputed feature files, with the standard family of
imbalanced losses, two-stage logit calibrators, synthetic long-tailed data,
and a finite-difference gradient checker backing every analytic backward.
"""

from .calibrators import (CALIBRATOR_VARIANTS, Calibrator, calibrator_layout,
                          context_weight_norms, init_calibrator)
from .checkpoint import load_checkpoint, save_checkpoint
from .data import (CLASS_BALANCED, INSTANCE_BALANCED, FeatureDataset,
                   SyntheticSpec, exponential_profile, generate_synthetic_lt,
                   load_features, load_text_table, read_text_rows,
                   sample_batch, save_features)
from .decoder import (DecoderConfig, DecoderHead, ForwardCache, backward_batch,
                      forward_batch, init_decoder, param_layout)
from .exceptions import (ConfigError, DataError, DivergenceError, DomainError,
                         EvaluationError, FormatError, ShapeError, StateError)
from .gradsuite import run_gradcheck
from .losses import (VARIANTS, ClassStats, LossSpec, bsm_biases,
                     build_class_stats, cbw_weights, lade_dv_regularizer,
                     ldam_margins, make_loss_spec, stats_from_counts,
                     total_loss)
from .numerics import (GradCheckReport, ParamVector, dropout_mask,
                       finite_diff_check, gelu, gelu_with_grad, layer_norm,
                       layer_norm_backward, make_rng, softmax_rows)
from .training import (EvalReport, TextClassEmbeddings, TrainConfig,
                       config_fingerprint, evaluate, lr_at,
                       metrics_from_predictions, parse_run_config,
                       render_report, report_json, sgd_step,
                       train_stage1, train_stage2, zero_shot_classify)

__version__ = "0.1.0"
