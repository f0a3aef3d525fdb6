"""Dual ambiguity-aware soft-label emotion classification.

Library + CLI implementing a distribution-matching training objective that
models rater disagreement (soft labels) and modality disagreement (adaptive
teacher-student consistency) at once, next to a class-balanced cross-entropy
baseline, a shared metric suite and an entropy-binned ambiguity analysis.
"""

__version__ = "0.1.0"

from .dataio import Dataset, SynthConfig, fold_split, generate_synthetic, load_jsonl, save_jsonl
from .distlib import (
    RaterVotes,
    SoftLabel,
    aggregate_votes,
    bhattacharyya,
    entropy_bits,
    js_divergence,
)
from .errors import DataValidationError, NumericalAbortError
from .evalreport import EvalReport, all_metrics, ambiguity_bins, cls_metrics, dist_metrics, emit_report
from .losses import LossBreakdown, LossConfig, amber_loss, cbce_loss, class_weights_from, expert_weights
from .model import ModelConfig, forward_all, fuse, head_forward, init_params, load_checkpoint, save_checkpoint
from .trainer import OptState, RunRecord, TrainConfig, cross_validate, init_opt_state, opt_step, train_one

__all__ = [name for name in dir() if not name.startswith("_")]
