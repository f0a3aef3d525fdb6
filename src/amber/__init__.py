"""Dual ambiguity-aware soft-label emotion classification.

Library + CLI implementing a distribution-matching training objective that
models rater disagreement (soft labels) and modality disagreement (adaptive
teacher-student consistency) at once, next to a class-balanced cross-entropy
baseline, a shared metric suite and an entropy-binned ambiguity analysis.

`import amber` loads no submodule. `amber.<name>` imports the submodule
that defines `name` on first use (PEP 562), so `amber.load_jsonl` costs
only `amber.dataio` and `amber.errors`.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the names it exports at the package root
_EXPORTS = {
    "dataio": ("Dataset", "SynthConfig", "fold_split", "generate_synthetic", "load_jsonl", "save_jsonl"),
    "distlib": ("SoftLabel",),
    "errors": ("DataValidationError", "NumericalAbortError"),
    "evalreport": ("EvalReport", "all_metrics", "ambiguity_bins", "dist_metrics", "emit_report"),
    "losses": ("LossConfig", "amber_loss", "cbce_loss", "class_weights_from", "expert_weights"),
    "model": ("ModelConfig", "forward_all", "fuse", "init_params", "load_checkpoint", "save_checkpoint"),
    "trainer": ("OptState", "RunRecord", "TrainConfig", "cross_validate", "init_opt_state", "opt_step", "train_one"),
}
_SUBMODULES = ("autodiff", *_EXPORTS)
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_HOME, *_SUBMODULES])


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
