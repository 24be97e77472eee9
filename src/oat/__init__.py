"""Oracle-guided adversarial training on noisy, imbalanced data (desk scale)."""

from .adversary import AttackSpec, pgd_attack
from .autodiff import SgdOptimizer, Value, backward, detach
from .corruption import (ClassCounts, CorruptionSpec, apply_asymmetric_noise,
                         apply_exponential_imbalance, apply_symmetric_noise,
                         balanced_oversample, compute_ir, compute_nr, corrupt)
from .dataio import (LabeledDataset, SyntheticSpec, gen_synthetic, load_dataset,
                     load_idx, save_dataset)
from .evaluation import MetricsRecord, distribution_error, evaluate
from .models import (ArchSpec, ModelParams, forward_features, forward_logits,
                     init_model, load_model, project_predict, save_model)
from .oracle import (AugmentationPolicy, KnnIndex, RefurbishedLabels, SplitSets,
                     knn_split, oracle_contrastive_loss, oracle_epoch,
                     oracle_interaction_loss, oracle_supervised_loss, refurbish)
from .trainer import (EpochRecord, RunState, TrainConfig, adjust_logits, at_model_loss,
                      estimate_label_distribution, lr_at_epoch, train)

__all__ = [
    "ArchSpec", "AttackSpec", "AugmentationPolicy", "ClassCounts",
    "CorruptionSpec", "EpochRecord", "KnnIndex", "LabeledDataset", "MetricsRecord",
    "ModelParams", "RefurbishedLabels", "RunState", "SgdOptimizer",
    "SplitSets", "SyntheticSpec", "TrainConfig", "Value",
    "adjust_logits", "apply_asymmetric_noise", "apply_exponential_imbalance",
    "apply_symmetric_noise", "at_model_loss", "backward", "balanced_oversample",
    "compute_ir", "compute_nr", "corrupt", "detach", "distribution_error",
    "estimate_label_distribution", "evaluate",
    "forward_features", "forward_logits", "gen_synthetic",
    "init_model", "knn_split", "load_dataset", "load_idx", "load_model",
    "lr_at_epoch", "oracle_contrastive_loss", "oracle_epoch",
    "oracle_interaction_loss", "oracle_supervised_loss", "pgd_attack",
    "project_predict", "refurbish", "save_dataset", "save_model", "train",
]
