"""Turning-movement-count estimation with instance-based domain adaptation.

Pipeline: L1 feature selection -> Mahalanobis metric learning -> nearest
source matching -> Gaussian-mixture augmentation -> balanced-weight gradient
boosting, evaluated leave-one-intersection-out.
"""

from .boosting import BoostedModel, TrainConfig, fit_gbbw, fit_gradient_boosting, predict
from .dataset import Dataset, DomainSplit, HeldOutLabels, load_table, split_domains, write_table
from .gmm import GaussianMixture, augment, fit_gmm, sample_gmm
from .itml import (
    ConstraintSet,
    build_constraints,
    fit_itml,
    logdet_divergence,
    mahalanobis_distance,
    match_source_to_target,
)
from .lasso import LassoModel, coefficient_report, fit_lasso, lambda_max
from .pipeline import (
    EvaluationReport,
    PipelineConfig,
    ablation_sweep,
    evaluate,
    leave_one_out,
    run_estimation,
)
from .schema import COLUMNS, MOVEMENTS
from .synth import generate_synthetic_network, label_coefficients
from .tree import RegressionTree, SplitPlan, fit_tree

__version__ = "0.1.0"
