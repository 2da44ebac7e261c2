"""Gradient-based evasion attacks and security-curve evaluation."""

from .attack import (
    AttackSpec,
    AttackTrace,
    DistanceSpec,
    evade_continuous,
    evade_discrete,
    normalize_step,
    objective_F,
    objective_grad,
    project_feasible,
    project_l1_ball,
    run_attack,
)
from .benchmark import synthetic_pdf_dataset
from .data import (
    Dataset,
    FeatureBounds,
    LEGITIMATE,
    MALICIOUS,
    cap_features,
    load_dense_csv,
    load_idx_images,
    load_sparse_counts,
    split_train_test,
    write_dense_csv,
)
from .evaluation import (
    SecurityCurve,
    SweepResult,
    calibrate_threshold,
    fn_rates,
    sweep,
)
from .kernels import KernelSpec
from .mimicry import KdeParams, MimicryEstimator, lambda_guidance
from .models import (
    LinearModel,
    MlpModel,
    ModelSpec,
    SvmModel,
    load_model,
    predict,
    save_model,
    train_from_spec,
    train_kernel_svm,
    train_linear_svm,
    train_mlp,
)
from .scenario import ScenarioSpec, build_surrogate, run_scenario

__version__ = "0.1.0"
