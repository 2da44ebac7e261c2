"""Gradient-based evasion attacks and security-curve evaluation."""

# Exactly the names that `benchmarks/` imports from the package; every other
# name is imported from its own module.
from .attack import AttackSpec, DistanceSpec
from .data import Dataset, FeatureBounds, cap_features, synthetic_pdf_dataset
from .kernels import KernelSpec
from .mimicry import KdeParams
from .models import ModelSpec
from .scenario import ScenarioSpec

__version__ = "0.1.0"
