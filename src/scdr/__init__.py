"""Sharpness-aware cross-domain recommendation for cold-start users."""

from .analysis import (
    EvalReport,
    LandscapeGrid,
    LandscapeSpec,
    SharpnessReport,
    evaluate,
    fgsm_sweep,
    landscape_grid,
    lipschitz_estimate,
)
from .data import (
    CdrScenario,
    DomainDataset,
    SyntheticSidecar,
    SyntheticSpec,
    build_scenario,
    generate_synthetic,
    ingest_domain,
    load_scenario,
)
from .errors import DivergenceError, IngestError, MissingInputError, ScdrError, ValidationError
from .factorization import (
    FactorModel,
    TrainConfig,
    mf_grad,
    mf_loss,
    train_mf,
    train_smf,
)
from .mapping import (
    MappingNet,
    ScdrTrainConfig,
    emcdr_train,
    forward,
    mapping_backward,
    scdr_train,
)
from .perturbation import PerturbConfig, Perturbation, find_delta

__version__ = "0.1.0"

__all__ = [
    "CdrScenario",
    "DivergenceError",
    "DomainDataset",
    "EvalReport",
    "FactorModel",
    "IngestError",
    "LandscapeGrid",
    "LandscapeSpec",
    "MappingNet",
    "MissingInputError",
    "PerturbConfig",
    "Perturbation",
    "ScdrError",
    "ScdrTrainConfig",
    "SharpnessReport",
    "SyntheticSidecar",
    "SyntheticSpec",
    "TrainConfig",
    "ValidationError",
    "build_scenario",
    "emcdr_train",
    "evaluate",
    "fgsm_sweep",
    "find_delta",
    "forward",
    "generate_synthetic",
    "ingest_domain",
    "landscape_grid",
    "lipschitz_estimate",
    "load_scenario",
    "mapping_backward",
    "mf_grad",
    "mf_loss",
    "scdr_train",
    "train_mf",
    "train_smf",
]
