"""Sampling strategies for copying black-box hard-label classifiers.

Generate oracle-labelled synthetic datasets with four strategies (uniform,
boundary exploration, GP-uncertainty driven, gradient-sign augmentation),
train copy models on them, and score how faithfully each copy replicates
the oracle's decision function.

Every public name is imported from its submodule on first use, so a
program that needs only part of the package loads only that part:
`from copysampler import Spiral2DOracle, serve_stdio` loads `core` and
`oracles`, `from copysampler import load_config` adds `config`, and neither
loads any of the training, sampling or reporting code.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it defines
_PUBLIC = {
    "config": """ARCHITECTURES BoundaryParams ExperimentConfig FastBayesParams
        JacobianParams OracleSpec TrainConfig load_config""",
    "copies": "CopyModel TrainingError train train_many",
    "core": """CopySamplerError DegenerateColumnError LabeledSample
        NormalizationTransform RandomSource SampleLedger StratificationError
        SyntheticDataset fit_normalization stratified_split""",
    "gp": """GPPosterior PosteriorFitError SEKernel acquisition_value
        fast_bayesian_sampler maximize_acquisition posterior_fit""",
    "harness": "RunSummary run_experiment run_sampler",
    "metrics": """RunRecord balanced_empirical_fidelity_error
        build_reference_set compare_methods empirical_fidelity_error""",
    "oracles": """AnalyticOracle CheckerboardOracle ConcentricCirclesOracle
        ExternalOracle HalfspaceOracle Oracle ProtocolError
        QueryTransportError Spiral2DOracle TableOracle UnsupportedOracleError
        parse_handshake serve_oracle serve_stdio""",
    "samplers": """binary_search_boundary boundary_sampler jacobian_sampler
        random_sampler thread_step""",
    "svgplot": "plot_2d",
}
_SOURCE = {name: module for module, names in _PUBLIC.items() for name in names.split()}

__all__ = sorted(_SOURCE)


def __getattr__(name):
    if name in _PUBLIC:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_SOURCE[name]}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_PUBLIC))
