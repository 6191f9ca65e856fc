"""Desk-scale pool-based active learning with dataset-cartography diagnostics."""

from types import ModuleType as _ModuleType

from . import blas as _blas, heap as _heap

from .acquisition import (
    STRATEGIES,
    DalConfig,
    predictive_entropy,
    score_bald,
    score_dal,
    score_mcme,
    select_batch,
)
from .cartography import (
    Datamap,
    DifficultyThresholds,
    ablate_hard_to_learn,
    acquisition_by_difficulty,
    build_difficulty_split,
    compute_datamap,
)
from .classifier import (
    Classifier,
    ClassifierConfig,
    TrainConfig,
    fit,
    load_checkpoint,
    save_checkpoint,
)
from .errors import (
    CapacityError,
    CartalError,
    ConfigError,
    DivergenceError,
    InsufficientDynamicsError,
    ParseError,
    SchemaError,
    StateError,
)
from .experiment import (
    ExperimentConfig,
    RoundLog,
    RunSummary,
    TestSetSpec,
    run_ablated_suite,
    run_al,
    run_difficulty_split,
    run_suite,
)
from .metrics import (
    acquisition_factor,
    class_distribution,
    input_diversity,
    output_uncertainty,
    stratified_accuracy,
)
from .pool import (
    Dataset,
    SyntheticSourceSpec,
    build_multi_source_pool,
    concat_datasets,
    generate_synthetic_source,
    load_dataset,
    seed_split,
    split_dataset,
    transfer,
    write_dataset,
)

_blas.pin_one_thread()  # on the BLAS that numpy, imported above, has loaded
_heap.pin_mmap_threshold()

# every name imported above; the submodules they come from are not part of it
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]

__version__ = "0.1.0"
