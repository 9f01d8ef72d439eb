"""Multi-group learning over hierarchically structured groups."""

from .bounds import EpsilonSpec, epsilon, uc_width
from .data import (
    AttributeSchema,
    Dataset,
    LeafRule,
    SplitSpec,
    SyntheticLeaf,
    SyntheticSpec,
    load_csv,
    make_synthetic,
    split,
    write_csv,
)
from .evaluation import EvalReport, ExperimentConfig, run_experiment
from .groups import (
    Group,
    GroupTree,
    HierarchyError,
    build_hierarchy,
    membership_vector,
    validate_hierarchical,
)
from .learners import FeatureEncoder, LearnerSpec, PredictorCache, fit
from .risk import CLIPPED_LOGISTIC, ZERO_ONE, Loss

__version__ = "0.1.0"
