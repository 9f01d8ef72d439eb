from .decoupled import PartitionPredictor, decoupled
from .group_tree import (
    AuditVerdict,
    GroupTreePredictor,
    TraceStep,
    excess_risk_report,
    mgl_tree,
    monotonicity_audit,
)
from .prepend import DecisionList, DecisionListEntry, PrependCapExceeded, prepend, termination_scan
from .routing import RoutingError

__all__ = [
    "AuditVerdict",
    "DecisionList",
    "DecisionListEntry",
    "GroupTreePredictor",
    "PartitionPredictor",
    "PrependCapExceeded",
    "RoutingError",
    "TraceStep",
    "decoupled",
    "excess_risk_report",
    "mgl_tree",
    "monotonicity_audit",
    "prepend",
    "termination_scan",
]
