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

__all__ = [
    "AuditVerdict",
    "DecisionList",
    "DecisionListEntry",
    "GroupTreePredictor",
    "PartitionPredictor",
    "PrependCapExceeded",
    "TraceStep",
    "decoupled",
    "excess_risk_report",
    "mgl_tree",
    "monotonicity_audit",
    "prepend",
    "termination_scan",
]
