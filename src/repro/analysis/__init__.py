"""Batched analysis sessions: plan measure requests, execute shared sweeps.

This package is the batch-service layer over the uniformization engine
(:mod:`repro.ctmc.uniformization`): callers declare
:class:`MeasureRequest` objects, an :class:`AnalysisSession` plans them
into groups that agree on (chain fingerprint, uniformization rate, time
grid, epsilon), and each group is dispatched as one sweep that batches all
the group's initial distributions and observable vectors.  Every legacy measure
entry point (``repro.ctmc.transient``, ``repro.ctmc.rewards``,
``repro.measures``, the CSL checker) is a thin wrapper that submits a
one-request session, so the batched path is the *only* numerical path.
"""

from repro.analysis.executor import ExecutionUnit, execute_plan, execution_units
from repro.analysis.planner import (
    ExecutionGroup,
    ExecutionPlan,
    LumpedChain,
    build_plan,
    normalise_request,
)
from repro.analysis.requests import (
    LONGRUN_KINDS,
    MeasureKind,
    MeasureRequest,
    MeasureResult,
)
from repro.analysis.session import AnalysisSession, SessionStats

__all__ = [
    "LONGRUN_KINDS",
    "AnalysisSession",
    "ExecutionGroup",
    "ExecutionPlan",
    "ExecutionUnit",
    "LumpedChain",
    "MeasureKind",
    "MeasureRequest",
    "MeasureResult",
    "SessionStats",
    "build_plan",
    "execute_plan",
    "execution_units",
    "normalise_request",
]
