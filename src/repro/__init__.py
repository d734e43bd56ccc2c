"""repro — Arcade-style architectural dependability evaluation in Python.

This library is a full reproduction of

    B.R. Haverkort, M. Kuntz, A. Remke, S. Roolvink, M.I.A. Stoelinga:
    *Evaluating Repair Strategies for a Water-Treatment Facility using
    Arcade*, DSN 2010.

It contains everything the paper's tool chain needs, implemented from
scratch:

* :mod:`repro.arcade` — the Arcade modelling framework: basic components,
  repair units (dedicated / FCFS / fastest-repair-first /
  fastest-failure-first / priority, with any number of crews), spare
  management, fault trees, quantitative service trees, cost annotations and
  an XML input format,
* :mod:`repro.ctmc` — the numerical engine: labelled CTMCs, uniformization,
  steady-state solution, Markov reward models, lumping,
* :mod:`repro.modules` and :mod:`repro.csl` — stochastic reactive modules
  and a CSL/CSRL model checker (the role PRISM plays in the paper),
  including a PRISM source exporter,
* :mod:`repro.iomc` — I/O-IMC composition, the original Arcade semantics,
  used to cross-validate the translations,
* :mod:`repro.measures` — reliability, availability, quantitative
  survivability, service levels and repair-cost measures,
* :mod:`repro.sim` — an independent Monte-Carlo simulator,
* :mod:`repro.casestudy` — the water-treatment facility of the paper and
  the rendering of the tables and figures of its evaluation.

Quickstart
----------
>>> from repro.casestudy import build_line2
>>> from repro.arcade import build_state_space
>>> from repro.measures import steady_state_availability
>>> space = build_state_space(build_line2("fastest_repair_first", crews=2))
>>> round(steady_state_availability(space), 4)
0.8186
"""

from repro.arcade import (
    ArcadeModel,
    BasicComponent,
    CostModel,
    FaultTree,
    RepairStrategy,
    RepairUnit,
    SpareManagementUnit,
    build_state_space,
)
from repro.ctmc import CTMC, MarkovRewardModel
from repro.csl import ModelChecker, parse_formula

__version__ = "1.0.0"

__all__ = [
    "ArcadeModel",
    "BasicComponent",
    "CTMC",
    "CostModel",
    "FaultTree",
    "MarkovRewardModel",
    "ModelChecker",
    "RepairStrategy",
    "RepairUnit",
    "SpareManagementUnit",
    "__version__",
    "build_state_space",
    "parse_formula",
]
