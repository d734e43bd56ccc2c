"""The water-treatment facility case study (Section 4 of the paper).

:mod:`~repro.casestudy.facility` builds the two process lines of the
simplified water-treatment facility as :class:`repro.arcade.ArcadeModel`
instances, parameterised by repair strategy and crew count, and defines the
two disasters analysed in the paper.  :mod:`~repro.casestudy.experiments`
caches their state spaces, counts Table 1 and renders Table 2 and Figs.
3-11 from the results of the scenario registry's families
(:func:`repro.service.paper_registry`), and
:mod:`~repro.casestudy.reporting` formats them as text tables, CSV and
ASCII plots.
"""

from repro.casestudy.facility import (
    DISASTER_1,
    DISASTER_2,
    LINE1,
    LINE2,
    PAPER_STRATEGIES,
    StrategyConfiguration,
    build_line1,
    build_line2,
)
from repro.casestudy.experiments import table1_state_space

__all__ = [
    "DISASTER_1",
    "DISASTER_2",
    "LINE1",
    "LINE2",
    "PAPER_STRATEGIES",
    "StrategyConfiguration",
    "build_line1",
    "build_line2",
    "table1_state_space",
]
