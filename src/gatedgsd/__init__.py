"""Design evaluation for gated group sequential trials with subpopulation
selection and dual time-to-event endpoints."""

from .boundaries import (BoundarySet, cached_boundaries, compute_boundaries,
                         ldobf_spend)
from .combine import StageWeights, event_weights
from .engine import (AnalysisRecord, DecisionTrace, DesignKind, DesignSpec,
                     ObservedData, TestRecord, analyze_observed,
                     render_narrative, run_design)
from .futility import (FutilityRule, Selection, SelectionDecision,
                       calibrate_threshold)
from .multiplicity import (HYPOTHESES, Endpoint, HypothesisId, Population,
                           hochberg_intersection)
from .simdata import (AnalysisSnapshot, AnalysisTrigger, FutilitySnapshot,
                      ScenarioSpec, TrialData, generate_trial,
                      schedule_analyses, snapshot_at)

__version__ = "0.1.0"
