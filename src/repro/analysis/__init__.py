"""Analysis utilities: Table I compliance, Pareto fronts, design-space,
per-phase workload statistics, and topology-search trajectories."""

from repro.analysis.compliance import ComplianceRow, compliance_table, format_compliance_table
from repro.analysis.pareto import (
    ParetoPoint,
    pareto_front,
    best_within_area_budget,
    latency_rank,
)
from repro.analysis.phases import (
    PhasePoint,
    bottleneck_phase,
    phase_pareto_front,
    phase_pareto_fronts,
    phase_points,
    phase_records,
    phase_speedups,
    saturated_phases,
)
from repro.analysis.design_space import (
    DesignSpaceSample,
    design_space_campaign,
    select_configurations,
    sweep_design_space,
    trade_off_curve,
)
from repro.analysis.search import (
    best_screened_per_family,
    compare_with_baseline,
    trajectory_records,
)

__all__ = [
    "best_screened_per_family",
    "compare_with_baseline",
    "trajectory_records",
    "ComplianceRow",
    "compliance_table",
    "format_compliance_table",
    "ParetoPoint",
    "pareto_front",
    "best_within_area_budget",
    "latency_rank",
    "PhasePoint",
    "bottleneck_phase",
    "phase_pareto_front",
    "phase_pareto_fronts",
    "phase_points",
    "phase_records",
    "phase_speedups",
    "saturated_phases",
    "DesignSpaceSample",
    "design_space_campaign",
    "select_configurations",
    "sweep_design_space",
    "trade_off_curve",
]
