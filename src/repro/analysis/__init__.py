"""Analysis utilities: Table I compliance, Pareto fronts, design-space,
per-phase workload statistics, and topology-search trajectories."""

from repro import _lazy_exports

_EXPORTS = {
    "repro.analysis.compliance": (
        "ComplianceRow",
        "compliance_table",
        "format_compliance_table",
    ),
    "repro.analysis.design_space": (
        "DesignSpaceSample",
        "design_space_campaign",
        "select_configurations",
        "sweep_design_space",
        "trade_off_curve",
    ),
    "repro.analysis.pareto": (
        "ParetoPoint",
        "pareto_front",
        "best_within_area_budget",
        "latency_rank",
    ),
    "repro.analysis.phases": (
        "PhasePoint",
        "bottleneck_phase",
        "phase_pareto_front",
        "phase_pareto_fronts",
        "phase_points",
        "phase_records",
        "phase_speedups",
        "saturated_phases",
    ),
    "repro.analysis.search": (
        "best_screened_per_family",
        "compare_with_baseline",
        "trajectory_records",
    ),
}
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)

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
