"""ergolab: exact simulator for a rank-one tower construction, its two-level
marker extension, and the divergence of double ergodic averages under
Poisson/Gaussian suspension functionals."""

from .tower import (
    ConstructionParams,
    FloorSet,
    InvalidConstruction,
    MarkerOutsideSpacers,
    StageOverflow,
    StageTable,
    base_floorset,
    build_stage_table,
    intersect,
    marker_floorset,
    measure,
    refine,
    shift,
    subtract,
)
from .extension import (
    CocycleContext,
    ConjugacyReport,
    LeveledSet,
    SegmentEscapesTower,
    WindowReport,
    base_leveled_set,
    claim_windows,
    cocycle_context,
    cocycle_parity,
    context_for,
    flip_orbit,
    level_swap,
    overlap_measure,
    straight_orbit,
    verify_conjugacy,
    verify_windows,
)
from .suspension import (
    SuspensionModel,
    cylinder_constant,
    gaussian_orthant,
    pair_integrand,
    poisson_pmf,
)
from .oracle import (
    GateResult,
    McConfig,
    mc_gaussian_orthant,
    mc_pair_integral_poisson,
    three_sigma_gate,
)
from .averages import (
    DivergenceReport,
    Milestone,
    OverlapProfile,
    PairBudgetExceeded,
    SeriesPoint,
    average_series,
    default_checkpoints,
    divergence_report,
    event_sweep,
    milestone_sequence,
)

__version__ = "0.1.0"
