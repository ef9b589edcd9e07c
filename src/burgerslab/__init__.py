"""burgerslab: fractional Brownian initial data for the inviscid Burgers
equation — samplers, convex-envelope solver, dimension and persistence
estimators, and kernel-space trend shifts."""

from .grids import GridPath, RandomnessSpec, SampleGrid, check_hurst
from .fbm import (
    fbm_covariance,
    fgn_autocovariance,
    ifbm_covariance,
    sample_fbm_fast,
)
from .envelopes import (
    ConvexEnvelope,
    envelope_backend,
    lower_envelope,
    functional_F,
)
from .burgers import (
    LagrangianSolution,
    ParticleSystem,
    build_potential,
    solve,
    midpoint_particles,
    sticky_simulate,
    sticky_shock_clusters,
)
from .fractal import box_count, dimension_estimate
from .fitting import ScalingFit
from .persistence import (
    BarrierEvent,
    McEstimate,
    estimate_persistence,
    exponent_fit,
    refinement_study,
    verify_chain,
)
from .rkhs import (
    KernelSpace,
    TrendFunction,
    build_space,
    rkhs_norm,
    localizer_trends,
    psi_trend,
    combined_trend,
    verify_shift_inequality,
)

__version__ = "0.1.0"
