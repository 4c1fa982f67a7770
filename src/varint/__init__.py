"""Structure-preserving adaptive variational integrators.

Energy-preserving adaptive steps (the time increment solved from the
discrete energy equation), monitor-function adaptive steps (implicit
midpoint on a time-rescaled Hamiltonian), a dense Runge-Kutta reference,
and a backward-error-analysis verification suite, with runs reproducible
in double or extended precision.
"""

from .bea import (
    IdentityProfile,
    Jet1D,
    SineProfile,
    discrete_residual,
    lemma1_reparametrization_check,
    meshed_lagrangian_order2,
    modified_lagrangian_mod3,
    modified_rhs_order2,
    residual_order_estimate,
)
from .diagnostics import (
    energy_error_series,
    hamiltonian_error_series,
    telescoping_bound_check,
    timestep_stats,
    trajectory_error,
)
from .errors import (
    ConfigurationError,
    IllPosednessError,
    IntegrationError,
    MonitorDomainError,
    NonconvergenceError,
    NonMonotoneTimeError,
    SingularityError,
    SolverError,
    StiffnessError,
    UnsupportedOrderError,
    VarintError,
)
from .integrators import (
    Trajectory,
    avi_calibrate_delta_a,
    avi_run,
    avi_step,
    discrete_partials_midpoint,
    epavi_run,
    epavi_step,
    initial_discrete_energy,
    make_monitor,
    midpoint_fixed_run,
    midpoint_fixed_step,
    reference_solve,
)
from .models import (
    HarmonicOscillator,
    KeplerTwoBody,
    Pendulum,
    angular_momentum,
    kepler_hamiltonian,
    kepler_initial_state,
    make_model,
)
from .precision import DOUBLE, PrecisionContext, with_precision
from .solvers import SolverConfig, SolveReport, fd_jacobian, newton_solve

__version__ = "0.1.0"
