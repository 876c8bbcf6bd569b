"""fracsteer: steering and optimal control of impulsive fractional delay
systems with nonlocal initial data, in a finite sine-basis truncation.

Pipeline: Mittag-Leffler kernels -> mild-solution Picard solver ->
Grammian-regularized steering -> epsilon sweeps and direct cost minimization.
"""

__version__ = "0.1.0"

from .control import (
    Grammian,
    SteeringReport,
    SweepResult,
    epsilon_sweep,
    grammian,
    steer,
    synthesize_control,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    DomainError,
    EvaluationError,
    FracsteerError,
)
from .mittag import mittag_leffler
from .model import (
    ConstantsLedger,
    HistorySegment,
    ImpulseDescriptor,
    NonlinearityDescriptor,
    NonlocalTerm,
    PhiDescriptor,
    ProblemSpec,
    eval_f,
    eval_impulse,
)
from .optimal import (
    ControlParameterization,
    CostDescriptor,
    MinimizeOptions,
    MinimizeResult,
    eval_cost,
    minimize,
)
from .solver import (
    ControlSignal,
    Grid,
    SolutionKernel,
    Trajectory,
    contraction_check,
    mild_map,
    picard_factor,
    solve_mild,
)

__all__ = [name for name in dir() if not name.startswith("_")]
