"""Simulation and analysis toolkit for single-server queues.

G/G/1 simulation by the service-slot recursion with exact cost
accounting, shorter windows of one run by ``restrict``, renewal-cycle
estimators, inspection-paradox sampling, and an average-cost control
model for the service rate, all verified by a runnable acceptance
suite (`gg1lab verify`).
"""

from .distributions import (
    DistributionSpec,
    deterministic,
    exponential,
    gamma,
    lognormal,
    uniform,
)
from .metrics import (
    MetricsReport,
    compute_report,
    littles_chain,
    verify_theorem,
)
from .renewal import RenewalCycles, cycle_rewards, detect_cycles
from .simulator import (
    CustomerLedger,
    EventCapExceeded,
    Trajectory,
    fcfs_departure_times,
    lindley_fcfs,
    simulate,
)

__version__ = "0.1.0"

__all__ = [
    "CustomerLedger",
    "DistributionSpec",
    "EventCapExceeded",
    "MetricsReport",
    "RenewalCycles",
    "Trajectory",
    "compute_report",
    "cycle_rewards",
    "detect_cycles",
    "deterministic",
    "exponential",
    "fcfs_departure_times",
    "gamma",
    "littles_chain",
    "lindley_fcfs",
    "lognormal",
    "simulate",
    "uniform",
    "verify_theorem",
    "__version__",
]
