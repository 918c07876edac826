"""Fair and periodic scheduling of independent sets on conflict graphs."""

from .analysis import budget_check, elias_period_bound, log_star, phi
from .codec import omega_decode, omega_encode, rho
from .coloring import RoundLog, greedy_color, is_proper, local_random_color
from .graph import (
    ConflictGraph,
    complete_graph,
    cycle_graph,
    gnp_random_graph,
    path_graph,
    star_graph,
)
from .satisfaction import alternating_schedule, brute_force_satisfaction, max_satisfaction
from .schedulers import (
    EliasSchedule,
    PeriodicSchedule,
    PhasedSchedule,
    Slot,
    degree_slots_distributed,
    degree_slots_sequential,
    dynamic_insert,
    dynamic_remove,
    elias_schedule,
    phased_greedy,
)
from .verify import brute_force_mis, check_gap_bounds, happy_set_vs_mis, report

__version__ = "0.1.0"

__all__ = [
    "ConflictGraph",
    "EliasSchedule",
    "PeriodicSchedule",
    "PhasedSchedule",
    "RoundLog",
    "Slot",
    "alternating_schedule",
    "brute_force_mis",
    "brute_force_satisfaction",
    "budget_check",
    "check_gap_bounds",
    "complete_graph",
    "cycle_graph",
    "degree_slots_distributed",
    "degree_slots_sequential",
    "dynamic_insert",
    "dynamic_remove",
    "elias_period_bound",
    "elias_schedule",
    "gnp_random_graph",
    "greedy_color",
    "happy_set_vs_mis",
    "is_proper",
    "local_random_color",
    "log_star",
    "max_satisfaction",
    "omega_decode",
    "omega_encode",
    "path_graph",
    "phased_greedy",
    "phi",
    "report",
    "rho",
    "star_graph",
]
