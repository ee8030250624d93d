"""Exact polars, quasi-convex hulls and witness certificates.

Carriers: the circle T = R/Z (rational grids), finite cyclic groups,
truncated 3-adic integers Z(3^M), and the real line.  Everything is
integer/rational arithmetic; results are exact and deterministic.
"""

from .circle import RationalIntervalUnion, UnitRational, tm_interval
from .duality import (HullReport, ResidueSet, char_polar_intervals,
                      check_two_x_equivalence, hull, polar, pushforward_check)
from .errors import InvalidInputError
from .families import (DivisibleChain, GapSequence, Verdict, WitnessRecipe,
                       necessary_report_R, necessary_report_T, points_K2,
                       points_K3, points_R2, verdict_J3, verdict_R2,
                       verdict_T2, verdict_T3)
from .padic import (PruferChar, compute_Jm, epsilon_forms, L3_truncate,
                    level_for, q12_set)
from .realline import (HullMembership, PeriodicPolar, RealFiniteSet, hull_R,
                       member_hull_R, polar_R)
from .witnesses import (ExclusionCertificate, TailBound, certificate_from_json,
                        exclusion_J3, exclusion_T3, shift_char_J3,
                        shift_char_T3, tail_bound_T3, verify_certificate)

__all__ = [
    "RationalIntervalUnion", "UnitRational", "tm_interval",
    "HullReport", "ResidueSet", "char_polar_intervals",
    "check_two_x_equivalence", "hull", "polar", "pushforward_check",
    "InvalidInputError",
    "DivisibleChain", "GapSequence", "Verdict", "WitnessRecipe",
    "necessary_report_R", "necessary_report_T", "points_K2", "points_K3",
    "points_R2", "verdict_J3", "verdict_R2", "verdict_T2", "verdict_T3",
    "PruferChar", "compute_Jm", "epsilon_forms", "L3_truncate", "level_for",
    "q12_set",
    "HullMembership", "PeriodicPolar", "RealFiniteSet", "hull_R",
    "member_hull_R", "polar_R",
    "ExclusionCertificate", "TailBound", "certificate_from_json",
    "exclusion_J3", "exclusion_T3", "shift_char_J3", "shift_char_T3",
    "tail_bound_T3", "verify_certificate",
]
__version__ = "0.1.0"
