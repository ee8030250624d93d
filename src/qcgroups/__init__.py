"""Exact polars, quasi-convex hulls and witness certificates.

Carriers: the circle T = R/Z (rational grids), finite cyclic groups,
truncated 3-adic integers Z(3^M), and the real line.  Everything is
integer/rational arithmetic; results are exact and deterministic.
"""

from .circle import RationalIntervalUnion, UnitRational, tm_interval
from .duality import (HullReport, MultiplyBy, QuotientBy, ResidueSet,
                      char_polar_intervals, check_two_x_equivalence, hull,
                      is_quasi_convex, polar, pushforward_check,
                      trace_subgroup, unit_fraction_chain_check)
from .errors import InvalidInputError
from .families import (DivisibleChain, GapSequence, Verdict, WitnessRecipe,
                       chain_from_family, necessary_report_R, necessary_report_T,
                       points_K2, points_K3, points_R2,
                       sufficiency_dikleo, verdict_J3, verdict_R2, verdict_T2,
                       verdict_T3)
from .padic import (BalancedDigits, PadicTruncGroup, PruferChar, balanced_digits,
                    balanced_digits_circle, compute_Jm, epsilon_forms, eta_eval,
                    L3_truncate, leading_digit_lemma_check, level_for, q12_set,
                    zeta_eval)
from .realline import (HullMembership, PeriodicPolar, RealFiniteSet, hull_R,
                       member_hull_R, polar_R, scale_into_half)
from .witnesses import (ExclusionCertificate, TailBound, certificate_from_json,
                        exclusion_J3, exclusion_T3, membership_demo,
                        shift_char_J3, shift_char_T3, tail_bound_T3,
                        verify_certificate)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
