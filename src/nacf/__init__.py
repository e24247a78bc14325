"""Exact tooling for continued fractions with constant numerator N.

The map x -> N/x - d on [alpha, alpha+1] generates, for every N >= 2 and
alpha in (0, sqrt(N)-1], unique infinite expansions with finitely many
digits.  This package computes those expansions, orbits and periodicity
certificates, matching of the endpoint orbits and the intervals where it
is stable, and the coprime region of the parameter space, all in exact
big-integer arithmetic.
"""

from .exact import (ExactNumber, Surd, compare_exact, decimal_str,
                    floor_exact, format_exact, parse_exact,
                    solve_mobius_fixed_point, surd)
from .expansion import (DigitWord, Mobius, Params, alpha_max, convergents,
                        digit_set, evaluate, expand, projective_equiv, step,
                        validate_expansion, xi)
from .matching import (MatchReport, MatchingInterval, NoMatchWithinBudget,
                       ParamInterval, bad_rational_certificate,
                       cylinder_interval, detect_matching, matching_interval,
                       no_matching_obstruction, stability_check,
                       verify_theorem_intervals)
from .orbits import (OrbitTrace, discriminant_check, divisibility_diagnostics,
                     nonperiodicity_certificate, orbit_quadratic,
                     orbit_rational, reaches_one)
from .paramspace import (DigitSetCell, digit_breakpoints, emit_kset_plot_data,
                         kset, no_matching_regions)

__version__ = "0.1.0"
