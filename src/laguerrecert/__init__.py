"""Exact-arithmetic irreducibility certificates for Laguerre-type
polynomials over a monic base, via prime-valuation polygons."""

from .certify import (Certificate, ExclusionWitness, FailureReport,
                      NoSmallDegreePrime, certificate_from_json,
                      certificate_to_json, certify, exclude_small_degrees,
                      find_prime_for_k, lemma_exclusion_check, verify_certificate)
from .laguerre import (HypothesisViolation, LaguerreInstance, build_instance,
                       laguerre_coefficients, parameter)
from .oracle import (DegreeSet, FactorWitness, Verdict, oracle_verdict,
                     possible_degrees, search_reducible_witness, verify_witness)
from .polygon import (NewtonPolygon, bruteforce_lower_hull, build_polygon,
                      polygon_from_points, rightmost_slope)
from .polyring import (Poly, X, check_phi, construct_phi, content, degree_pattern,
                       format_poly, gauss_valuation, is_irreducible_mod_p, parse_poly,
                       phi_expand, primitive_part)
from .primes import (INFINITY, factorial_valuation, factorize, is_prime,
                     largest_prime_factor, sieve_primes, vp_int, vp_rat)
from .tables import (EXPECTED_EQUATION_SOLUTIONS, EXPECTED_PAIR_SETS,
                     K1_QUOTED_SETS, Report, k1_no_good_prime_set,
                     product_lpf_pairs, solve_power_equation,
                     verify_k1_subcases, verify_nonconstant_leading_counterexample,
                     verify_reference_tables)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
