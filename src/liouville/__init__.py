"""Discrete calculus and solution-nonexistence diagnostics for the
inequality Delta u + u^p |grad u|^q <= 0 on weighted graphs."""

from .caccioppoli import (CConstants, EstimateReport, ExpVolumeBound, TestFunction,
                          c_constant, estimate_sides, estimate_sides_radial,
                          exp_volume_bound, h_value, holder_conjugate, kappa0,
                          phi_value, test_function_value)
from .counterexamples import (BuiltCounterexample, Certificate, DeltaBound, MarginReport,
                              RegimeSpec, TailReport, VolumeBand, build, calibrate,
                              certify, certify_spec,
                              delta0, interior_threshold, lambda_fn, lambda_limit,
                              layer_rows, margin_at, nonlinear_term, tail_check, term_kernel,
                              verify, verify_graph,
                              verify_radial, volume_band, volume_target)
from .descent import (DescentStep, DescentWalk, PointwiseBoundReport, WalkDiagnostics,
                      descent_walk, pointwise_bound_check, pointwise_bound_check_built,
                      radial_descent_walk, walk_diagnostics)
from .errors import (CalibrationError, HypothesisNotMetError, InputError,
                     IsolatedVertexError, LiouvilleError)
from .graphs import (GraphFunction, HarnackReport, WeightedGraph, ball_volume,
                     format_graph_text, gradient_form, gradient_norm, harnack_check,
                     laplacian, nash_williams_partial, p0_of, parse_graph_text,
                     restricted_gradient_norm, site_operators, vertex_measure)
from .numerics import (default_precision_bits, check_le, check_nonpositive,
                       mpf_str, precision, rel_tol, to_mpf)
from .radial import (RadialFunction, RadialTree, TwoSidedRadialTree,
                     format_radial_text, induced_graph_function, layer_operators,
                     parse_radial_text)
from .regions import (Exponents, PQPoint, RegionLabel, STSelection, choose_st,
                      classify, classify_g, classify_k, exponents, in_g_region,
                      in_k_region, pq, st_condition)

__version__ = "0.1.0"
