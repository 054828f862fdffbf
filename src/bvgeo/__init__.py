"""Geodesic homotopies between closed planar curves under BV2 and
second-order Sobolev metrics."""

from .curves import (CurveError, DegenerateSegmentError, PolyCurve,
                     TangentField, constant_speed_resample, frenet_frames,
                     length, normalize_to_unit_square, signed_area,
                     smoothed_norm, validate_immersion)
from .io import (ParseError, RunConfig, load_config, load_curve,
                 load_homotopy, parse_config, save_curve, save_homotopy)
from .matching import (KernelParams, currents_distance_sq, kernel,
                       match_distance, match_gradient)
from .metrics import (BV2, H2, EquivalenceConstants, MetricSpec,
                      bv2_tangent_norm, equivalence_constants, flat_bv2_norm,
                      h2_tangent_norm_sq, j0, j1, j2)
from .optimize import (OptimConfig, OptimReport, align_start_node,
                       continuation, descend, fd_check, gradient,
                       init_constant, init_linear, objective)
from .paths import (Homotopy, PathDiagnostics, length_bound_check,
                    make_translation_path, path_energy, step_norms,
                    time_constant_speed_reparam, velocity)

__version__ = "0.1.0"
