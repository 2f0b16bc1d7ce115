"""Finite 2-categorical kernel: pseudocolimits of categories and sites,
with enumerative verification of their universal properties."""

from .core import (Budget, DEFAULT_BUDGET, EquivalenceSearch, FinCat, Functor,
                   NatTrans, Presentation, build_category, compose_functors,
                   enumerate_functors, enumerate_nat_trans,
                   equivalence_witness, identity_functor, identity_nat,
                   validate_category, validate_functor, validate_nat_trans)
from .limits import (Cone, Diagram, LimitAssignment, check_exact,
                     chosen_limit, is_limiting_cone, validate_assignment)
from .twocat import (TwoCat, TwoDiagram, check_2filtered, check_two_functor,
                     constant_diagram, opposite_two_cat, two_cat_from_cat,
                     validate_two_cat)
from .cones import (Modification, Pseudocone, check_modification,
                    check_pseudocone, conjugate, enumerate_modifications,
                    enumerate_pseudocones, postcompose_cell, postcompose_cone)
from .colim import (BicolimReport, PseudocolimitResult, Span,
                    build_pseudocolimit, colim_finite_limit,
                    colim_limit_assignment, factor_cone, verify_bicolimit)
from .sites import (Presheaf, Site, SiteDiagram, build_colim_site,
                    check_continuous, check_sheaf, site_morphism_violations,
                    validate_presheaf, validate_site,
                    verify_site_pseudocolimit)
from .restriction import (AmbientDiagram, RestrictionResult,
                          finite_limit_closure, restrict_diagram,
                          verify_restriction)
from . import errors, standard

__all__ = [n for n in dir() if not n.startswith("_")]
