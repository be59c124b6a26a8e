"""Spectral-Galerkin solver for noisy leaky integrate-and-fire population
density equations, with a finite-difference cross-validation solver and an
experiment harness."""

from .assembly import (
    GalerkinMatrices,
    GaussianIC,
    assemble,
    dump_matrices,
    normalize_gaussian,
    project_initial,
    reconstruct,
)
from .basis import BasisSet, Domain
from .fdm import FdmGrid, fdm_reference, fdm_solve, fdm_solve_twopop
from .norms import l2_distance, linf_distance, norm_grid
from .onepop import OnePopParams, PopulationState, RunRecord, firing_rate, solve, step
from .quadrature import QuadratureRule, gauss_laguerre, gauss_legendre, map_affine
from .twopop import (
    TwoPopParams,
    TwoPopRunRecord,
    TwoPopState,
    coefficients,
    recovery,
    solve_twopop,
    step_twopop,
)

__version__ = "0.1.0"

__all__ = [
    "BasisSet",
    "Domain",
    "FdmGrid",
    "GalerkinMatrices",
    "GaussianIC",
    "OnePopParams",
    "PopulationState",
    "QuadratureRule",
    "RunRecord",
    "TwoPopParams",
    "TwoPopRunRecord",
    "TwoPopState",
    "assemble",
    "coefficients",
    "dump_matrices",
    "fdm_reference",
    "fdm_solve",
    "fdm_solve_twopop",
    "firing_rate",
    "gauss_laguerre",
    "gauss_legendre",
    "l2_distance",
    "linf_distance",
    "map_affine",
    "normalize_gaussian",
    "norm_grid",
    "project_initial",
    "reconstruct",
    "solve",
    "solve_twopop",
    "step",
    "step_twopop",
]
