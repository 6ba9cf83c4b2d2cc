"""Reproducing kernels, sigma constants, and orthogonal norm expansions for
weighted holomorphic Hilbert spaces in two complex variables (bidisk, unit
ball, and Gaussian-weighted entire functions), backed by an independent
Gram-matrix oracle."""

from .config import Point2, SeriesResult
from .errors import (ConditioningError, ConvergenceError, DivisibilityError,
                     DomainError, KernelforgeError, QuadratureError)
from .poly2 import BiPoly

from .bidisk import (BidiskParams, NormExpansion, coeff_a, coeff_b,
                     diag_kernel, full_kernel, full_kernels,
                     hardy_norm_expansion,
                     norm_expansion, q_kernel, restriction_transform, sigma,
                     sigma_gamma_form, taylor_blocks)
from .ball import (BallParams, ball_full_kernel, ball_full_kernel_series,
                   ball_hardy_norm_expansion, ball_norm_expansion,
                   ball_qN_kernel, embed_const)
from .fock import (FockParams, coeff_c, fock_diag_kernel, fock_full_kernel,
                   fock_norm_expansion, fock_q0_kernel,
                   fock_restriction_transform, fock_sigma)
from .oracle import (GramBlocks, ball_monomial_norms, gram_bidisk_exact,
                     gram_fock_exact, gram_hardy_torus_exact,
                     gram_kernel_blocks, gram_numeric, kernel_from_blocks,
                     project)
from .verify import SUITES, run_suite

__version__ = "0.1.0"

__all__ = [
    "BallParams", "BidiskParams", "BiPoly", "ConditioningError",
    "ConvergenceError", "DivisibilityError", "DomainError", "FockParams",
    "GramBlocks", "KernelforgeError", "NormExpansion", "Point2",
    "QuadratureError", "SUITES", "SeriesResult",
    "ball_full_kernel", "ball_full_kernel_series",
    "ball_hardy_norm_expansion", "ball_monomial_norms", "ball_norm_expansion",
    "ball_qN_kernel", "coeff_a", "coeff_b", "coeff_c",
    "diag_kernel", "embed_const", "fock_diag_kernel",
    "fock_full_kernel", "fock_norm_expansion", "fock_q0_kernel",
    "fock_restriction_transform", "fock_sigma", "full_kernel", "full_kernels",
    "gram_bidisk_exact", "gram_fock_exact", "gram_hardy_torus_exact",
    "gram_kernel_blocks", "gram_numeric", "hardy_norm_expansion",
    "kernel_from_blocks", "norm_expansion", "project", "q_kernel",
    "restriction_transform", "run_suite", "sigma", "sigma_gamma_form",
    "taylor_blocks",
]
