"""Exact p-adic workbench: quotients of the Iwasawa algebra, the Leopoldt
transform, pseudo-polynomials, rational-function criteria, Dirichlet
characters and the Kubota-Leopoldt Iwasawa series with certified
lambda/mu invariants."""

from .padic import (
    PadicInt,
    iwasawa_log,
    kappa_exponent,
    teichmuller,
)
from .ring import (
    InvariantReport,
    RingElem,
    decompose_t_power,
    evaluate,
    exponent_moment,
    ideal_zero,
    invariants,
    invert_unit,
    k_index,
    op_derivative,
    op_isotypic,
    op_leopoldt,
    op_unit_part,
    substitute_exp,
)
from .pseudo import PseudoPoly, equal_test, to_ring
from .ratfun import (
    RatFuncFp,
    RatFuncZp,
    compose_inv,
    d_rat,
    mu_gamma_formula,
    rat_fp,
    rat_zp,
    sym_poly_criterion,
    u_rat,
)
from .characters import (
    DirichletCharacter,
    ThetaCharacter,
    bernoulli_chi,
    build_validate,
    enumerate_even_theta,
    lp_value,
    trivial_character,
)
from .lfunc import (
    IwasawaSeriesReport,
    bounds,
    f_chi,
    g_c_surrogate,
    interpolation_selfcheck,
    iwasawa_invariants,
    iwasawa_series,
    lambda_sum_cyclotomic,
    not_pseudorational_report,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
