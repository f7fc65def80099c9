"""Exact theta-series arithmetic for Type II codes over Z_2k."""

from .series import FracSeries, differentiate, linear_combine, mul, power
from .modforms import delta24, eisenstein_e4, h_series, sigma3, theta1, theta_f
from .extremal import (
    ExtremalProfile,
    PositivityReport,
    b_coefficients,
    beta_stars,
    crossover_scan,
    eq3_value,
    extremal_theta,
    positivity_certificate,
    profile,
    theorem1_sweep,
)
from .codes import (
    LinearCode,
    enumerate_codewords,
    euclidean_weight,
    rho,
    search_c8,
    swe,
    theta_cosets,
    theta_substitution,
    verify_type2,
)
from .asymptotics import (
    SaddleData,
    asymptotic_b,
    eval_F,
    find_saddle,
    predicted_ratio_limit,
    ratio_report,
)

__version__ = "0.1.0"
