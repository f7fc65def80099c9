"""Exact theta-series arithmetic for Type II codes over Z_2k.

The exported names resolve lazily (PEP 562): ``import zktheta`` loads no
layer, and ``zktheta.find_saddle`` imports the asymptotics layer (and
mpmath) only when first looked up.
"""

import importlib

_EXPORTS = {
    "series": ("FracSeries", "linear_combine", "mul", "power"),
    "modforms": ("eisenstein_e4", "h_series", "theta_f"),
    "extremal": ("ExtremalProfile", "PositivityReport", "b_coefficients",
                 "beta_stars", "crossover_scan", "positivity_certificate",
                 "profile", "theorem1_sweep"),
    "codes": ("LinearCode", "enumerate_codewords", "euclidean_weight", "rho",
              "search_c8", "swe", "theta_cosets", "theta_substitution",
              "verify_type2"),
    "asymptotics": ("SaddleData", "find_saddle", "predicted_ratio_limit",
                    "ratio_report"),
}
_HOME = {name: layer for layer, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
