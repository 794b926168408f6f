"""General robust loss family, IRLS weights, and the similarity-driven shape parameter.

All functions broadcast over numpy arrays; residuals and shape parameters may
be arrays of matching shape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# The general expression is evaluated through expm1/log1p and stays accurate
# arbitrarily close to its removable singularities; the closed-form limits are
# only substituted inside these razor-thin bands, keeping the switchover
# mismatch far below the 1e-6 continuity budget.
_ALPHA_TWO_BAND = 1e-9
_ALPHA_ZERO_BAND = 1e-9


@dataclass(frozen=True)
class KernelConfig:
    """Adaptive-kernel parameters.

    c: residual scale of the loss family.
    alpha_static / alpha_dynamic: shape values at high / low embedding similarity.
    kappa: similarity threshold (sigmoid midpoint), tau: transition sharpness.
    """

    c: float = 1.0
    alpha_static: float = 2.0
    alpha_dynamic: float = -2.0
    kappa: float = 0.5
    tau: float = 0.1

    def __post_init__(self):
        if self.c <= 0 or self.tau <= 0:
            raise ValueError("c and tau must be positive")
        if self.alpha_dynamic > self.alpha_static:
            raise ValueError("alpha_dynamic must not exceed alpha_static")
        if not -1.0 <= self.kappa <= 1.0:
            raise ValueError("kappa must lie in [-1, 1]")


def barron_rho(r, alpha, c: float = 1.0):
    """Loss value of the general robust family.

    rho_alpha(r) = (|a-2|/a) * (((r/c)^2/|a-2| + 1)^(a/2) - 1), with the smooth
    limits (r/c)^2/2 at a=2 and log((r/c)^2/2 + 1) at a=0.
    """
    if c <= 0:
        raise ValueError("scale c must be positive")
    r = np.asarray(r, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    s = (r / c) ** 2
    s, alpha = np.broadcast_arrays(s, alpha)

    near_two = np.abs(alpha - 2.0) < _ALPHA_TWO_BAND
    near_zero = np.abs(alpha) < _ALPHA_ZERO_BAND
    general = ~(near_two | near_zero)

    out = np.empty_like(s)
    out[near_two] = s[near_two] / 2.0
    out[near_zero] = np.log1p(s[near_zero] / 2.0)
    if np.any(general):
        a = alpha[general]
        b = np.abs(a - 2.0)
        out[general] = (b / a) * np.expm1(0.5 * a * np.log1p(s[general] / b))
    return out if out.ndim else float(out)


def barron_psi(r, alpha, c: float = 1.0):
    """Influence function d(rho)/dr: (r/c^2) * ((r/c)^2/|a-2| + 1)^(a/2 - 1)."""
    if c <= 0:
        raise ValueError("scale c must be positive")
    r = np.asarray(r, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    s = (r / c) ** 2
    s, alpha, r = np.broadcast_arrays(s, alpha, r)

    near_two = np.abs(alpha - 2.0) < _ALPHA_TWO_BAND
    out = np.empty_like(s)
    out[near_two] = r[near_two] / c**2
    rest = ~near_two
    if np.any(rest):
        a = alpha[rest]
        out[rest] = (r[rest] / c**2) * np.exp(
            (a / 2.0 - 1.0) * np.log1p(s[rest] / np.abs(a - 2.0)))
    return out if out.ndim else float(out)


def irls_weight(r, alpha, c: float = 1.0):
    """IRLS weight psi(r)/r for residual magnitudes r >= 0, in closed form.

    w = (1/c^2) * ((r/c)^2/|a-2| + 1)^(a/2 - 1), exactly 1/c^2 at a=2. No division
    by r is made, so the weight at r = 0 is its limit 1/c^2 for every shape a.
    """
    if c <= 0:
        raise ValueError("scale c must be positive")
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise ValueError("irls_weight expects non-negative residual magnitudes")
    alpha = np.asarray(alpha, dtype=float)
    s = (r / c) ** 2
    s, alpha = np.broadcast_arrays(s, alpha)

    near_two = np.abs(alpha - 2.0) < _ALPHA_TWO_BAND
    out = np.full(s.shape, 1.0 / c**2)
    rest = ~near_two
    if np.any(rest):
        a = alpha[rest]
        out[rest] = np.exp((a / 2.0 - 1.0) * np.log1p(s[rest] / np.abs(a - 2.0))) / c**2
    return out if out.ndim else float(out)


def adaptive_alpha(cs, cfg: KernelConfig):
    """Map cosine similarity to a shape parameter via a sigmoid between the two regimes.

    High similarity -> alpha_static (trusted, near-quadratic); low similarity ->
    alpha_dynamic (aggressively down-weighted).
    """
    cs = np.asarray(cs, dtype=float)
    out = (cfg.alpha_dynamic - cfg.alpha_static) / (1.0 + np.exp((cs - cfg.kappa) / cfg.tau)) \
        + cfg.alpha_static
    return out if out.ndim else float(out)
