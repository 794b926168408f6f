"""General robust loss family, IRLS weights, and the similarity-driven shape parameter.

All functions broadcast over numpy arrays; residuals and shape parameters may
be arrays of matching shape.
"""

from __future__ import annotations

import math

import numpy as np

# The general expression is evaluated through expm1/log1p and stays accurate
# arbitrarily close to its removable singularities; the closed-form limits are
# only substituted inside these razor-thin bands, keeping the switchover
# mismatch far below the 1e-6 continuity budget.
_ALPHA_TWO_BAND = 1e-9
_ALPHA_ZERO_BAND = 1e-9

# The adaptive kernel: shape ALPHA_STATIC (near-quadratic) at high embedding
# similarity and ALPHA_DYNAMIC (strongly down-weighting) at low similarity, with
# a sigmoid switch of midpoint KAPPA and sharpness TAU between them.
ALPHA_STATIC = 2.0
ALPHA_DYNAMIC = -2.0
KAPPA = 0.5
TAU = 0.1


def _check_scale(c):
    if not (math.isfinite(c) and c > 0):
        raise ValueError(f"scale c must be finite and positive, got {c!r}")


def barron_rho(r, alpha, c: float = 1.0):
    """Loss value of the general robust family.

    rho_alpha(r) = (|a-2|/a) * (((r/c)^2/|a-2| + 1)^(a/2) - 1), with the smooth
    limits (r/c)^2/2 at a=2 and log((r/c)^2/2 + 1) at a=0.
    """
    _check_scale(c)
    r = np.asarray(r, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    s = (r / c) ** 2
    if alpha.ndim == 0:
        # One shape (a fixed kernel): only the branch it selects is evaluated.
        a = float(alpha)
        if abs(a - 2.0) < _ALPHA_TWO_BAND:
            out = s / 2.0
        elif abs(a) < _ALPHA_ZERO_BAND:
            out = np.log1p(s / 2.0)
        else:
            b = abs(a - 2.0)
            out = (b / a) * np.expm1(0.5 * a * np.log1p(s / b))
        return out if out.ndim else float(out)
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
    _check_scale(c)
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
    _check_scale(c)
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


def adaptive_alpha(cs):
    """Map cosine similarity to a shape parameter via a sigmoid between the two regimes.

    High similarity -> ALPHA_STATIC (trusted, near-quadratic); low similarity ->
    ALPHA_DYNAMIC (aggressively down-weighted).
    """
    cs = np.asarray(cs, dtype=float)
    out = (ALPHA_DYNAMIC - ALPHA_STATIC) / (1.0 + np.exp((cs - KAPPA) / TAU)) + ALPHA_STATIC
    return out if out.ndim else float(out)
