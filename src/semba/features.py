"""Dense embedding maps: PCA decoding, bilinear sampling.

Feature maps are float arrays of shape (C, H, W). bilinear_sample reads them
pixel-major, so a (C, H, W) view of a C-contiguous (H, W, C) buffer (as
graph.Keyframe stores its features) is sampled without a copy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class PcaModel:
    """Affine subspace model: pca_decode maps (..., K) codes to codes @ basis.T + mean.

    input_dim is C, the width of the decoded vectors; output_dim is K, the width
    of the codes (the keyframe feature channels the model decodes).
    """

    mean: np.ndarray   # (C,)
    basis: np.ndarray  # (C, K), column-orthonormal

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float).reshape(-1)
        basis = np.asarray(self.basis, dtype=float)
        if basis.ndim != 2 or basis.shape[0] != mean.shape[0]:
            raise ValueError(f"basis shape {basis.shape} inconsistent with mean length {mean.shape[0]}")
        gram = basis.T @ basis
        if not np.allclose(gram, np.eye(basis.shape[1]), atol=1e-6):
            raise ValueError("basis columns are not orthonormal")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "basis", basis)

    @property
    def input_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def output_dim(self) -> int:
        return self.basis.shape[1]


def pca_decode(codes: np.ndarray, model: PcaModel) -> np.ndarray:
    """Reconstruct (..., C) vectors from (..., K) codes."""
    codes = np.asarray(codes, dtype=float)
    if codes.shape[-1] != model.output_dim:
        raise ValueError(f"code dim {codes.shape[-1]} != model output dim {model.output_dim}")
    return codes @ model.basis.T + model.mean


def in_bounds(u: np.ndarray, height: int, width: int) -> np.ndarray:
    """Sampling-domain test: [0, W-1] x [0, H-1] with an epsilon of round-off slack."""
    eps = 1e-9
    x, y = u[..., 0], u[..., 1]
    return (x >= -eps) & (x <= width - 1 + eps) & (y >= -eps) & (y <= height - 1 + eps)


def bilinear_sample(fmap: np.ndarray, u, with_grad: bool = True):
    """Sample a (C, H, W) map at continuous pixel locations u (..., 2) = (x, y).

    Returns (values (..., C), grad (..., C, 2), valid (...,)). The four-neighbor
    weights are non-negative and sum to one, reproduce grid values exactly at
    integer coordinates, and grad is the analytic derivative of the blend with
    respect to (x, y). Out-of-domain locations ([0, W-1] x [0, H-1]) are flagged
    invalid and return zeros. With with_grad=False the gradient is not computed
    and grad is None; values and valid are unchanged.
    """
    fmap = np.asarray(fmap, dtype=float)
    c, h, w = fmap.shape
    u = np.asarray(u, dtype=float)
    # Locations within in_bounds' round-off slack outside the domain are clamped in.
    valid = in_bounds(u, h, w)
    x = np.clip(u[..., 0], 0.0, w - 1.0)
    y = np.clip(u[..., 1], 0.0, h - 1.0)

    # Clamp the anchor so x == W-1 samples the last cell with weight 1 on its far edge.
    x0 = np.clip(np.floor(x), 0, w - 2).astype(int) if w > 1 else np.zeros_like(x, dtype=int)
    y0 = np.clip(np.floor(y), 0, h - 2).astype(int) if h > 1 else np.zeros_like(y, dtype=int)
    x0 = np.where(valid, x0, 0)
    y0 = np.where(valid, y0, 0)
    a = np.where(valid, x - x0, 0.0)
    b = np.where(valid, y - y0, 0.0)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)

    # One gather of the four neighbours (x0, y0), (x1, y0), (x0, y1), (x1, y1) from
    # the pixel-major map; for a view of a pixel-major buffer this makes no copy.
    flat = np.ascontiguousarray(np.moveaxis(fmap, 0, -1)).reshape(h * w, c)
    corners = np.stack([y0 * w + x0, y0 * w + x1, y1 * w + x0, y1 * w + x1], axis=-1)
    nbr = flat.take(corners, axis=0)   # (..., 4, C)

    wa, wb = 1.0 - a, 1.0 - b
    # The (..., 1, 4) blend is the same product with or without the gradient, so
    # both modes return bitwise-equal values.
    blend = np.stack([wa * wb, a * wb, wa * b, a * b], axis=-1)[..., None, :]
    values = np.matmul(blend, nbr)[..., 0, :]
    invalid = ~valid
    values[invalid] = 0.0
    if not with_grad:
        return values, None, valid
    # d(blend)/dx and d(blend)/dy, (..., 2, 4).
    dblend = np.stack([np.stack([-wb, wb, -b, b], axis=-1),
                       np.stack([-wa, -a, wa, a], axis=-1)], axis=-2)
    grad = np.swapaxes(np.matmul(dblend, nbr), -1, -2)   # (..., C, 2)
    grad[invalid] = 0.0
    return values, grad, valid
