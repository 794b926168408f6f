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
    and grad is None; values and valid are unchanged. grad is a swapaxes view of
    a gradient-major (..., 2, C) array, so grad.swapaxes(-1, -2) reads it
    without a copy.
    """
    fmap = np.asarray(fmap, dtype=float)
    c, h, w = fmap.shape
    u = np.asarray(u, dtype=float)
    lead = u.shape[:-1]
    # Locations within in_bounds' round-off slack outside the domain are clamped in.
    valid = in_bounds(u, h, w).reshape(-1)
    invalid = ~valid
    u = u.reshape(-1, 2)
    x = np.clip(u[:, 0], 0.0, w - 1.0)
    y = np.clip(u[:, 1], 0.0, h - 1.0)

    # Clamp the anchor so x == W-1 samples the last cell with weight 1 on its far
    # edge; x and y are non-negative here, so truncation is the floor.
    x0 = np.minimum(x, max(w - 2, 0)).astype(int)
    y0 = np.minimum(y, max(h - 2, 0)).astype(int)
    x0[invalid] = 0
    y0[invalid] = 0
    a = x - x0
    b = y - y0
    a[invalid] = 0.0
    b[invalid] = 0.0

    # One gather of the four neighbours (x0, y0), (x1, y0), (x0, y1), (x1, y1) from
    # the pixel-major map; for a view of a pixel-major buffer this makes no copy.
    # x1 = x0 + 1 and y1 = y0 + 1, except on a grid one pixel wide or high.
    flat = np.ascontiguousarray(np.moveaxis(fmap, 0, -1)).reshape(h * w, c)
    dx, dy = min(w - 1, 1), min(h - 1, 1) * w
    corners = (y0 * w + x0)[:, None] + np.array([0, dx, dy, dy + dx])
    nbr = flat.take(corners, axis=0)   # (M, 4, C)

    wa, wb = 1.0 - a, 1.0 - b
    # The (M, 1, 4) blend is the same product with or without the gradient, so
    # both modes return bitwise-equal values.
    blend = np.empty((x.size, 1, 4))
    for k, (p, q) in enumerate(((wa, wb), (a, wb), (wa, b), (a, b))):
        np.multiply(p, q, out=blend[:, 0, k])
    values = np.matmul(blend, nbr)[:, 0, :]
    values[invalid] = 0.0
    valid = valid.reshape(lead)
    values = values.reshape(lead + (c,))
    if not with_grad:
        return values, None, valid
    # d(blend)/dx and d(blend)/dy, (M, 2, 4).
    dblend = np.empty((x.size, 2, 4))
    for row, columns in enumerate(((-wb, wb, -b, b), (-wa, -a, wa, a))):
        for k, column in enumerate(columns):
            dblend[:, row, k] = column
    grad = np.matmul(dblend, nbr)   # (M, 2, C)
    grad[invalid] = 0.0
    return values, np.swapaxes(grad.reshape(lead + (2, c)), -1, -2), valid
