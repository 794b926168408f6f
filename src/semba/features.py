"""Dense embedding maps: PCA decoding, bilinear sampling.

Feature maps are float arrays of shape (C, H, W), or (C, K, H, W) for K frames.
bilinear_sample reads them pixel-major, so a channels-first view of a
C-contiguous (K, H, W, C) buffer (as graph.KeyframeGraph stores its features)
is sampled without a copy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# bilinear_sample gathers the neighbours of at most this many bytes of rows at a
# time: one gather over a whole keyframe's rows would spill the L2 cache.
_GATHER_BLOCK_BYTES = 1 << 18


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


def bilinear_sample(fmap: np.ndarray, u, valid, with_grad: bool = True, offsets=None):
    """Sample channels-first maps at continuous pixel locations u (..., 2) = (x, y).

    fmap is one (C, H, W) map, or K such maps stacked as (C, K, H, W). Location n
    samples the frame whose pixels start at row offsets[n] of the frames' stacked
    (K*H*W) pixel rows, k*H*W for frame k; without offsets every location samples
    frame 0. valid (...,) is the caller's sampling-domain test, in_bounds of u:
    invalid locations return zeros, and valid ones must lie in [0, W-1] x [0, H-1]
    up to in_bounds' round-off slack.

    Returns (values (..., C), grad (..., 2, C)). The four-neighbor weights are
    non-negative and sum to one, reproduce grid values exactly at integer
    coordinates, and grad is the analytic derivative of the blend,
    gradient-major: grad[..., 0, :] along x and grad[..., 1, :] along y. With
    with_grad=False the gradient is not computed and grad is None; values are
    unchanged. The four neighbours of the locations are gathered from the
    pixel-major maps, which for a view of a pixel-major buffer (as
    graph.KeyframeGraph keeps its features) makes no copy, and blended block by
    block.
    """
    fmap = np.asarray(fmap, dtype=float)
    c = fmap.shape[0]
    h, w = fmap.shape[-2:]
    u = np.asarray(u, dtype=float)
    lead = u.shape[:-1]
    invalid = ~np.asarray(valid).reshape(-1)
    u = u.reshape(-1, 2)
    # Locations within in_bounds' round-off slack outside the domain are clamped in.
    x = np.clip(u[:, 0], 0.0, w - 1.0)
    y = np.clip(u[:, 1], 0.0, h - 1.0)

    # Clamp the anchor so x == W-1 samples the last cell with weight 1 on its far
    # edge; x and y are non-negative here, so truncation is the floor. The clamp
    # is per frame, so no anchor reaches into the next frame's rows.
    x0 = np.minimum(x, max(w - 2, 0)).astype(int)
    y0 = np.minimum(y, max(h - 2, 0)).astype(int)
    x0[invalid] = 0
    y0[invalid] = 0
    a = x - x0
    b = y - y0
    a[invalid] = 0.0
    b[invalid] = 0.0

    # The four neighbours (x0, y0), (x1, y0), (x0, y1), (x1, y1) of every location
    # are gathered from the pixel-major rows. x1 = x0 + 1 and y1 = y0 + 1, except
    # on a grid one pixel wide or high.
    flat = np.ascontiguousarray(fmap.transpose(*range(1, fmap.ndim), 0)).reshape(-1, c)
    dx, dy = min(w - 1, 1), min(h - 1, 1) * w
    corners = np.array([0, dx, dy, dy + dx])
    anchor = y0 * w + x0
    if offsets is not None:
        anchor += offsets

    m = x.size
    wa, wb = 1.0 - a, 1.0 - b
    # The (M, 1, 4) blend is the same product with or without the gradient, so
    # both modes return bitwise-equal values.
    blend = np.empty((m, 1, 4))
    for k, (p, q) in enumerate(((wa, wb), (a, wb), (wa, b), (a, b))):
        np.multiply(p, q, out=blend[:, 0, k])
    values = np.empty((m, 1, c))
    if with_grad:
        # d(blend)/dx and d(blend)/dy, (M, 2, 4).
        dblend = np.empty((m, 2, 4))
        for row, columns in enumerate(((-wb, wb, -b, b), (-wa, -a, wa, a))):
            for k, column in enumerate(columns):
                dblend[:, row, k] = column
        grad = np.empty((m, 2, c))   # gradient-major
    # Each block of neighbours is blended while it is still in cache; every row is
    # blended on its own, so the blocking does not change a bit.
    step = max(1, _GATHER_BLOCK_BYTES // (32 * max(c, 1)))
    for lo in range(0, m, step):
        rows = slice(lo, lo + step)
        nbr = flat.take(anchor[rows, None] + corners, axis=0)   # (rows, 4, C)
        np.matmul(blend[rows], nbr, out=values[rows])
        if with_grad:
            np.matmul(dblend[rows], nbr, out=grad[rows])
    values = values[:, 0, :]
    values[invalid] = 0.0
    values = values.reshape(lead + (c,))
    if not with_grad:
        return values, None
    grad[invalid] = 0.0
    return values, grad.reshape(lead + (2, c))
