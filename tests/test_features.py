import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from semba.features import PcaModel, bilinear_sample, pca_decode


def qr_model(rng, c, k):
    """A model with a random mean and the Q factor of a random (C, K) matrix as basis."""
    return PcaModel(rng.normal(size=c), np.linalg.qr(rng.normal(size=(c, k)))[0])


def encode(features, model):
    return (features - model.mean) @ model.basis


class TestPca:
    def test_exact_subspace_reconstructs(self, rng):
        model = qr_model(rng, 6, 2)
        samples = rng.normal(size=(40, 2)) @ model.basis.T + model.mean
        rec = pca_decode(encode(samples, model), model)
        assert np.abs(rec - samples).max() < 1e-9

    def test_full_rank_roundtrip(self, rng):
        samples = rng.normal(size=(30, 5))
        model = qr_model(rng, 5, 5)
        rec = pca_decode(encode(samples, model), model)
        assert np.abs(rec - samples).max() < 1e-9

    def test_k_bounds(self, rng):
        with pytest.raises(ValueError, match="orthonormal"):
            PcaModel(np.zeros(4), rng.normal(size=(4, 5)))  # K > C columns cannot be orthonormal
        with pytest.raises(ValueError, match="orthonormal"):
            PcaModel(np.zeros(4), 2.0 * np.eye(4)[:, :2])
        with pytest.raises(ValueError, match="inconsistent"):
            PcaModel(np.zeros(5), np.eye(4)[:, :2])

    def test_encode_mean_is_zero(self, rng):
        model = qr_model(rng, 4, 2)
        assert np.abs(encode(model.mean, model)).max() < 1e-12
        assert np.array_equal(pca_decode(np.zeros(2), model), model.mean)

    def test_projection_contraction(self, rng):
        model = qr_model(rng, 4, 2)
        for _ in range(20):
            f = rng.normal(size=4)
            rec = pca_decode(encode(f, model), model)
            assert np.linalg.norm(rec - f) <= np.linalg.norm(f - model.mean) + 1e-12

    def test_in_subspace_roundtrip(self, rng):
        model = qr_model(rng, 5, 3)
        f = pca_decode(rng.normal(size=3), model)
        assert np.abs(pca_decode(encode(f, model), model) - f).max() < 1e-9

    def test_dimension_mismatch(self, rng):
        model = qr_model(rng, 4, 2)
        with pytest.raises(ValueError, match="code dim"):
            pca_decode(np.zeros(3), model)

    def test_identity_model(self):
        model = PcaModel(np.zeros(4), np.eye(4))
        f = np.array([1.0, -2.0, 3.0, 0.5])
        assert np.array_equal(pca_decode(f, model), f)


class TestBilinearSample:
    def test_exact_at_grid_point(self, rng):
        fmap = rng.normal(size=(4, 8, 9))
        values, _, valid = bilinear_sample(fmap, np.array([3.0, 5.0]))
        assert valid
        assert np.array_equal(values, fmap[:, 5, 3])

    def test_constant_map_center(self):
        fmap = np.full((2, 6, 6), 7.5)
        values, grad, valid = bilinear_sample(fmap, np.array([2.5, 3.5]))
        assert valid
        assert np.abs(values - 7.5).max() < 1e-12
        assert np.abs(grad).max() < 1e-12

    def test_gradient_matches_finite_differences(self, rng):
        fmap = rng.normal(size=(3, 12, 14))
        worst = 0.0
        for _ in range(100):
            u = rng.uniform(1.0, 10.0, size=2)
            if abs(u[0] - round(u[0])) < 1e-3 or abs(u[1] - round(u[1])) < 1e-3:
                continue  # kink at cell boundaries
            _, grad, valid = bilinear_sample(fmap, u)
            assert valid
            eps = 1e-4
            for axis in range(2):
                step = np.zeros(2)
                step[axis] = eps
                vp, _, _ = bilinear_sample(fmap, u + step)
                vm, _, _ = bilinear_sample(fmap, u - step)
                fd = (vp - vm) / (2 * eps)
                worst = max(worst, np.abs(grad[:, axis] - fd).max())
        assert worst < 1e-5

    def test_continuity_across_cell_boundary(self, rng):
        fmap = rng.normal(size=(2, 8, 8))
        for u in ([3.0, 2.5], [2.5, 4.0], [3.0, 4.0]):
            a, _, _ = bilinear_sample(fmap, np.array(u))
            b, _, _ = bilinear_sample(fmap, np.array(u) + 1e-9)
            assert np.abs(a - b).max() <= 1e-6

    def test_out_of_bounds_flagged(self, rng):
        fmap = rng.normal(size=(1, 5, 5))
        for u in ([-0.1, 2.0], [2.0, -0.1], [4.2, 2.0], [2.0, 4.0001]):
            values, grad, valid = bilinear_sample(fmap, np.array(u))
            assert not valid
            assert np.all(values == 0) and np.all(grad == 0)

    def test_edge_coordinates_valid(self, rng):
        fmap = rng.normal(size=(2, 5, 6))
        values, _, valid = bilinear_sample(fmap, np.array([5.0, 4.0]))
        assert valid
        assert np.abs(values - fmap[:, 4, 5]).max() < 1e-12

    @given(st.floats(0.0, 4.0), st.floats(0.0, 4.0))
    def test_convex_combination(self, x, y):
        fmap = np.zeros((1, 5, 5))
        fmap[0, 2, 2] = 1.0
        values, _, valid = bilinear_sample(fmap, np.array([x, y]))
        assert valid
        # Weights are non-negative and partition unity, so sampling an
        # indicator stays inside [0, 1].
        assert -1e-12 <= values[0] <= 1.0 + 1e-12

    def test_batched_shapes(self, rng):
        fmap = rng.normal(size=(3, 6, 7))
        u = rng.uniform(0.5, 5.0, size=(4, 5, 2))
        values, grad, valid = bilinear_sample(fmap, u)
        assert values.shape == (4, 5, 3)
        assert grad.shape == (4, 5, 3, 2)
        assert valid.shape == (4, 5)

    def test_value_only_mode_matches_gradient_mode(self, rng):
        h, w = 5, 9
        fmap = rng.normal(size=(3, h, w))
        edges = np.array([[w - 1, h - 1], [w - 1, 0.5], [2.5, h - 1], [0.0, 0.0],
                          [w - 1 + 1e-6, 2.0], [3.0, h - 1 + 1e-6], [-1e-6, 1.0], [4.0, -1e-6]])
        u = np.concatenate([rng.uniform(0.0, [w - 1, h - 1], size=(40, 2)), edges])
        values, grad, valid = bilinear_sample(fmap, u)
        values_only, no_grad, valid_only = bilinear_sample(fmap, u, with_grad=False)
        assert no_grad is None
        assert valid[:-4].all() and not valid[-4:].any()
        assert np.array_equal(values_only, values)
        assert np.array_equal(valid_only, valid)

    @staticmethod
    def literal_blend(fmap, x, y):
        """The four-term blend and its (x, y) derivative at one in-domain point."""
        _, h, w = fmap.shape
        x0 = min(max(int(np.floor(x)), 0), max(w - 2, 0))
        y0 = min(max(int(np.floor(y)), 0), max(h - 2, 0))
        x1, y1 = min(x0 + 1, w - 1), min(y0 + 1, h - 1)
        a, b = x - x0, y - y0
        f00, f10, f01, f11 = fmap[:, y0, x0], fmap[:, y0, x1], fmap[:, y1, x0], fmap[:, y1, x1]
        value = (1 - a) * (1 - b) * f00 + a * (1 - b) * f10 + (1 - a) * b * f01 + a * b * f11
        grad_x = (1 - b) * (f10 - f00) + b * (f11 - f01)
        grad_y = (1 - a) * (f01 - f00) + a * (f11 - f10)
        return value, np.stack([grad_x, grad_y], axis=-1)

    @pytest.mark.parametrize("h, w", [(1, 1), (1, 7), (6, 1), (4, 5)])
    def test_matches_literal_blend_on_thin_maps(self, rng, h, w):
        # With H = 1 or W = 1 the far neighbour is the clamped x1 / y1, never the
        # next flat index, so the derivative across the missing axis is zero
        # (to rounding) rather than a difference with a pixel of another row.
        fmap = rng.normal(size=(3, h, w))
        pixel_major = np.moveaxis(np.ascontiguousarray(np.moveaxis(fmap, 0, -1)), -1, 0)
        u = rng.uniform(0.0, [w - 1, h - 1], size=(30, 2))
        u = np.concatenate([u, [[0.0, 0.0], [w - 1, h - 1], [w - 1, 0.0], [0.0, h - 1]]])
        for m in (fmap, pixel_major):
            values, grad, valid = bilinear_sample(m, u)
            assert valid.all()
            for p, (x, y) in enumerate(u):
                value, g = self.literal_blend(fmap, x, y)
                assert np.abs(values[p] - value).max() <= 1e-14
                assert np.abs(grad[p] - g).max() <= 1e-14
