import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hicu.losses import AslConfig, asl, bce, sigmoid

from conftest import fd_gradient, rel_err


class TestSigmoid:
    def test_extreme_logits_stable(self):
        x = np.array([-800.0, -50.0, 0.0, 50.0, 800.0])
        out = sigmoid(x)
        assert np.all(np.isfinite(out))
        assert out[0] == 0.0 or out[0] < 1e-300
        assert out[2] == 0.5
        assert out[4] == 1.0 or out[4] > 1 - 1e-16

    def test_symmetry(self):
        x = np.linspace(-30, 30, 101)
        assert np.allclose(sigmoid(x) + sigmoid(-x), 1.0, atol=1e-15)


class TestBce:
    def test_matches_direct_formula(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=50) * 3
        y = (rng.random(50) < 0.5).astype(float)
        loss, grad = bce(x, y)
        p = 1 / (1 + np.exp(-x))
        direct = -np.sum(y * np.log(p) + (1 - y) * np.log(1 - p))
        assert rel_err(loss, direct) < 1e-12
        assert np.allclose(grad, p - y, atol=1e-15)

    def test_gradient_by_finite_differences(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=30)
        y = (rng.random(30) < 0.5).astype(float)
        _, grad = bce(x, y)
        fd = fd_gradient(lambda: bce(x, y)[0], x, range(30))
        for i, g in fd.items():
            assert rel_err(grad[i], g) < 1e-6

    def test_rejects_shape_mismatch_and_nonfinite(self):
        with pytest.raises(ValueError):
            bce(np.zeros(3), np.zeros(4))
        with pytest.raises(ValueError):
            bce(np.array([np.nan]), np.array([0.0]))


class TestAsl:
    def test_reduces_to_bce_at_zero_settings(self):
        rng = np.random.default_rng(2)
        cfg = AslConfig(gamma_pos=0.0, gamma_neg=0.0, margin=0.0)
        x = rng.normal(size=200) * 4
        y = (rng.random(200) < 0.5).astype(float)
        l_asl, g_asl = asl(x, y, cfg)
        l_bce, g_bce = bce(x, y)
        assert abs(l_asl - l_bce) < 1e-9 * max(1.0, abs(l_bce))
        assert np.max(np.abs(g_asl - g_bce)) < 1e-12

    def test_gradient_by_finite_differences(self):
        rng = np.random.default_rng(3)
        cfg = AslConfig(gamma_pos=0.5, gamma_neg=2.0, margin=0.05)
        x = rng.normal(size=40)
        y = (rng.random(40) < 0.5).astype(float)
        _, grad = asl(x, y, cfg)
        fd = fd_gradient(lambda: asl(x, y, cfg)[0], x, range(40))
        for i, g in fd.items():
            assert rel_err(grad[i], g) < 1e-5

    def test_margin_zeroes_confident_negatives(self):
        cfg = AslConfig(gamma_pos=0.0, gamma_neg=1.0, margin=0.3)
        # sigmoid(-3) ~ 0.047 < margin, so the negative contributes nothing
        x = np.array([-3.0])
        y = np.array([0.0])
        loss, grad = asl(x, y, cfg)
        assert loss == 0.0
        assert grad[0] == 0.0

    def test_default_settings_validate(self):
        AslConfig().validate()
        with pytest.raises(ValueError):
            AslConfig(margin=1.0).validate()
        with pytest.raises(ValueError):
            AslConfig(gamma_neg=-1.0).validate()

    @given(st.floats(-6, 6), st.floats(0.1, 4.0))
    @settings(max_examples=60, deadline=None)
    def test_gamma_neg_downweights_negatives(self, logit, gamma):
        """Raising gamma_neg never increases a negative example's loss."""
        y = np.array([0.0])
        x = np.array([logit])
        lo, _ = asl(x, y, AslConfig(gamma_pos=0.0, gamma_neg=gamma, margin=0.0))
        hi, _ = asl(x, y, AslConfig(gamma_pos=0.0, gamma_neg=gamma + 1.0, margin=0.0))
        assert hi <= lo + 1e-12

