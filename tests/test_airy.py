import math

import numpy as np
import pytest
import scipy.special

from nclb.airyfun import AiryOverflowError, airy, airy_all, wronskian

AI0 = 0.35502805388781723926
AIP0 = -0.25881940379280679841


class TestSeeds:
    def test_ai_at_zero(self):
        assert abs(airy("Ai", 0.0) - AI0) <= 1e-15

    def test_aiprime_at_zero(self):
        assert abs(airy("AiPrime", 0.0) - AIP0) <= 1e-15

    def test_bi_seeds_sqrt3_relation(self):
        assert abs(airy("Bi", 0.0) - math.sqrt(3) * AI0) <= 1e-15
        assert abs(airy("BiPrime", 0.0) + math.sqrt(3) * AIP0) <= 1e-15


class TestAccuracy:
    def test_series_region_vs_scipy(self):
        for x in np.linspace(-8.0, 8.0, 81):
            ref = scipy.special.airy(x)
            ours = airy_all(float(x))
            for o, r in zip(ours, ref):
                assert abs(o - r) <= 1e-12 * (1.0 + abs(r)), (x, o, r)

    def test_outer_region_vs_scipy(self):
        for x in list(np.linspace(8.5, 30.0, 16)) + list(np.linspace(-30.0, -8.5, 16)):
            ref = scipy.special.airy(x)
            ours = airy_all(float(x))
            for o, r in zip(ours, ref):
                assert abs(o - r) <= 1e-10 * (1.0 + abs(r)), (x, o, r)

    def test_branch_switchover_agreement(self):
        from nclb.airyfun import (_ALL, _FLOAT, _monotone, _oscillatory,
                                  _series_quad)
        s = _series_quad(8.0)
        m = _monotone(8.0, _ALL, _FLOAT)
        for a, b in zip(s, m):
            assert abs(a - b) <= 1e-10 * (1.0 + abs(a))
        s = _series_quad(-8.25)
        o = _oscillatory(-8.25, _ALL, _FLOAT)
        for a, b in zip(s, o):
            assert abs(a - b) <= 1e-10 * (1.0 + abs(a))

    def test_wronskian(self):
        for x in (-2.0, 0.0, 1.0, 5.0):
            assert abs(wronskian(x) - 1.0 / math.pi) <= 1e-10

    def test_ode_residual_by_finite_differences(self):
        # Ai'' - x Ai via 4th-order second-difference stencil of the numerics
        h = 1e-3
        w = (-1.0, 16.0, -30.0, 16.0, -1.0)
        for x in np.linspace(-5.0, 5.0, 50):
            vals = [airy("Ai", float(x + k * h)) for k in (-2, -1, 0, 1, 2)]
            second = sum(wi * vi for wi, vi in zip(w, vals)) / (12.0 * h * h)
            assert abs(second - x * airy("Ai", float(x))) <= 1e-9


class TestBehaviour:
    def test_ai_decays_bi_grows(self):
        assert airy("Ai", 20.0) < airy("Ai", 10.0) < airy("Ai", 2.0)
        assert airy("Bi", 20.0) > airy("Bi", 10.0) > airy("Bi", 2.0)

    def test_bi_overflow_guard(self):
        with pytest.raises(AiryOverflowError):
            airy("Bi", 150.0)
        # Ai stays finite arbitrarily far out
        assert airy("Ai", 150.0) >= 0.0

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            airy("Gi", 1.0)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            airy("Ai", float("nan"))
        with pytest.raises(ValueError):
            airy("Ai", float("inf"))
