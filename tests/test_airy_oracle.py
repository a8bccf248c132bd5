"""Airy values against scipy over [-1000, 100], the array path against the
float path, and the accepted domain."""

import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.special

from nclb.airyfun import (LEFT_CUT, AiryOverflowError, airy, airy_all,
                          airy_array)

KINDS = ("Ai", "AiPrime", "Bi", "BiPrime")
BI_CUT = 103.0
SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def scale(ref, i, x):
    """|value| on the right; on the left the modulus of the Ai/Bi pair."""
    if x < 0:
        return float(np.hypot(ref[i % 2], ref[i % 2 + 2]))
    return abs(float(ref[i]))


# dense on the left, where the functions oscillate, plus the regime cuts
POINTS = sorted(set(np.linspace(-1000.0, 100.0, 4401).tolist())
                | {-8.25, -8.2500001, 8.25, 8.2500001, -0.0, 1e-300})


class TestScipyOracle:
    def test_all_kinds_on_minus_1000_to_100(self):
        for x in POINTS:
            ref = scipy.special.airy(x)
            ours = airy_all(x)
            for i in range(4):
                if i >= 2 and x > BI_CUT:
                    continue
                tol = 1e-10 if x < 0 else 1e-12
                assert abs(ours[i] - ref[i]) <= tol * scale(ref, i, x), (
                    KINDS[i], x, ours[i], ref[i])

    @pytest.mark.parametrize("kind", KINDS)
    def test_public_airy_matches_airy_all(self, kind):
        i = KINDS.index(kind)
        for x in (-987.6, -220.5, -30.0, -8.3, -1.0, 0.0, 2.5, 8.2, 9.0, 60.0):
            assert airy(kind, x) == airy_all(x)[i]

    def test_left_cut_within_documented_error(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 30
        ai, aip, bi, bip = airy_all(LEFT_CUT)
        true_ai = float(mpmath.airyai(LEFT_CUT))
        true_bi = float(mpmath.airybi(LEFT_CUT))
        modulus = np.hypot(true_ai, true_bi)
        assert abs(ai - true_ai) <= 1e-8 * modulus
        assert abs(bi - true_bi) <= 1e-8 * modulus


class TestArrayPath:
    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_float_path(self, kind):
        i = KINDS.index(kind)
        xs = np.array([x for x in POINTS if i < 2 or x <= BI_CUT])
        got = airy_array(kind, xs)
        for x, g in zip(xs.tolist(), got.tolist()):
            want = airy(kind, x)
            bound = 1e-14 * max(scale(airy_all(x), i, x), 1e-300)
            assert abs(g - want) <= bound, (kind, x, g, want)

    def test_shape_and_single_regime_batches(self):
        grid = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
        out = airy_array("Ai", grid)
        assert out.shape == (3, 4)
        assert out[1, 2] == airy("Ai", float(grid[1, 2]))
        for band in (np.linspace(9.0, 20.0, 7), np.linspace(-40.0, -9.0, 7)):
            want = [airy("AiPrime", float(x)) for x in band]
            assert np.allclose(airy_array("AiPrime", band), want,
                               rtol=1e-14, atol=0.0)
        assert airy_array("Bi", np.array([])).shape == (0,)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            airy_array("Ai", np.array([0.0, np.nan]))
        with pytest.raises(ValueError):
            airy_array("Ai", np.array([1.0, LEFT_CUT * 1.5]))
        with pytest.raises(AiryOverflowError):
            airy_array("BiPrime", np.array([1.0, 150.0]))
        with pytest.raises(ValueError):
            airy_array("Gi", np.array([1.0]))
        assert np.all(airy_array("Ai", np.array([150.0, 600.0])) >= 0.0)


class TestDomain:
    def test_left_cut_accepted_and_beyond_rejected(self):
        assert np.isfinite(airy("Ai", LEFT_CUT))
        for fn in (lambda x: airy("Ai", x), airy_all):
            with pytest.raises(ValueError):
                fn(LEFT_CUT - 1.0)

    def test_bi_is_infinite_past_the_overflow_cut_in_airy_all(self):
        ai, aip, bi, bip = airy_all(150.0)
        assert bi == bip == float("inf")
        assert 0.0 <= ai < 1e-300 and aip <= 0.0


def test_import_and_load_model_build_no_anchors():
    code = ("import nclb\n"
            "from nclb import airyfun\n"
            "nclb.load_model('heisenberg')\n"
            "print(len(airyfun._ANCHORS))\n")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0"


def test_array_call_does_not_load_numpy_ma():
    # the anchor lookup is a boolean index, not np.unique, whose first call
    # imports numpy.ma (10-13 ms)
    code = ("import sys\n"
            "from nclb.airyfun import airy_array\n"
            "airy_array('Ai', [0.3, 5.0])\n"
            "print('numpy.ma' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
