import subprocess
import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from affine2f.kernels import i1, i2, psi

# Reference values computed with mpmath (dps=50) from the defining
# integrals, not from the closed forms under test.

PSI_TABLE = [
    (0.0, 0.7, 0.7),
    (1e-9, 2.0, 1.9999999980000000013),
    (-1e-7, 3.0, 3.000000450000045),
    (0.3, 0.25, 0.24085504557149035961),
    (2.5, 4.0, 0.39998184002809500606),
    (-1.2, 2.0, 8.3526469838680008701),
    (-0.08, 0.5, 0.51013467740485283468),
    (5.0, 1e-4, 9.9975004166145890202e-5),
]

I1_TABLE = [
    (0.0, 0.0, 1.0, 1.0),
    (1.0, 1.0, 0.5, 0.3032653298563167118),
    (0.5, 0.5000001, 2.0, 0.73575880876700135269),
    (2.0, -1.0, 1.5, 1.4773006673234002932),
    (-0.5, -1.0, 3.0, 31.207695705699205837),
    (0.0, 2.0, 0.7, 0.37670151802919675058),
    (3.0, 0.0, 0.4, 0.23293526269593264114),
    (-2.0, 5.0, 1.2, 1.5743853754949906163),
    (0.7, -40.0, 2.0, 1.3613322811777665992e33),
    (25.0, 0.02, 1.0, 0.039239338402436643633),
]

I2_TABLE = [
    (0.0, 0.0, 1.0, 0.5),
    (1.0, 1.0, 0.5, 0.090204010431049864594),
    (0.0, 2.0, 0.7, 0.16164924098540160251),
    (3.0, 0.0, 0.4, 0.055688245768022460355),
    (2.0, -1.0, 1.5, 1.0021942015073322647),
    (-0.5, -1.0, 3.0, 24.244317565023076191),
    (0.3, 0.2, 0.9, 0.349139240664838473),
    (1e-8, -1e-8, 2.0, 2.0000000000000000667),
    (4.0, 3.0, 2.5, 0.083160321859058010019),
    (-2.0, 5.0, 1.2, 0.68744056296516194406),
    (0.7, -40.0, 2.0, 3.4033307029444164979e31),
    (-40.0, 0.7, 2.0, 3.4033307029444164979e31),
    (25.0, 0.02, 1.0, 0.038033079850391929805),
    (0.02, 25.0, 1.0, 0.038033079850391929805),
    (-0.5, -1.0, 30.0, 21372936086981.434406),
]


@pytest.mark.parametrize("c,t,expected", PSI_TABLE)
def test_psi_reference_values(c, t, expected):
    assert_allclose(psi(c, t), expected, rtol=5e-14)


@pytest.mark.parametrize("b,g,h,expected", I1_TABLE)
def test_i1_reference_values(b, g, h, expected):
    assert_allclose(i1(b, g, h), expected, rtol=5e-14)


@pytest.mark.parametrize("b,g,h,expected", I2_TABLE)
def test_i2_reference_values(b, g, h, expected):
    assert_allclose(i2(b, g, h), expected, rtol=5e-14)


def test_psi_at_zero_rate_is_t():
    # the c=0 line must be exact, not approximately right
    assert psi(0.0, 3.25) == 3.25


def test_i1_on_diagonal():
    # b == g collapses to h*exp(-b*h)
    assert_allclose(i1(0.8, 0.8, 1.7), 1.7 * np.exp(-0.8 * 1.7), rtol=1e-15)


def test_small_h_leading_order():
    h = 1e-8
    assert_allclose(psi(3.0, h) / h, 1.0 - 1.5e-8, rtol=1e-12)
    assert_allclose(i1(2.0, 5.0, h) / h, 1.0, rtol=1e-7)
    assert_allclose(i2(2.0, 5.0, h) / (h * h / 2.0), 1.0, rtol=1e-7)


@given(
    x=st.floats(min_value=0.05, max_value=0.499),
    t=st.floats(min_value=1e-3, max_value=50.0),
    sign=st.sampled_from([-1.0, 1.0]),
)
def test_psi_series_matches_closed_form_inside_radius(x, t, sign):
    # both routes carry full precision for 0.05 < |c*t| < 0.5
    c = sign * x / t
    assert_allclose(psi(c, t), -np.expm1(-c * t) / c, rtol=1e-12)


@given(
    b=st.floats(min_value=-3.0, max_value=3.0),
    g=st.floats(min_value=-3.0, max_value=3.0),
    h=st.floats(min_value=0.01, max_value=5.0),
)
def test_i1_symmetric_in_rates(b, g, h):
    assert_allclose(i1(b, g, h), i1(g, b, h), rtol=1e-13, atol=1e-300)


@given(
    b=st.floats(min_value=-3.0, max_value=3.0),
    g=st.floats(min_value=-3.0, max_value=3.0),
    h=st.floats(min_value=0.01, max_value=5.0),
)
def test_i2_symmetric_in_rates(b, g, h):
    assert_allclose(i2(b, g, h), i2(g, b, h), rtol=1e-12, atol=1e-300)


@given(
    b=st.floats(min_value=-2.0, max_value=2.0),
    g=st.floats(min_value=-2.0, max_value=2.0),
    h=st.floats(min_value=0.1, max_value=10.0),
)
def test_i2_reduction_identities(b, g, h):
    # b*i2 = psi(g,h) - i1 and g*i2 = psi(b,h) - i1, exactly
    val = i2(b, g, h)
    scale = max(abs(val), 1.0)
    assert abs(b * val - (psi(g, h) - i1(b, g, h))) < 1e-12 * scale * max(abs(b), 1.0)
    assert abs(g * val - (psi(b, h) - i1(b, g, h))) < 1e-12 * scale * max(abs(g), 1.0)


@settings(max_examples=25, deadline=None)
@given(
    b=st.floats(min_value=-5.0, max_value=5.0),
    g=st.floats(min_value=-5.0, max_value=5.0),
    h=st.floats(min_value=0.01, max_value=4.0),
)
def test_i2_against_quadrature_oracle(b, g, h):
    mp.mp.dps = 30
    bm, gm, hm = mp.mpf(b), mp.mpf(g), mp.mpf(h)

    def inner(w):
        ps = w if bm == 0 else -mp.expm1(-bm * w) / bm
        return mp.e ** (-gm * (hm - w)) * ps

    oracle = float(mp.quad(inner, [0, hm]))
    assert_allclose(i2(b, g, h), oracle, rtol=5e-13)


def _fresh_interpreter(code: str) -> str:
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_importing_the_cli_loads_no_quadrature_table():
    # numpy.polynomial and its eigen-solve wait for i2's first quadrature
    out = _fresh_interpreter("import sys, affine2f.cli\n"
                             "print('numpy.polynomial' in sys.modules)\n")
    assert out.split() == ["False"]


def test_i2_first_quadrature_call_gives_the_second_calls_bits():
    # |b*h|, |g*h| < 1: the Gauss-Legendre branch, whose table the first
    # call builds
    out = _fresh_interpreter(
        "import sys\n"
        "from affine2f.kernels import i2\n"
        "before = 'numpy.polynomial' in sys.modules\n"
        "first, second = i2(0.3, 0.2, 0.9), i2(0.3, 0.2, 0.9)\n"
        "print(before, 'numpy.polynomial' in sys.modules, first.hex(), second.hex())\n")
    before, after, first, second = out.split()
    assert (before, after) == ("False", "True")
    assert first == second == float(i2(0.3, 0.2, 0.9)).hex()
