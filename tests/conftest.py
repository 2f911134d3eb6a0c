import math
import os

import numpy as np
import pytest

from affine2f import simulate
from affine2f.kernels import i1, i2, psi
from affine2f.model import InitialLaw, ModelSpec, make_spec


@pytest.fixture(scope="session")
def ref_spec():
    """Mixed subcritical reference model used by the frozen-value tests."""
    return make_spec(
        a=1.2, b=1.0, alpha=0.5, beta=-0.3, gamma=0.8,
        sigma1=0.6, sigma2=0.4, sigma3=0.25, rho=-0.35,
        init=InitialLaw(kind="point", y0=0.7, x0=-0.4),
    )


# The closed forms below are oracles only: no command computes them, so
# they live here, each shared as a session fixture by the test modules
# that check the library against it.


def _conditional_mean_y(spec: ModelSpec, y_s: float, dt: float) -> float:
    """E(Y_{s+dt} | Y_s = y_s) = exp(-b*dt)*y_s + a*psi(b, dt)."""
    b = spec.b
    return math.exp(-b * dt) * y_s + spec.a * psi(b, dt)


def _conditional_mean_x(spec: ModelSpec, y_s: float, x_s: float, dt: float) -> float:
    """E(X_{s+dt} | Y_s = y_s, X_s = x_s).

    Four terms: the decayed state, the alpha level, the coupling response to
    y_s, and the coupling response to the running mean level of Y:

        exp(-gamma*dt)*x_s + alpha*psi(gamma, dt)
        - beta*y_s*i1(b, gamma, dt) - a*beta*i2(b, gamma, dt)
    """
    return (
        math.exp(-spec.gamma * dt) * x_s
        + spec.alpha * psi(spec.gamma, dt)
        - spec.beta * y_s * i1(spec.b, spec.gamma, dt)
        - spec.a * spec.beta * i2(spec.b, spec.gamma, dt)
    )


@pytest.fixture(scope="session")
def conditional_mean_y():
    return _conditional_mean_y


@pytest.fixture(scope="session")
def conditional_mean_x():
    return _conditional_mean_x


def _laplace_y(spec: ModelSpec, t: float, lam: float, y0: float) -> float:
    """E(exp(-lam * Y_t) | Y_0 = y0), the closed-form transform."""
    if not spec.sigma1 > 0.0:
        raise ValueError("laplace_y requires sigma1 > 0")
    if not t > 0.0:
        raise ValueError(f"t must be positive, got {t}")
    if lam < 0.0:
        raise ValueError(f"lam must be nonnegative, got {lam}")
    base = 1.0 + spec.sigma1**2 * lam * psi(spec.b, t) / 2.0
    expo = lam * math.exp(-spec.b * t) * y0 / base
    return base ** (-2.0 * spec.a / spec.sigma1**2) * math.exp(-expo)


@pytest.fixture(scope="session")
def laplace_y():
    return _laplace_y


def _v_det_closed_form(b: float, gamma: float, v_y: float, v_x: float) -> float:
    return (-((b - gamma) ** 2) * v_y**4 * v_x**2
            / (8.0 * (b + gamma) ** 2 * b**2 * gamma))


@pytest.fixture(scope="session")
def v_det_closed_form():
    """det V of the supercritical limit's scaling matrix, in closed form."""
    return _v_det_closed_form


def _stepped_paths(spec, T, dt, scheme, rng, n_paths):
    """Whole (n_paths, n_grid) Y and X paths of simulate_ensemble's run.

    The library keeps no whole path, so this stacks the time blocks of
    the stepper run whose end points simulate_ensemble returns: the same
    start, the same shared stream, every grid point.
    """
    y0, x0 = simulate._start(spec, dt, rng, n_paths)
    blocks = list(simulate._step(spec, T, dt, scheme, rng, y0, x0))
    y = np.concatenate([blocks[0][0][:1]] + [y[1:] for y, _ in blocks])
    x = np.concatenate([blocks[0][1][:1]] + [x[1:] for _, x in blocks])
    return y.T, x.T


@pytest.fixture(scope="session")
def stepped_paths():
    return _stepped_paths


def _aux_path(a, alpha, sigma1, sigma2, rho, dt, rng):
    """The critical limit's auxiliary pair on [0, 1] by the scalar stepper:
    the model with b = beta = gamma = sigma3 = 0, from (0, 0), full_euler."""
    aux = make_spec(a, 0.0, alpha, 0.0, 0.0, sigma1, sigma2, 0.0, rho)
    return simulate.simulate_path(aux, 1.0, dt, "full_euler", rng)


@pytest.fixture(scope="session")
def aux_path():
    return _aux_path


def _same_functionals(got, want, row=None):
    """Assert that got equals want under np.array_equal: the horizon, the
    four end points and every key of the table of sums. With row, got is
    a stack and its row r is compared with want."""
    def pick(value):
        return value if row is None else np.asarray(value)[row]

    assert np.array_equal(got.horizon, want.horizon), "horizon"
    for name in ("y0", "x0", "y_end", "x_end"):
        assert np.array_equal(pick(getattr(got, name)), getattr(want, name)), name
    assert got.sums.keys() == want.sums.keys()
    for key in want.sums:
        assert np.array_equal(pick(got.sums[key]), want.sums[key]), key


@pytest.fixture(scope="session")
def same_functionals():
    return _same_functionals


@pytest.fixture
def noise_feed(monkeypatch):
    """feed(on) sets whether every _step run draws its noise in a forked
    child (simulate._noise_blocks), on any host, and returns the list of
    the pids that the feed has forked in this test."""
    forks = []
    fork = os.fork

    def counted_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)

    def feed(on):
        monkeypatch.setattr(simulate, "_FEED_NORMALS", 0 if on else 1 << 62)
        return forks

    return feed
