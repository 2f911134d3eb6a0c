import os

import numpy as np
import pytest

from affine2f import simulate
from affine2f.model import InitialLaw, make_spec


@pytest.fixture(scope="session")
def ref_spec():
    """Mixed subcritical reference model used by the frozen-value tests."""
    return make_spec(
        a=1.2, b=1.0, alpha=0.5, beta=-0.3, gamma=0.8,
        sigma1=0.6, sigma2=0.4, sigma3=0.25, rho=-0.35,
        init=InitialLaw(kind="point", y0=0.7, x0=-0.4),
    )


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
