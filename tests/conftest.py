"""Shared fixtures and independent oracles.

The oracle helpers here deliberately materialize the dense quantities
the library avoids (full residual matrices, from-scratch objectives) so
tests compare the fast paths against direct definitions.
"""

import itertools
import os
from pathlib import Path

import numpy as np
import pytest

import sparsedl.learner

SRC = Path(__file__).resolve().parents[1] / "src"


def cli_env():
    """Environment for a ``python -m sparsedl.cli`` child process.

    A copy of this process's environment with the checkout's ``src``
    first on ``PYTHONPATH``, since pytest's ``pythonpath`` setting
    reaches only the pytest process itself.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def unit_columns(rng, n, J):
    """An n x J dictionary of standard normal draws from ``rng``, columns normalized."""
    D = rng.standard_normal((n, J))
    return D / np.linalg.norm(D, axis=0)


def dense_objective(Y, D, C, lam):
    """Objective evaluated from its definition, no identities."""
    C = np.asarray(C)
    resid = np.asarray(Y) - D @ C.T
    return float(np.sum(resid * resid)) + lam * lam * int(np.count_nonzero(C))


class HalfStepObjectives:
    """Dense objectives around every atom visit of :func:`sparsedl.learner.learn`.

    Installs (through ``monkeypatch``) a wrapper around
    ``sparsedl.learner._atom_step``, which ``learn`` calls once per visit
    with the residual it carries, the dictionary, the atom index and the
    old and new code of that atom on the rows where either is stored, and
    takes the new atom from.  The
    wrapper replays every visit on a dense ``(D, C)`` that starts from the
    initialization (``D0`` renormalized as ``learn`` does, zero codes) and
    records :func:`dense_objective` three times: before the visit, after
    the code half-step and after the atom half-step.  Before each visit it
    asserts that ``learn``'s dictionary equals the replay's exactly and
    that its residual equals ``Y - D C^T`` of the replay to 1e-10
    relative to ``||Y||_F``.
    """

    def __init__(self, monkeypatch, Y, D0, lam):
        self.Y = np.asarray(Y, dtype=float)
        self.lam = lam
        D0 = np.asarray(D0, dtype=float)
        self.state = (D0 / np.linalg.norm(D0, axis=0), np.zeros((self.Y.shape[1], D0.shape[1])))
        self.visits = []
        step = sparsedl.learner._atom_step

        def wrapper(R, D, j, rows, w):
            self._check(R, D)
            d_new = step(R, D, j, rows, w)
            self._record(j, rows, w[1], d_new)
            return d_new

        monkeypatch.setattr(sparsedl.learner, "_atom_step", wrapper)

    def _check(self, R, D):
        D_left, C_left = self.state
        visit = len(self.visits)
        assert np.array_equal(D, D_left), f"visit {visit} does not start from the dictionary the replay left"
        drift = np.linalg.norm(R.T - (self.Y - D_left @ C_left.T))
        assert drift <= 1e-10 * np.linalg.norm(self.Y), f"visit {visit}: residual off the replay by {drift:.3e}"

    def _record(self, j, rows, code, d_new):
        D, C = (np.array(a) for a in self.state)
        before = dense_objective(self.Y, D, C, self.lam)
        C[:, j] = 0.0
        C[rows, j] = code
        after_code = dense_objective(self.Y, D, C, self.lam)
        D[:, j] = d_new
        after_atom = dense_objective(self.Y, D, C, self.lam)
        self.state = (D, C)
        self.visits.append((before, after_code, after_atom))

    def assert_replays(self, D, C):
        """Assert that the replay ends on ``learn``'s returned ``(D, C)``, bit for bit."""
        D_left, C_left = self.state
        assert np.array_equal(D, D_left) and np.array_equal(C.toarray(), C_left)

    def sequence(self, K, J):
        """The start objective, then one after every half-step (1 + 2KJ values).

        Asserts that the wrapper ran once per visit of ``K`` sweeps over
        ``J`` atoms.
        """
        assert len(self.visits) == K * J, f"{len(self.visits)} visits, expected {K * J}"
        values = np.array(self.visits)
        return np.concatenate((values[:1, 0], values[:, 1:].ravel()))


def reverse_atom_steps(monkeypatch, from_visit):
    """Make ``learn``'s atom half-step inexact from visit ``from_visit`` on.

    From that visit (counted from 0) on, the wrapped
    ``sparsedl.learner._atom_step`` returns the negated optimal atom:
    still a unit vector, but the worst one for the new code.  It moves
    the residual to match, so ``learn``'s state stays consistent.
    """
    step = sparsedl.learner._atom_step
    visits = itertools.count()

    def reversed_step(R, D, j, rows, w):
        d = step(R, D, j, rows, w)
        if next(visits) < from_visit:
            return d
        R[rows] += 2.0 * np.outer(w[1], d)  # Y^T - C D^T with -d in place of d
        return -d

    monkeypatch.setattr(sparsedl.learner, "_atom_step", reversed_step)


def dense_residual_excluding(Y, D, C, j):
    """Residual with atom j's rank-one term removed, built explicitly."""
    C = np.asarray(C)
    return np.asarray(Y) - D @ C.T + np.outer(D[:, j], C[:, j])


def random_instance(rng, n, N, J, code_density=0.3, scale=1.0):
    """A random (Y, D, C) triple: unit-norm atoms, sparse codes."""
    Y = scale * rng.standard_normal((n, N))
    D = rng.standard_normal((n, J))
    D /= np.linalg.norm(D, axis=0)
    C = rng.standard_normal((N, J)) * (rng.random((N, J)) < code_density)
    return Y, D, C


def make_textured_scene(size=512, seed=0):
    """Deterministic synthetic grayscale scene with photo-like texture.

    The stand-in for a natural photo when scikit-image is not installed.
    It is built to match three properties of natural images:

    - a 1/f^alpha amplitude spectrum with alpha in [1, 1.5] (Field,
      JOSA A 1987): here a random-phase field with amplitude exactly
      ``f**-1.2`` and a standard deviation of 40 gray levels;
    - hard-edged shapes (a bright disc and a dark rectangle) and a
      periodic texture (an oblique grating with a 13-pixel period in a
      horizontal band);
    - at sigma 20 with the denoiser's default OMP gain of 1.15, OMP
      against the 256-atom overcomplete DCT dictionary averages 1 to 4
      atoms per mean-removed 8x8 patch (``tests/test_fixtures.py``
      checks this on a stride-4 patch grid).

    ``seed`` draws only the field's phases; the shapes and the grating
    sit at fixed places.
    """
    rng = np.random.default_rng(seed)
    fy = np.fft.fftfreq(size)[:, None]
    fx = np.fft.rfftfreq(size)[None, :]
    freq = np.hypot(fy, fx)
    freq[0, 0] = np.inf  # no mean term
    spectrum = freq**-1.2 * np.exp(2j * np.pi * rng.random(freq.shape))
    field = np.fft.irfft2(spectrum, s=(size, size))
    field *= 40.0 / field.std()

    y, x = np.mgrid[0:size, 0:size] / size
    disc = (x - 0.3) ** 2 + (y - 0.3) ** 2 < 0.14**2
    rect = (np.abs(x - 0.72) < 0.14) & (np.abs(y - 0.45) < 0.1)
    band = (y > 0.78) & (y < 0.95)
    grating = np.sin(2 * np.pi * (36 * x + 16 * y))
    img = 128.0 + field + 55.0 * disc - 50.0 * rect + 30.0 * grating * band
    return np.clip(np.rint(img), 0, 255).astype(np.uint8)


@pytest.fixture(scope="session")
def natural_image():
    """A 512x512 grayscale uint8 test image.

    scikit-image's ``camera`` photo when scikit-image is installed,
    otherwise the seeded stand-in from :func:`make_textured_scene`.
    """
    try:
        from skimage import data
    except ImportError:
        return make_textured_scene()
    return np.asarray(data.camera(), dtype=np.uint8)


def make_smooth_scene(size=512, seed=7):
    """Deterministic synthetic grayscale scene with gentle gradients only.

    Stand-in for the ``moon`` photo when scikit-image is not installed.
    """
    y, x = np.mgrid[0:size, 0:size] / size
    img = 60 + 120 * np.exp(-((x - 0.4) ** 2 + (y - 0.45) ** 2) / 0.12)
    img += 40 * np.exp(-((x - 0.75) ** 2 + (y - 0.2) ** 2) / 0.02)
    img += 25 * x + 15 * np.sin(2 * np.pi * 0.7 * y)
    return np.clip(img, 0, 255).astype(np.uint8)


@pytest.fixture(scope="session")
def smooth_image():
    """A 512x512 low-texture grayscale uint8 image.

    scikit-image's ``moon`` photo (lunar surface) when scikit-image is
    installed, otherwise the seeded stand-in from :func:`make_smooth_scene`.
    """
    try:
        from skimage import data
    except ImportError:
        return make_smooth_scene()
    return np.asarray(data.moon(), dtype=np.uint8)


@pytest.fixture(scope="session")
def small_image(natural_image):
    """A 128x128 crop for quick pipeline tests."""
    return natural_image[128:256, 128:256].copy()
