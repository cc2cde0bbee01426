import numpy as np
import pytest

from parabolab import mixed_norms as mn


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20250809)


def constant_field(c=1.0, t_span=(0.0, 1.0), nt=16, box=((0.0, 1.0),), nx=(16,),
                   boundary="zero-extension"):
    return mn.from_callable(lambda t, X: c * np.ones(X.shape[:-1]), t_span, nt, box, nx,
                            boundary)


def a_matrix(field, t, X):
    """``a`` as the ``(..., d, d)`` diagonal matrix of ``field.a_diag``; the package has none."""
    diag = field.a_diag(t, X)
    out = np.zeros(diag.shape + (field.d,))
    for k in range(field.d):
        out[..., k, k] = diag[..., k]
    return out


def random_field(rng, d=1, nt=10, nx=10, scale=1.0):
    vals = scale * rng.standard_normal((nt,) + (nx,) * d)
    return mn.GridFunction(0.0, 1.0 / nt, (0.0,) * d, (1.0 / nx,) * d, vals)


@pytest.fixture
def unit_box_constant():
    return constant_field()
