import numpy as np

from ousse import make_measurement_model, make_random_hamiltonian
from ousse.model import OperatorPolynomial


def random_hermitian(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (a + a.conj().T) / 2


def random_operator(rng, d):
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


def random_unit_state(rng, d):
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def drift(m, x):
    """The state drift ``D(x) = -i H(x) - (1/2) B(x)^dag B(x)``, written out from H and B."""
    b = m.b_poly(x)
    return -1j * m.h_poly(x) - 0.5 * (b.conj().T @ b)


def random_model(rng, d=None, kind=None, gamma=None):
    """Constructor-built model with random operators, degree <= 2."""
    d = d if d is not None else int(rng.integers(2, 5))
    kind = kind if kind is not None else rng.choice(["random_hamiltonian", "measurement"])
    gamma = gamma if gamma is not None else float(rng.uniform(0.0, 2.0))
    if kind == "random_hamiltonian":
        return make_random_hamiltonian(random_hermitian(rng, d), random_hermitian(rng, d), gamma)
    deg_h = int(rng.integers(0, 3))
    deg_b = int(rng.integers(0, 3))
    h = OperatorPolynomial(tuple(random_hermitian(rng, d) for _ in range(deg_h + 1)))
    b = OperatorPolynomial(tuple(0.5 * random_operator(rng, d) for _ in range(deg_b + 1)))
    return make_measurement_model(h, b, gamma)


# every mode on a measurement model, and density_linear also on the random_hamiltonian
# kind; the ids name a mode by itself where it runs on one kind only
MODES_AND_KINDS = [("linear", "measurement"), ("nonlinear", "measurement"),
                   ("density_linear", "random_hamiltonian"), ("sme", "measurement"),
                   ("density_linear", "measurement")]
MODE_IDS = ["linear", "nonlinear", "density_linear", "sme", "density_linear-measurement"]
