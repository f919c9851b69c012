import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kcontract import numkernel as nk


def test_eigenvalues_identity():
    spec = nk.eigenvalues(np.eye(2))
    assert np.allclose(spec, [1, 1])
    assert spec.dtype == complex


def test_eigenvalues_diagonal():
    spec = nk.eigenvalues(np.diag([1.0, -2.0]))
    assert np.allclose(spec, [1, -2])


def test_eigenvalues_companion_pure_imaginary():
    # companion matrix of s^2 + 1 has roots +-i
    C = np.array([[0.0, -1.0], [1.0, 0.0]])
    spec = nk.eigenvalues(C)
    assert np.allclose(spec, [1j, -1j], atol=1e-12)


def test_eigenvalues_ordering_real_then_imag():
    A = np.array([[0.0, 2.0], [-2.0, 0.0]])  # +-2i
    spec = nk.eigenvalues(A)
    assert spec[0].imag > spec[1].imag


def test_eigenvalues_transpose_same_multiset():
    rng = np.random.default_rng(0)
    for _ in range(50):
        A = rng.standard_normal((6, 6))
        a = np.sort_complex(nk.eigenvalues(A))
        b = np.sort_complex(nk.eigenvalues(A.T))
        assert np.allclose(a, b, atol=1e-10 * max(1, np.abs(a).max()))


def test_eigenvalues_deterministic():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((7, 7))
    v1 = nk.eigenvalues(A)
    v2 = nk.eigenvalues(A)
    assert np.array_equal(v1, v2)


def test_eigenvalues_rejects_nonsquare():
    with pytest.raises(ValueError):
        nk.eigenvalues(np.ones((2, 3)))


def test_inertia_identity():
    assert nk.inertia_symmetric(np.eye(3), 1e-9) == (0, 0, 3)


def test_inertia_mixed():
    assert nk.inertia_symmetric(np.diag([-1.0, 0.0, 2.0]), 1e-9) == (1, 1, 1)


def test_inertia_synchronverter_metric():
    # printed second metric of the fourth-order inverter example; the pair
    # construction needs exactly one negative direction here (k=2, n=4)
    P1 = np.array([
        [0.0007, 0.00001, -0.00851, -0.0692],
        [0.00001, 0.00027, -0.000382, -0.00009],
        [-0.00851, -0.000382, 0.157, 1.308],
        [-0.0692, -0.00009, 1.308, 0.842],
    ])
    assert nk.inertia_symmetric(P1, 1e-9) == (1, 0, 3)


def test_inertia_rejects_asymmetric():
    with pytest.raises(ValueError):
        nk.inertia_symmetric(np.array([[0.0, 1.0], [0.0, 0.0]]))


@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=60, deadline=None)
def test_inertia_congruence_invariant(n, seed):
    # Sylvester's law: congruence T'ST preserves the inertia triple
    rng = np.random.default_rng(seed)
    S = rng.standard_normal((n, n))
    S = 0.5 * (S + S.T)
    T = rng.standard_normal((n, n)) + n * np.eye(n)
    if abs(np.linalg.det(T)) < 1e-6:
        return
    assert nk.inertia_symmetric(T.T @ S @ T) == nk.inertia_symmetric(S)


def test_solve_lyapunov_scalar_balance():
    P = nk.solve_lyapunov(-np.eye(2), 2 * np.eye(2))
    assert np.allclose(P, np.eye(2), atol=1e-12)


def test_solve_lyapunov_decoupled():
    P = nk.solve_lyapunov(np.diag([-1.0, -2.0]), np.eye(2))
    assert np.allclose(P, np.diag([0.5, 0.25]), atol=1e-12)


def test_solve_lyapunov_refuses_past_the_size_cap():
    # an n^2 x n^2 Kronecker system: 64^4 = 2^24 entries is the cap
    nk.check_lyapunov_size(64)
    with pytest.raises(ValueError, match=f"would form {65 ** 4} matrix entries"):
        nk.solve_lyapunov(-np.eye(65), np.eye(65))


def test_solve_lyapunov_random_stable_residual():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((5, 5))
    A = A - (np.abs(np.linalg.eigvals(A).real).max() + 1.0) * np.eye(5)
    Q = np.eye(5)
    P = nk.solve_lyapunov(A, Q)
    resid = np.linalg.norm(A.T @ P + P @ A + Q, 2)
    bound = 1e-8 * (np.linalg.norm(A, 2) * np.linalg.norm(P, 2) + np.linalg.norm(Q, 2))
    assert resid <= bound


def test_solve_lyapunov_residual_sweep():
    # multiply-back residual over many random stable systems of varied size
    rng = np.random.default_rng(3)
    for _ in range(1000):
        n = int(rng.integers(2, 11))
        A = rng.standard_normal((n, n))
        A = A - (np.linalg.eigvals(A).real.max() + 0.5) * np.eye(n)
        P = nk.solve_lyapunov(A, np.eye(n))
        resid = np.linalg.norm(A.T @ P + P @ A + np.eye(n), 2)
        bound = 1e-8 * (np.linalg.norm(A, 2) * np.linalg.norm(P, 2) + 1.0)
        assert resid <= bound


def test_solve_lyapunov_resonance_names_pair():
    with pytest.raises(nk.NumericalError, match="resonant"):
        nk.solve_lyapunov(np.diag([1.0, -1.0]), np.eye(2))


def test_empty_matrix_kernels():
    assert nk.solve_lyapunov(np.zeros((0, 0)), np.zeros((0, 0))).shape == (0, 0)
    assert nk.inertia_symmetric(np.zeros((0, 0))) == (0, 0, 0)


def test_kronecker_sum_matches_np_kron_bytes():
    # the sum np.kron forms, signed zeros included: each entry off both
    # diagonals is a sum of two signed zeros
    rng = np.random.default_rng(12)
    for n in range(1, 21):
        for _ in range(3):
            A = rng.standard_normal((n, n))
            u = rng.random((n, n))
            A[u < 0.25] = 0.0
            A[(u >= 0.25) & (u < 0.5)] = -0.0
            eye = np.eye(n)
            want = np.kron(eye, A.T) + np.kron(A.T, eye)
            got = nk.kronecker_sum(A.T)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
