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


def symmetric_fold(K, n):
    """The Kronecker system K of dimension n restricted to symmetric P: its
    rows (i, j) and the sum of its columns (a, b) and (b, a), a <= b, in
    np.triu_indices(n) order, with column-major vec indices."""
    iu, ju = np.triu_indices(n)
    rows = K[ju * n + iu]
    fold = rows[:, ju * n + iu].copy()
    off = iu != ju
    fold[:, off] += rows[:, (iu * n + ju)[off]]
    return fold


def test_symmetric_operator_is_the_fold_of_kronecker_sum():
    # integer entries: every sum is exact, so the two agree bit for bit
    rng = np.random.default_rng(31)
    for n in range(1, 11):
        for _ in range(3):
            A = rng.integers(-5, 6, (n, n)).astype(float)
            got = nk.lyapunov_operator_symmetric(A)
            assert got.shape == (n * (n + 1) // 2,) * 2
            assert np.array_equal(got, symmetric_fold(nk.kronecker_sum(A.T), n))


def kronecker_minimum_norm(M, Q):
    """The symmetrized least-squares solution of the full Kronecker system."""
    n = M.shape[0]
    v = np.linalg.lstsq(nk.kronecker_sum(M.T), -Q.reshape(n * n, order="F"), rcond=None)[0]
    P = v.reshape((n, n), order="F")
    return 0.5 * (P + P.T)


def test_symmetric_solve_of_a_resonant_system_is_the_minimum_norm_solution():
    # an orthogonally similar diagonal with pairs +-lambda: singular, and
    # consistent for a Q that is diagonal in the same basis
    rng = np.random.default_rng(32)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        half = int(rng.integers(1, n // 2 + 1))
        lam = rng.uniform(0.2, 3.0, half)
        D = np.concatenate([lam, -lam, -rng.uniform(0.2, 3.0, n - 2 * half)])
        U, _ = np.linalg.qr(rng.standard_normal((n, n)))
        M = (U * D) @ U.T
        Q = (U * rng.uniform(0.5, 2.0, n)) @ U.T
        P = nk.solve_lyapunov_symmetric(M, Q)
        want = kronecker_minimum_norm(M, Q)
        assert np.abs(P - want).max() <= 1e-11 * np.abs(want).max()
        assert np.array_equal(P, P.T)


def test_symmetric_solve_refuses_an_inconsistent_resonant_system():
    # A'P + PA of a rotation generator is a commutator, of trace 0, never -I
    with pytest.raises(nk.NumericalError, match="resonant.*inconsistent"):
        nk.solve_lyapunov_symmetric(np.array([[0.0, 1.0], [-1.0, 0.0]]), np.eye(2))


def test_symmetric_solve_shapes_and_size_cap():
    assert nk.solve_lyapunov_symmetric(np.zeros((0, 0)), np.zeros((0, 0))).shape == (0, 0)
    P = nk.solve_lyapunov_symmetric(np.diag([-1.0, -2.0]), np.eye(2))
    assert np.allclose(P, np.diag([0.5, 0.25]), atol=1e-15)
    with pytest.raises(ValueError, match="shape"):
        nk.solve_lyapunov_symmetric(-np.eye(2), np.eye(3))
    with pytest.raises(ValueError, match=f"would form {65 ** 4} matrix entries"):
        nk.solve_lyapunov_symmetric(-np.eye(65), np.eye(65))


def symmetric_of_kind(rng, n, kind):
    """A symmetric n x n matrix that is definite, indefinite or nearly singular
    (one eigenvalue at about the inertia threshold of 1e-9 * ||S||)."""
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    w = rng.uniform(0.5, 3.0, n)
    if kind == "indefinite":
        w *= rng.choice([-1.0, 1.0], n)
    elif kind == "singular":
        scale = 3.0 * nk.DEFAULT_ZERO_TOL * rng.uniform(0.1, 2.0)
        w[rng.integers(n)] = rng.choice([-1.0, 1.0]) * scale
    S = (Q * w) @ Q.T
    return 0.5 * (S + S.T)


def test_stacked_inertia_equals_the_per_matrix_triples():
    rng = np.random.default_rng(2030)
    for _ in range(300):
        n, ell = int(rng.integers(1, 21)), int(rng.integers(1, 5))
        kinds = rng.choice(["definite", "indefinite", "singular"], ell)
        stack = np.array([symmetric_of_kind(rng, n, kind) for kind in kinds])
        for tol in (nk.DEFAULT_ZERO_TOL, 1e-13):
            got = nk.inertia_symmetric(stack, tol)
            assert got == [nk.inertia_symmetric(S, tol) for S in stack]
            assert all(type(t) is nk.InertiaTriple and type(t.neg) is int for t in got)
        w = nk.eigenvalues_symmetric(stack)
        assert all(w[i].tobytes() == nk.eigenvalues_symmetric(S).tobytes()
                   for i, S in enumerate(stack))


def test_inertia_of_a_nested_stack_is_listed_in_c_order():
    rng = np.random.default_rng(7)
    stack = np.array([[symmetric_of_kind(rng, 4, "indefinite") for _ in range(3)] for _ in range(2)])
    assert nk.inertia_symmetric(stack) == [nk.inertia_symmetric(S) for S in stack.reshape(6, 4, 4)]
    assert nk.inertia_symmetric(np.zeros((0, 3, 3))) == []


def test_stacked_symmetry_and_shape_checks():
    stack = np.array([np.eye(2), [[1.0, 2.0], [0.0, 1.0]]])
    with pytest.raises(ValueError, match="not symmetric"):
        nk.inertia_symmetric(stack)
    with pytest.raises(ValueError, match="must be square"):
        nk.check_symmetric(np.zeros((2, 2, 3)))
    with pytest.raises(ValueError, match="shape"):
        nk.solve_lyapunov(-np.eye(2), np.zeros((2, 2, 2)))


def resonant_pair_loop(vals, mu=0.0, rtol=nk.SPECTRAL_RTOL):
    """The double loop resonant_pair replaced, kept as its oracle."""
    shifted = np.asarray(vals) - mu
    tol = rtol * max(np.abs(shifted).max(), 1.0)
    n = len(shifted)
    for a in range(n):
        for b in range(a, n):
            if abs(shifted[a] + shifted[b]) <= tol:
                return a, b
    return None


def lattice_spectrum(rng, n, mu):
    """n eigenvalues on the half-integer lattice: real ones and conjugate pairs,
    repeated values, now and then one equal to mu or nudged off the lattice."""
    vals = []
    while len(vals) < n:
        re = float(rng.integers(-8, 9)) / 2
        if len(vals) + 2 <= n and rng.random() < 0.3:
            im = float(rng.integers(1, 5)) / 2
            vals += [complex(re, im), complex(re, -im)]
        else:
            vals.append(complex(re, 0.0))
    vals = np.array(vals)
    if rng.random() < 0.3:
        vals[rng.integers(n)] = mu
    if rng.random() < 0.3:
        vals[rng.integers(n)] += rng.choice([-1.0, 1.0]) * 10.0 ** -float(rng.integers(3, 14))
    return vals[rng.permutation(n)]


def test_resonant_pair_equals_the_double_loop():
    rng = np.random.default_rng(30)
    found = 0
    for _ in range(20_000):
        n = int(rng.integers(1, 21))
        mu = float(rng.choice([0.0, 0.5, -1.5, 0.25, -0.7]))
        rtol = float(rng.choice([nk.SPECTRAL_RTOL, 1e-6, 1e-3]))
        vals = lattice_spectrum(rng, n, mu)
        want = resonant_pair_loop(vals, mu, rtol)
        got = nk.resonant_pair(vals, mu, rtol)
        assert got == want
        if got is not None:
            found += 1
            assert all(type(i) is int for i in got)
    # both outcomes are exercised
    assert 2_000 < found < 18_000
    # a sum exactly at the tolerance is close: 4 - 4 + 2^-7 against 2^-9 * 4
    vals = np.array([4.0, 1.0, -4.0 + 2 ** -7], dtype=complex)
    assert nk.resonant_pair(vals, 0.0, 2 ** -9) == resonant_pair_loop(vals, 0.0, 2 ** -9) == (0, 2)
