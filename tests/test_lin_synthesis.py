import tracemalloc

import numpy as np
import pytest

from kcontract import lin_contraction as lc
from kcontract import lin_synthesis as ls
from kcontract.numkernel import inertia_symmetric, sym


def plant_uncontrollable(rng, nc, nu, m=1):
    """Random pair with an exactly nu-dimensional uncontrollable block."""
    n = nc + nu
    Ac = rng.standard_normal((nc, nc))
    A12 = rng.standard_normal((nc, nu))
    Au = rng.standard_normal((nu, nu))
    Bc = rng.standard_normal((nc, m))
    A = np.zeros((n, n))
    A[:nc, :nc] = Ac
    A[:nc, nc:] = A12
    A[nc:, nc:] = Au
    B = np.vstack([Bc, np.zeros((nu, m))])
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return Q @ A @ Q.T, Q @ B, Au


def test_kalman_controllable_pair():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((4, 4))
    B = rng.standard_normal((4, 2))
    dec = ls.kalman_decompose(A, B)
    assert dec.nu == 0 and dec.nc == 4


def test_kalman_zero_input():
    A = np.diag([1.0, 2.0, 3.0])
    dec = ls.kalman_decompose(A, np.zeros((3, 1)))
    assert dec.nu == 3 and dec.nc == 0
    assert np.allclose(np.sort(np.linalg.eigvals(dec.Au).real), [1, 2, 3])


def test_kalman_block_example():
    A = np.array([[-1.0, 1.0], [0.0, 2.0]])
    B = np.array([[1.0], [0.0]])
    dec = ls.kalman_decompose(A, B)
    assert dec.nc == 1
    assert np.allclose(np.linalg.eigvals(dec.Au), [2.0])


def test_kalman_basis_has_the_full_svd_bytes_without_its_right_factor():
    # the basis and the rank are the full SVD's, byte for byte, and at
    # n = m = 60 no 3600 x 3600 right factor (104 MB) is formed
    rng = np.random.default_rng(5)
    for n in range(1, 13):
        for m in (1, 2, 3, 5):
            for nu in {0, n // 2}:
                A, B, _ = plant_uncontrollable(rng, n - nu, nu, m)
                U, s, _ = np.linalg.svd(ls.controllability_matrix(A, B), full_matrices=True)
                dec = ls.kalman_decompose(A, B)
                assert dec.T.tobytes() == U.T.tobytes()
                assert dec.nc == int(np.sum(s > ls.RANK_CUTOFF * s[0]))
    assert ls.kalman_decompose(np.diag([1.0, 2.0]), np.zeros((2, 0))).nu == 2
    A, B = rng.standard_normal((60, 60)), rng.standard_normal((60, 60))
    tracemalloc.start()
    try:
        ls.kalman_decompose(A, B)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def test_kalman_staircase_soundness():
    rng = np.random.default_rng(1)
    for _ in range(500):
        nc = int(rng.integers(1, 4))
        nu = int(rng.integers(0, 4))
        A, B, _ = plant_uncontrollable(rng, nc, nu)
        dec = ls.kalman_decompose(A, B)
        assert dec.nu == nu
        At = dec.T @ A @ dec.T.T
        lower_left = At[dec.nc:, :dec.nc]
        if lower_left.size:
            assert np.abs(lower_left).max() <= 1e-8 * np.linalg.norm(A, 2)
        ctrl = ls.controllability_matrix(dec.Ac, dec.Bc)
        if dec.nc:
            assert np.linalg.matrix_rank(ctrl, tol=1e-8) == dec.nc


def test_k_order_stabilizable_cases():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((3, 3))
    B = rng.standard_normal((3, 1))
    for k in (1, 2, 3):
        assert ls.k_order_stabilizable(A, B, k)[0]

    A2, B2, _ = plant_uncontrollable(np.random.default_rng(3), 2, 2)
    # force the uncontrollable block's eigenvalues to (1, -3): 2-sum negative
    dec = ls.kalman_decompose(A2, B2)
    # rebuild in staircase coordinates with a prescribed Au
    n = 4
    At = dec.T @ A2 @ dec.T.T
    At[2:, 2:] = np.diag([1.0, -3.0])
    At[2:, :2] = 0.0
    A2 = dec.T.T @ At @ dec.T
    ok, diag = ls.k_order_stabilizable(A2, B2, 2)
    assert ok and diag["uncontrollable_topk_sum"] == pytest.approx(-2.0, abs=1e-8)

    At[2:, 2:] = np.diag([1.0, 1.0])
    A3 = dec.T.T @ At @ dec.T
    ok, diag = ls.k_order_stabilizable(A3, B2, 2)
    assert not ok and diag["uncontrollable_topk_sum"] == pytest.approx(2.0, abs=1e-8)


def test_construct_w_classical_case():
    rng = np.random.default_rng(4)
    A = rng.standard_normal((3, 3)) - 2 * np.eye(3)
    B = rng.standard_normal((3, 1))
    W = ls.construct_W(A, B, 0.0)
    assert inertia_symmetric(W) == (0, 0, 3)
    assert np.linalg.eigvalsh(sym(A @ W) - 0.5 * B @ B.T).max() < 0


def test_construct_w_double_integrator():
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    B = np.array([[0.0], [1.0]])
    W = ls.construct_W(A, B, 0.0)
    assert inertia_symmetric(W) == (0, 0, 2)
    assert np.linalg.eigvalsh(sym(A @ W) - 0.5 * B @ B.T).max() < 0


def test_construct_w_indefinite_block():
    rng = np.random.default_rng(5)
    A, B, _ = plant_uncontrollable(rng, 2, 2)
    dec = ls.kalman_decompose(A, B)
    At = dec.T @ A @ dec.T.T
    At[2:, 2:] = np.diag([1.0, -3.0])
    At[2:, :2] = 0.0
    A = dec.T.T @ At @ dec.T
    W = ls.construct_W(A, B, 0.0)
    assert inertia_symmetric(W) == (1, 0, 3)


def test_uncontrollable_spectrum_lower_bound():
    # every accepted W has at least as many negative directions as the
    # uncontrollable block has eigenvalues above mu
    rng = np.random.default_rng(6)
    for _ in range(30):
        A, B, Au = plant_uncontrollable(rng, 2, 2)
        mu = float(rng.normal())
        re = np.linalg.eigvals(Au).real
        if np.abs(re - mu).min() < 1e-3:
            continue
        try:
            W = ls.construct_W(A, B, mu)
        except Exception:
            continue
        rho = int(np.sum(re > mu))
        assert inertia_symmetric(W).neg >= rho


def test_certificate_controllable_k1():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((3, 3))
    B = rng.standard_normal((3, 1))
    cert = ls.stabilizability_certificate(A, B, 1)
    assert cert.ell == 1
    assert cert.mus[0] <= 0
    assert inertia_symmetric(cert.mats[0]) == (0, 0, 3)


def test_certificate_two_rate_recipe():
    rng = np.random.default_rng(8)
    A, B, _ = plant_uncontrollable(rng, 2, 2)
    dec = ls.kalman_decompose(A, B)
    At = dec.T @ A @ dec.T.T
    At[2:, 2:] = np.diag([1.0, -3.0])
    At[2:, :2] = 0.0
    A = dec.T.T @ At @ dec.T
    cert = ls.stabilizability_certificate(A, B, 2)
    assert cert.ell == 2
    assert cert.ds == [0, 1, 2]
    assert cert.rate_sum <= 0


def test_certificate_small_uncontrollable_branch():
    # nu = 1 < k = 2 with an arbitrarily unstable block: certificate exists
    rng = np.random.default_rng(9)
    A, B, _ = plant_uncontrollable(rng, 2, 1)
    dec = ls.kalman_decompose(A, B)
    At = dec.T @ A @ dec.T.T
    At[2:, 2:] = np.array([[5.0]])
    At[2:, :2] = 0.0
    A = dec.T.T @ At @ dec.T
    cert = ls.stabilizability_certificate(A, B, 2)
    assert cert.mus[0] > 5.0
    assert cert.rate_sum <= 0
    K = ls.synthesize_gain(cert, B)
    assert lc.k_contractive_lti(A - B @ K, 2)[0]


def test_certificate_decomposes_once(monkeypatch):
    calls = []
    decompose = ls.kalman_decompose
    monkeypatch.setattr(ls, "kalman_decompose", lambda A, B: calls.append(1) or decompose(A, B))
    rng = np.random.default_rng(9)
    A, B, _ = plant_uncontrollable(rng, 2, 1)
    ls.stabilizability_certificate(A, B, 2)
    assert len(calls) == 1


def test_certificate_rejects_infeasible():
    rng = np.random.default_rng(10)
    A, B, _ = plant_uncontrollable(rng, 2, 2)
    dec = ls.kalman_decompose(A, B)
    At = dec.T @ A @ dec.T.T
    At[2:, 2:] = np.diag([1.0, 1.0])
    At[2:, :2] = 0.0
    A = dec.T.T @ At @ dec.T
    with pytest.raises(ValueError, match="not 2-order stabilizable"):
        ls.stabilizability_certificate(A, B, 2)


def test_colinearity_of_certificates():
    rng = np.random.default_rng(11)
    for _ in range(20):
        A, B, Au = plant_uncontrollable(rng, 2, 2)
        if not ls.k_order_stabilizable(A, B, 2)[0]:
            continue
        cert = ls.stabilizability_certificate(A, B, 2)
        rows0 = B.T @ np.linalg.inv(cert.mats[0])
        for W in cert.mats[1:]:
            dev = np.linalg.norm(B.T @ np.linalg.inv(W) - rows0, 2)
            assert dev <= 1e-6 * np.linalg.norm(rows0, 2)


def test_gain_margin_sweep():
    rng = np.random.default_rng(12)
    count = 0
    while count < 30:
        nc = int(rng.integers(1, 4))
        nu = int(rng.integers(0, 3))
        k = int(rng.integers(1, 4))
        A, B, _ = plant_uncontrollable(rng, nc, nu)
        if k > nc + nu or not ls.k_order_stabilizable(A, B, k)[0]:
            continue
        cert = ls.stabilizability_certificate(A, B, k)
        for rho in (1.0, 10.0, 100.0):
            K = ls.synthesize_gain(cert, B, rho=rho)
            assert lc.k_contractive_lti(A - B @ K, k)[1] < 0
        count += 1


def test_zero_input_contractive_block():
    # B = 0 and the whole system already 2-contractive: K = 0 works
    A = np.diag([0.5, -1.0, -2.0])
    B = np.zeros((3, 1))
    cert = ls.stabilizability_certificate(A, B, 2)
    K = ls.synthesize_gain(cert, B)
    assert np.allclose(K, 0.0)
    assert lc.k_contractive_lti(A - B @ K, 2)[0]


def test_rho_below_one_rejected():
    rng = np.random.default_rng(13)
    A = rng.standard_normal((2, 2))
    B = rng.standard_normal((2, 1))
    cert = ls.stabilizability_certificate(A, B, 1)
    with pytest.raises(ValueError, match="rho"):
        ls.synthesize_gain(cert, B, rho=0.5)


def test_feedback_cannot_fix_uncontrollable():
    rng = np.random.default_rng(14)
    A, B, _ = plant_uncontrollable(rng, 2, 2)
    dec = ls.kalman_decompose(A, B)
    At = dec.T @ A @ dec.T.T
    At[2:, 2:] = np.diag([1.0, 1.0])
    At[2:, :2] = 0.0
    A = dec.T.T @ At @ dec.T
    for _ in range(50):
        K = rng.standard_normal((1, 4))
        assert not lc.k_contractive_lti(A - B @ K, 2)[0]


def counting(monkeypatch, module, name):
    """Patch module.name to record each call; returns the list of calls."""
    calls = []
    fn = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a: calls.append(a) or fn(*a))
    return calls


def test_assemble_without_uncontrollable_block_checks_once(monkeypatch):
    # nu = 0: W does not depend on kappa, so one failing margin decides
    A, B = np.array([[1.0]]), np.array([[1.0]])
    dec = ls.kalman_decompose(A, B)
    assert dec.nu == 0
    calls = counting(monkeypatch, ls, "design_margin")
    with pytest.raises(ls.NumericalError, match="bisection exhausted after 60 halvings"):
        ls._assemble(dec, A, B, np.eye(1), 0.0)  # margin 1 - 0.5 > 0
    assert len(calls) == 1
    W = ls._assemble(dec, A, B, np.eye(1), 1.0)  # margin 1 - 0.5 - 1 < 0
    assert W.tolist() == [[1.0]] and len(calls) == 2


def test_repeated_schedule_is_assembled_once(monkeypatch):
    # single input at n = 16: the Gramian is numerically singular, every
    # grouping tolerance gives the same (mus, ds), and each rung fails alike
    n, k = 16, 2
    rng = np.random.default_rng(0)
    A = rng.standard_normal((n, n))
    A -= (np.sort(np.linalg.eigvals(A).real)[::-1][:k].sum() + 0.5 * k) / k * np.eye(n)
    B = rng.standard_normal((n, 1))
    calls = counting(monkeypatch, ls, "_assemble_certificate")
    with pytest.raises(ls.NumericalError) as exc:
        ls.stabilizability_certificate(A, B, k)
    assert len(calls) == 1
    assert str(exc.value) == ("certificate construction failed: coupling weight bisection "
                              "exhausted after 60 halvings at mu=0.738074")


def test_each_distinct_schedule_is_tried(monkeypatch):
    # uncontrollable real parts split by 1e-4 at -1 and by 1e-6 at -4: the
    # 1e-8 rung finds no rate off the pair midpoints, the 3e-7 rung merges the
    # second pair, the 1e-5 rung repeats it and the 3e-4 rung merges the first
    A = np.zeros((6, 6))
    A[:2, :2] = [[0.0, 1.0], [-1.0, -1.0]]
    A[2:, 2:] = np.diag([-1.0, -1.0 - 1e-4, -4.0, -4.0 - 1e-6])
    B = np.array([[0.0], [1.0], [0.0], [0.0], [0.0], [0.0]])
    dec = ls.kalman_decompose(A, B)
    assert dec.nu == 4
    schedules = set()
    for rtol in lc.GROUP_RTOL_LADDER:
        try:
            mus, ds = ls._rate_schedule(dec, 1, 6, rtol)
        except ls.NumericalError:
            continue
        schedules.add((tuple(mus), tuple(ds)))
    assert len(schedules) == 2

    def reject(A, B, cert):
        raise ls.NumericalError(f"rejected at mu_0={cert.mus[0]!r}")

    monkeypatch.setattr(ls, "_validate_certificate", reject)
    calls = counting(monkeypatch, ls, "_assemble_certificate")
    with pytest.raises(ls.NumericalError, match="rejected at mu_0="):
        ls.stabilizability_certificate(A, B, 1)
    assert {(tuple(c[4]), tuple(c[5])) for c in calls} == schedules
    assert len(calls) == len(schedules)
