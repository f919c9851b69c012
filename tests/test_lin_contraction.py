import math

import numpy as np
import pytest

from kcontract import compound as cp
from kcontract import lin_contraction as lc
from kcontract import lin_synthesis as ls
from kcontract.numkernel import NumericalError, inertia_symmetric


def hurwitz(M):
    return np.linalg.eigvals(M).real.max() < 0


def test_eigen_sum_examples():
    assert lc.k_contractive_lti(np.diag([1.0, -3.0]), 2)[1] == pytest.approx(-2.0)
    assert lc.k_contractive_lti(np.diag([-1.0, 1.0]), 2)[1] == pytest.approx(0.0)


def test_eigen_sum_matches_compound_spectrum():
    rng = np.random.default_rng(0)
    for _ in range(20):
        A = rng.standard_normal((6, 6))
        got = lc.k_contractive_lti(A, 3)[1]
        oracle = np.linalg.eigvals(cp.additive_compound(A, 3)).real.max()
        assert got == pytest.approx(oracle, abs=1e-8)


def test_k_contractive_examples():
    A = np.diag([1.0, -3.0])
    ok, margin = lc.k_contractive_lti(A, 1)
    assert not ok and margin == pytest.approx(1.0)
    ok, margin = lc.k_contractive_lti(A, 2)
    assert ok and margin == pytest.approx(-2.0)


def test_hurwitz_contractive_for_all_k():
    A = np.diag([-1.0, -2.0, -3.0])
    for k in (1, 2, 3):
        assert lc.k_contractive_lti(A, k)[0]


def test_verdict_equals_compound_hurwitz():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        k = int(rng.integers(1, n + 1))
        A = rng.standard_normal((n, n))
        assert lc.k_contractive_lti(A, k)[0] == hurwitz(cp.additive_compound(A, k))


def test_monotone_in_k():
    # k-contractive implies (k+1)-contractive
    rng = np.random.default_rng(2)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        A = rng.standard_normal((n, n))
        flags = [lc.k_contractive_lti(A, k)[0] for k in range(1, n + 1)]
        for a, b in zip(flags[:-1], flags[1:]):
            assert (not a) or b


def test_shifted_inertia_examples():
    P = lc.shifted_inertia_certificate(np.diag([1.0, -1.0]), 0.0)
    assert inertia_symmetric(P) == (1, 0, 1)
    P = lc.shifted_inertia_certificate(-np.eye(3), 0.0)
    assert inertia_symmetric(P) == (0, 0, 3)


def test_shifted_inertia_counts_eigenvalues():
    rng = np.random.default_rng(3)
    for _ in range(30):
        A = rng.standard_normal((5, 5))
        re = np.sort(np.linalg.eigvals(A).real)
        mu = float(np.median(re)) + 0.37
        if np.abs(re - mu).min() < 1e-6:
            continue
        P = lc.shifted_inertia_certificate(A, mu)
        p = int(np.sum(re > mu))
        assert inertia_symmetric(P) == (p, 0, 5 - p)


def test_shifted_inertia_solves_exact_equation():
    A = np.diag([2.0, -1.0, -4.0])
    mu = 0.5
    P = lc.shifted_inertia_certificate(A, mu)
    Ahat = A - mu * np.eye(3)
    assert np.allclose(Ahat.T @ P + P @ Ahat, -np.eye(3), atol=1e-10)


def test_shifted_inertia_rejects_mu_on_spectrum():
    with pytest.raises(NumericalError):
        lc.shifted_inertia_certificate(np.diag([1.0, -1.0]), 1.0)


def test_build_certificate_hand_recipe():
    # two distinct real parts: ell = 2, d = (0, 1, 2), mus = (1 + eps, -3 + eps)
    A = np.diag([1.0, -3.0])
    cert = lc.build_certificate(A, 2)
    assert cert.ell == 2
    assert cert.ds == [0, 1, 2]
    eps = cert.mus[0] - 1.0
    assert eps > 0
    assert cert.mus[1] == pytest.approx(-3.0 + eps)
    assert cert.rate_sum == pytest.approx(-2.0 + 2 * eps)
    assert cert.rate_sum <= 0


def test_build_certificate_hurwitz_case():
    cert = lc.build_certificate(np.diag([-1.0, -2.0, -3.0]), 2)
    assert cert.rate_sum <= 0
    report = lc.verify_certificate(np.diag([-1.0, -2.0, -3.0]), 2, cert)
    assert report.verdict


@pytest.mark.parametrize("construct", [
    lambda A: lc.build_certificate(A, 2),
    lambda A: ls.stabilizability_certificate(A, np.zeros((3, 1)), 2),
], ids=["contraction", "stabilizability"])
def test_staged_rates_skip_pair_midpoint(construct):
    # the first candidate rate -1.8 is the midpoint of 1 and -4.6: the schedule
    # halves eps to 0.1 instead of solving a resonant shifted system
    A = np.diag([1.0, -2.0, -4.6])
    assert construct(A).mus == [1.1, -1.9]


def test_build_certificate_rejects_noncontractive():
    with pytest.raises(ValueError, match="not 2-contractive"):
        lc.build_certificate(np.diag([2.0, -1.0, -4.0]), 2)


def test_verify_round_trip_random():
    rng = np.random.default_rng(4)
    done = 0
    while done < 100:
        n = int(rng.integers(3, 8))
        k = int(rng.integers(1, n + 1))
        A = rng.standard_normal((n, n))
        if not lc.k_contractive_lti(A, k)[0]:
            continue
        cert = lc.build_certificate(A, k)
        assert lc.verify_certificate(A, k, cert).verdict
        done += 1


def test_round_trip_repeated_real_parts():
    # constructed edge cases: repeated real parts, complex pairs sharing a
    # real part, and defective blocks
    rng = np.random.default_rng(9)
    cases = [
        np.diag([1.0, 1.0, -3.0, -3.0]),
        np.diag([-1.0, -1.0, -1.0]),
        np.array([[0.2, 5.0, 0, 0], [-5.0, 0.2, 0, 0],
                  [0, 0, -2.0, 1.0], [0, 0, -1.0, -2.0]]),  # two complex pairs
        np.array([[-1.0, 1.0, 0], [0, -1.0, 1.0], [0, 0, -1.0]]),  # Jordan block
        np.diag([0.5, 0.5, -2.0]),
    ]
    for A in cases:
        n = A.shape[0]
        T = rng.standard_normal((n, n)) + 2 * np.eye(n)
        A = np.linalg.solve(T, A @ T)  # hide the structure
        for k in range(1, n + 1):
            contractive = lc.k_contractive_lti(A, k)[0]
            if contractive:
                cert = lc.build_certificate(A, k)
                assert lc.verify_certificate(A, k, cert).verdict
            else:
                with pytest.raises(ValueError):
                    lc.build_certificate(A, k)


def test_verify_rejects_sign_flip():
    A = np.diag([-1.0, -2.0])
    cert = lc.build_certificate(A, 1)
    cert.mats[0] = -cert.mats[0]
    report = lc.verify_certificate(A, 1, cert)
    assert not report.verdict
    assert "inertia" in report.diagnostics


def test_verify_rejects_bad_rate_sum():
    A = np.diag([1.0, -3.0])
    cert = lc.build_certificate(A, 2)
    cert.mus = [m + 10.0 for m in cert.mus]
    report = lc.verify_certificate(A, 2, cert)
    assert not report.verdict
    assert "rate sum" in report.diagnostics


def test_verify_congruence_invariance():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((4, 4)) - 2 * np.eye(4)
    cert = lc.build_certificate(A, 2)
    for _ in range(10):
        T = rng.standard_normal((4, 4)) + 3 * np.eye(4)
        At = np.linalg.solve(T, A @ T)
        cert_t = lc.ContractionCertificate(
            ell=cert.ell, mus=list(cert.mus), ds=list(cert.ds),
            mats=[T.T @ P @ T for P in cert.mats], k=cert.k)
        assert lc.verify_certificate(At, 2, cert_t).verdict


def test_variable_counts_values():
    assert lc.variable_counts(10, 2) == (1036, 92)
    assert lc.variable_counts(4, 4) == (2, 4 * 4 * 3 // 2 + 4)
    assert lc.variable_counts(3, 3)[0] == 2


@pytest.mark.parametrize("n", [10 ** 4, 10 ** 6, 10 ** 100, 10 ** 2000],
                         ids=["1e4", "1e6", "1e100", "1e2000"])
def test_variable_counts_refuse_only_past_the_digit_cap(n):
    # around the first k whose N1 has more than MAX_COUNT_DIGITS digits: an N1
    # within the cap is counted exactly, one past its margin digit refused
    def n1(k):
        c = math.comb(n, k)
        return c * (c + 1) // 2 + 1

    limit = 10 ** lc.MAX_COUNT_DIGITS
    hi = 1
    while n1(hi) < limit:  # each n here passes the cap before k = n / 2
        hi *= 2
    lo = hi // 2 + 1
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if n1(mid) >= limit else (mid + 1, hi)
    for k in range(max(1, lo - 3), lo + 4):
        if n1(k) < limit:
            assert lc.variable_counts(n, k) == (n1(k), k * n * (n - 1) // 2 + k)
        elif n1(k) >= 10 * limit:
            with pytest.raises(ValueError, match=f"more than {lc.MAX_COUNT_DIGITS} digits"):
                lc.variable_counts(n, k)


def test_variable_counts_crossing():
    # the staged route needs far fewer unknowns for k much smaller than n
    for n in (8, 12, 16):
        n1, n2 = lc.variable_counts(n, 2)
        assert n2 <= n1
    # near k = n the compound route can be cheaper
    n1, n2 = lc.variable_counts(12, 12)
    assert n1 < n2


def failing_report(A, k, cert, slack=0.0):
    return lc.VerificationReport(verdict=False, margins=[])


def test_repeated_grouping_names_each_rungs_tolerance(monkeypatch):
    # every rung groups diag(-1, -2, -3) alike, so one build is made, and the
    # message still names the last rung's own tolerance
    calls = []
    build = lc._build_with_grouping
    monkeypatch.setattr(lc, "_build_with_grouping", lambda *a: calls.append(a) or build(*a))
    monkeypatch.setattr(lc, "verify_certificate", failing_report)
    with pytest.raises(NumericalError) as exc:
        lc.build_certificate(np.diag([-1.0, -2.0, -3.0]), 1)
    assert len(calls) == 1
    assert str(exc.value) == ("certificate construction failed for a 1-contractive system "
                              "(last error: certificate at grouping tolerance 0.0003 failed "
                              "verification)")


def test_each_distinct_grouping_is_built(monkeypatch):
    # real parts split by 1e-4 at -1 and by 1e-6 at -4: the 3e-7 rung merges
    # the second pair, the 3e-4 rung the first, and the 1e-5 rung repeats
    A = np.diag([-1.0, -1.0 - 1e-4, -4.0, -4.0 - 1e-6])
    rtols = []
    build = lc._build_with_grouping
    monkeypatch.setattr(lc, "_build_with_grouping",
                        lambda A, k, vals, rtol: rtols.append(rtol) or build(A, k, vals, rtol))
    monkeypatch.setattr(lc, "verify_certificate", failing_report)
    with pytest.raises(NumericalError, match="tolerance 0.0003 failed verification"):
        lc.build_certificate(A, 1)
    assert rtols == [1e-8, 3e-7, 3e-4]
