import math

import numpy as np
import pytest

from kcontract import compound as cp
from kcontract import lin_contraction as lc
from kcontract import lin_synthesis as ls
from kcontract.numkernel import (NumericalError, inertia_symmetric, solve_lyapunov,
                                 spectral_norm, sym)
from test_numkernel import kronecker_minimum_norm, symmetric_of_kind


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


def seeded_shifts(seed, count):
    """(A, mu) with n = 1..20 and mu at least 0.05 from every midpoint of two
    eigenvalue real parts, so the shifted system is far from resonance."""
    rng = np.random.default_rng(seed)
    while count:
        n = int(rng.integers(1, 21))
        A = rng.standard_normal((n, n))
        re = np.linalg.eigvals(A).real
        mu = float(rng.uniform(re.min() - 1.0, re.max() + 1.0))
        if np.abs((re[:, None] + re) / 2 - mu).min() >= 0.05:
            count -= 1
            yield A, mu


def test_shifted_solutions_match_the_kronecker_lu():
    for A, mu in seeded_shifts(33, 150):
        P = lc.shifted_inertia_certificate(A, mu)
        want = solve_lyapunov(A - mu * np.eye(len(A)), np.eye(len(A)))
        assert np.abs(P - want).max() <= 1e-12 * np.abs(want).max()


def test_shifted_inertia_holds_on_seeded_shifts():
    for A, mu in seeded_shifts(34, 150):
        p = int(np.sum(np.linalg.eigvals(A).real > mu))
        P = lc.shifted_inertia_certificate(A, mu)
        assert inertia_symmetric(P) == (p, 0, len(A) - p)


def test_resonant_shifted_solution_is_the_kronecker_minimum_norm_one():
    # lambda_a + lambda_b = 2 mu with mu between the real parts: the shifted
    # system is singular but consistent
    rng = np.random.default_rng(35)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        mu = float(rng.uniform(-2.0, 2.0))
        half = int(rng.integers(1, n // 2 + 1))
        lam = rng.uniform(0.2, 3.0, half)
        D = mu + np.concatenate([lam, -lam, -rng.uniform(0.2, 3.0, n - 2 * half)])
        U, _ = np.linalg.qr(rng.standard_normal((n, n)))
        A = (U * D) @ U.T
        P = lc.shifted_inertia_certificate(A, mu)
        want = kronecker_minimum_norm(A - mu * np.eye(n), np.eye(n))
        assert np.abs(P - want).max() <= 1e-11 * np.abs(want).max()
        assert inertia_symmetric(P) == (half, 0, n - half)


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


def test_stacked_margins_equal_the_per_matrix_margins():
    # definite, indefinite and nearly singular P, at one A or on a stack of up
    # to four vertices: every margin keeps the bytes of its own
    # eigvalsh(sym(P J) - mu P).max() at the worst vertex a per-vertex loop
    # names (the first largest), at slack 0 and 1e-3
    rng = np.random.default_rng(31)
    for _ in range(200):
        n = int(rng.integers(1, 21))
        ell = int(rng.integers(1, min(n, 4) + 1))
        V = int(rng.integers(1, 5))
        J = rng.standard_normal((V, n, n))
        mus = rng.standard_normal(ell).tolist()
        mats = [symmetric_of_kind(rng, n, kind)
                for kind in rng.choice(["definite", "indefinite", "singular"], ell)]
        cert = lc.ContractionCertificate(ell=ell, mus=mus, ds=list(range(ell + 1)), mats=mats,
                                         k=ell)
        for slack in (0.0, 1e-3):
            report = lc.verify_certificate(J[0] if V == 1 else J, ell, cert, slack=slack)
            want, worst = [], {}
            for i, (P, mu) in enumerate(zip(mats, mus)):
                per_vertex = [np.linalg.eigvalsh(sym(P @ Jv) - mu * P).max() for Jv in J]
                worst[f"P{i}"] = next(v for v, m in enumerate(per_vertex)
                                      if m == max(per_vertex))
                want.append(max(per_vertex))
            got = [m for _, m in report.margins[:-1]]
            assert [float(m).hex() for m in got] == [float(m).hex() for m in want]
            assert report.data["worst_vertex"] == worst and report.data["n_vertices"] == V
            inertia_ok = all(inertia_symmetric(P) == (d, 0, n - d)
                             for P, d in zip(mats, range(ell)))
            margins_ok = all(m < slack * max(spectral_norm(P), 1e-300) for P, m in zip(mats, want))
            assert report.verdict == (inertia_ok and margins_ok and cert.rate_sum < 0)


def test_zero_slack_rejects_any_positive_margin():
    # ||P|| is not taken at slack +-0, where the threshold is 0: a margin of
    # 2^-40 rejects there and is accepted at slack 1e-3
    cert = lc.ContractionCertificate(ell=1, mus=[-1.0], ds=[0, 1], mats=[np.eye(1)], k=1)
    A = np.array([[-1.0 + 2 ** -40]])
    for slack, verdict in ((0.0, False), (-0.0, False), (1e-3, True)):
        report = lc.verify_certificate(A, 1, cert, slack=slack)
        assert report.margin("P0") == 2 ** -40 and report.verdict is verdict


def test_verify_certificate_without_rates_and_with_mismatched_shapes():
    # ell = 0 runs through the empty stacks and rejects, even for an
    # expanding A: only the rate sum is reported
    empty = lc.ContractionCertificate(ell=0, mus=[], ds=[0], mats=[], k=1)
    for A in (-np.eye(2), np.eye(2)):
        report = lc.verify_certificate(A, 1, empty)
        assert report.margins == [("rate_sum", 0.0)]
        assert not report.verdict and "no rates: ell=0" in report.diagnostics
    for ell, mus, ds, mats, message in (
            (1, [0.0], [0, 1], [np.eye(3)], "dimension does not match A"),
            (1, [0.0], [0], [np.eye(2)], "field lengths are inconsistent"),
            (1, [0.0, 1.0], [0, 1], [np.eye(2)], "field lengths are inconsistent"),
            (1, [-1.0], [0, 1], [np.array([[1.0, 2.0], [0.0, 1.0]])], "P0 is not symmetric")):
        cert = lc.ContractionCertificate(ell=ell, mus=mus, ds=ds, mats=mats, k=1)
        with pytest.raises(ValueError, match=message):
            lc.verify_certificate(-np.eye(2), 1, cert)


def test_build_certificate_keeps_its_gate_report(monkeypatch):
    # the gate runs once per build, at slack 0, and its report rides along
    # without being part of the certificate's data
    calls = []
    verify = lc.verify_certificate
    monkeypatch.setattr(lc, "verify_certificate",
                        lambda *a, **kw: calls.append(kw) or verify(*a, **kw))
    A = np.diag([1.0, -2.0, -4.6])
    cert = lc.build_certificate(A, 2)
    assert calls == [{}]
    fresh = verify(A, 2, cert)
    fields = ("verdict", "margins", "diagnostics", "data")
    assert [getattr(cert.report, f) for f in fields] == [getattr(fresh, f) for f in fields]
    bare = lc.ContractionCertificate(cert.ell, cert.mus, cert.ds, cert.mats, cert.k)
    assert bare.report is None and "report" not in repr(cert)
    assert ls.stabilizability_certificate(A, np.ones((3, 1)), 2).report is None


def test_the_spectrum_of_a_is_taken_once_per_build(monkeypatch):
    calls = []
    eig = lc.eigenvalues
    monkeypatch.setattr(lc, "eigenvalues", lambda M: calls.append(M.shape) or eig(M))
    lc.build_certificate(np.diag([1.0, -2.0, -4.6]), 2)
    assert calls == [(3, 3)]


def test_a_kalman_decomposition_takes_the_uncontrollable_spectrum_once(monkeypatch):
    # every rung fails, so each of the four rungs draws a rate schedule; the
    # stabilizability test and all of them share one spectrum of Au
    calls, rungs = [], []
    for module in (lc, ls):
        monkeypatch.setattr(module, "eigenvalues",
                            lambda M, eig=module.eigenvalues: calls.append(M.shape) or eig(M))
    schedule = ls._rate_schedule
    monkeypatch.setattr(ls, "_rate_schedule", lambda *a: rungs.append(a) or schedule(*a))

    def fail(*args):
        raise NumericalError("refused")
    monkeypatch.setattr(ls, "_assemble_certificate", fail)
    A = np.diag([0.5, -1.0, -1.0 - 1e-4, -4.0, -4.0 - 1e-6])
    B = np.array([[1.0], [0.0], [0.0], [0.0], [0.0]])
    with pytest.raises(NumericalError, match="refused"):
        ls.stabilizability_certificate(A, B, 2)
    assert len(rungs) == len(lc.GROUP_RTOL_LADDER)
    assert calls.count((4, 4)) == 1
