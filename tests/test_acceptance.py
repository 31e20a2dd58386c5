"""Acceptance suite: one test per release criterion, tolerances pinned.

Run with `pytest tests/test_acceptance.py -v` to get one pass/fail line per
criterion. The scans of criterion 7 are computed once per session and
reused; criterion 10 recomputes them from scratch to check bitwise
reproducibility.
"""

import time

import numpy as np
import pytest

import solispec as sp
from oracles import apply_L, assemble_matrix, log_fit

FAMILIES = {
    "cubic": sp.Nonlinearity.power(1.0),
    "saturable": sp.Nonlinearity.saturable(0.5),
    "cubic_quintic": sp.Nonlinearity.cubic_quintic(0.1),
}

SCAN_GRID = np.linspace(1.0, 10.0, 200)


def _grid_l2(arr, h):
    return np.sqrt(h) * np.linalg.norm(arr)


def _kernel_rel_residual(gs, nl, w):
    out = sp.apply_H_potential(sp.potential_V(gs, nl), w)
    return (_grid_l2(np.concatenate([out.f, out.g]), gs.h)
            / _grid_l2(np.concatenate([w.f, w.g]), gs.h))


def _fourth_derivative_scale(y, h):
    d4 = (y[:-4] - 4 * y[1:-3] + 6 * y[2:-2] - 4 * y[3:-1] + y[4:]) / h**4
    return np.max(np.abs(d4)) / 12.0 / np.max(np.abs(y))


@pytest.fixture(scope="module")
def family_scans(gs_cubic, nl_cubic):
    """Criterion-7 payload: per-family default ground state + 200-point scan."""
    out = {}
    t0 = time.time()
    for name, nl in FAMILIES.items():
        gs = gs_cubic if name == "cubic" else sp.solve_ground_state(nl, 1.0)
        report = sp.scan_embedded(gs, nl, SCAN_GRID)
        out[name] = (gs, nl, report)
    out["elapsed"] = time.time() - t0
    return out


def test_criterion_01_ground_state_oracle(gs_cubic):
    exact = np.sqrt(2.0) / np.cosh(gs_cubic.x)
    mask = np.abs(gs_cubic.x) <= 20.0
    sup_err = float(np.max(np.abs(gs_cubic.Q - exact)[mask]))
    c0, rate = log_fit(gs_cubic, (8.0, 14.0))
    assert sup_err <= 1e-8
    assert abs(rate - 1.0) <= 1e-4
    assert abs(c0 - 2.0 * np.sqrt(2.0)) <= 1e-3
    print(f"\nACCEPTANCE 1 PASS: sup|Q - sqrt(2) sech| = {sup_err:.2e} <= 1e-8, "
          f"rate err {abs(rate - 1.0):.2e} <= 1e-4, c0 err {abs(c0 - 2 * np.sqrt(2)):.2e} <= 1e-3")


def test_criterion_02_first_integral_all_families(gs_cubic, nl_cubic):
    worst = {}
    for name, nl in FAMILIES.items():
        gs = gs_cubic if name == "cubic" else sp.solve_ground_state(nl, 1.0)
        worst[name] = sp.first_integral_residual(gs, nl)
    table = sp.Nonlinearity.tabulated(np.linspace(0.0, 12.0, 400),
                                      np.linspace(0.0, 12.0, 400))
    gs_tab = sp.solve_ground_state(table, 1.0)
    worst["tabulated"] = sp.first_integral_residual(gs_tab, table)
    assert all(v <= 1e-8 for v in worst.values()), worst
    print(f"\nACCEPTANCE 2 PASS: first-integral residuals {worst} all <= 1e-8")


def test_criterion_03_kernel_identities_and_convergence(nl_cubic, gs_cubic):
    gs_half = sp.solve_ground_state(nl_cubic, 1.0, h=gs_cubic.h / 2.0)
    results = []
    for pick, label in ((lambda g: sp.GridField2(g.Q, -g.Q), "(Q,-Q)"),
                        (lambda g: sp.GridField2(g.Qp, g.Qp), "(Q',Q')")):
        r1 = _kernel_rel_residual(gs_cubic, nl_cubic, pick(gs_cubic))
        r2 = _kernel_rel_residual(gs_half, nl_cubic, pick(gs_half))
        y = pick(gs_cubic).f
        scale = _fourth_derivative_scale(y, gs_cubic.h)
        assert r1 <= 5.0 * gs_cubic.h**2 * scale, label
        ratio = r1 / r2
        assert 2**1.4 <= ratio <= 2**2.6, label
        results.append((label, r1, ratio))
    print(f"\nACCEPTANCE 3 PASS: kernel residuals and h -> h/2 ratios {results}")


def test_criterion_04_structural_reflection(gs_cubic, nl_cubic, gs_cubic_coarse):
    import scipy.sparse as sps
    H = assemble_matrix(sp.potential_V(gs_cubic_coarse, nl_cubic))
    n = H.shape[0] // 2
    perm = np.concatenate([np.arange(n, 2 * n), np.arange(n)])
    S = sps.identity(2 * n, format="csr")[perm]
    assert (S @ H @ S + H).nnz == 0
    worst = 0.0
    for lam in (2.0, 5.0):
        mapped = sp.reflect_spectrum(sp.certify_lambda(gs_cubic, nl_cubic, lam))
        direct = sp.certify_lambda(gs_cubic, nl_cubic, -lam, method="direct")
        worst = max(worst, abs(mapped.v0 - direct.v0), abs(mapped.v0p - direct.v0p),
                    abs(mapped.mismatch - direct.mismatch) / max(1.0, direct.mismatch))
        assert mapped.verdict == direct.verdict
    assert worst <= 1e-8
    print(f"\nACCEPTANCE 4 PASS: S H S = -H exactly; reflected vs direct records "
          f"agree to {worst:.2e} <= 1e-8")


def test_criterion_05_inversion_round_trip(gs_cubic, nl_cubic):
    w = np.exp(-2.0 * gs_cubic.x)
    errs = {}
    for sign in ("-", "+"):
        v = apply_L(sp.potential_V(gs_cubic, nl_cubic), sign, w)
        xs, u = sp.invert_L(sign, gs_cubic, v, x0=1.0)
        keep = xs <= gs_cubic.R - 5.0
        errs[sign] = float(np.max(np.abs(u - np.exp(-2.0 * xs))[keep]))
    assert all(e <= 1e-6 for e in errs.values()), errs
    print(f"\nACCEPTANCE 5 PASS: round-trip errors {errs} <= 1e-6 on [1, R-5]")


def test_criterion_06_fixed_point_identities(gs_cubic, nl_cubic):
    worst = 0.0
    for lam in (1.5, 2.0, 5.0):
        sol = sp.decaying_solution(lam, gs_cubic, nl_cubic)
        r_u, r_v = sp.fixed_point_residual(gs_cubic, sol.f + sol.g, sol.f - sol.g, lam)
        worst = max(worst, r_u, r_v)
    assert worst <= 1e-6
    print(f"\nACCEPTANCE 6 PASS: fixed-point residuals <= {worst:.2e} <= 1e-6 "
          f"for lambda in {{1.5, 2, 5}}")


def test_criterion_07_no_embedded_eigenvalue_scan(family_scans):
    stats = {}
    for name in FAMILIES:
        _, _, report = family_scans[name]
        recs = report.records
        assert len(recs) == 200
        assert all(r.verdict == "no-embedded-eigenvalue" for r in recs), name
        assert all(r.u_positive and r.v_signed for r in recs), name
        assert all(r.v0 > 0 and r.v0p < 0 for r in recs), name
        summ = report.summary()
        assert summ["min_v0_norm"] >= 1e-3, name
        assert summ["min_mismatch"] >= 1e-3, name
        stats[name] = (summ["min_v0_norm"], summ["min_mismatch"])
    assert family_scans["elapsed"] <= 300.0
    print(f"\nACCEPTANCE 7 PASS: 3 families x 200 energies all certified in "
          f"{family_scans['elapsed']:.0f}s; (min v0_norm, min mismatch) = {stats}")


def test_criterion_08_negative_control():
    rec = sp.negative_control(1.0, 6.0)
    assert abs(rec.lam - 3.0) <= 0.05
    assert rec.verdict == "embedded-candidate"
    shallow = sp.control_scan(1.0, 0.1, np.linspace(1.0, 10.0, 19))
    assert all(r.verdict != "embedded-candidate" for r in shallow.records)
    with pytest.raises(sp.ConfigurationError):
        sp.negative_control(1.0, 0.1)
    print(f"\nACCEPTANCE 8 PASS: embedded candidate at lambda = {rec.lam:.6f} "
          f"(|err| = {abs(rec.lam - 3.0):.1e} <= 0.05); shallow well stays clean")


def test_criterion_09_mode_expansion_stability(family_scans):
    gs, nl, _ = family_scans["cubic"]
    pm = sp.potential_V(gs, nl)
    worst = 0.0
    for lam in SCAN_GRID[10::40]:
        sol = sp.decaying_solution(float(lam), gs, nl)
        lo, hi = sp.default_window(pm, float(lam), end=-1)
        wide = (lo - 0.2 * (hi - lo), hi)
        e1 = sp.expand_in_modes(sol, end=-1, window=(lo, hi))
        e2 = sp.expand_in_modes(sol, end=-1, window=wide)
        drift = np.abs(e1.amplitudes - e2.amplitudes)
        allowed = np.maximum(10.0 * (e1.uncertainties + e2.uncertainties),
                             1e-12 * np.max(e1.amplitudes))
        worst = max(worst, float(np.max(drift / allowed)))
        assert np.all(drift <= allowed), lam
    print(f"\nACCEPTANCE 9 PASS: per-mode amplitude drift under 20% window "
          f"enlargement <= 10x fit error bars (worst utilization {worst:.2f})")


def test_criterion_10_determinism(family_scans):
    for name in FAMILIES:
        gs, nl, report = family_scans[name]
        rerun = sp.scan_embedded(gs, nl, SCAN_GRID)
        assert rerun.to_json() == report.to_json(), name
    print("\nACCEPTANCE 10 PASS: rerunning the criterion-7 scans reproduces "
          "bit-identical JSON reports")
