import json

import numpy as np
import pytest

import solispec as sp
from solispec.certificate import _certify_potential, _score_solution
from solispec.jost import _sweep_decaying


def test_cubic_lambda2_record(gs_cubic, nl_cubic):
    rec = sp.certify_lambda(gs_cubic, nl_cubic, 2.0)
    assert rec.verdict == "no-embedded-eigenvalue"
    assert rec.u_positive and rec.v_signed
    assert rec.v0 > 0 and rec.v0p < 0
    assert min(rec.v0_norm, rec.v0p_norm) >= 1e-3
    assert rec.mismatch >= 1e-3


def test_cubic_lambda_minus2_signs(gs_cubic, nl_cubic):
    """Negative branch: u stays positive while v flips sign."""
    rec = sp.certify_lambda(gs_cubic, nl_cubic, -2.0)
    assert rec.u_positive and rec.v_signed
    assert rec.v0 < 0 and rec.v0p > 0
    assert rec.verdict == "no-embedded-eigenvalue"


def test_free_potential_certificate_trivially_passes():
    pm0 = sp.decoupled_well_potential(1.0, 0.0, R=25.0, h=2e-3)
    rec = _certify_potential(pm0, 2.0)
    assert rec.verdict == "no-embedded-eigenvalue"
    assert rec.u_positive and rec.v_signed and rec.v0 > 0 and rec.v0p < 0


def test_reflected_record_matches_direct(gs_cubic, nl_cubic):
    rec_pos = sp.certify_lambda(gs_cubic, nl_cubic, 2.0)
    mapped = sp.reflect_spectrum(rec_pos)
    direct = sp.certify_lambda(gs_cubic, nl_cubic, -2.0, method="direct")
    assert mapped.lam == -2.0
    assert abs(mapped.v0 - direct.v0) <= 1e-8
    assert abs(mapped.v0p - direct.v0p) <= 1e-8
    assert abs(mapped.mismatch - direct.mismatch) <= 1e-8 * max(1.0, direct.mismatch)
    assert mapped.verdict == direct.verdict


def test_reflect_solution_solves_mirrored_problem(pm_cubic, jost_cubic_2):
    """S maps solutions at lambda to solutions at -lambda, residual checked."""
    from solispec.jost import _rel_residual
    refl = sp.reflect_spectrum(jost_cubic_2)
    res = _rel_residual(pm_cubic, refl.lam, refl.x, refl.f, refl.g, refl.fp, refl.gp)
    assert res <= 1e-8


@pytest.mark.parametrize("lam", [2.0, 1.0])
def test_negative_record_is_reflected_positive_record(gs_cubic, nl_cubic, lam):
    """Under method "reflect" the record at -lambda is reflect_spectrum of the one at
    lambda, exactly, inside the essential spectrum and at the threshold lambda = mu."""
    rec = sp.certify_lambda(gs_cubic, nl_cubic, -lam)
    assert rec == sp.reflect_spectrum(sp.certify_lambda(gs_cubic, nl_cubic, lam))
    assert rec.lam == -lam


def test_double_reflection_identity(jost_cubic_2, gs_cubic, nl_cubic):
    twice = sp.reflect_spectrum(sp.reflect_spectrum(jost_cubic_2))
    assert twice.lam == jost_cubic_2.lam
    assert np.array_equal(twice.f, jost_cubic_2.f)
    assert np.array_equal(twice.g, jost_cubic_2.g)
    rec = sp.certify_lambda(gs_cubic, nl_cubic, 2.0)
    back = sp.reflect_spectrum(sp.reflect_spectrum(rec))
    assert back == rec


def test_scale_invariance_of_scoring(pm_cubic):
    """Scaling the solution by c != 0 leaves verdict, normalized quantities,
    and the sign product v0*v0p unchanged."""
    th = sp.Thresholds()
    sol = _sweep_decaying(pm_cubic, 2.0)
    base = _score_solution(pm_cubic, sol, th, method_name="reflect")
    for c in (-3.7, 0.01, 250.0):
        rec = _score_solution(pm_cubic, sol.scaled(c), th, method_name="reflect")
        assert rec.verdict == base.verdict
        assert (rec.v0 * rec.v0p < 0) == (base.v0 * base.v0p < 0)
        assert rec.v0_norm == pytest.approx(base.v0_norm, rel=1e-12)
        assert rec.v0p_norm == pytest.approx(base.v0p_norm, rel=1e-12)
        assert rec.mismatch == pytest.approx(base.mismatch, rel=1e-12)


def test_v0p_converges_at_high_energy(gs_cubic, nl_cubic):
    """v'(0) read from the swept state agrees with the h/2 grid's at lambda = 100, where a
    difference quotient of v misses it by about 3e-10 relative."""
    fine = sp.solve_ground_state(nl_cubic, 1.0, h=0.5 * gs_cubic.h)
    coarse, ref = (sp.certify_lambda(g, nl_cubic, 100.0) for g in (gs_cubic, fine))
    assert abs(coarse.v0p - ref.v0p) <= 1e-11 * abs(ref.v0p)


def test_no_sign_changes_on_half_line(gs_cubic, nl_cubic):
    """Constructive version of the sign argument: u, v never vanish on (0, R]."""
    sol = sp.decaying_solution(2.0, gs_cubic, nl_cubic)
    u = sol.f + sol.g
    v = sol.f - sol.g
    mask = sol.x > 0
    assert np.all(u[mask] > 0)
    assert np.all(v[mask] > 0)


def test_threshold_energy_certified(gs_cubic, nl_cubic):
    rec = sp.certify_lambda(gs_cubic, nl_cubic, 1.0)
    assert rec.at_threshold
    assert rec.verdict == "no-embedded-eigenvalue"
    assert rec.v0 > 0 and rec.v0p < 0


def test_gap_energy_rejected(gs_cubic, nl_cubic):
    with pytest.raises(sp.DomainError):
        sp.certify_lambda(gs_cubic, nl_cubic, 0.5)


def test_scan_small_grid(gs_cubic, nl_cubic):
    lams = np.linspace(1.0, 10.0, 15)
    rep = sp.scan_embedded(gs_cubic, nl_cubic, lams)
    assert len(rep.records) == 15
    assert all(r.verdict == "no-embedded-eigenvalue" for r in rep.records)
    summ = rep.summary()
    assert summ["min_v0_norm"] >= 1e-3
    assert summ["min_mismatch"] >= 1e-3


def test_scan_mirrored_grid_identical_mismatch(gs_cubic, nl_cubic):
    """The reflection conjugation is exact: mirrored grids give identical mismatches."""
    lams = np.linspace(1.0, 8.0, 8)
    rep_pos = sp.scan_embedded(gs_cubic, nl_cubic, lams)
    rep_neg = sp.scan_embedded(gs_cubic, nl_cubic, -lams[::-1])
    mm_pos = [r.mismatch for r in rep_pos.records]
    mm_neg = [r.mismatch for r in rep_neg.records][::-1]
    assert mm_pos == mm_neg


def test_scan_mismatch_log_continuity(gs_cubic, nl_cubic):
    """No jumps along the grid: log-mismatch increments bounded by a fitted slope."""
    lams = np.linspace(1.5, 9.5, 17)
    rep = sp.scan_embedded(gs_cubic, nl_cubic, lams)
    logs = np.log([r.mismatch for r in rep.records])
    steps = np.abs(np.diff(logs)) / np.diff(lams)
    fitted_L = np.median(steps) + 1.0
    assert np.max(steps) <= 10.0 * fitted_L


def test_scan_validates_grid(gs_cubic, nl_cubic):
    with pytest.raises(sp.ConfigurationError):
        sp.scan_embedded(gs_cubic, nl_cubic, [])
    with pytest.raises(sp.ConfigurationError):
        sp.scan_embedded(gs_cubic, nl_cubic, [2.0, 1.5])
    with pytest.raises(sp.ConfigurationError):
        sp.scan_embedded(gs_cubic, nl_cubic, [0.2, 1.5])
    for grid in ([1.5, float("nan")], [float("nan")], [1.5, float("inf")], [-float("inf"), -1.5]):
        with pytest.raises(sp.ConfigurationError, match="finite"):
            sp.scan_embedded(gs_cubic, nl_cubic, grid)


def test_scan_errors_become_inconclusive_records(gs_cubic, nl_cubic, monkeypatch):
    import solispec.certificate as cert

    def boom(pm, lam, th, method="reflect"):
        raise sp.SolispecError("synthetic per-energy failure")

    monkeypatch.setattr(cert, "_certify_potential", boom)
    rep = cert.scan_embedded(gs_cubic, nl_cubic, [1.5, 2.5])
    assert all(r.verdict == "inconclusive" for r in rep.records)
    assert all("synthetic" in r.error for r in rep.records)


def test_scan_two_workers_match_one(gs_cubic, nl_cubic):
    lams = [-4.0, -1.5, 1.5, 4.0]
    serial = sp.scan_embedded(gs_cubic, nl_cubic, lams, workers=1)
    pooled = sp.scan_embedded(gs_cubic, nl_cubic, lams, workers=2)
    assert pooled.to_json() == serial.to_json()


def test_report_json_deterministic_and_schema(gs_cubic, nl_cubic):
    lams = np.linspace(1.5, 3.5, 5)
    rep1 = sp.scan_embedded(gs_cubic, nl_cubic, lams)
    rep2 = sp.scan_embedded(gs_cubic, nl_cubic, lams)
    assert rep1.to_json() == rep2.to_json()
    payload = json.loads(rep1.to_json())
    assert payload["schema_version"] == 1
    assert payload["tool"]["name"] == "solispec"
    assert payload["timestamp"] is None          # wall clock only with opt-in
    assert len(payload["records"]) == 5
    rows = list(rep1.csv_rows())
    assert rows[0] == ("lambda", "v0", "v0p", "mismatch", "verdict")


def test_sech_well_levels_closed_form():
    # depth 6 = 2*3: bound states at -4 and -1, embedded energy 4 - mu = 3
    assert sp.sech_well_levels(1.0, 6.0) == [3.0]
    assert sp.sech_well_levels(1.0, 0.1) == []
    # depth 12 = 3*4: bound states -9, -4, -1 -> embedded at 8 and 3
    assert sp.sech_well_levels(1.0, 12.0) == [8.0, 3.0]
    assert sp.sech_well_levels(2.0, 12.0) == [7.0, 2.0]      # lambda_1 = mu exactly
    deep = sp.sech_well_levels(1.0, 1e12)                     # n <= s - sqrt(2) < 999 999
    assert len(deep) == 999_999 and deep[0] > deep[-1] >= 1.0
    for depth in (float("inf"), float("nan")):
        with pytest.raises(sp.DomainError):
            sp.sech_well_levels(1.0, depth)
        with pytest.raises(sp.DomainError):
            sp.decoupled_well_potential(1.0, depth)


def test_negative_control_detects_embedded_candidate():
    rec = sp.negative_control(1.0, 6.0)
    assert abs(rec.lam - 3.0) <= 0.05
    assert rec.verdict == "embedded-candidate"
    assert rec.mismatch < 1e-3


def test_negative_control_dip_is_localized():
    """Away from the embedded energy the control detector stays quiet."""
    lams = np.linspace(1.5, 4.5, 13)
    rep = sp.control_scan(1.0, 6.0, lams)
    grow = np.array([r.c_grow_signed for r in rep.records])
    sign_changes = np.nonzero(np.diff(np.sign(grow)))[0]
    assert len(sign_changes) == 1
    bracket = (rep.lambdas[sign_changes[0]], rep.lambdas[sign_changes[0] + 1])
    assert bracket[0] <= 3.0 <= bracket[1]
    far = [r for r in rep.records if abs(r.lam - 3.0) > 0.3]
    assert all(r.mismatch >= 1e-3 for r in far)


def test_shallow_well_no_candidate():
    lams = np.linspace(1.0, 10.0, 19)
    rep = sp.control_scan(1.0, 0.1, lams)
    assert all(r.verdict != "embedded-candidate" for r in rep.records)
    with pytest.raises(sp.ConfigurationError):
        sp.negative_control(1.0, 0.1)
