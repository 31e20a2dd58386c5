import math
import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import solispec as sp
import solispec.jost as sp_jost
from oracles import sweep_from_mode, wronskian
from solispec.certificate import _certify_potential


def test_modes_arithmetic_lam5():
    dec, grow, m3, m4 = sp.asymptotic_modes(5.0, 1.0)
    assert (dec.kind, dec.channel) == ("decaying", 0)
    assert dec.value == pytest.approx(np.sqrt(6.0), abs=0)
    assert grow.value == pytest.approx(np.sqrt(6.0), abs=0)
    assert (m3.kind, m3.channel, m3.value) == ("cos", 1, 2.0)
    assert (m4.kind, m4.channel, m4.value) == ("sin", 1, 2.0)


def test_modes_threshold_const_linear():
    dec, grow, m3, m4 = sp.asymptotic_modes(1.0, 1.0)
    assert dec.value == pytest.approx(np.sqrt(2.0), abs=0)
    assert (m3.kind, m4.kind) == ("const", "linear")


def test_modes_negative_branch_mirrors():
    pos = sp.asymptotic_modes(5.0, 1.0)
    neg = sp.asymptotic_modes(-5.0, 1.0)
    for p, n in zip(pos, neg):
        assert p.kind == n.kind
        assert p.value == n.value
        assert p.channel == 1 - n.channel


def test_modes_inside_gap_rejected():
    with pytest.raises(sp.DomainError):
        sp.asymptotic_modes(0.5, 1.0)


@pytest.mark.parametrize("lam", [0.5, -0.5])
def test_default_window_rejects_gap(lam):
    pm0 = sp.decoupled_well_potential(1.0, 0.0, R=25.0, h=2e-3)
    with pytest.raises(sp.DomainError, match="spectral gap"):
        sp.default_window(pm0, lam, end=-1)


def test_free_potential_gives_pure_mode():
    pm0 = sp.decoupled_well_potential(1.0, 0.0, R=25.0, h=2e-3)
    sol = sp.decaying_solution(2.0, potential=pm0)
    pure = np.exp(-np.sqrt(3.0) * sol.x)
    assert np.max(np.abs(sol.f - pure) / pure) <= 1e-11
    assert np.max(np.abs(sol.g)) == 0.0


def test_decaying_solution_cubic_quality(jost_cubic_2):
    sol = jost_cubic_2
    assert sol.residual <= 1e-8
    assert sol.asym_deviation <= 1e-10
    # second component is driven by the potential: decays faster than exp(-x)
    mask = (sol.x >= 8.0) & (sol.x <= 14.0)
    rate = -np.polyfit(sol.x[mask], np.log(np.abs(sol.g[mask])), 1)[0]
    assert rate > 1.0


def test_round_trip_expansion_at_station(jost_cubic_2, pm_cubic):
    x_s = pm_cubic.negligible_from(1e-14)
    win = (x_s, x_s + 8.0)
    exp = sp.expand_in_modes(jost_cubic_2, end=+1, window=win)
    assert np.max(np.abs(exp.coeffs - np.array([1.0, 0.0, 0.0, 0.0]))) <= 1e-8


def test_round_trip_expansion_on_swept_region(jost_cubic_2):
    exp = sp.expand_in_modes(jost_cubic_2, end=+1, window=(12.0, 17.0))
    assert np.max(np.abs(exp.coeffs - np.array([1.0, 0.0, 0.0, 0.0]))) <= 1e-8


def test_expand_pure_cos_mode(pm_cubic):
    """A synthetic pure cos-mode input comes back as (0, 0, 1, 0)."""
    lam = 2.0
    modes = sp.asymptotic_modes(lam, 1.0)
    xs = pm_cubic.x
    f, g, fp, gp = modes[2].eval(xs)
    sol = sp.JostSolution(lam=lam, mu=1.0, x=xs, f=f, g=g, fp=fp, gp=gp,
                          x_asym=17.5, mode=modes[0], residual=0.0, asym_deviation=0.0)
    exp = sp.expand_in_modes(sol, end=+1, window=(18.0, 26.0))
    assert np.max(np.abs(exp.coeffs - np.array([0.0, 0.0, 1.0, 0.0]))) <= 1e-10


def test_expand_linearity(pm_cubic):
    """Least squares is linear: combining solutions combines coefficients.

    Compared in column-normalized units: raw coefficients of modes that are
    invisible on the window (the left-decaying one) are pure noise and only
    defined up to the fit misfit.
    """
    lam = 2.0
    s1 = sweep_from_mode(pm_cubic, lam, 0)
    s2 = sweep_from_mode(pm_cubic, lam, 2)
    alpha, beta = 1.7, -0.4
    combo = sp.JostSolution(
        lam=lam, mu=s1.mu, x=s1.x,
        f=alpha * s1.f + beta * s2.f, g=alpha * s1.g + beta * s2.g,
        fp=alpha * s1.fp + beta * s2.fp, gp=alpha * s1.gp + beta * s2.gp,
        x_asym=s1.x_asym, mode=s1.mode, residual=0.0, asym_deviation=0.0)
    win = (-16.0, -10.0)
    e1 = sp.expand_in_modes(s1, end=-1, window=win)
    e2 = sp.expand_in_modes(s2, end=-1, window=win)
    ec = sp.expand_in_modes(combo, end=-1, window=win)
    target = alpha * e1.coeffs + beta * e2.coeffs
    modes = sp.asymptotic_modes(lam, s1.mu, end=-1)
    xs = s1.x[(s1.x >= win[0]) & (s1.x <= win[1])]
    s = np.sqrt(s1.mu + abs(lam))
    colnorms = []
    for m in modes:
        mf, mg, mfp, mgp = m.eval(xs)
        colnorms.append(np.linalg.norm(np.concatenate([mf, mg, mfp / s, mgp / s])))
    scaled_err = np.abs(ec.coeffs - target) * np.array(colnorms)
    ynorm = np.linalg.norm(np.concatenate(
        [combo.f, combo.g, combo.fp / s, combo.gp / s]))
    assert np.max(scaled_err) <= 1e-9 * ynorm


def test_decaying_solution_other_energy(gs_cubic, nl_cubic):
    assert sp.decaying_solution(5.0, gs_cubic, nl_cubic).residual <= 1e-8


def test_wronskian_constant_along_sweep(pm_cubic):
    """Drift of the bilinear invariant along the sweep stays at integrator level.

    The natural reference is the sweep start; the drift accumulated by x is
    bounded by the tolerance times the largest product magnitude met en
    route, which grows monotonically leftward.
    """
    lam = 2.0
    s1 = sweep_from_mode(pm_cubic, lam, 0)
    s2 = sweep_from_mode(pm_cubic, lam, 2)
    W = wronskian(s1, s2)
    scale = (np.abs(s1.fp * s2.f) + np.abs(s1.f * s2.fp)
             + np.abs(s1.gp * s2.g) + np.abs(s1.g * s2.gp))
    W_start = W[-1]                       # x_asym end, where the sweep begins
    run_scale = np.maximum.accumulate(scale[::-1])[::-1]
    assert np.max(np.abs(W - W_start) / np.maximum(run_scale, 1e-280)) <= 1e-10


def test_window_stability_under_enlargement(jost_cubic_2, pm_cubic):
    """Per-mode amplitudes move by at most 10x their fit error bars when the
    window grows by 20%."""
    win = sp.default_window(pm_cubic, 2.0, end=-1)
    lo, hi = win
    width = hi - lo
    win_big = (lo - 0.2 * width, hi)
    e1 = sp.expand_in_modes(jost_cubic_2, end=-1, window=win)
    e2 = sp.expand_in_modes(jost_cubic_2, end=-1, window=win_big)
    allowed = 10.0 * (e1.uncertainties + e2.uncertainties)
    drift = np.abs(e1.amplitudes - e2.amplitudes)
    assert np.all(drift <= np.maximum(allowed, 1e-12 * np.max(e1.amplitudes)))


def test_window_too_small_rejected(jost_cubic_2):
    # fewer than 12 samples cannot support the four-mode fit
    with pytest.raises(sp.DomainError):
        sp.expand_in_modes(jost_cubic_2, end=-1, window=(-8.005, -8.0))


def test_fit_stays_conditioned_with_derivative_rows(jost_cubic_2):
    # values plus derivatives pin all four modes even on short windows
    e = sp.expand_in_modes(jost_cubic_2, end=-1, window=(-8.10, -8.0))
    assert e.cond < 1e8


def test_decaying_solution_rejects_gap_and_negative(gs_cubic, nl_cubic):
    with pytest.raises(sp.DomainError):
        sp.decaying_solution(0.3, gs_cubic, nl_cubic)
    with pytest.raises(sp.DomainError):
        sp.decaying_solution(-2.0, gs_cubic, nl_cubic)
    for lam in (float("nan"), float("inf")):
        with pytest.raises(sp.DomainError, match="finite"):
            sp.decaying_solution(lam, gs_cubic, nl_cubic)
        with pytest.raises(sp.DomainError, match="finite"):
            sp.certify_lambda(gs_cubic, nl_cubic, lam)


def test_station_beyond_grid_rejected(nl_cubic):
    """A box too small for the potential to become negligible is refused."""
    gs_small = sp.solve_ground_state(nl_cubic, 1.0, R=14.0, h=2e-3)
    with pytest.raises(sp.DomainError, match="increase R"):
        sp.decaying_solution(2.0, gs_small, nl_cubic)


def _dop853_states(pm, lam, y0, i_from, i_to, k=1):
    """Reference sweep: adaptive DOP853 in short segments whose absolute
    tolerance floors at 1e-17 times the segment's entry state size, sampled
    at the nodes i_to, i_to + k, ..., i_from as the stride-k sweep is."""
    def rhs(x, y):
        a, b = pm.entries_at(x)
        f, g, fp, gp = y
        return (fp, gp, (pm.mu + lam - a) * f - b * g, (pm.mu - lam - a) * g - b * f)

    seg = k * max(int(round(3.0 / math.sqrt(pm.mu) / pm.h / k)), 8)
    out = np.empty((4, (i_from - i_to) // k + 1))
    out[:, -1] = y0
    y, hi = np.asarray(y0, dtype=float), i_from
    while hi > i_to:
        lo = max(hi - seg, i_to)
        sol = solve_ivp(rhs, (pm.x[hi], pm.x[lo]), y, method="DOP853", rtol=1e-12,
                        atol=1e-17 * float(np.max(np.abs(y))),
                        t_eval=pm.x[lo:hi + 1:k][::-1])
        assert sol.success, sol.message
        out[:, (lo - i_to) // k:(hi - i_to) // k + 1] = sol.y[:, ::-1]
        y, hi = sol.y[:, -1], lo
    return out


@pytest.mark.parametrize("lam", [1.0, 1.5, 2.0, 3.0, 5.0, 10.0, 30.0, 100.0])
def test_kaup_exact_decaying_solution(gs_cubic, nl_cubic, lam):
    """Kaup's closed form for the cubic profile sqrt(2) sech x at mu = 1, continued to
    k = i kappa and mapped by S (Phys. Rev. A 42, 5689, 1990): with kappa = sqrt(1 + lam)
    and N = (kappa + 1)^2 the decaying solution is f = e^{-kappa x} (kappa + tanh x)^2 / N,
    g = -e^{-kappa x} sech^2 x / N. So v0 = (kappa^2 + 1)/N, v0' = -kappa lam / N, and the
    growing coefficient at -inf is c_grow = -(f f' + g g')(0)/kappa = ((kappa-1)/(kappa+1))^2.
    Pinned on the fine sweep, on the certificate at +lam and on the direct record at -lam."""
    kappa = math.sqrt(1.0 + lam)
    N = (kappa + 1.0) ** 2
    v0, v0p = (kappa**2 + 1.0) / N, -kappa * lam / N
    sol = sp.decaying_solution(lam, gs_cubic, nl_cubic)
    i0 = int(np.argmin(np.abs(sol.x)))
    f, g, fp, gp = (getattr(sol, k)[i0] for k in ("f", "g", "fp", "gp"))
    c_grow = -(f * fp + g * gp) / kappa
    pos = sp.certify_lambda(gs_cubic, nl_cubic, lam)
    neg = sp.certify_lambda(gs_cubic, nl_cubic, -lam, method="direct")
    pairs = [(f - g, v0), (fp - gp, v0p), (c_grow, ((kappa - 1.0) / (kappa + 1.0)) ** 2),
             (pos.v0, v0), (pos.v0p, v0p), (-neg.v0, v0), (-neg.v0p, v0p)]
    for got, exact in pairs:
        assert abs(got - exact) <= 1e-10 * abs(exact), (got, exact)


def _kaup_v0_v0p(lam):
    kappa = math.sqrt(1.0 + lam)
    N = (kappa + 1.0) ** 2
    return (kappa**2 + 1.0) / N, -kappa * lam / N


@pytest.mark.parametrize("lam", [300.0, 600.0])
def test_kaup_certificate_at_high_energy(gs_cubic, nl_cubic, lam):
    """The certificate's sweep stops at its fit window, so it reaches lambda = 600, where
    a sweep to -R overflows; there v0 and v0' still match Kaup's closed form."""
    v0, v0p = _kaup_v0_v0p(lam)
    rec = sp.certify_lambda(gs_cubic, nl_cubic, lam)
    assert rec.verdict == "no-embedded-eigenvalue"
    assert abs(rec.v0 - v0) <= 1e-10 * abs(v0)
    assert abs(rec.v0p - v0p) <= 1e-10 * abs(v0p)


def test_large_lambda_certifies_or_refuses(gs_cubic, nl_cubic):
    """From lambda = 600 to 1200 every record on the default cubic grid either certifies
    and matches Kaup's v0 and v0', or is inconclusive because the sweep was refused with
    a DomainError before anything could overflow; no RuntimeWarning is raised."""
    lams = np.arange(600.0, 1200.0 + 1.0, 50.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        records = sp.scan_embedded(gs_cubic, nl_cubic, lams).records
    refused = []
    for rec in records:
        if rec.error is None:
            v0, v0p = _kaup_v0_v0p(rec.lam)
            assert rec.verdict == "no-embedded-eigenvalue", rec.lam
            assert abs(rec.v0 - v0) <= 1e-10 * abs(v0), rec.lam
            assert abs(rec.v0p - v0p) <= 1e-10 * abs(v0p), rec.lam
        else:
            assert rec.verdict == "inconclusive" and rec.error.startswith("DomainError")
            refused.append(rec.lam)
    assert refused and refused == [lam for lam in lams if lam >= refused[0]]
    assert records[0].error is None


@pytest.mark.parametrize("lam,method", [(1.0, "reflect"), (2.0, "reflect"),
                                        (10.0, "reflect"), (-3.0, "direct")])
def test_sweep_matches_dop853_reference(pm_cubic, monkeypatch, lam, method):
    """The fixed-step sweep agrees with an adaptive DOP853 sweep on the certificate's witnesses."""
    fast = _certify_potential(pm_cubic, lam, method=method)
    residual = sp_jost._sweep_decaying(pm_cubic, lam if method == "direct" else abs(lam)).residual
    monkeypatch.setattr(sp_jost, "_sweep_states", _dop853_states)
    ref = _certify_potential(pm_cubic, lam, method=method)
    for key in ("v0", "v0p", "mismatch"):
        assert abs(getattr(fast, key) - getattr(ref, key)) <= 1e-9 * abs(getattr(ref, key)), key
    assert fast.verdict == ref.verdict
    assert residual <= 1e-8


def test_blocked_chain_matches_sequential_product(pm_cubic, monkeypatch):
    """Block totals, entry states and in-block states reproduce step-by-step chaining,
    across propagator chunks and a padded last block, one step per cell and per 4 cells."""
    monkeypatch.setattr(sp_jost, "PROPAGATOR_CHUNK", 97)
    i_from, i_to, lam = 31000, 30000, 3.0        # 1000 or 250 steps: blocks of 32 or 16,
    y0 = np.array([1.0, -0.5, 0.25, 2.0])        # the last one padded
    for k in (1, 4):
        blocked = sp_jost._sweep_states(pm_cubic, lam, y0, i_from, i_to, k)
        T = sp_jost._step_propagators(pm_cubic, lam, i_to, i_from, k)
        seq = np.empty((4, (i_from - i_to) // k + 1))
        seq[:, -1] = y0
        for i in range(len(T) - 1, -1, -1):
            seq[:, i] = T[i] @ seq[:, i + 1]
        assert np.max(np.abs(blocked - seq)) <= 1e-13 * np.max(np.abs(seq)), k


def _dense_lawson(pm, lam, lo, hi, k=1):
    """Reference: the Lawson RK4 step matrices over k cells from dense 4x4 products, shape
    ((hi-lo)/k, 4, 4); the potential at a step's midpoint is read through entries_at."""
    def free(s):
        E = np.zeros(s.shape + (4, 4))
        for c, d in enumerate((pm.mu + lam, pm.mu - lam)):
            r = math.sqrt(abs(d))
            if d > 0:
                C, S = np.cosh(r * s), np.sinh(r * s) / r
            elif d < 0:
                C, S = np.cos(r * s), np.sin(r * s) / r
            else:
                C, S = 1.0, s
            E[:, c, c] = E[:, c + 2, c + 2] = C
            E[:, c, c + 2] = S
            E[:, c + 2, c] = d * S
        return E

    def potential(a, b):
        P = np.zeros(a.shape + (4, 4))
        P[:, 2, 0] = P[:, 3, 1] = -a
        P[:, 2, 1] = P[:, 3, 0] = -b
        return P

    s = pm.x[lo:hi:k] - pm.x[lo + k:hi + 1:k]
    Eh, Ef = free(0.5 * s), free(s)
    s = s[:, None, None]
    am, bm = pm.entries_at(0.5 * (pm.x[lo:hi:k] + pm.x[lo + k:hi + 1:k]))
    P0, Pm = potential(pm.a[lo + k:hi + 1:k], pm.b[lo + k:hi + 1:k]), potential(am, bm)
    K2 = Pm @ Eh @ (np.eye(4) + 0.5 * s * P0)
    K3 = Pm @ (Eh + 0.5 * s * K2)
    K4 = potential(pm.a[lo:hi:k], pm.b[lo:hi:k]) @ (Ef + s * (Eh @ K3))
    return Ef + s / 6.0 * (Ef @ P0 + 2.0 * (Eh @ (K2 + K3)) + K4)


@pytest.mark.parametrize("lam", [1.0, 2.0, 10.0, -3.0])
@pytest.mark.parametrize("well", [False, True])
def test_step_propagators_match_dense_lawson(pm_cubic, lam, well):
    """The 2x2-block step matrices equal the dense 4x4 Lawson RK4 formula, at the
    threshold, above it, far above it and on the direct negative branch, for a
    coupled (cubic) and a decoupled (b = 0) potential, one step per cell (midpoints
    from the local cubic) and per 4 cells (midpoints at nodes)."""
    pm = sp.decoupled_well_potential(1.0, 6.0, R=25.0, h=2e-3) if well else pm_cubic
    mid = (len(pm.x) - 1) // 2
    lo, hi = mid - 3000, mid + 1500                 # across the well
    for k in (1, 4):
        T = sp_jost._step_propagators(pm, lam, lo, hi, k)
        ref = _dense_lawson(pm, lam, lo, hi, k)
        assert T.shape == ref.shape == ((hi - lo) // k, 4, 4)
        assert np.max(np.abs(T - ref)) <= 1e-14 * np.max(np.abs(ref)), k


def test_entries_at_nodes_are_samples(pm_cubic):
    """At interior nodes, the first and last included, the local cubic returns the samples."""
    a, b = pm_cubic.entries_at(pm_cubic.x[1:-1])
    assert np.array_equal(a, pm_cubic.a[1:-1]) and np.array_equal(b, pm_cubic.b[1:-1])


def test_midpoint_entries_fourth_order():
    """The midpoints of a depth-6 sech^2 well match the closed form, with the h^4 rate."""
    err = {}
    for h in (2e-3, 1e-3):
        pm = sp.decoupled_well_potential(1.0, 6.0, R=25.0, h=h)
        am, bm = pm.midpoint_entries
        xm = 0.5 * (pm.x[:-1] + pm.x[1:])
        err[h] = np.max(np.abs(am - 6.0 / np.cosh(xm) ** 2))
        assert not np.any(bm)
    assert err[1e-3] <= 1e-11
    assert err[2e-3] >= 12.0 * err[1e-3]


def test_residual_reads_potential_at_nodes(pm_cubic, jost_cubic_2):
    """entries_at equals the samples at the nodes, so the residual read off pm.a, pm.b
    is exactly the one read through entries_at, also for a run of nodes at an offset."""
    sol, i, j = jost_cubic_2, 12345, 23456
    x = sol.x[i:j]
    a, b = pm_cubic.entries_at(x)
    spline_read = sp.PotentialMatrix(x=x, mu=pm_cubic.mu, a=a, b=b)
    args = (sol.lam, x, sol.f[i:j], sol.g[i:j], sol.fp[i:j], sol.gp[i:j])
    res = sp_jost._rel_residual(pm_cubic, *args)
    assert res == sp_jost._rel_residual(spline_read, *args)
    assert res <= 1e-8


def test_sweep_overflow_is_inconclusive(gs_cubic, nl_cubic):
    """A sweep whose growth overflows double precision fails loudly instead of
    scoring inf/nan samples, so the scan records it as inconclusive. The full sweep
    overflows at lambda = 600; the certificate's sweep stops at its fit window, so its
    energy is 1200, where kappa * x_asym = 607 is refused up front."""
    with pytest.raises(sp.DomainError):
        sp.decaying_solution(600.0, gs_cubic, nl_cubic)
    (rec,) = sp.scan_embedded(gs_cubic, nl_cubic, [1200.0]).records
    assert rec.verdict == "inconclusive" and rec.error.startswith("DomainError")


def test_decaying_solution_accepts_rtol(pm_cubic):
    """rtol is accepted, as benchmark probes pass it, and leaves the fixed-step sweep unchanged."""
    sol = sp.decaying_solution(3.0, potential=pm_cubic, rtol=sp_jost.CERT_SWEEP_RTOL)
    plain = sp.decaying_solution(3.0, potential=pm_cubic)
    for key in ("f", "g", "fp", "gp"):
        assert np.array_equal(getattr(sol, key), getattr(plain, key))
    assert sol.residual <= 1e-8


def test_asym_deviation_is_neglected_potential(pm_cubic):
    """asym_deviation is the sup of max(|a|, |b|) beyond the station, zero without a potential."""
    sol = sp_jost._sweep_decaying(pm_cubic, 2.0)
    beyond = np.abs(sol.x) >= sol.x_asym
    sup = np.max(np.maximum(np.abs(pm_cubic.a), np.abs(pm_cubic.b))[beyond])
    assert sol.asym_deviation == sup
    assert 0.0 < sol.asym_deviation <= sp_jost.V_NEGLIGIBLE
    pm0 = sp.decoupled_well_potential(1.0, 0.0, R=25.0, h=2e-3)
    assert sp.decaying_solution(2.0, potential=pm0).asym_deviation == 0.0
