import dataclasses

import numpy as np
import pytest
from scipy.linalg import eig

import solispec as sp
from oracles import apply_L, assemble_matrix


def grid_l2(arr, h):
    return np.sqrt(h) * np.linalg.norm(arr)


def rel_residual(pm, w, h):
    out = sp.apply_H_potential(pm, w)
    num = grid_l2(np.concatenate([out.f, out.g]), h)
    den = grid_l2(np.concatenate([w.f, w.g]), h)
    return num / den


def fourth_derivative_scale(y, h):
    """Measured |y''''| / 12 sup, the leading stencil-error coefficient."""
    d4 = (y[:-4] - 4 * y[1:-3] + 6 * y[2:-2] - 4 * y[3:-1] + y[4:]) / h**4
    return np.max(np.abs(d4)) / 12.0


def test_potential_values_cubic_origin(pm_cubic, gs_cubic):
    """Closed form at x = 0: Q^2 = 2, F = 2, F' = 1 so a = 4, b = 2."""
    i0 = (len(gs_cubic.x) - 1) // 2
    assert pm_cubic.a[i0] == pytest.approx(4.0, abs=1e-9)
    assert pm_cubic.b[i0] == pytest.approx(2.0, abs=1e-9)


def test_potential_vanishes_with_profile(nl_cubic):
    a, b = sp.potential_entries(nl_cubic, np.zeros(7))
    assert np.all(a == 0.0) and np.all(b == 0.0)


def test_potential_trace_free(pm_cubic):
    # V = [[a, b], [-b, -a]] is trace free by construction at every sample
    assert np.max(np.abs(pm_cubic.a + (-pm_cubic.a))) == 0.0


def test_potential_decay_rate_at_least_twice_sqrt_mu(pm_cubic):
    x = pm_cubic.x
    mask = (x >= 5.0) & (x <= 12.0)
    mag = np.maximum(np.abs(pm_cubic.a[mask]), np.abs(pm_cubic.b[mask]))
    rate = -np.polyfit(x[mask], np.log(mag), 1)[0]
    assert rate >= 2.0 * np.sqrt(pm_cubic.mu) * (1.0 - 1e-3)


def test_kernel_identities_second_order(gs_cubic, pm_cubic):
    h = gs_cubic.h
    for w, y in ((sp.GridField2(gs_cubic.Q, -gs_cubic.Q), gs_cubic.Q),
                 (sp.GridField2(gs_cubic.Qp, gs_cubic.Qp), gs_cubic.Qp)):
        rel = rel_residual(pm_cubic, w, h)
        scale = fourth_derivative_scale(y, h) / np.max(np.abs(y))
        assert rel <= 5.0 * h**2 * scale


def test_kernel_residual_halves_by_four(nl_cubic, gs_cubic):
    # R = 30 keeps the Dirichlet-wall contribution below the stencil error
    gs1 = sp.solve_ground_state(nl_cubic, 1.0, h=2e-3)
    gs2 = gs_cubic
    for pick in (lambda g: sp.GridField2(g.Q, -g.Q), lambda g: sp.GridField2(g.Qp, g.Qp)):
        r1 = rel_residual(sp.potential_V(gs1, nl_cubic), pick(gs1), gs1.h)
        r2 = rel_residual(sp.potential_V(gs2, nl_cubic), pick(gs2), gs2.h)
        assert 2**1.4 <= r1 / r2 <= 2**2.6


def test_apply_L_kernels(gs_cubic, pm_cubic):
    h = gs_cubic.h
    lm = apply_L(pm_cubic, "-", gs_cubic.Q)
    lp = apply_L(pm_cubic, "+", gs_cubic.Qp)
    assert grid_l2(lm, h) / grid_l2(gs_cubic.Q, h) <= 5e-6
    assert grid_l2(lp, h) / grid_l2(gs_cubic.Qp, h) <= 5e-6


def test_swap_symmetry_exact(pm_cubic):
    rng = np.random.default_rng(7)
    w = sp.GridField2(rng.standard_normal(len(pm_cubic.x)),
                      rng.standard_normal(len(pm_cubic.x)))
    hw = sp.apply_H_potential(pm_cubic, w)
    hsw = sp.apply_H_potential(pm_cubic, sp.GridField2(w.g, w.f))
    assert np.array_equal(hsw.f, -hw.g)
    assert np.array_equal(hsw.g, -hw.f)


def test_swap_symmetry_exact_on_matrix(gs_cubic_coarse, nl_cubic):
    import scipy.sparse as sps
    H = assemble_matrix(sp.potential_V(gs_cubic_coarse, nl_cubic))
    n = H.shape[0] // 2
    perm = np.concatenate([np.arange(n, 2 * n), np.arange(n)])
    S = sps.identity(2 * n, format="csr")[perm]
    assert (S @ H @ S + H).nnz == 0


def test_rows_reduce_to_scalar_operators(gs_cubic, pm_cubic):
    """Row sum/difference of H equals -L_minus v and -L_plus u, identically."""
    rng = np.random.default_rng(3)
    f = rng.standard_normal(len(gs_cubic.x))
    g = rng.standard_normal(len(gs_cubic.x))
    hw = sp.apply_H_potential(pm_cubic, sp.GridField2(f, g))
    scale = np.max(np.abs(hw.f)) + np.max(np.abs(hw.g))
    lm = apply_L(pm_cubic, "-", f - g)
    lp = apply_L(pm_cubic, "+", f + g)
    assert np.max(np.abs(hw.f + hw.g + lm)) <= 1e-13 * scale
    assert np.max(np.abs(hw.f - hw.g + lp)) <= 1e-13 * scale


def test_matrix_matches_matrix_free(gs_cubic_coarse, nl_cubic):
    pm = sp.potential_V(gs_cubic_coarse, nl_cubic)
    H = assemble_matrix(pm)
    rng = np.random.default_rng(11)
    vec = rng.standard_normal(H.shape[0])
    n = len(pm.x)
    out = sp.apply_H_potential(pm, sp.GridField2(vec[:n], vec[n:]))
    assert np.allclose(H @ vec, np.concatenate([out.f, out.g]), rtol=1e-12, atol=1e-9)


def test_discrete_eigenvalues_kernel_and_symmetry(gs_cubic_coarse, nl_cubic):
    pairs = sp.discrete_eigenvalues(gs_cubic_coarse, nl_cubic)
    lams = np.array([p.lam for p in pairs])
    h = gs_cubic_coarse.h
    # discretization splits the double kernel block by O(h^2)
    assert np.sum(np.abs(lams) <= 2 * h) >= 2
    # spectrum symmetric under lambda -> -lambda (swap conjugation)
    for lam in lams:
        assert np.min(np.abs(lams + lam)) <= 1e-6 + 1e-8 * abs(lam)
    # every reported pair is inside the gap with an h^2-scale residual
    for p in pairs:
        assert abs(p.lam) < gs_cubic_coarse.mu
        assert p.residual <= 10 * h


def test_kernel_vectors_span_expected_directions(gs_cubic_coarse, nl_cubic):
    pairs = sp.discrete_eigenvalues(gs_cubic_coarse, nl_cubic)
    h = gs_cubic_coarse.h
    near_zero = [p for p in pairs if abs(p.lam) <= 2 * h]
    assert len(near_zero) >= 2
    gs = gs_cubic_coarse
    basis = np.column_stack([np.concatenate([p.w.f, p.w.g]) for p in near_zero])
    q, _ = np.linalg.qr(basis)
    for t in (np.concatenate([gs.Q, -gs.Q]), np.concatenate([gs.Qp, gs.Qp])):
        t = t / np.linalg.norm(t)
        captured = np.linalg.norm(q.T @ t)
        assert captured >= 0.99


def test_window_outside_gap_rejected(gs_cubic_coarse, nl_cubic):
    with pytest.raises(sp.DomainError):
        sp.discrete_eigenvalues(gs_cubic_coarse, nl_cubic, window=(-0.5, 1.5))


def test_grid_mismatch_rejected(pm_cubic):
    with pytest.raises(sp.GridMismatchError):
        sp.apply_H_potential(pm_cubic, sp.GridField2(np.ones(5), np.ones(5)))


def test_sparse_path_finds_kernel(nl_cubic):
    gs = sp.solve_ground_state(nl_cubic, 1.0, R=12.0, h=0.005, tol=1e-9)
    pairs = sp.discrete_eigenvalues(gs, nl_cubic, k=8)
    lams = np.array([p.lam for p in pairs])
    assert np.sum(np.abs(lams) <= 2 * gs.h) >= 2


@pytest.mark.parametrize("nl", [sp.Nonlinearity.power(1.0), sp.Nonlinearity.saturable(0.5)],
                         ids=["cubic", "saturable"])
def test_sector_solve_matches_dense_eig_of_H(nl):
    """Independent cross-check against the dense 2n x 2n eigenvalues of H."""
    gs = sp.solve_ground_state(nl, 1.0, R=12.0, h=0.12, tol=1e-9)
    assert len(gs.x) == 201
    pairs = sp.discrete_eigenvalues(gs, nl)
    vals = eig(assemble_matrix(sp.potential_V(gs, nl)).toarray(), right=False)
    real = vals.real[(vals.imag == 0) & (np.abs(vals.real) <= 0.98 * gs.mu)]
    assert real.size >= 2
    for lam in real:
        same_sign = [abs(p.lam - lam) for p in pairs if np.sign(p.lam) == np.sign(lam)]
        assert min(same_sign) <= 1e-8
    for p in pairs:
        assert np.min(np.abs(vals - complex(p.lam, p.imag))) <= 1e-8
        mirror = 1.0 if p.parity == "even" else -1.0
        assert p.parity in ("even", "odd")
        assert np.array_equal(p.w.f[::-1], mirror * p.w.f)
        assert np.array_equal(p.w.g[::-1], mirror * p.w.g)


def test_asymmetric_profile_rejected(nl_cubic):
    gs = sp.solve_ground_state(nl_cubic, 1.0, R=12.0, h=0.12, tol=1e-9)
    Q = gs.Q.copy()
    Q[(len(gs.x) - 1) // 2 + 3] *= 1.0 + 1e-6
    with pytest.raises(sp.DomainError):
        sp.discrete_eigenvalues(dataclasses.replace(gs, Q=Q), nl_cubic)


def test_vakhitov_kolokolov_pair_reported():
    """L2-supercritical power p = 2.5 at mu = 1: H has the unstable pair +-1.647i."""
    nl = sp.Nonlinearity.power(2.5)
    gs = sp.solve_ground_state(nl, 1.0, R=12.0, h=0.04, tol=1e-9)
    assert len(gs.x) == 601
    pairs = sp.discrete_eigenvalues(gs, nl)
    unstable = [p for p in pairs if abs(p.imag - 1.647) <= 0.005]
    assert len(unstable) == 1
    p = unstable[0]
    assert p.lam == 0.0 and p.parity == "even" and p.residual <= 1e-6
    # the kernel's split images stay inside the band: the odd one (about 0.105i
    # on this grid) is no instability even though it lies beyond 2h
    assert all(q.imag <= 2 * gs.h for q in pairs if q is not p)
    hw = sp.apply_H_potential(sp.potential_V(gs, nl), p.w)
    assert np.linalg.norm(np.concatenate([hw.f - 1j * p.imag * p.w.f,
                                          hw.g - 1j * p.imag * p.w.g])) <= 1e-6
