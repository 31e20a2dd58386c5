import numpy as np
import pytest
from scipy.integrate import trapezoid

import solispec as sp
from solispec import Nonlinearity, nonlinearity


ALL_FAMILIES = [
    Nonlinearity.power(1.0),
    Nonlinearity.power(2.0),
    Nonlinearity.power(1.5),
    Nonlinearity.cubic_quintic(0.1),
    Nonlinearity.saturable(0.5),
    Nonlinearity.tabulated(np.linspace(0.0, 12.0, 200), np.linspace(0.0, 12.0, 200) ** 1.3),
]


def test_power_p1_at_zero():
    F, dF, G = Nonlinearity.power(1.0).eval(0.0)
    assert (F, dF, G) == (0.0, 1.0, 0.0)


def test_power_p1_at_four():
    F, dF, G = Nonlinearity.power(1.0).eval(4.0)
    assert (F, dF, G) == (4.0, 1.0, 8.0)


def test_cubic_quintic_closed_form_against_fd_oracle():
    nl = Nonlinearity.cubic_quintic(0.1)
    F, dF, G = nl.eval(2.0)
    assert F == pytest.approx(2.0 - 0.1 * 4.0, abs=0)
    # derivative oracle: centered difference of F
    h = 1e-6
    fd = (nl.F(2.0 + h) - nl.F(2.0 - h)) / (2 * h)
    assert dF == pytest.approx(fd, abs=5e-10)
    # antiderivative oracle: fine trapezoid quadrature of F on [0, 2]
    s = np.linspace(0.0, 2.0, 20001)
    quad = trapezoid(nl.F(s), s)      # np.trapezoid needs numpy >= 2.0, the floor is 1.24
    assert G == pytest.approx(quad, abs=1e-8)


@pytest.mark.parametrize("nl", ALL_FAMILIES, ids=lambda n: n.family + str(n.params))
def test_derivative_matches_centered_difference(nl):
    rng = np.random.default_rng(42)
    s = rng.uniform(0.01, 10.0, size=100)
    h = 1e-5
    fd = (nl.F(s + h) - nl.F(s - h)) / (2 * h)
    scale = 1.0 + np.max(np.abs(nl.dF(s)))
    assert np.max(np.abs(fd - nl.dF(s))) <= 1e-6 * scale


@pytest.mark.parametrize("nl", ALL_FAMILIES, ids=lambda n: n.family + str(n.params))
def test_antiderivative_matches_trapezoid(nl):
    s = np.linspace(0.0, 10.0, 40001)
    quad = np.concatenate([[0.0], np.cumsum((nl.F(s[1:]) + nl.F(s[:-1])) / 2 * np.diff(s))])
    scale = 1.0 + np.max(np.abs(nl.G(s)))
    assert np.max(np.abs(quad - nl.G(s))) <= 1e-6 * scale


@pytest.mark.parametrize("nl", ALL_FAMILIES, ids=lambda n: n.family + str(n.params))
def test_f_and_g_vanish_at_zero(nl):
    assert nl.F(0.0) == 0.0
    assert nl.G(0.0) == 0.0


def test_all_families_cover_every_family():
    """The closed forms are checked only by the tests above, so each family is in them."""
    assert sorted({nl.family for nl in ALL_FAMILIES}) == sorted(nonlinearity.FAMILIES)


def test_derivative_convergence_is_second_order():
    """The centered-difference error of F' shrinks ~4x when h halves."""
    nl = Nonlinearity.saturable(0.5)
    s = 3.0
    errs = []
    for h in (1e-3, 5e-4):
        fd = (nl.F(s + h) - nl.F(s - h)) / (2 * h)
        errs.append(abs(fd - nl.dF(s)))
    assert 3.0 <= errs[0] / errs[1] <= 5.0


def test_negative_s_rejected():
    with pytest.raises(sp.DomainError):
        Nonlinearity.power(1.0).F(-0.5)


def test_tabulated_out_of_range_rejected():
    nl = Nonlinearity.tabulated([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 2.0, 3.0])
    with pytest.raises(sp.ExtrapolationError):
        nl.F(4.0)


def test_tabulated_must_vanish_at_zero():
    with pytest.raises(sp.DomainError):
        Nonlinearity.tabulated([0.0, 1.0, 2.0, 3.0], [0.1, 1.0, 2.0, 3.0])


@pytest.mark.parametrize("column", ["s", "F"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_tabulated_non_finite_entry_rejected(column, bad):
    table = {"s": [0.0, 1.0, 2.0, 3.0], "F": [0.0, 1.0, 2.0, 3.0]}
    table[column][2] = bad
    with pytest.raises(sp.DomainError, match="finite"):
        Nonlinearity.tabulated(table["s"], table["F"])


def test_from_config_round_trip():
    nl = Nonlinearity.from_config({"family": "saturable", "params": [0.5]})
    assert nl.family == "saturable"
    for nl in ALL_FAMILIES:
        assert Nonlinearity.from_config(nl.to_config()) == nl


def test_unknown_family_rejected():
    with pytest.raises(sp.DomainError):
        Nonlinearity.from_config({"family": "exotic"})


def test_vector_and_scalar_evaluation_agree():
    nl = Nonlinearity.saturable(0.5)
    s = np.array([0.0, 0.7, 3.1])
    vec = nl.F(s)
    assert vec.shape == s.shape
    assert vec[1] == nl.F(0.7)
    assert isinstance(nl.F(0.7), float)
