from types import SimpleNamespace

import numpy as np
import pytest

from muntzlab.errors import ConfigError
from muntzlab.exponents import arithmetic, squares
from muntzlab.minimax import chebyshev_T
from muntzlab.remezlab import (
    classical_remez_bound,
    default_set_family,
    density_probe,
    growth_ratios,
    named_target,
    remez_constant_estimate,
    remez_trend,
    verify_classical_extremal,
)
from muntzlab.sets import fat_cantor, normalize


def test_classical_bound_values():
    # [DERIVED] T_1(3) = 3, T_2(3) = 17, T_2(7) = 97, T_3(7) = 1351
    assert classical_remez_bound(1, 0.5) == pytest.approx(3.0)
    assert classical_remez_bound(2, 0.5) == pytest.approx(17.0)
    assert classical_remez_bound(2, 0.25) == pytest.approx(97.0)
    assert classical_remez_bound(3, 0.25) == pytest.approx(1351.0)
    assert classical_remez_bound(0, 0.7) == pytest.approx(1.0)
    # s = 1: constraint is all of [0, 1], no growth possible
    assert classical_remez_bound(5, 1.0) == pytest.approx(1.0)
    with pytest.raises(ConfigError):
        classical_remez_bound(3, 0.0)
    with pytest.raises(ConfigError):
        classical_remez_bound(3, 1.5)


def test_verify_classical_extremal_small_cases():
    for n, s in [(1, 0.5), (2, 0.5), (3, 0.25)]:
        rep = verify_classical_extremal(n, s, mesh=1e-3)
        assert rep.predicted == pytest.approx(chebyshev_T(n, (2 - s) / s))
        assert rep.relative_error < 1e-2


def test_verify_classical_mesh_too_coarse():
    with pytest.raises(ConfigError,
                       match="grid of 2 points too small for dimension 6"):
        verify_classical_extremal(5, 0.5, mesh=0.5)


def test_default_set_family():
    fam = default_set_family(0.25, 0.5)
    assert len(fam) == 3
    assert fam[0].intervals == ((0.75, 1.0),)
    assert fam[1].intervals == ((0.5, 0.75),)
    assert fam[2] == fat_cantor(3, carrier=(0.5, 1.0))
    for A in fam:
        assert A.measure() >= 0.25 - 1e-12
        assert A.lo() >= 0.5 and A.hi() <= 1.0
    with pytest.raises(ConfigError, match=r"must lie in \[rho, 1\]"):
        default_set_family(0.6, 0.5)  # [rho, rho+s] would spill past 1


def test_remez_constant_estimate_family_validation():
    seq = arithmetic(1.0)
    with pytest.raises(ConfigError):
        remez_constant_estimate(seq, 2, 0.25, 0.5, [], 1e-2)
    with pytest.raises(ConfigError):
        # set reaches below rho
        remez_constant_estimate(seq, 2, 0.25, 0.5,
                                [normalize([[0.4, 0.7]])], 1e-2)
    with pytest.raises(ConfigError):
        # set too small in measure
        remez_constant_estimate(seq, 2, 0.25, 0.5,
                                [normalize([[0.8, 0.9]])], 1e-2)


def test_remez_constant_dominated_by_endpoint_interval():
    # [DERIVED] for full polynomial spans, the worst admissible position
    # is [1-s, 1] with query 0 and the constant is the classical bound
    seq = arithmetic(1.0)
    fam = default_set_family(0.25, 0.5)
    est = remez_constant_estimate(seq, 2, 0.25, 0.5, fam, 1e-3)
    assert est.c_value == pytest.approx(97.0, rel=1e-2)
    assert est.attaining_set == 0
    assert est.attaining_query == 0.0


def test_remez_trend_nondecreasing_in_n():
    seq = squares()
    fam = default_set_family(0.25, 0.5)
    trend = remez_trend(seq, 4, 0.25, 0.5, fam, 1e-2)
    assert len(trend) == 5
    for n, e in enumerate(trend):
        assert repr(e) == repr(remez_constant_estimate(seq, n, 0.25, 0.5,
                                                       fam, 1e-2))
    values = [e.c_value for e in trend]
    assert values[0] == pytest.approx(1.0, abs=1e-9)
    for c0, c1 in zip(values, values[1:]):
        assert c1 >= c0 - 1e-9


def test_remez_constant_estimate_refuses_a_mesh_too_coarse():
    # a family grid of 2 points cannot pin down dimension 3 (squares, n = 2):
    # growth_sweep refuses it
    fam = [normalize([[0.5, 1.0]])]
    remez_constant_estimate(squares(), 1, 0.25, 0.5, fam, 0.5)
    with pytest.raises(ConfigError,
                       match="grid of 2 points too small for dimension 3"):
        remez_constant_estimate(squares(), 2, 0.25, 0.5, fam, 0.5)


def test_growth_ratios():
    trend = [SimpleNamespace(c_value=c) for c in (1.0, 3.0, 12.0)]
    ratios = growth_ratios(trend)
    assert ratios == [(0, 3.0), (1, 4.0)]


def test_named_targets():
    x = np.array([0.0, 0.25, 0.5, 1.0])
    assert named_target("abs2x1")(x) == pytest.approx([1.0, 0.5, 0.0, 1.0])
    assert named_target("runge")(0.5) == pytest.approx(1.0)
    assert named_target("monomial(2)")(x) == pytest.approx(x ** 2)
    assert named_target("monomial(0.5)")(np.array([0.25])) == pytest.approx([0.5])
    with pytest.raises(ConfigError):
        named_target("nope")
    with pytest.raises(ConfigError):
        named_target("monomial(-1)")
    # x ** inf is a step, not a monomial; 1e400 reads as inf
    for name in ("monomial(inf)", "monomial(1e400)", "monomial(nan)"):
        with pytest.raises(ConfigError, match="exponent must be finite"):
            named_target(name)


def test_a_target_is_a_name():
    # a callable, or anything else that is not a string, is a ConfigError
    # before any grid is built
    for target in (lambda x: x ** 3, None, 2.0):
        with pytest.raises(ConfigError, match="target must be a name"):
            density_probe(target, arithmetic(1.0), normalize([[0.0, 1.0]]),
                          [3], 1e-2)


def test_density_probe_errors_decrease_for_dense_sequence():
    res = density_probe("abs2x1", arithmetic(1.0),
                        normalize([[0.0, 1.0]]), [2, 4, 8], 1e-2)
    errs = [e for _, e in res.errors_by_n]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 0.05  # |2x-1| has a kink; uniform error decays ~ 1/n


def test_density_probe_monotone_in_n():
    res = density_probe("runge", squares(),
                        normalize([[0.25, 0.75]]), [1, 2, 3, 4, 5], 1e-2)
    errs = [e for _, e in res.errors_by_n]
    for e0, e1 in zip(errs, errs[1:]):
        assert e1 <= e0 + 1e-9


def test_density_probe_ignores_singletons():
    seq = arithmetic(1.0)
    A1 = normalize([[0.0, 0.5]])
    A2 = normalize([[0.0, 0.5], [0.9, 0.9]])
    r1 = density_probe("runge", seq, A1, [2, 4], 1e-3)
    r2 = density_probe("runge", seq, A2, [2, 4], 1e-3)
    for (n1, e1), (n2, e2) in zip(r1.errors_by_n, r2.errors_by_n):
        assert n1 == n2
        assert e1 == pytest.approx(e2, abs=1e-12)


def test_density_probe_input_validation():
    seq = arithmetic(1.0)
    with pytest.raises(ConfigError):
        density_probe("abs2x1", seq, normalize([[0.0, 1.0]]), [4, 2], 1e-2)
    with pytest.raises(ConfigError):
        density_probe("abs2x1", seq, normalize([[0.3, 0.3]]), [2], 1e-2)


def test_remez_constant_singular_mp_system_is_a_conditioning_error():
    # squares at n = 30 reach the 60-digit route, whose reference system is
    # singular to 60 digits; that is a ConditioningError, not ZeroDivisionError
    from muntzlab.errors import ConditioningError

    with pytest.raises(ConditioningError, match=r"\(mp\)"):
        remez_constant_estimate(squares(), 30, 0.25, 0.5,
                                default_set_family(0.25, 0.5), 1e-3)
