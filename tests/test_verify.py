import json
import warnings

import numpy as np
import pytest

from fracfield.analytic import make_delta_pair
from fracfield.errors import ConfigError
from fracfield.fields import cutoff, gaussian, gaussian_vector
from fracfield.quadrature import QuadratureConfig
from fracfield.verify import (
    TolerancePolicy,
    VerifyReport,
    check_ball_ibp,
    check_duality,
    check_global_ibp,
    check_leibniz_pointwise,
    check_semigroup_spectral,
    check_symbol_factorization,
    check_zero_mass_nl,
    decay_scan,
    run_suite,
)


def test_policy_branches():
    pol = TolerancePolicy(abs_tol=1e-3, rel_tol=1e-2, est_factor=5.0)
    ok, branch = pol.decide(abs_err=5e-4, scale=1.0, est=1e-5)
    assert ok and branch == "rel"
    ok, branch = pol.decide(abs_err=5e-2, scale=1.0, est=1e-5)
    assert not ok
    ok, branch = pol.decide(abs_err=4e-2, scale=1.0, est=1e-2)
    assert ok and branch == "est"


def test_report_serialization_roundtrip():
    r = VerifyReport(name="x", params={"alpha": 0.5}, lhs=1.0, rhs=1.001,
                     abs_err=1e-3, rel_err=1e-3, est_err=1e-4, passed=True,
                     seconds=0.1, branch="rel", notes="n")
    rec = json.loads(r.to_json_line())
    assert rec["name"] == "x"
    assert rec["pass"] is True
    assert set(rec) >= {"name", "params", "lhs", "rhs", "abs_err", "rel_err",
                        "est_err", "pass", "seconds"}


def test_check_duality_zero_test_function(cfg):
    dp = make_delta_pair((0.0, 0.0), (1.0, 0.0), 0.5)
    zero = gaussian((0.0, 0.0)).scaled(0.0)
    rep = check_duality(dp, zero, 0.5, cfg)
    assert rep.passed
    assert rep.lhs == pytest.approx(0.0, abs=1e-8)
    assert rep.rhs == 0.0


def test_leibniz_trivial_cases(cfg):
    # g == 1 on a neighborhood of supp F: the four-term identity collapses
    # pointwise (gF = F there), residual is quadrature noise only
    g_one = cutoff(3.0, 2)
    F = gaussian_vector((0.2, 0.0), width=0.5, amplitudes=(1.0, 0.5))
    pts = np.array([[0.2, 0.1], [0.5, -0.3]])
    rep = check_leibniz_pointwise(g_one, F, 0.5, pts, cfg)
    assert rep.passed
    # F == 0: all four terms vanish
    zeroF = gaussian_vector((0.0, 0.0), amplitudes=(0.0, 0.0))
    rep2 = check_leibniz_pointwise(gaussian((0.0, 0.0)), zeroF, 0.5, pts, cfg)
    assert rep2.lhs == pytest.approx(0.0, abs=1e-12)


def test_zero_mass_constant_g(cfg, gauss_vec2d):
    # a true constant has identically-zero increments: the integral is exact 0
    from fracfield.fields import ScalarField

    g_const = ScalarField(n=2, fn=lambda p: np.ones(p.shape[:-1]), decay=(0.0, 1.0))
    rep = check_zero_mass_nl(g_const, gauss_vec2d, 0.5, cfg)
    assert rep.passed
    assert rep.lhs == pytest.approx(0.0, abs=1e-13)


def test_zero_mass_symmetric_roles(cfg):
    # the integrand is (Da)(Db).(y-x)k: swapping which profile carries the
    # scalar vs the vector increment leaves the integral unchanged
    a_prof = gaussian((0.0, 0.0))
    b_prof = gaussian((0.4, 0.0), width=0.8)
    F_b = gaussian_vector((0.4, 0.0), width=0.8, amplitudes=(1.0, 0.0))
    F_a = gaussian_vector((0.0, 0.0), amplitudes=(1.0, 0.0))
    r1 = check_zero_mass_nl(a_prof, F_b, 0.5, cfg)
    r2 = check_zero_mass_nl(b_prof, F_a, 0.5, cfg)
    assert r1.passed and r2.passed
    assert r1.lhs == pytest.approx(r2.lhs, abs=5e-4)


def test_global_ibp_zero_g(cfg, gauss_vec2d):
    zero = gaussian((0.0, 0.0)).scaled(0.0)
    rep = check_global_ibp(zero, gauss_vec2d, 0.5, cfg)
    assert rep.passed
    assert rep.lhs == pytest.approx(0.0, abs=1e-10)
    assert rep.rhs == pytest.approx(0.0, abs=1e-10)


def test_ball_ibp_large_radius_degenerates(cfg, gauss_vec2d):
    """At r = 3x the support the boundary terms vanish and the identity
    reduces to global duality."""
    xi = gaussian((0.4, 0.2))
    r = 3.0 * gauss_vec2d.support_radius
    rep = check_ball_ibp(gauss_vec2d, xi, np.zeros(2), r, 0.5, cfg)
    terms = rep.params["terms"]
    assert abs(terms[1]) <= 1e-2
    assert abs(terms[2]) <= 1e-2
    assert rep.passed


def test_decay_scan_radius_rescaling_invariance(cfg):
    dp = make_delta_pair((0.0, 0.0), (1.0, 0.0), 0.5)
    r1 = decay_scan(dp, 0.5, 1.2, (0.0, 0.0), np.geomspace(0.02, 0.4, 6), cfg,
                    expect="flat")
    r2 = decay_scan(dp, 0.5, 1.2, (0.0, 0.0), 2.0 * np.geomspace(0.01, 0.2, 6),
                    cfg, expect="flat")
    assert r1.lhs == pytest.approx(r2.lhs, abs=1e-12)


def test_decay_scan_exponent_needs_target(cfg):
    from fracfield.analytic import cantor_measure

    with pytest.raises(ConfigError):
        decay_scan(cantor_measure(6, 1), 0.5, 1.0, (0.0,),
                   3.0 ** -np.arange(0, 6), cfg, expect="exponent")


def test_suite_filter_and_determinism(cfg):
    with pytest.raises(ConfigError):
        run_suite(cfg, names=["no_such_check"])
    a = run_suite(cfg, seed=3, names=["riesz_square", "symbol"])
    b = run_suite(cfg, seed=3, names=["riesz_square", "symbol"])
    assert [r.name for r in a] == [r.name for r in b]
    for x, y in zip(a, b):
        assert x.lhs == y.lhs  # bit-for-bit reproducibility
        assert x.passed == y.passed


def test_suite_parallel_matches_serial(cfg):
    names = ["riesz_square", "semigroup_spectral", "cantor"]
    serial = run_suite(cfg, seed=1, jobs=1, names=names)
    parallel = run_suite(cfg, seed=1, jobs=3, names=names)
    assert [r.name for r in serial] == [r.name for r in parallel]
    for x, y in zip(serial, parallel):
        assert x.lhs == y.lhs


def test_default_suite_all_green_and_budgeted(cfg):
    """The full default battery: >= 12 records, every check passing, well
    inside the ten-minute ceiling (CI slack is 3x that)."""
    import time

    t0 = time.time()
    reports = run_suite(cfg, seed=0, jobs=1)
    wall = time.time() - t0
    assert len(reports) >= 12
    failures = [r.name for r in reports if not r.passed]
    assert not failures, failures
    assert wall < 600.0


def test_nl_l1_bound_scale_invariant_ratio(cfg, gauss2d):
    """Both sides of the L1 bound are linear in g: the ratio is invariant
    under g -> 2g."""
    from fracfield.verify import check_nl_l1_bound

    F = gaussian_vector((0.2, 0.0), amplitudes=(1.0, 0.5))
    r1 = check_nl_l1_bound(gauss2d, F, 0.5, 2.0, cfg)
    r2 = check_nl_l1_bound(gauss2d.scaled(2.0), F, 0.5, 2.0, cfg)
    assert r1.passed and r2.passed
    assert r1.rel_err == pytest.approx(r2.rel_err, rel=1e-3)  # the ratio


@pytest.mark.parametrize("check", [check_semigroup_spectral, check_symbol_factorization])
def test_spectral_roundoff_checks_raise_no_warning(check):
    """The mean-free input keeps the Riesz potential's mean-bias warning quiet
    without silencing warnings from inside a (possibly threaded) check."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = check(QuadratureConfig())
    assert rep.passed and rep.abs_err <= 1e-10
