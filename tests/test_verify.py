import dataclasses
import json
import math
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from fracfield import analytic, spectral, verify
from fracfield.analytic import make_delta_pair, spectral_gradient_of
from fracfield.errors import ConfigError, DomainError
from fracfield.fields import ScalarField, cutoff, gaussian, gaussian_vector
from fracfield.quadrature import QuadratureConfig, _ball_radial_rule, panel_radial_rule
from fracfield.special import _gauss
from fracfield.spectral import _cached_frac_derivative, embed
from fracfield.verify import (
    TolerancePolicy,
    VerifyReport,
    check_ball_ibp,
    check_div_relation,
    check_duality,
    check_global_ibp,
    check_leibniz_pointwise,
    check_riesz_square,
    check_semigroup_spectral,
    check_symbol_factorization,
    check_zero_mass_nl,
    decay_scan,
    default_suite_registry,
    run_suite,
    spectral_divergence_of,
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


def test_report_json_line_bytes():
    """The record's keys, number formats and rounded seconds are fixed."""
    r = VerifyReport(name="ball_ibp_r0.8", params={"alpha": 0.5, "x0": (0.0, 1.0),
                     "p": float("inf"), "terms": [0.286935, -0.177907]},
                     lhs=0.14623716763889125, rhs=0.14619025544995007,
                     abs_err=4.691218894117832e-05, rel_err=0.00016349424625698174,
                     est_err=3.787117351694306e-05, passed=True, seconds=0.530349,
                     branch="rel", notes="a note")
    assert r.to_json_line() == (
        '{"abs_err": 4.691218894117832e-05, "branch": "rel", "est_err": '
        '3.787117351694306e-05, "lhs": 0.14623716763889125, "name": "ball_ibp_r0.8", '
        '"notes": "a note", "params": {"alpha": 0.5, "p": Infinity, "terms": '
        '[0.286935, -0.177907], "x0": [0.0, 1.0]}, "pass": true, "rel_err": '
        '0.00016349424625698174, "rhs": 0.14619025544995007, "seconds": 0.5303}')


def test_report_is_decided_once_and_timed_by_the_suite():
    """A report is immutable; a check called directly carries no time."""
    rep = check_riesz_square()
    assert rep.seconds == 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        rep.passed = False


def test_check_duality_zero_test_function(cfg):
    dp = make_delta_pair((0.0, 0.0), (1.0, 0.0), 0.5)
    zero = gaussian((0.0, 0.0), amplitude=0.0)
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
    zero = gaussian((0.0, 0.0), amplitude=0.0)
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


@pytest.mark.parametrize("r", [0.8, 1.0, 1.3])
def test_ball_ibp_raises_no_warning(cfg, gauss_vec2d, r):
    """The sphere-gradient term samples the profile at its singular-rule
    nodes, which stay above grad_chi_ball's 1e-9 r accuracy floor."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = check_ball_ibp(gauss_vec2d, gaussian((0.4, 0.2)), np.zeros(2), r, 0.5, cfg)
    assert rep.passed


# odd counts, so coarsened() floors them (5 -> 2, 9 -> 4) and a coarse level
# counted any other way (2 * 5, 5 - 2, 9) shows
ODD_CFG = QuadratureConfig(near_radial_nodes=9, mid_panel_nodes=5, mid_angular_nodes=20)


def _polar_rules(monkeypatch, run):
    """(radii, angular node count) of every polar rule `run()` builds through
    `_polar_rule` as bound in verify and analytic, in call order."""
    calls = []
    for mod in (verify, analytic):
        def spy(n, r, w_r, m_ang, k=0.0, inner=mod._polar_rule):
            calls.append((r.shape[0], m_ang))
            return inner(n, r, w_r, m_ang, k)
        monkeypatch.setattr(mod, "_polar_rule", spy)
    run()
    return calls


def _levels(rule):
    """rule(q) at ODD_CFG, then at its coarsened config."""
    return [rule(ODD_CFG), rule(ODD_CFG.coarsened())]


def test_fine_coarse_evaluates_cfg_then_its_coarsening():
    seen = []

    def rule(q):
        seen.append(q)
        return (lambda pts: (np.ones(len(pts)), np.zeros(len(pts))),
                *_gauss(0.0, 1.0, q.mid_panel_nodes), q.mid_angular_nodes)

    val, est = verify._fine_coarse(np.zeros(2), rule, ODD_CFG)
    assert seen == [ODD_CFG, ODD_CFG.coarsened()]
    assert val == pytest.approx(np.pi, rel=1e-13)  # the unit disk's area
    assert est <= 1e-13


def test_polar_integral_levels_are_cfg_and_its_coarsening(monkeypatch):
    R = 3.0
    calls = _polar_rules(monkeypatch, lambda: verify.polar_integral(
        lambda pts: (np.ones(len(pts)), np.zeros(len(pts))), 2, R, ODD_CFG))
    assert calls == _levels(lambda q: (
        len(_ball_radial_rule(R / 64.0, R, q.mid_panel_growth, q.mid_panel_nodes)[0]),
        q.mid_angular_nodes))


def test_duality_pairing_pole_levels_are_cfg_and_its_coarsening(monkeypatch):
    pf = make_delta_pair((0.0, 0.0), (1.0, 0.0), 0.5)
    calls = _polar_rules(monkeypatch, lambda: analytic.duality_pairing(
        pf, gaussian((0.4, 0.2)), ODD_CFG))
    assert calls == _levels(lambda q: (2 * q.near_radial_nodes, 2 * q.mid_angular_nodes))


def test_ball_ibp_terms_take_levels_cfg_and_its_coarsening(monkeypatch, gauss_vec2d):
    """Terms 1-4 of the ball check each build the rule of the config, then
    the rule of its coarsening; term 3's inner nonlocal gradient follows
    the level it serves."""
    r, xi = 1.0, gaussian((0.4, 0.2))
    s0, s_min = min(r, 1.0), r * 2.0**-12
    inner_cfgs = []
    nl = verify.nl_gradient_ball
    monkeypatch.setattr(verify, "nl_gradient_ball",
                        lambda *args: inner_cfgs.append(args[-1]) or nl(*args))
    calls = _polar_rules(monkeypatch, lambda: check_ball_ibp(
        gauss_vec2d, xi, np.zeros(2), r, 0.5, ODD_CFG))

    def panels(a, b, growth, m):
        return len(panel_radial_rule(a, b, growth, m)[0])

    ball = _levels(lambda q: (4 * q.mid_panel_nodes, q.mid_angular_nodes))
    sphere = _levels(lambda q: (
        4 * q.near_radial_nodes + panels(r + s0, xi.support_radius + 1.0,
                                         q.mid_panel_growth, q.mid_panel_nodes),
        q.mid_angular_nodes))
    nonlocal_ = _levels(lambda q: (
        panels(s_min, r, 2.0, q.mid_panel_nodes) + 2 + panels(s_min, s0, 2.0, q.mid_panel_nodes)
        + panels(r + s0, gauss_vec2d.support_radius + 1.0, q.mid_panel_growth,
                 q.mid_panel_nodes),
        q.mid_angular_nodes))
    assert calls == ball + sphere + nonlocal_ + ball
    assert inner_cfgs == [ODD_CFG, ODD_CFG.coarsened()]


def test_decay_scan_radius_rescaling_invariance(cfg):
    dp = make_delta_pair((0.0, 0.0), (1.0, 0.0), 0.5)
    r1 = decay_scan(dp, 0.5, 1.2, (0.0, 0.0), np.geomspace(0.02, 0.4, 6),
                    expect="flat")
    r2 = decay_scan(dp, 0.5, 1.2, (0.0, 0.0), 2.0 * np.geomspace(0.01, 0.2, 6),
                    expect="flat")
    assert r1.lhs == pytest.approx(r2.lhs, abs=1e-12)
    assert "np." not in repr(r1.params)


@pytest.mark.parametrize("case", ["exponent-without-target", "smooth-exponent-without-target",
                                  "unknown-expect", "repeated-radii", "center-dimension"])
def test_decay_scan_refuses_bad_input_before_computing(monkeypatch, case):
    """A ConfigError before any ball mass or spectral density is computed."""
    from fracfield.analytic import cantor_measure

    def computed(*args, **kwargs):
        raise AssertionError("computed before the input was checked")

    monkeypatch.setattr(verify, "measure_ball_mass", computed)
    monkeypatch.setattr(verify, "spectral_divergence_of", computed)
    source, radii, expect = cantor_measure(4, 1), 3.0 ** -np.arange(4), "floor"
    if case == "exponent-without-target":
        source, radii, expect = cantor_measure(6, 1), 3.0 ** -np.arange(0, 6), "exponent"
    elif case == "smooth-exponent-without-target":
        source, expect = gaussian_vector((0.0,)), "exponent"
    elif case == "unknown-expect":
        expect = "floors"
    elif case == "repeated-radii":
        radii = np.array([0.3, 0.3, 0.3])
    center = (0.0,) * (source.n + (case == "center-dimension"))
    with pytest.raises(ConfigError):
        decay_scan(source, 0.5, 1.0, center, radii, expect=expect)


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
    """Thread parallelism changes no report field but the timing, also for
    checks integrated by the shared polar rule."""
    names = ["riesz_square", "semigroup_spectral", "cantor",
             "leibniz_global_ibp", "div_relation"]
    serial = run_suite(cfg, seed=1, jobs=1, names=names)
    parallel = run_suite(cfg, seed=1, jobs=3, names=names)
    assert len(serial) == len(names)
    for x, y in zip(serial, parallel):
        assert dataclasses.replace(x, seconds=0.0) == dataclasses.replace(y, seconds=0.0)
        assert x.seconds > 0.0 and y.seconds > 0.0


def _untimed(reports):
    return [repr(dataclasses.replace(r, seconds=0.0)) for r in reports]


@pytest.fixture(scope="module")
def default_run(cfg):
    """(reports, caught warnings, wall seconds) of the default battery."""
    import time

    t0 = time.time()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        reports = run_suite(cfg, seed=0, jobs=1)
    return reports, caught, time.time() - t0


def test_default_suite_all_green_and_budgeted(cfg, default_run):
    """The full default battery: >= 12 records, every check passing, well
    inside the ten-minute ceiling (CI slack is 3x that)."""
    reports, caught, wall = default_run
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert len(reports) >= 12
    assert [r.name for r in reports] == sorted(default_suite_registry(cfg))
    failures = [r.name for r in reports if not r.passed]
    assert not failures, failures
    assert all(r.seconds > 0.0 for r in reports)
    assert wall < 600.0


def test_default_suite_reports_show_the_bounded_quantity(default_run):
    """Every report is decided on a policy branch, and the three inequality
    reports record their signed gap, negative by the margin they pass by."""
    reports = {r.name: r for r in default_run[0]}
    assert {r.branch for r in reports.values()} <= {"abs", "rel", "est"}
    l1, decay, orders = (reports[k] for k in
                         ("leibniz_l1_bound", "decay_smooth_pinf", "convergence_orders"))
    assert l1.abs_err == l1.lhs - l1.rhs and l1.rel_err == l1.abs_err / l1.rhs
    assert decay.abs_err == decay.params["floor"] - decay.lhs
    assert orders.abs_err == max(4.0 - orders.lhs, 1.8 - orders.rhs)
    for r in (l1, decay, orders):
        assert r.passed and r.abs_err < 0.0, r


def test_default_suite_does_not_depend_on_run_order(cfg, default_run):
    """The battery run one check at a time in a shuffled order, from an empty
    spectral cache, gives the sorted run's reports: no check reads state
    another left behind."""
    _cached_frac_derivative.cache_clear()
    thunks = list(default_suite_registry(cfg, seed=0).values())
    order = np.random.default_rng(7).permutation(len(thunks))
    shuffled = sorted((thunks[i]() for i in order), key=lambda r: r.name)
    assert _untimed(shuffled) == _untimed(default_run[0])


def test_default_suite_at_two_jobs_matches_the_serial_run(cfg, default_run):
    """The whole battery, two checks at a time from an empty spectral cache,
    gives the serial run's reports apart from seconds."""
    _cached_frac_derivative.cache_clear()
    assert _untimed(run_suite(cfg, seed=0, jobs=2)) == _untimed(default_run[0])


def test_convergence_orders_fails_on_a_nan_order(monkeypatch):
    """A sweep with no usable transition has a NaN order; the gap keeps it
    and the report fails."""
    import math

    from fracfield import verify

    good = [{"level": i, "err_vs_finest": 2.0 ** -(8 * i), "observed_order": 8.0}
            for i in range(3)]
    bad = [{"level": i, "err_vs_finest": 0.0, "observed_order": math.nan} for i in range(3)]
    for spectral_rows, direct_rows in ((good, bad), (bad, good)):
        monkeypatch.setattr(verify, "convergence_sweep_spectral", lambda: spectral_rows)
        monkeypatch.setattr(verify, "convergence_sweep_direct", lambda: direct_rows)
        rep = verify.check_convergence_orders()
        assert math.isnan(rep.abs_err) and not rep.passed


def test_nl_l1_bound_scale_invariant_ratio(cfg, gauss2d):
    """Both sides of the L1 bound are linear in g: the ratio is invariant
    under g -> 2g."""
    from fracfield.verify import check_nl_l1_bound

    F = gaussian_vector((0.2, 0.0), amplitudes=(1.0, 0.5))
    r1 = check_nl_l1_bound(gauss2d, F, 0.5, 2.0, cfg)
    r2 = check_nl_l1_bound(gaussian((0.0, 0.0), amplitude=2.0), F, 0.5, 2.0, cfg)
    assert r1.passed and r2.passed
    assert r1.rel_err == pytest.approx(r2.rel_err, rel=1e-3)  # ratio - 1


@pytest.mark.parametrize("check", [check_semigroup_spectral, check_symbol_factorization])
def test_spectral_roundoff_checks_raise_no_warning(check):
    """The mean-free input keeps the Riesz potential's mean-bias warning quiet
    without silencing warnings from inside a (possibly threaded) check."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = check()
    assert rep.passed and rep.abs_err <= 1e-10


def test_spectral_caches_tell_apart_fields_with_equal_hints():
    """A field with twice the values and the same hints gets its own cached
    gradient and divergence, not the first field's."""
    g = gaussian((0.0, 0.0))
    g2 = dataclasses.replace(g, fn=lambda p: 2.0 * g.fn(p))
    grad = spectral_gradient_of(g, 0.5).data
    np.testing.assert_array_equal(spectral_gradient_of(g2, 0.5).data, 2.0 * grad)
    F = gaussian_vector((0.2, 0.0), amplitudes=(1.0, 0.5))
    F2 = dataclasses.replace(F, fn=lambda p: 2.0 * F.fn(p))
    div = _cached_frac_derivative(F, 0.5, 256).data
    np.testing.assert_array_equal(_cached_frac_derivative(F2, 0.5, 256).data, 2.0 * div)


def test_spectral_cache_entry_is_the_recomputed_result_for_every_call_form():
    F = gaussian_vector((0.2, 0.0), amplitudes=(1.0, 0.5))
    div = _cached_frac_derivative(F, 0.5, 256)
    assert _cached_frac_derivative(F, 0.5, 256) is div
    assert _cached_frac_derivative(F, np.float64(0.5), 256) is div
    np.testing.assert_array_equal(
        div.data, _cached_frac_derivative.__wrapped__(F, 0.5, 256).data)
    g = gaussian((0.0, 0.0))
    grad = spectral_gradient_of(g, 0.5)
    assert spectral_gradient_of(g, alpha=0.5) is grad
    assert spectral_divergence_of(F, alpha=np.float64(0.5)) is _cached_frac_derivative(F, 0.5, 1024)
    np.testing.assert_array_equal(
        grad.data, _cached_frac_derivative.__wrapped__(g, 0.5, 1024).data)


def test_spectral_cache_under_threads_keeps_each_field_its_own_result():
    """Three same-token fields cycle through the bounded cache from more
    threads than cores; every call still returns its own field's bits."""
    base = gaussian_vector((0.2, 0.0), amplitudes=(1.0, 0.5))
    fields = [dataclasses.replace(base, fn=lambda p, k=k: k * base.fn(p)) for k in (1.0, 2.0, 4.0)]
    want = [_cached_frac_derivative.__wrapped__(F, 0.5, 64).data for F in fields]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futs = [pool.submit(_cached_frac_derivative, fields[i % 3], 0.5, 64) for i in range(60)]
            got = [f.result(timeout=60) for f in futs]
    finally:
        sys.setswitchinterval(old)
    for i, pf in enumerate(got):
        np.testing.assert_array_equal(pf.data, want[i % 3])


def _embed_spy(monkeypatch):
    """The node counts of every embed the verifier makes, in call order."""
    sizes = []

    def spy(field, L, N, *args, **kwargs):
        sizes.append(N)
        return embed(field, L, N, *args, **kwargs)

    monkeypatch.setattr(spectral, "embed", spy)
    monkeypatch.setattr(verify, "embed", spy)
    return sizes


def test_smooth_decay_scan_reads_the_cached_divergence(monkeypatch):
    """A smooth source's ball masses come from the divergence the duality and
    ball checks cache: once it is cached, the scan embeds nothing."""
    F = gaussian_vector((0.2, 0.0), amplitudes=(1.0, 0.5))
    spectral_divergence_of(F, 0.5)
    sizes = _embed_spy(monkeypatch)
    rep = decay_scan(F, 0.5, math.inf, (0.3, 0.2), np.geomspace(0.1, 0.8, 6))
    assert sizes == [] and rep.passed


def test_default_suite_embeds_no_grid_finer_than_1024(cfg, monkeypatch):
    """The serial battery, from an empty spectral cache, embeds every field at
    no more than 1024 nodes per axis."""
    sizes = _embed_spy(monkeypatch)
    _cached_frac_derivative.cache_clear()
    run_suite(cfg, seed=0, jobs=1)
    assert sizes and max(sizes) <= 1024, sizes


def test_div_relation_needs_closed_form_gradient(cfg, gauss_vec2d):
    """The right-hand pipeline pairs I_(1-a) F with the closed-form gradient
    of phi; a phi without one is refused."""
    g = gaussian((0.0, 0.0))
    bare = ScalarField(n=2, fn=g.fn, support_radius=g.support_radius)
    with pytest.raises(DomainError, match="closed-form gradient"):
        check_div_relation(gauss_vec2d, bare, 0.5, cfg)
