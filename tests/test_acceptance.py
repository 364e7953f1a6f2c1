"""Acceptance battery: every identity at its stated tolerance, desk scale.

Each criterion prints one pass/fail line (run with -s to watch). Defaults:
n = 2, alpha in {0.3, 0.5, 0.7}, grids <= 1024^2, and the whole module is
budgeted well under the ten-minute ceiling.
"""

import math
import time

import numpy as np

from fracfield.analytic import (
    cantor_measure,
    duality_pairing,
    make_convolved,
    make_delta_pair,
)
from fracfield.fields import compact_bump, gaussian, gaussian_vector
from fracfield.measures import RadonMeasure
from fracfield.quadrature import QuadratureConfig
from fracfield.verify import (
    check_ball_ibp,
    check_div_relation,
    check_global_ibp,
    check_leibniz_pointwise,
    check_mollification,
    check_riesz_square,
    check_semigroup_direct,
    check_semigroup_spectral,
    check_symbol_factorization,
    check_zero_mass_nl,
    check_zero_total,
    convergence_sweep_direct,
    convergence_sweep_spectral,
    decay_scan,
    fitted_order,
)

CFG = QuadratureConfig()
Y = np.array([0.0, 0.0])
Z = np.array([1.0, 0.0])

TEST_BUMPS = [
    gaussian((0.4, 0.2), 1.0),
    gaussian((0.0, 0.0), 0.8),
    gaussian((1.0, 0.0), 1.2),
    gaussian((0.6, -0.4), 0.7),
    compact_bump((0.3, 0.0), 1.5),
    compact_bump((0.8, 0.4), 2.0),
]


def _announce(num, name, passed, detail):
    flag = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {flag} ({detail})")


def test_criterion_01_delta_pair_duality():
    """int F_{y,z,a} . grad^a xi = xi(z) - xi(y): 6 bumps x 3 orders,
    within max(1e-2 relative, 5x estimate), total under 60 s."""
    t0 = time.time()
    worst = 0.0
    for alpha in (0.3, 0.5, 0.7):
        pair = make_delta_pair(Y, Z, alpha)
        for xi in TEST_BUMPS:
            lhs, est = duality_pairing(pair, xi, CFG)
            rhs = xi(Z) - xi(Y)
            assert abs(rhs) > 0.04  # the suite keeps the right side visible
            err = abs(lhs - rhs)
            tol = max(1e-2 * abs(rhs), 5.0 * est)
            worst = max(worst, err / tol)
            assert err <= tol, (alpha, lhs, rhs, est)
    dt = time.time() - t0
    _announce(1, "delta-pair duality", worst <= 1.0,
              f"18 cases, worst err/tol {worst:.3f}, {dt:.1f}s")
    assert dt <= 60.0


def test_criterion_02_convolved_duality():
    """Atomic convolution: quadrature matches -sum w_i (xi(y_i) - xi(y_i+e1))
    within 1e-2 relative."""
    t0 = time.time()
    nu = RadonMeasure(n=2,
                      atom_points=np.array([[-1.2, -0.3], [0.4, 0.8], [-0.1, -1.0]]),
                      atom_weights=np.array([0.7, -0.4, 1.1]))
    cv = make_convolved(nu, 0.6)
    xi = gaussian((0.2, 0.0), width=1.2)
    lhs, est = duality_pairing(cv, xi, CFG)
    e1 = np.array([1.0, 0.0])
    rhs = -float(sum(w * (xi(p) - xi(p + e1))
                     for p, w in zip(nu.atom_points, nu.atom_weights)))
    rel = abs(lhs - rhs) / abs(rhs)
    _announce(2, "convolved duality", rel <= 1e-2,
              f"rel err {rel:.2e}, {time.time()-t0:.1f}s")
    assert rel <= 1e-2


def test_criterion_03_leibniz_family():
    """Pointwise residual <= 5x estimates at 10 points; |int div_NL| <= 1e-3;
    global integration by parts within 1e-3 relative."""
    t0 = time.time()
    g = gaussian((0.0, 0.0))
    F = gaussian_vector((0.2, 0.0), amplitudes=(1.0, 0.5))
    pts = np.random.default_rng(0).uniform(-0.9, 0.9, (10, 2))
    r1 = check_leibniz_pointwise(g, F, 0.5, pts, CFG)
    assert r1.lhs <= 5.0 * r1.est_err
    r2 = check_zero_mass_nl(g, F, 0.5, CFG)
    assert abs(r2.lhs) <= 1e-3
    r3 = check_global_ibp(g, F, 0.5, CFG)
    assert r3.rel_err <= 1e-3
    _announce(3, "Leibniz rule family", True,
              f"residual {r1.lhs:.1e}, mass {r2.lhs:.1e}, ibp rel {r3.rel_err:.1e}, "
              f"{time.time()-t0:.1f}s")


def test_criterion_04_ball_integration_by_parts():
    """Four-term balance within 1e-2 relative at three generic radii."""
    t0 = time.time()
    F = gaussian_vector((0.2, 0.0), amplitudes=(1.0, 0.5))
    xi = gaussian((0.4, 0.2))
    worst = 0.0
    for r in (0.8, 1.0, 1.3):
        rep = check_ball_ibp(F, xi, np.zeros(2), r, 0.5, CFG)
        worst = max(worst, rep.rel_err)
        assert rep.rel_err <= 1e-2, (r, rep.params["terms"])
    _announce(4, "ball integration by parts", True,
              f"3 radii, worst rel {worst:.2e}, {time.time()-t0:.1f}s")


def test_criterion_05_mollification_commutes():
    """div^a of the mollified pair matches rho_eps(.-y) - rho_eps(.-z) within
    2% of the mollifier peak at 5 points including a pole."""
    t0 = time.time()
    pair = make_delta_pair(Y, Z, 0.5)
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.1], [0.15, -0.2], [2.0, 1.5]])
    rep = check_mollification(pair, 0.3, pts, CFG)
    scale = rep.params["scale"]
    rel = rep.abs_err / scale
    _announce(5, "mollification commutes", rel <= 0.02,
              f"worst |lhs-rhs|/peak {rel:.2e}, {time.time()-t0:.1f}s")
    assert rel <= 0.02


def test_criterion_06_riesz_semigroup():
    """I_0.3 I_0.4 = I_0.7: spectral at 1e-10, direct nested quadrature at 1e-3."""
    t0 = time.time()
    r1 = check_semigroup_spectral()
    assert r1.lhs <= 1e-10
    r2 = check_semigroup_direct(CFG)
    assert r2.abs_err <= 1e-3
    _announce(6, "Riesz semigroup", True,
              f"spectral {r1.lhs:.1e}, direct {r2.abs_err:.1e}, {time.time()-t0:.1f}s")


def test_criterion_07_symbol_factorization():
    """grad^a = grad o I_{1-a}: spectral exact to 1e-10; weak-form
    cross-pipeline identity within 1e-2 relative."""
    t0 = time.time()
    r1 = check_symbol_factorization()
    assert r1.lhs <= 1e-10
    F = gaussian_vector((0.2, 0.0), amplitudes=(1.0, 0.5))
    xi = gaussian((0.4, 0.2))
    r2 = check_div_relation(F, xi, 0.5, CFG)
    assert r2.rel_err <= 1e-2
    _announce(7, "symbol factorization", True,
              f"spectral {r1.lhs:.1e}, weak-form rel {r2.rel_err:.1e}, "
              f"{time.time()-t0:.1f}s")


def test_criterion_08_riesz_transform_squares():
    """sum_i R_i^2 = -Id on mean-zero band-limited fields, spectral 1e-10."""
    t0 = time.time()
    rep = check_riesz_square()
    assert rep.lhs <= 1e-10
    _announce(8, "Riesz transform squares", True,
              f"max residual {rep.lhs:.1e}, {time.time()-t0:.1f}s")


def test_criterion_09_decay_regimes():
    """Smooth p=inf field: ball-mass slope >= n - alpha - 0.1; a pole
    anchored at its atom stays flat (|slope| <= 0.05)."""
    t0 = time.time()
    F = gaussian_vector((0.2, 0.0), amplitudes=(1.0, 0.5))
    r1 = decay_scan(F, 0.5, math.inf, (0.3, 0.2), np.geomspace(0.1, 0.8, 6),
                    expect="floor")
    assert r1.lhs >= 2.0 - 0.5 - 0.1
    pair = make_delta_pair(Y, Z, 0.5)
    r2 = decay_scan(pair, 0.5, 1.2, Y, np.geomspace(0.02, 0.4, 6),
                    expect="flat")
    assert abs(r2.lhs) <= 0.05
    _announce(9, "decay regimes", True,
              f"smooth slope {r1.lhs:.3f} >= 1.4, pole slope {r2.lhs:.3f}, "
              f"{time.time()-t0:.1f}s")


def test_criterion_10_zero_total_mass():
    """Smooth compact field: |div^a F(R^n)| <= 2e-3 after tail correction."""
    t0 = time.time()
    F = gaussian_vector((0.2, 0.0), amplitudes=(1.0, 0.5))
    rep = check_zero_total(F, 0.6, CFG)
    assert abs(rep.lhs) <= 2e-3
    _announce(10, "zero total divergence mass", True,
              f"|total| {abs(rep.lhs):.2e} <= 2e-3, {time.time()-t0:.1f}s")


def test_criterion_11_cantor_scaling():
    """Level-10 middle-thirds measure: ball-mass exponent log2/log3 +- 0.05."""
    t0 = time.time()
    target = math.log(2.0) / math.log(3.0)
    rep = decay_scan(cantor_measure(10, 1), 0.5, 1.0, (0.0,),
                     3.0 ** -np.arange(0, 10), expect="exponent",
                     target=target)
    assert abs(rep.lhs - target) <= 0.05
    _announce(11, "Cantor ball-mass scaling", True,
              f"slope {rep.lhs:.4f} vs {target:.4f}, {time.time()-t0:.1f}s")


def test_criterion_12_engine_cross_validation():
    """Direct vs spectral disagreement <= 1e-3 on the shared smooth suite;
    convergence orders >= 4 (spectral) and >= 1.8 (direct)."""
    t0 = time.time()
    from fracfield.verify import check_cross_engine

    rep = check_cross_engine(CFG, seed=0)
    assert rep.lhs <= 1e-3
    o_s = fitted_order(convergence_sweep_spectral())
    o_d = fitted_order(convergence_sweep_direct())
    assert o_s >= 4.0
    assert o_d >= 1.8
    _announce(12, "engine cross-validation", True,
              f"max rel {rep.lhs:.2e}, orders spectral {o_s:.1f} / direct {o_d:.1f}, "
              f"{time.time()-t0:.1f}s")
