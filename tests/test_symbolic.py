"""The closed forms of ``analytic`` against the moment equations, symbolically.

Each expression below is a transcription of the code (same grouping, same
p(z) = (e^z - 1)/z), checked against the code numerically at one point, and
shown by sympy to solve its equation of motion with the right initial value.
kappa is eliminated through Omega^2 = (gamma+kappa)^2 - 4G^2, the relation the
closed forms rely on; the identities are analytic in Omega, so they hold for
real (broken-PT) and imaginary (PT-symmetric) Omega alike.
"""

import numpy as np
import pytest
import sympy as sp

from ptomech import CoherentInit, first_moments_closed_form, make_params, numbers

g, G, Om, w1, t = sp.symbols("gamma G Omega omega1 t", positive=True)
k = sp.sqrt(Om**2 + 4 * G**2) - g
I = sp.I


def p(c):
    """p(c t) = (e^(c t) - 1)/(c t), with t kept as a factor so that powers of t cancel."""
    return (sp.exp(c * t) - 1) / (c * t)


def first_moments(alpha, beta):
    """<a>(t), <b>(t) as ``first_moments_closed_form`` writes them."""
    x = g - k
    e_plus = sp.exp((x / 2 + Om / 2 - I * w1) * t)
    e_minus = sp.exp((x / 2 - Om / 2 - I * w1) * t)
    half_h = e_plus * t / 2 * p(-Om)
    mix = 4 * G**2 / (g + k + Om)
    return (alpha * e_minus + (2 * I * G * beta - mix * alpha) * half_h,
            beta * e_plus + (2 * I * G * alpha + mix * beta) * half_h)


def spontaneous_numbers():
    """n_a_sp(t), n_b_sp(t) as ``numbers`` writes them, u = (gamma-kappa)t, w = Omega t."""
    x = g - k
    s1 = (p(x + Om) - p(x - Om)) / (2 * Om * t)
    s2 = (p(x + Om) + p(x - Om) - 2 * p(x)) / (2 * Om**2 * t**2)
    return (4 * g * G**2 * t**3 * s2,
            2 * g * (t * p(x) + (g + k) * t**2 * s1 + ((g + k) ** 2 - 2 * G**2) * t**3 * s2))


def conjugate(expr):
    """Complex conjugate for real parameters and an expression even in Omega:
    conj(Omega) = +-Omega, so conjugating is replacing i by -i."""
    return expr.subs(I, -I)


# (gamma, G, omega1) in kappa units and t in 1/kappa: one PT-symmetric and one broken-PT point.
POINTS = [(0.6, 1.2, 3.0, 0.7), (1.8, 1.2, 3.0, 0.7)]


def at(point):
    gamma, coupling, omega1, time = point
    omega = complex(np.sqrt(complex((1.0 + gamma) ** 2 - 4.0 * coupling**2)))
    return {g: gamma, G: coupling, Om: omega, w1: omega1, t: time}


def value(expr, point):
    return complex(sp.N(expr.subs(at(point)), 30))


@pytest.mark.parametrize("point", POINTS)
def test_transcriptions_match_the_code(point):
    gamma, coupling, omega1, time = point
    params = make_params(1.0, gamma, coupling, omega1, 1.0)
    init = CoherentInit(alpha=0.3 - 1.1j, beta=0.8 + 0.4j)
    a, b = first_moments_closed_form(params, init, time)
    a_sym, b_sym = first_moments(sp.nsimplify(0.3) - 1.1 * I, sp.nsimplify(0.8) + 0.4 * I)
    assert value(a_sym, point) == pytest.approx(complex(a), rel=1e-12)
    assert value(b_sym, point) == pytest.approx(complex(b), rel=1e-12)
    split = numbers(params, init, time)
    na_sp, nb_sp = spontaneous_numbers()
    assert value(na_sp, point) == pytest.approx(split.n_a_sp, rel=1e-12)
    assert value(nb_sp, point) == pytest.approx(split.n_b_sp, rel=1e-12)


def test_first_moments_solve_their_equations():
    alpha, beta = sp.symbols("alpha beta")
    a, b = first_moments(alpha, beta)
    assert sp.simplify(sp.diff(a, t) - (-(I * w1 + k) * a + I * G * b)) == 0
    assert sp.simplify(sp.diff(b, t) - (-(I * w1 - g) * b + I * G * a)) == 0
    assert sp.simplify(a.subs(t, 0)) == alpha
    assert sp.simplify(b.subs(t, 0)) == beta
    # Even in Omega, which the conjugation below relies on.
    assert sp.simplify(b - b.subs(Om, -Om)) == 0 and sp.simplify(a - a.subs(Om, -Om)) == 0


def test_spontaneous_numbers_integrate_2_gamma_U_squared():
    # U: the first moments started from (alpha, beta) = (0, 1).
    u_a, u_b = first_moments(0, 1)
    na_sp, nb_sp = spontaneous_numbers()
    assert sp.simplify(sp.diff(na_sp, t) - 2 * g * u_a * conjugate(u_a)) == 0
    assert sp.simplify(sp.diff(nb_sp, t) - 2 * g * u_b * conjugate(u_b)) == 0
    assert sp.together(na_sp).subs(t, 0) == 0
    assert sp.simplify(sp.together(nb_sp).subs(t, 0)) == 0


def test_integrand_solves_the_second_moment_equations():
    # With U' = A U (checked above) the integrand w = 2 gamma (|U_a|^2, |U_b|^2,
    # Re U_a* U_b, Im U_a* U_b) obeys the homogeneous second-moment equations
    # that the oracle integrates, and starts at their source term (0, 2 gamma, 0, 0).
    # Then n_sp = integral_0^t w solves n' = M n + w(0), n(0) = 0.
    u_a, u_b, v_a, v_b = sp.symbols("u_a u_b v_a v_b")  # v = conj(u)
    kappa = sp.Symbol("kappa", positive=True)
    A = sp.Matrix([[-I * w1 - kappa, I * G], [I * G, -I * w1 + g]])
    du = A * sp.Matrix([u_a, u_b])
    dv = A.subs(I, -I) * sp.Matrix([v_a, v_b])
    w = 2 * g * sp.Matrix([v_a * u_a, v_b * u_b, (v_a * u_b + u_a * v_b) / 2,
                           (v_a * u_b - u_a * v_b) / (2 * I)])
    dw = w.jacobian([u_a, u_b, v_a, v_b]) * sp.Matrix([*du, *dv])
    M = sp.Matrix([[-2 * kappa, 0, 0, -2 * G], [0, 2 * g, 0, 2 * G],
                   [0, 0, g - kappa, 0], [G, -G, 0, g - kappa]])
    assert sp.simplify(dw - M * w) == sp.zeros(4, 1)
    assert w.subs({u_a: 0, v_a: 0, u_b: 1, v_b: 1}) == sp.Matrix([0, 2 * g, 0, 0])
