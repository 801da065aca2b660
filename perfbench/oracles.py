"""Reference values that do not go through the code they check.

Every function here is written from the mathematics, with numpy's own
polynomial module and plain series loops.  None of them imports
univalence_lab, so a defect in the package cannot hide in its own oracle.

Families covered:

* example31: f = z + z^2/4, g = z + z^2/2, phi = z, so that
  h(u) = (f'(u))^alpha (g(u)/phi(u))^beta = (1 + u/2)^(alpha+beta) and the
  operator bracket is the Gauss series 2F1(gamma, -(alpha+beta); 1+gamma; -z/2).
* identity: f = g = phi = z, so h = 1, F(z) = z and L(z, t) = z e^(m a t).
* any truncated power series: the criterion expressions of the five
  variants, evaluated densely by numpy.polynomial.
"""

import math

import numpy as np
from numpy.polynomial import polynomial as npoly

def hyp2f1(a, b, c, w):
    """Gauss series 2F1(a, b; c; w), vectorised over w with max |w| <= 0.9."""
    w = np.asarray(w, dtype=np.complex128)
    if w.size and np.abs(w).max() > 0.9:
        raise ValueError("series oracle is only used for |w| <= 0.9")
    total = np.ones_like(w)
    term = np.ones_like(w)
    for n in range(4000):
        term = term * ((a + n) * (b + n) / ((c + n) * (n + 1.0))) * w
        total = total + term
        if not np.any(np.abs(term) > 1e-18 * np.abs(total)):
            return total
    raise ArithmeticError("2F1 oracle series did not converge")


def principal_pow(w, c):
    """w^c on the principal branch, elementwise."""
    w = np.asarray(w, dtype=np.complex128)
    return np.exp(c * np.log(w))


# ---------------------------------------------------------------------------
# example31 family and identity: operator, chain, extension
# ---------------------------------------------------------------------------


def example31_bracket(z, s, gamma):
    """gamma int_0^1 t^(gamma-1) (1 + t z/2)^s dt as a hypergeometric series."""
    return hyp2f1(gamma, -s, 1.0 + gamma, -np.asarray(z, dtype=np.complex128) / 2.0)


def example31_operator(z, s, gamma):
    """F(z) = z [2F1(gamma, -s; 1+gamma; -z/2)]^(1/gamma), s = alpha + beta."""
    z = np.asarray(z, dtype=np.complex128)
    return z * principal_pow(example31_bracket(z, s, gamma), 1.0 / gamma)


def example31_chain(z, t, s, gamma, m, a):
    """L(z, t) = z [e^(-atg) B(zeta) + (e^(matg) - e^(-atg)) (1+zeta/2)^s]^(1/g)
    with zeta = e^(-at) z and B the example31 bracket."""
    z = np.asarray(z, dtype=np.complex128)
    t = np.asarray(t, dtype=float)
    zeta = np.exp(-a * t) * z
    atg = a * t * gamma
    inner = np.exp(-atg) * example31_bracket(zeta, s, gamma) + (
        np.exp(m * atg) - np.exp(-atg)
    ) * principal_pow(1.0 + zeta / 2.0, s)
    return z * principal_pow(inner, 1.0 / gamma)


def identity_chain(z, t, m, a):
    """L(z, t) = z e^(m a t) for f = g = phi = z."""
    return np.asarray(z, dtype=np.complex128) * np.exp(m * a * np.asarray(t, dtype=float))


SEAM_CLAMP = 1e-6


def example31_extension(z, s, gamma, m, a):
    """The operator inside the unit disk and the chain along the boundary
    ray outside it, at t = max(log|z|, SEAM_CLAMP)."""
    z = np.asarray(z, dtype=np.complex128)
    r = np.abs(z)
    out = np.empty_like(z)
    inside = r < 1.0
    out[inside] = example31_operator(z[inside], s, gamma)
    unit = z[~inside] / r[~inside]
    t = np.maximum(np.log(r[~inside]), SEAM_CLAMP)
    out[~inside] = example31_chain(unit, t, s, gamma, m, a)
    return out


def beltrami(F, z, h=1e-5):
    """mu = d_zbar F / d_z F from the central-difference stencil of step h."""
    z = np.asarray(z, dtype=np.complex128)
    dx = (F(z + h) - F(z - h)) / (2.0 * h)
    dy = (F(z + 1j * h) - F(z - 1j * h)) / (2.0 * h)
    return (dx + 1j * dy) / (dx - 1j * dy)


def extension_l(k, a):
    """Quasiconformality constant l of the extension for criterion constant
    k and chain speed a."""
    if a == 1.0:
        return float(k)
    A = abs(1.0 - a * a)
    return ((1.0 - a) ** 2 + k * A) / (A + k * (1.0 - a) ** 2)


def winding_numbers(curve, targets):
    """Winding numbers of a closed sampled curve around each target, from
    unwrapped arguments."""
    curve = np.asarray(curve, dtype=np.complex128)
    out = []
    for w in np.atleast_1d(targets):
        ang = np.unwrap(np.angle(curve - w))
        out.append(int(round((ang[-1] - ang[0]) / (2.0 * math.pi))))
    return np.array(out)


# ---------------------------------------------------------------------------
# criterion expressions on arbitrary truncated series
# ---------------------------------------------------------------------------


def derivatives(coeffs, z):
    """(s', s'') of s(z) = sum_{n>=1} c_n z^n, by numpy.polynomial."""
    c = np.concatenate([[0.0], np.asarray(coeffs, dtype=np.complex128)])
    return npoly.polyval(z, npoly.polyder(c)), npoly.polyval(z, npoly.polyder(c, 2))


def log_derivative(coeffs, z):
    """z s'/s = s'/(s/z), finite at z = 0."""
    c = np.asarray(coeffs, dtype=np.complex128)
    sp, _ = derivatives(c, z)
    return sp / npoly.polyval(z, c)


def criterion_bracket(z, alpha, beta, f, g, phi):
    """alpha z f''/f' + beta (z g'/g - z phi'/phi) for coefficient arrays."""
    z = np.asarray(z, dtype=np.complex128)
    fp, fpp = derivatives(f, z)
    out = alpha * z * fpp / fp
    if beta != 0:
        out = out + beta * (log_derivative(g, z) - log_derivative(phi, z))
    return out


def criterion_expression(variant, z, p, f, g, phi):
    """The criterion expression of `variant` at points z.

    p is a mapping with alpha, beta, gamma, m, k; f, g, phi are coefficient
    arrays c_1..c_N."""
    z = np.asarray(z, dtype=np.complex128)
    alpha, beta, gamma, m = p["alpha"], p["beta"], p["gamma"], p["m"]
    if variant == "cor31":
        beta, g, phi = alpha, np.array([1.0 + 0j]), f
    if variant == "cor32":
        alpha, beta, m = 1.0, 0.0, 1.0
    r = np.abs(z)
    b = criterion_bracket(z, alpha, beta, f, g, phi)
    if variant in ("thm31", "thm41", "cor31"):
        with np.errstate(divide="ignore"):
            fac = (1.0 - np.exp((m + 1.0) * gamma * np.log(r))) / gamma
        return np.abs(fac * b - (m - 1.0) / 2.0)
    rg = complex(gamma).real
    fac = (1.0 - r ** ((m + 1.0) * rg)) / rg
    return fac * np.abs(b)


def criterion_bound(variant, p):
    if variant in ("thm31", "cor31"):
        return (p["m"] + 1.0) / 2.0
    if variant in ("thm32", "cor32"):
        return 1.0
    return p["k"] * (p["m"] + 1.0) / 2.0


def transfer_abs_w(zeta, t, p, f, g, phi):
    """|w| of the chain transfer at zeta = e^(-at) z, from the criterion
    bracket: G = bracket (1 - e^(-(m+1) a t g)) / g and
    w = [(1+a)G + 1 - ma] / [(1-a)G + 1 + ma]."""
    gamma, m, a = p["gamma"], p["m"], p["a"]
    b = criterion_bracket(zeta, p["alpha"], p["beta"], f, g, phi)
    G = b / gamma * (1.0 - np.exp(-(m + 1.0) * a * np.asarray(t) * gamma))
    return np.abs(((1.0 + a) * G + 1.0 - m * a) / ((1.0 - a) * G + 1.0 + m * a))
