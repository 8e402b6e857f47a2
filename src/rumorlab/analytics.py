"""Closed-form detection probabilities and their special functions.

The special functions are self-contained double-precision routines in the
Cephes style; the test suite checks them against independent adaptive
quadrature.  Formula evaluators return TheoryValue records so experiment
reports can carry their theory overlay column.
"""

import math
from dataclasses import dataclass

from ._checks import integer

EULER_GAMMA = 0.5772156649015329
_LN2 = math.log(2.0)
_EPS = 1e-16
_FPMIN = 1e-300

@dataclass(frozen=True)
class TheoryValue:
    formula_id: str
    value: float
    d: int | None = None
    theta: float | None = None
    t: float | None = None
    p: float | None = None

    def __post_init__(self):
        if not -1e-12 <= self.value <= 1 + 1e-12:
            raise ValueError(
                f"{self.formula_id} produced {self.value!r}, outside [0, 1]"
            )
        object.__setattr__(self, "value", min(1.0, max(0.0, self.value)))


# ---------------------------------------------------------------------------
# Special functions
# ---------------------------------------------------------------------------

def exponential_integral(x):
    """Ei(x), the principal-value exponential integral.

    Branches: continued fraction for x <= -1 (the alternating series loses
    ~e^|x| digits there), power series on (-1, 40), asymptotic series for
    x >= 40.  Relative error ~1e-13 away from the real zero near 0.3725.
    """
    if x == 0:
        raise ValueError("Ei is singular at x = 0")
    if x <= -1.0:
        return -_e1_continued_fraction(-x)
    if x < 40.0:
        return _ei_series(x)
    return _ei_asymptotic(x)


def _ei_series(x):
    # Ei(x) = gamma + ln|x| + sum x^k / (k * k!)
    total = EULER_GAMMA + math.log(abs(x))
    term = 1.0
    for k in range(1, 200):
        term *= x / k
        incr = term / k
        total += incr
        if abs(incr) < _EPS * (abs(total) + 1e-30):
            break
    return total


def _ei_asymptotic(x):
    # Ei(x) ~ e^x/x * sum k!/x^k; truncate at the smallest term.
    total = 1.0
    term = 1.0
    for k in range(1, 200):
        nxt = term * k / x
        if abs(nxt) >= abs(term):
            break
        term = nxt
        total += term
        if abs(term) < _EPS * abs(total):
            break
    return math.exp(x) / x * total

def _e1_continued_fraction(z):
    # E1(z) via the modified Lentz continued fraction; solid for z >= 1.
    b = z + 1.0
    c = 1.0 / _FPMIN
    d = 1.0 / b
    h = d
    for i in range(1, 300):
        a = -i * i
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return h * math.exp(-z)


def reg_inc_beta_half(a, b):
    """I_{1/2}(a, b) = P(Beta(a, b) < 1/2), by continued fraction."""
    if a <= 0 or b <= 0:
        raise ValueError(f"beta parameters must be positive, got a={a}, b={b}")
    x = 0.5
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + (a + b) * math.log(x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, x) / b


def _betacf(a, b, x):
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, 300):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 3e-16:
            break
    return h


# ---------------------------------------------------------------------------
# Detection-probability formulas
# ---------------------------------------------------------------------------

def _check_d_theta(d, theta):
    return integer("d", d, 2), integer("theta", theta, 1)


def trickle_ft_lower_bound(d, theta):
    """Strict-win lower bound for trickle first-timestamp at t = infinity:
    theta/(d ln 2) * [Ei(2^d ln rho) - Ei(ln rho)], rho = (d-1)/(d-1+theta).
    The doubly-exponential Ei argument underflows fast; for 2^d |ln rho| > 700
    that term is 0 to double precision and is dropped.
    """
    d, theta = _check_d_theta(d, theta)
    rho = (d - 1) / (d - 1 + theta)
    lr = math.log(rho)
    if d * _LN2 + math.log(-lr) > math.log(700.0):
        big = 0.0
    else:
        big = exponential_integral((2.0 ** d) * lr)
    value = theta / (d * _LN2) * (big - exponential_integral(lr))
    return TheoryValue("trickle_ft_lb", value, d=d, theta=theta)


def trickle_ft_asymptotic(d):
    """Large-d shape of the trickle first-timestamp bound: ln(d)/(d ln 2)."""
    d = integer("d", d, 2)
    return TheoryValue("trickle_ft_asym", math.log(d) / (d * _LN2), d=d)


def trickle_ml_upper(d, theta):
    """Ceiling for any trickle estimator: 1 - d/(2(theta+d))."""
    d, theta = _check_d_theta(d, theta)
    return TheoryValue("trickle_ml_ub", 1 - d / (2 * (theta + d)), d=d, theta=theta)


def trickle_ml_lower(d, theta, t):
    """Ball-centrality floor at time t: max(0, upper - (d/(theta+d))^t)."""
    d, theta = _check_d_theta(d, theta)
    if t is None or not 1 <= t < math.inf:
        raise ValueError(f"need finite t >= 1, got {t}")
    value = 1 - d / (2 * (theta + d)) - (d / (theta + d)) ** t
    return TheoryValue("trickle_ml_lb", max(0.0, value), d=d, theta=theta, t=t)


def diffusion_ft(d, theta):
    """Exact diffusion first-timestamp detection at t = infinity:
    (theta/(d-2)) * ln((d+theta-2)/theta).  Needs d > 2; theta may be real.
    """
    d = integer("d", d, 3)
    if theta is None or not 0 < theta < math.inf:
        raise ValueError(f"need 0 < theta < inf, got {theta}")
    value = theta / (d - 2) * math.log((d + theta - 2) / theta)
    return TheoryValue("diffusion_ft", value, d=d, theta=theta)


def reporting_centrality_constant(d):
    """Liminf floor for reporting centrality (independent of theta):
    C_d = 1 - d*(1 - I_{1/2}(1/(d-2), 1 + 1/(d-2))).
    """
    d = integer("d", d, 3)
    a = 1.0 / (d - 2)
    value = 1 - d * (1 - reg_inc_beta_half(a, 1 + a))
    return TheoryValue("rc_constant", value, d=d)


def spy_ft_bound(p):
    """Spy-based first-timestamp liminf floor: p itself."""
    if p is None or not 0 <= p <= 1:
        raise ValueError(f"need p in [0, 1], got {p}")
    return TheoryValue("spy_ft_lb", p, p=p)


# Each formula id's evaluator, called as f(d, theta, t, p).
FORMULAS = {
    "trickle_ft_lb": lambda d, theta, t, p: trickle_ft_lower_bound(d, theta),
    "trickle_ft_asym": lambda d, theta, t, p: trickle_ft_asymptotic(d),
    "trickle_ml_ub": lambda d, theta, t, p: trickle_ml_upper(d, theta),
    "trickle_ml_lb": lambda d, theta, t, p: trickle_ml_lower(d, theta, t),
    "diffusion_ft": lambda d, theta, t, p: diffusion_ft(d, theta),
    "rc_constant": lambda d, theta, t, p: reporting_centrality_constant(d),
    "spy_ft_lb": lambda d, theta, t, p: spy_ft_bound(p),
}

