"""Reference computations the tests compare against.  No subcommand runs
them, so they live here rather than in src."""
import math
from fractions import Fraction

import numpy as np

from smallball.core import exact_sign_sum_distribution
from smallball.fourier import FpContext
from smallball.types import CoefficientMultiset, SignDistribution, SoundnessError, ValidationError

FP_IMAG_TOL = 1e-9  # largest imaginary part the F_p Fourier identity tolerates


def largest_binomial_sum(n: int, m: int) -> int:
    """S(n, m): sum of the m largest binomial coefficients C(n, i)."""
    if n < 1 or m < 0:
        raise ValidationError("need n >= 1 and m >= 0")
    if m == 0:
        return 0
    if m >= n + 1:
        return 2**n
    coeffs = sorted((math.comb(n, i) for i in range(n + 1)), reverse=True)
    return sum(coeffs[:m])


def mc_agreement_sigma(est: float, exact: float, trials: int) -> float:
    """|est - exact| in units of the exact-probability standard error."""
    se = math.sqrt(max(exact * (1 - exact), 1e-300) / trials)
    return abs(est - exact) / se


def fp_fourier_identity(ctx: FpContext, a_target: int):
    """Evaluate rho(a_target) = (1/p) sum_t prod_i cos(2 pi t a_i / p)
    e_p(-t a_target) and compare against the exact convolution probability.

    Returns (fourier_value, exact_probability, abs_difference).
    """
    if not ctx.strict:
        raise ValidationError("fp_fourier_identity requires a strict embedding context")
    t = np.arange(ctx.p, dtype=np.float64)
    prod = np.ones(ctx.p)  # prod_i cos(2 pi a_i t / p)
    for a in ctx.residues:
        prod *= np.cos((2.0 * math.pi * a / ctx.p) * t)
    phase = -2.0 * math.pi * (a_target % ctx.p) / ctx.p * t
    val = complex(np.sum(prod * np.cos(phase)), np.sum(prod * np.sin(phase))) / ctx.p
    if abs(val.imag) > FP_IMAG_TOL:
        raise SoundnessError(f"imaginary part {val.imag} exceeds {FP_IMAG_TOL}")
    A = CoefficientMultiset.of(ctx.entries)
    dist = exact_sign_sum_distribution(A, SignDistribution.bernoulli_pm1())
    exact = Fraction(dist.counts.get(a_target * dist.scale, 0), dist.total)
    return val.real, exact, abs(val.real - float(exact))
