"""High-precision reference evaluations used as test oracles.

Every closed form is re-implemented here directly from its displayed
expression with mpmath at 50 significant digits, independently of the
package's float64 code paths (which rearrange the algebra for numerical
range).  Frozen expected values in the tests were produced by these
functions.
"""

from mpmath import e, log, mp, mpf, pi

mp.dps = 50

INF = mpf("inf")


def log2(x):
    return log(x) / log(2)


def mi(s, n):
    """0.5*log2(1 + s/n)."""
    return log2(1 + mpf(s) / mpf(n)) / 2


def cutset_a(px, pj, c2):
    return min(mpf(c2) + mi(px, mpf(pj) + 1), mi(px, 1))


def cutset_b(px, pj, c1, c2):
    return min(mpf(c1), mpf(c2) + mi(px, mpf(pj) + 1), mi(px, 1))


def cutset_c(px, pj, c1, c2):
    g = mi(px, mpf(pj) + 1)
    return min(mpf(c1) + mpf(c2), mpf(c1) + g, mpf(c2) + g, mi(2 * mpf(px), 1))


def modulo_constant():
    return log2(8 * pi * e) / 4


def modulo_c(px, pj, c1, c2):
    return (mpf(c1) + mpf(c2) + mi(px, pj)) / 2 + modulo_constant()


def full_cooperation(px):
    return mi(2 * mpf(px), 1)


def ach_a(px, pj, c2):
    px, pj, c2 = mpf(px), mpf(pj), mpf(c2)
    m = min(1 + px, pj * px / (px + 1))
    return max(log2((1 + px) / (1 + m * 2 ** (-2 * c2))) / 2, mpf(0))


def ach_b(px, pj, c1, c2):
    px, pj, c1, c2 = mpf(px), mpf(pj), mpf(c1), mpf(c2)
    if c1 == 0:
        return mpf(0)
    m = min(1 + px, pj * px / (px + 1))
    num = (1 + px) * (2 ** (2 * c1) - 1)
    den = px + 2 ** (2 * c1) + m * 2 ** (-2 * c2) * (2 ** (2 * c1) - 1)
    return max(log2(num / den) / 2, mpf(0))


def _ach_c_prop_one(px, pj, ca, cb):
    px, pj, ca, cb = mpf(px), mpf(pj), mpf(ca), mpf(cb)
    if ca == 0:
        return mpf(0)
    m = min(px, pj * px**2 / (px + 1) ** 2)
    den = px / (px + 1) + px / (2 ** (2 * ca) - 1) + m * 2 ** (-2 * cb)
    return max(log2(px / den) / 2, mpf(0))


def ach_c_prop(px, pj, c1, c2):
    return max(_ach_c_prop_one(px, pj, c1, c2), _ach_c_prop_one(px, pj, c2, c1))


def _ach_c_derived_one(px, pj, ca, cb):
    px, pj, ca, cb = mpf(px), mpf(pj), mpf(ca), mpf(cb)
    if ca == 0 or cb == 0:
        return mpf(0)
    pd1 = px / (2 ** (2 * ca) - 1)
    m = min(px, 4 * pj + 2 + pd1)
    den = mpf(1) / 2 + pd1 + m / (2 ** (2 * cb) - 1)
    return max(log2(px / den) / 2, mpf(0))


def ach_c_derived(px, pj, c1, c2):
    return max(_ach_c_derived_one(px, pj, c1, c2), _ach_c_derived_one(px, pj, c2, c1))


def case_c_allocation(px, pj, ca, cb):
    """(alpha, p_d of the plain link ca, p_d of the binned link cb, p_neq) of the
    Case C lattice scheme, the binned relay resolved against the side
    information s = alpha^2*(4*pj + 2) + p_d(ca)."""
    px, pj, ca, cb = mpf(px), mpf(pj), mpf(ca), mpf(cb)
    alpha = 2 * px / (4 * px + 2)
    plain = px / (2 ** (2 * ca) - 1)
    s = alpha**2 * (4 * pj + 2) + plain
    binned = min(px, s) / (2 ** (2 * cb) - 1) if cb > 0 else INF  # s > 0 where px > 0
    return alpha, plain, binned, 2 * alpha**2 + (1 - 2 * alpha) ** 2 * px + plain + binned


def case_b_allocation(px, pj, c1, c2):
    """(alpha, p_d1, p_d2, p_neq) of the Case B lattice scheme (Case A at
    c1 = inf), relay 2 describing min(px, alpha^2*pj) at rate c2."""
    px, pj, c1, c2 = mpf(px), mpf(pj), mpf(c1), mpf(c2)
    alpha = px / (px + 1)
    p_d1 = px / (2 ** (2 * c1) - 1)
    p_d2 = min(px, alpha**2 * pj) * 2 ** (-2 * c2)
    return alpha, p_d1, p_d2, px / (px + 1) + p_d1 + p_d2


def local_b(px, pj, c1):
    return min(mpf(c1), mi(px, mpf(pj) + 1))


def local_c(px, pj, c1, c2):
    return min(mpf(c1) + mpf(c2), mi(px, mpf(pj) + 1))


def interference_info(px, pj):
    return log2(mpf(px) * mpf(pj) / (mpf(px) + mpf(pj))) / 2


def within(impl: float, oracle, rel: float = 1e-12, abs_floor: float = 1e-13) -> bool:
    """Mixed tolerance: relative <= rel, or absolute <= abs_floor.

    The absolute floor only matters where a rate sits within ~1e-4 of its
    clamp at zero, where no float64 evaluation can hold 1e-12 relative
    precision; such points are still checked to 1e-13 absolute.
    """
    err = abs(mpf(impl) - oracle)
    return bool(err <= rel * abs(oracle) or err <= abs_floor)
