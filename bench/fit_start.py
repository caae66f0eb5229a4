"""Fit the endpoint solve's start table, ``endpoint._FIT``, from mpmath.

    python bench/fit_start.py

prints the table's literals, then, for each piece, the start's worst
distance from b(a) at the midpoints between the fit's nodes, and the worst
residual that distance leaves, |phi_a'(b)| |start - b|.

The start is pi - s (s_max - s) q, s = sqrt(log(a / a_min)), where a_min and
a_max are the admissibility window's ends, the roots of phi_a(pi) = psi(a).
[0, s_max] is cut into PIECES equal parts; on each, q is a polynomial of
degree DEGREE in x, the part mapped onto [-1, 1].  Each polynomial is the
least-squares fit, in the Chebyshev basis and weighted by s (s_max - s) so
that it fits b itself, to (pi - b(a)) / (s (s_max - s)) at NODES Chebyshev
points of its part.  b(a) is solved by Newton's method from the library's
own solve at DIGITS + 10 digits and rounded to DIGITS, the fit's working
precision.  The coefficients are then rewritten as monomials, highest
degree first, and each is rounded once to binary64.
"""

import math
import sys
from pathlib import Path

import mpmath

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ti2kit import endpoint

PIECES = 2
DEGREE = 24
NODES = 4 * (DEGREE + 1)
DIGITS = 30


def psi(a):
    return mpmath.im(mpmath.polylog(2, mpmath.mpc(1, a)))


def phi(a, b):
    return mpmath.re(mpmath.polylog(2, -a * mpmath.expj(b)) - mpmath.polylog(2, -a))


def window():
    """(a_min, a_max), the roots of phi_a(pi) = psi(a) next to endpoint's."""
    return tuple(mpmath.findroot(lambda a: phi(a, mpmath.pi) - psi(a), mpmath.mpf(a0))
                 for a0 in (endpoint._A_MIN, endpoint._A_MAX))


def b_of_a(a):
    """b(a) by Newton's method on phi_a(b) = psi(a), phi_a'(b) = Arg(1 + a e^{ib}).

    The steps run at DIGITS + 10 digits and b is then rounded to DIGITS, so
    that the table does not depend on the library's start the steps take.
    """
    with mpmath.workdps(DIGITS + 10):
        target = psi(a)
        b = mpmath.mpf(endpoint.solve_endpoint_b(float(a), 1e-14).b)
        for _ in range(50):
            step = (phi(a, b) - target) / mpmath.arg(1 + a * mpmath.expj(b))
            b -= step
            # Next to a_min, phi_a'(b) is about 1e-5, and phi_a's last
            # digits leave the step no smaller than about 1e-(DIGITS + 6).
            if abs(step) < mpmath.mpf(10) ** (-2 - DIGITS):
                break
        else:
            raise ArithmeticError(f"Newton's method did not converge at a = {a}")
    return +b


def monomials(c):
    """Monomial coefficients, constant first, of sum_k c[k] T_k(x)."""
    out = [mpmath.mpf(0)] * len(c)
    prev, t = [], [1]  # T_{k-1} and T_k, constant first
    for ck in c:
        for j, v in enumerate(t):
            out[j] += ck * v
        # T_{k+1} = 2x T_k - T_{k-1}, and T_1 = x.
        nxt = [0] + [2 * v for v in t] if prev else [0, 1]
        for j, v in enumerate(prev):
            nxt[j] -= v
        prev, t = t, nxt
    return out


def chebyshev_nodes(n):
    return [mpmath.cos(mpmath.pi * (j + mpmath.mpf(1) / 2) / n) for j in range(n)]


def fit():
    """The table: per piece, its DEGREE + 1 monomial coefficients, x^DEGREE first."""
    a_min, a_max = window()
    s_max = mpmath.sqrt(mpmath.log(a_max / a_min))
    h = s_max / PIECES
    table = []
    for i in range(PIECES):
        rows, rhs = [], []
        for x in chebyshev_nodes(NODES):
            s = h * (i + (x + 1) / 2)
            w = s * (s_max - s)
            rows.append([w * mpmath.chebyt(k, x) for k in range(DEGREE + 1)])
            rhs.append(mpmath.pi - b_of_a(a_min * mpmath.exp(s * s)))
        c, _ = mpmath.qr_solve(mpmath.matrix(rows), mpmath.matrix(rhs))
        table.append(tuple(float(v) for v in reversed(monomials(list(c)))))
    return table


def start(table, a):
    """The start at a float a from ``table``, in floats, as endpoint._start takes it."""
    s = math.sqrt(math.log(a) - endpoint._LOG_A_MIN)
    t = s * (len(table) / endpoint._S_MAX)
    i = int(t)
    x = 2.0 * (t - i) - 1.0
    q = 0.0
    for c in table[i]:
        q = q * x + c
    return math.pi - s * (endpoint._S_MAX - s) * q


def main():
    mpmath.mp.dps = DIGITS
    table = fit()
    print("_FIT = (")
    for piece in table:
        print("    (")
        for k in range(0, len(piece), 4):
            print("        " + " ".join(f"{v!r}," for v in piece[k:k + 4]))
        print("    ),")
    print(")")
    a_min, a_max = window()
    s_max = mpmath.sqrt(mpmath.log(a_max / a_min))
    nodes = sorted(chebyshev_nodes(NODES))
    for i in range(PIECES):
        distance = residual = 0.0
        for x0, x1 in zip(nodes, nodes[1:]):
            s = s_max / PIECES * (i + ((x0 + x1) / 2 + 1) / 2)
            a = float(a_min * mpmath.exp(s * s))
            b = b_of_a(mpmath.mpf(a))
            d = abs(start(table, a) - b)
            distance = max(distance, float(d))
            residual = max(residual, float(d * mpmath.arg(1 + a * mpmath.expj(b))))
        print(f"piece {i}: start within {distance:.2g} of b(a), residual {residual:.2g}")


if __name__ == "__main__":
    main()
