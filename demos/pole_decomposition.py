#!/usr/bin/env python3
"""The pole decomposition of arctan(x/alpha) and its integral consequences.

The cotangent partial-fraction expansion splits arctan(x/alpha) into a
hyperbolic principal term plus arctangent corrections indexed by the poles
of cot.  Integrating against dx/x turns that into a decomposition of
Ti2(A/alpha) whose A = alpha = pi/n members all evaluate Catalan's constant.

Run: python demos/pole_decomposition.py
"""

import math

from ti2kit import VerificationConfig, catalan_reference, h_series, k1_closed, run_identity

PI = math.pi


def main():
    print("pointwise identity, pole sum summed to the end:\n")
    print(f"{'alpha':>6} {'x':>9} {'arctan(x/alpha)':>20} {'residual':>10}")
    grid = ((0.4, 0.8), (1.0, 1.0), (2.8, 4.0), (1.0, 1e3), (1.0, 1e6))
    for rep in run_identity("pointwise", VerificationConfig(alpha_x_grid=grid)):
        alpha, x = rep.params["alpha"], rep.params["x"]
        print(f"{alpha:>6} {x:>9g} {rep.lhs:>20.15f} {rep.abs_residual:>10.1e}")

    print("\ntwo routes to the hyperbolic term K(1) = H(1, 1):\n")
    hq = h_series(1.0, 1.0).value  # quadrature below A = 3
    hs = k1_closed()  # the resummed Ei series in closed form
    print(f"    quadrature      {hq:.15f}")
    print(f"    resummed series {hs:.15f}  diff {abs(hq - hs):.1e}")

    print("\ngeneral decomposition Ti2(A/alpha) = H + pole differences:\n")
    grid = ((1.0, 1.0), (1.0, PI / 2.0), (2.0, 2.5))
    for rep in run_identity("corollary2", VerificationConfig(A_alpha_grid=grid)):
        A, alpha = rep.params["A"], rep.params["alpha"]
        print(f"  A={A:<4} alpha={alpha:<8.5f} residual {rep.abs_residual:.2e} "
              f"(tail budget {rep.tail_bound:.2e})")

    g_ref = catalan_reference(1e-14)
    print("\nthe Catalan family A = alpha = pi/n:\n")
    print(f"{'n':>3} {'assembled value':>20} {'|value - G|':>12} {'tail':>10}")
    for rep in run_identity("corollary3", VerificationConfig(n_grid=(2, 3, 4, 6))):
        print(f"{rep.params['n']:>3g} {rep.rhs:>20.15f} {rep.abs_residual:>12.2e} "
              f"{rep.tail_bound:>10.2e}")

    (rep,) = run_identity("lemma1")
    print(f"\nHurwitz-zeta assembly of G, summed to the end ({rep.terms_used} terms):\n")
    print(f"    {rep.rhs:.15f}  |value - G| {rep.abs_residual:.2e}  tail {rep.tail_bound:.2e}")
    print(f"\nreference: {g_ref:.15f}")


if __name__ == "__main__":
    main()
