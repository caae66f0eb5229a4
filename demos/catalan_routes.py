#!/usr/bin/env python3
"""Five independent routes to Catalan's constant G = Ti2(1) ~ 0.9159655942.

Each route exercises a different part of the library:

  1. the accelerated alternating series (the reference oracle),
  2. the tunable-endpoint evaluation  G = b(1)^2/4 - (pi/4) log 2,
  3. the telescoping difference series of Ti2 values,
  4. the Clausen reduction at theta = pi/4,
  5. the Hurwitz-zeta / exponential-integral / log-gamma assembly.

Run: python demos/catalan_routes.py
"""

import math

from ti2kit import (
    catalan_reference,
    remark1_partial,
    run_identity,
    solve_endpoint_b,
    ti2,
    ti2_clausen_form,
)

PI = math.pi


def main():
    g_ref = catalan_reference(1e-14)
    print(f"reference (accelerated alternating series):  {g_ref:.15f}\n")

    routes = []

    sol = solve_endpoint_b(1.0, 1e-13)
    print(f"endpoint route: solved b(1) = {sol.b:.15f}")
    print(f"  (= sqrt(4G + pi log 2); {sol.iterations} evaluations, "
          f"residual {sol.residual:.1e})")
    endpoint = sol.b * sol.b / 4.0 - 0.25 * PI * math.log(2.0)
    routes.append(("endpoint  b(1)^2/4 - (pi/4) log 2", endpoint))

    K = 100
    telescoped = remark1_partial(K) + ti2(1.0 / (2 * K + 1))
    print(f"telescoping route: {K} differences leave exactly Ti2(1/{2*K+1})")
    routes.append((f"telescoped differences (K={K})", telescoped))

    routes.append(("Clausen reduction at theta=pi/4", ti2_clausen_form(PI / 4.0)))

    (lemma,) = run_identity("lemma1")
    print(f"zeta/Ei/log-gamma assembly: {lemma.terms_used} Hurwitz terms, "
          f"tail bound {lemma.tail_bound:.2e}")
    routes.append(("hurwitz + Ei + log-gamma", lemma.rhs))

    print(f"\n{'route':<38} {'value':<20} |value - reference|")
    print("-" * 78)
    for label, value in routes:
        print(f"{label:<38} {value:.15f}   {abs(value - g_ref):.2e}")


if __name__ == "__main__":
    main()
