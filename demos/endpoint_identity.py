#!/usr/bin/env python3
"""The tunable-endpoint identity, end to end.

For admissible a > 0 (those with 0 < psi(a) < phi_a(pi)), a unique endpoint
b(a) in (0, pi) balances the auxiliary integral against Im Li2(1 + i a), and

    Ti2(a) = arctan(a) log(a) + I(a, b(a)) - pi b(a)/2 + b(a)^2/2
             - (pi/4) log(a^2 + 1).

This script scans for the empirically admissible window, solves b(a) on a
grid, and closes the loop with the quadrature-backed identity check.

Run: python demos/endpoint_identity.py
"""

from ti2kit import VerificationConfig, admissibility, run_identity, solve_endpoint_b


def linspace(lo, hi, n):
    """n evenly spaced points from lo to hi, both ends included."""
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def scan_admissible_window():
    """Bracket the admissible window by bisecting the two sign changes."""
    grid = linspace(0.05, 2.0, 40) + linspace(2.0, 30.0, 57)
    flags = [admissibility(a).admissible for a in grid]

    def bisect(lo, hi):
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if admissibility(mid).admissible == admissibility(hi).admissible:
                hi = mid
            else:
                lo = mid
        return 0.5 * (lo + hi)

    first = next(i for i, f in enumerate(flags) if f)
    last = max(i for i, f in enumerate(flags) if f)
    lower = bisect(grid[first - 1], grid[first])
    upper = bisect(grid[last], grid[last + 1])
    return lower, upper, grid, flags


def main():
    print("admissibility scan (strict test 0 < psi(a) < phi_a(pi)):\n")
    lower, upper, grid, flags = scan_admissible_window()
    for a in (0.1, 0.3, 0.5, 1.0, 2.0, 10.0, 20.0):
        res = admissibility(a)
        print(f"  a={a:>5}: psi={res.psi:12.8f}  phi_pi={res.phi_pi:12.8f}  "
              f"admissible={res.admissible}")
    print(f"\nempirically admissible window on the scanned grid: "
          f"({lower:.6f}, {upper:.6f})")
    print("(an empirical bracket of the sampled sign changes, not a claim "
          "about the full admissible set)\n")

    print(f"{'a':>6} {'b(a)':>18} {'phi-residual':>13} {'identity residual':>18}")
    print("-" * 60)
    for a in (0.5, 0.75, 1.0, 1.5, 2.0, 5.0, 10.0):
        sol = solve_endpoint_b(a, 1e-12)
        (report,) = run_identity("theorem1", VerificationConfig(a_grid=(a,)))
        print(f"{a:>6} {sol.b:>18.12f} {sol.residual:>13.1e} "
              f"{report.abs_residual:>18.1e}")
    print("\nevery row evaluates the left side by series/dilogarithm and the")
    print("right side by root-solve plus adaptive quadrature: two routes, one value.")


if __name__ == "__main__":
    main()
