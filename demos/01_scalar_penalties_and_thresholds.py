"""Scalar building blocks: Huber/MC penalties and threshold functions.

Walks through the scalar identities the rest of the library generalizes:
the Huber function as an infimal convolution, the MC penalty as its
complement, and firm thresholding as the closed-form minimizer of the
MC-regularized scalar least-squares cost.

Writes `demo_out/scalar_curves.csv` with columns suitable for plotting.
"""

import os

import numpy as np

from gmcreg import (
    FirmParams,
    ScalarPenaltyParams,
    firm,
    huber,
    scalar_minimize,
    scaled_huber,
    scaled_mc,
    soft,
)

OUT_DIR = "demo_out"


def main():
    x = np.linspace(-3.0, 3.0, 1201)

    # Scaling: as b grows the Huber function approaches |x| and the MC
    # penalty flattens; the two sum to |x| by construction.
    for b in (0.5, 1.0, 2.0):
        s = scaled_huber(x, b)
        phi = scaled_mc(x, b)
        dev = np.max(np.abs(s + phi - np.abs(x)))
        print(f"b={b}: huber range [0, {s.max():.3f}], mc saturates at "
              f"{phi.max():.3f}, |mc + huber - |x|| <= {dev:.1e}")

    # Firm thresholding: dead zone up to lam, identity beyond mu.
    lam, mu = 1.0, 2.0
    y = np.linspace(-3.0, 3.0, 1201)
    f = firm(y, FirmParams(lam, mu))
    s = soft(y, lam)
    print(f"firm(1.5; {lam}, {mu}) = {float(firm(1.5, FirmParams(lam, mu))):.3f} "
          "(soft would give 0.5, hard would give 1.5)")

    # firm is exactly the minimizer of the scalar MC-regularized cost
    rng = np.random.default_rng(0)
    for _ in range(3):
        y0 = rng.uniform(-3, 3)
        p = ScalarPenaltyParams(b=0.8, lam=1.0, a=1.0)
        print(f"argmin 0.5*(y - x)^2 + mc_penalty at y={y0:+.3f}: "
              f"{scalar_minimize(y0, p):+.4f}")

    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "scalar_curves.csv")
    with open(path, "w") as fh:
        fh.write("x,huber,mc_b1,huber_b2,mc_b2,soft,firm\n")
        for i, xi in enumerate(x):
            fh.write(
                f"{xi:.6g},{huber(xi):.6g},{scaled_mc(xi, 1.0):.6g},"
                f"{scaled_huber(xi, 2.0):.6g},{scaled_mc(xi, 2.0):.6g},"
                f"{float(s[i]):.6g},{float(f[i]):.6g}\n"
            )
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
