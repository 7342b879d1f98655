"""A tour of the built-in degree-3 cyclic algebra with involution.

The algebra is A = L + LX + LX^2 over E = Q(i), where L = E(eta) with
eta = zeta_7 + zeta_7^{-1}, X^3 = alpha = 10 - 5i and X b = tau(b) X for
tau(eta) = eta^2 - 2.  alpha has valuation 1 at the prime (2 + i), which
stays inert in L, so alpha is not a relative norm and A is a division
algebra.  The involution of second kind is built from beta = 5, which
matches norms: N(5) = 125 = alpha * conj(alpha).
"""

from cmforms import (builtin_example, is_division_candidate,
                     splitting_signature, unitary_membership)
from cmforms.serialize import element_to_json


def main():
    algebra, involution = builtin_example()
    ext = algebra.ext
    E = algebra.E
    X = algebra.X()
    eta = ext.gen()

    print("alpha =", element_to_json(algebra.alpha), "(10 - 5i)")
    print("X^3 == alpha:", X * X * X == algebra.element(algebra.alpha_L))
    print("X eta == tau(eta) X:",
          X * algebra.from_L(eta) == algebra.from_L(ext.tau_of(eta)) * X)
    print("reduced_norm(X) =", element_to_json(algebra.reduced_norm(X)))
    print()

    print("The involution fixes K = Q(eta), inverts i, and sends")
    print("X to (beta/alpha) X^2; its axioms were verified at construction")
    print("on the generators 1, y, X (27 basis pairs, which imply all 81),")
    print("with compatibility with conjugate-transposition under the")
    print("splitting A x L = Mat(3, L).")
    print()

    h = algebra.one()
    for x, label in [(algebra.one(), "1"), (-algebra.one(), "-1"),
                     (algebra.from_L(eta), "eta"), (X, "X")]:
        v = unitary_membership(algebra, involution, h, x)
        print("unitary_membership(1, %-3s) -> %s" % (label, v.status))
    print()

    for coeffs, label in [([1], "1"), ([-1], "-1"), ([1, 1], "1 + eta")]:
        h = algebra.from_L(ext.element(coeffs))
        sigs = splitting_signature(algebra, involution, h)
        print("splitting_signature(%-7s) = %s" % (label, sigs))
    print()
    print("h = 1 + eta realizes the signature pair (2,1) needed for a")
    print("lattice in U(2,1).")
    print()

    verdict = is_division_candidate(algebra, budget=2000)
    print("is_division_candidate(budget=2000):", verdict.status)
    print("(honest: no relative-norm witness exists for this alpha, and")
    print("the complete local test is out of scope, so the bounded search")
    print("reports Unknown rather than claiming a proof)")


if __name__ == "__main__":
    main()
