"""The wall residue routes by monomial expansion: the reference for Andréief.

Each route multiplies out its polynomial coupling (the squared Vandermonde
prod_{i != j} (x_j - x_i) of the symmetric variables, the couplings and the
border determinant) into monomials in all variables, and sums c times the
product of one-variable residue sums, one ``laurent_residue`` call per
(variable, exponent, pole).  It returns (value, err) with err = ROUNDING times
|scale| times the summed size of the terms, the error the residue routes
reported before Andréief.  The expansion has 3, 19, 201 and 2,961 terms
for 2, ..., 5 symmetric variables.

``two_species_crossing`` is the paper's two-determinant form of the
two-species total crossing, an independent route to ``two_tasep_crossing``,
which sums it as two colour blocks about 1.
"""

from __future__ import annotations

import math

from asepcross import formulas
from asepcross.core import signed_permutations
from asepcross.formulas import ROUNDING, WallQuery
from asepcross.quadrature import MultivariatePolynomial, RationalExpDescriptor, laurent_residue


def vandermonde_squared_poly(nvars: int, k: int) -> MultivariatePolynomial:
    """prod_{i != j} (x_j - x_i) over the first k of nvars variables."""
    poly = MultivariatePolynomial(nvars)
    for i in range(k):
        for j in range(k):
            if i != j:
                poly.multiply_linear({j: 1.0, i: -1.0})
    return poly


def monomial_residues(scale: float, variables, terms) -> tuple[complex, float]:
    """scale times the sum over the (e, c) monomials c x^e of ``terms`` of c
    times prod_i (residue sum of variable i times x_i^e_i), and its error."""
    cache = {}

    def one(i, e):
        if (i, e) not in cache:
            desc, points = variables[i]
            if e:
                desc = RationalExpDescriptor(desc.exp_coeff, desc.factors + ((0j, e),))
            residues = [laurent_residue(desc, p) for p in points]
            cache[i, e] = sum(residues, 0j), sum(map(abs, residues))
        return cache[i, e]

    total, size = 0j, 0.0
    for expo, cf in terms:
        term, term_size = complex(cf), abs(cf)
        for i, e in enumerate(expo):
            value, value_size = one(i, e)
            term *= value
            term_size *= value_size
        total += term
        size += term_size
    return scale * total, ROUNDING * abs(scale * size)


def _variable(t, factors, points):
    return RationalExpDescriptor(t, factors), points


def gamma_wall(n: int, s: int, t: float):
    z = _variable(t, ((1.0, -n), (0.0, 1 - s)), (0.0, 1.0))
    return monomial_residues(1.0 / math.factorial(n), [z] * n,
                             vandermonde_squared_poly(n, n).items())


def bernoulli_inverted(q: WallQuery):
    n, m, rho, t, s1, s2 = q.n, q.m, q.rho, q.t, q.s1, q.s2
    k = n - m
    poly = vandermonde_squared_poly(n, m)
    for i in range(m):
        for j in range(k):
            poly.multiply_linear({i: 1.0, m + j: -1.0})
    beta = k + s1 - s2 - 1
    border = {}
    for cols, sgn in signed_permutations(k):
        term = MultivariatePolynomial(n)
        for i, j in enumerate(cols):
            mono = lambda e: (0,) * (m + i) + (e,) + (0,) * (k - 1 - i)
            term.multiply_terms({mono(k - 1 - j): 1.0, mono(beta): -1.0})
        for key, cf in term.items():
            border[key] = border.get(key, 0.0) + sgn * cf
    poly.multiply_terms({key: cf for key, cf in border.items() if cf != 0})
    z = _variable(t, ((1.0, -n), (1.0 - rho, -1), (0.0, -s2 - m + 1)), (0.0, 1.0, 1.0 - rho))
    w = [_variable(t, ((1.0, i - k), (0.0, -s1 - m)), (0.0, 1.0)) for i in range(k)]
    return monomial_residues(rho**m / math.factorial(m), [z] * m + w, poly.items())


def one_wall(q: WallQuery):
    n, m, rho, t, s2 = q.n, q.m, q.rho, q.t, q.s2
    poly = vandermonde_squared_poly(m + 1, m)
    for i in range(m):
        poly.multiply_linear({m: 1.0, i: -1.0})
    z = _variable(t, ((1.0, -(m + 1)), (1.0 - rho, -1), (0.0, -s2 - m + 1)),
                  (0.0, 1.0, 1.0 - rho))
    w = _variable(t, ((1.0, -1), (0.0, n - 2 * m - s2 - 1)), (0.0,))
    return monomial_residues((-1.0) ** (m + 1) * rho**m / math.factorial(m),
                             [z] * m + [w], poly.items())


def two_species_crossing(mu, nu, m: int, t: float):
    """The determinant blocks of the m type-2 variables z_i and the n - m
    type-1 variables w_j on circles about the origin, coupled only through
    prod (w_j - z_i), summed exactly in x = 1/z: a ``Result``."""
    k = len(mu) - m
    z_block = [[(formulas._variable(0, t, nu[k + j] - mu[i] - 1, i - j - k, k), 0, None)
                for j in range(m)] for i in range(m)]
    w_block = [[(formulas._variable(0, t, nu[j] - mu[m + i] - 1, i - j, m), 0, None)
                for j in range(k)] for i in range(k)]
    pairs = [(i, m + j) for i in range(m) for j in range(k)]  # prod (w_j - z_i)
    return formulas._moment_determinants(1.0, [z_block, w_block],
                                         formulas._expand_pairs(m + k, pairs))
