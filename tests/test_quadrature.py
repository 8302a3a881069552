import math

import numpy as np
import pytest

from asepcross.core import AccuracyError, ValidationError
from asepcross.quadrature import (
    EVAL_CHUNK,
    ContourProduct,
    ContourSpec,
    OpenGrid,
    RationalExpDescriptor,
    laurent_residue,
    product_integrate,
    residue_sum,
)


class TestContourSpecs:
    def test_validation(self):
        with pytest.raises(ValidationError):
            ContourSpec(radius=0.0)
        with pytest.raises(ValidationError):
            ContourSpec(orientation=2)

    def test_nesting_contract(self):
        ContourProduct((ContourSpec(0, 0.3), ContourSpec(0, 0.7)), ("z", "u"))
        with pytest.raises(ValidationError):
            ContourProduct((ContourSpec(0, 0.8), ContourSpec(0, 0.7)), ("z", "u"))


def one_circle(f, contour: ContourSpec) -> complex:
    """product_integrate on a one-circle ContourProduct, f of the one axis."""
    return product_integrate(lambda Z: f(Z[0]), ContourProduct((contour,)))[0]


class TestCircleIntegrate:
    """The driver on a single circle, where it replaces a separate routine."""

    def test_simple_pole(self):
        val = one_circle(lambda z: 1.0 / z, ContourSpec(0.0, 1.0))
        assert abs(val - 1.0) < 1e-15

    def test_no_residue(self):
        val = one_circle(lambda z: np.ones_like(z), ContourSpec(0.0, 1.0))
        assert abs(val) < 1e-15

    def test_essential_singularity(self):
        val = one_circle(lambda z: np.exp(1.0 / z), ContourSpec(0.0, 0.5))
        assert abs(val - 1.0) < 1e-12

    def test_orientation(self):
        val = one_circle(lambda z: 1.0 / z, ContourSpec(0.0, 1.0, orientation=-1))
        assert abs(val + 1.0) < 1e-15

    def test_laurent_polynomial_exactness(self, rng):
        # trapezoid on N nodes is exact when no power but -1 is -1 mod N:
        # with powers -20..20 the 32- and 64-node levels both are, so the
        # driver stops at 64
        powers = range(-20, 21)
        coeffs = {p: complex(*rng.normal(size=2)) for p in powers}

        def f(z):
            out = np.zeros_like(z)
            for p, c in coeffs.items():
                out = out + c * z**p
            return out

        g, levels = counted(lambda Z: f(Z[0]))
        val, _ = product_integrate(g, ContourProduct((ContourSpec(0.0, 0.8),)))
        assert levels == {32: 32, 64: 64}
        assert abs(val - coeffs[-1]) < 1e-12 * max(abs(c) for c in coeffs.values())

    def test_pole_on_contour_detected(self):
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(AccuracyError):
                one_circle(lambda z: 1.0 / (z - 1.0), ContourSpec(0.0, 1.0))


class TestProductIntegrate:
    def test_product_of_residues(self):
        cp = ContourProduct((ContourSpec(0, 0.3), ContourSpec(0, 0.7)), ("z", "u"))
        val, err = product_integrate(lambda Z: 1.0 / (Z[0] * Z[1]), cp)
        assert abs(val - 1.0) < 1e-14
        assert err < 1e-10

    def test_iterated_residue(self):
        # inner pole in z at the origin leaves 1/u, whose u-residue is 1
        cp = ContourProduct((ContourSpec(0, 0.3), ContourSpec(0, 0.7)), ("z", "u"))
        val, _ = product_integrate(lambda Z: 1.0 / ((Z[1] - Z[0]) * Z[0]), cp)
        assert abs(val - 1.0) < 1e-12

    def test_stopping_rule_reports_error(self):
        cp = ContourProduct((ContourSpec(0, 0.5),))
        val, err = product_integrate(lambda Z: np.exp(1.0 / Z[0]), cp, tol=1e-10)
        assert err < 1e-10
        assert abs(val - 1.0) < 1e-10

    def test_same_role_permutation_invariance(self):
        f = lambda Z: (1.0 + Z[0] * Z[1]) / (Z[0] * Z[1])
        a, _ = product_integrate(
            f, ContourProduct((ContourSpec(0, 0.3), ContourSpec(0, 0.7)))
        )
        b, _ = product_integrate(
            f, ContourProduct((ContourSpec(0, 0.7), ContourSpec(0, 0.3)))
        )
        assert abs(a - b) < 1e-12

    def test_budget_failure_reports_iterates(self):
        cp = ContourProduct((ContourSpec(0, 0.5), ContourSpec(0, 0.6)))
        with pytest.raises(AccuracyError, match="budget"):
            product_integrate(
                lambda Z: np.exp(1.0 / Z[0]) / Z[1], cp, tol=1e-14, node_budget=1500
            )


def flat_reference(f, cp, tol=1e-10, start=32, max_nodes=4096):
    """Node doubling on the flat (d, M) list of all node tuples, one call per
    level; returns (value, err, {nodes per axis: points evaluated})."""
    d = cp.dim
    orient = math.prod(c.orientation for c in cp.contours)
    prev = value = None
    levels = {}
    n = start
    while n <= max_nodes:
        axes = [c.points(n) for c in cp.contours]
        idx = np.indices((n,) * d).reshape(d, -1)
        pts = np.array([axes[k][idx[k]] for k in range(d)])
        weight = np.prod([pts[k] - c.center for k, c in enumerate(cp.contours)], axis=0)
        vals = np.broadcast_to(f(pts), weight.shape)
        levels[n] = pts.shape[1]
        prev, value = value, orient * complex(np.sum(vals * weight)) / n**d
        if prev is not None and abs(value - prev) < tol:
            return value, abs(value - prev), levels
        n *= 2
    raise AssertionError("flat reference did not converge")


def counted(f, blocks=None):
    """Wrap f to tally node tuples per level (the last axis is always whole)."""
    levels = {}

    def g(Z):
        assert isinstance(Z, OpenGrid)
        n = Z[-1].size
        levels[n] = levels.get(n, 0) + Z.shape[1]
        if blocks is not None:
            blocks.append(Z)
        return f(Z)

    return g, levels


def random_laurent(rng, d, terms=6):
    powers = rng.integers(-4, 5, size=(terms, d))
    powers[0] = -1  # a nonzero residue
    coeffs = rng.normal(size=terms) + 1j * rng.normal(size=terms)

    def f(Z):
        out = 0.0
        for c, p in zip(coeffs, powers):
            term = c
            for k in range(d):
                term = term * Z[k] ** int(p[k])
            out = out + term
        return out

    return f, coeffs[0]


def exp_product(d):
    # (1 + z_0 z_{d-1}) prod_k exp(1/z_k): residue 1 + 1/3! at d = 1, else 1 + 1/2!^2
    def f(Z):
        out = 1.0 + Z[0] * Z[d - 1]
        for k in range(d):
            out = out * np.exp(1.0 / Z[k])
        return out

    return f, 1.0 + (1.0 / 6.0 if d == 1 else 0.25)


def circles(d):
    return ContourProduct(tuple(ContourSpec(0.0, 0.5 + 0.1 * k) for k in range(d)))


class TestOpenGrid:
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_block_shape_and_size(self, d):
        blocks = []
        g, levels = counted(lambda Z: 1.0 / math.prod(Z), blocks)
        product_integrate(g, ContourProduct((ContourSpec(0.0, 0.5),) * d))
        assert levels == {32: 32**d, 64: 64**d}
        for Z in blocks:
            M = math.prod(np.broadcast_shapes(*(z.shape for z in Z)))
            assert Z.shape == (d, M)
            assert Z.size == d * M
            assert M <= EVAL_CHUNK
            for k, z in enumerate(Z):
                assert all(extent == 1 for j, extent in enumerate(z.shape) if j != k)
            assert isinstance(Z[1:], OpenGrid)

    @pytest.mark.parametrize(
        "f",
        [lambda Z: 2.5, lambda Z: np.exp(1.0 / Z[1]) / Z[1]],
        ids=["constant", "one_variable"],
    )
    def test_broadcast_integrands(self, f):
        # a variable the integrand does not depend on integrates to zero
        cp = circles(3)
        g, levels = counted(f)
        value, err = product_integrate(g, cp)
        ref_value, ref_err, ref_levels = flat_reference(f, cp)
        assert abs(value) < 1e-14 and abs(value - ref_value) < 1e-14
        assert levels == ref_levels

    def test_nan_at_one_node_of_broadcast_axis(self):
        def f(Z):
            out = np.ones(Z[1].shape, dtype=complex)
            out[0, 5, 0] = np.nan
            return out

        with pytest.raises(AccuracyError, match="non-finite"):
            product_integrate(f, circles(3))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_flat_reference(self, rng, d):
        cp = circles(d)
        poly, residue = random_laurent(rng, d)
        for f, exact in ((poly, residue), exp_product(d)):
            g, levels = counted(f)
            value, err = product_integrate(g, cp)
            ref_value, ref_err, ref_levels = flat_reference(f, cp)
            assert levels == ref_levels
            assert abs(value - ref_value) < 1e-14
            assert abs(err - ref_err) < 1e-14
            assert abs(value - exact) < 1e-10


class TestLaurentResidue:
    def test_poisson_coefficient(self):
        desc = RationalExpDescriptor(
            exp_coeff=1.0, factors=((0.0, -3),), prefactor=math.exp(-1.0)
        )
        assert abs(laurent_residue(desc, 0.0) - math.exp(-1) / 2.0) < 1e-16

    def test_two_simple_poles(self):
        desc = RationalExpDescriptor(factors=((0.0, -1), (1.0, -1)))
        assert abs(laurent_residue(desc, 0.0) - (-1.0)) < 1e-16
        assert abs(laurent_residue(desc, 1.0) - 1.0) < 1e-16
        assert abs(residue_sum(desc, (0.0, 1.0))) < 1e-16

    def test_regular_point_gives_zero(self):
        desc = RationalExpDescriptor(factors=((0.0, -1),))
        assert laurent_residue(desc, 2.0) == 0.0

    def test_non_integer_order_rejected(self):
        with pytest.raises(ValidationError):
            RationalExpDescriptor(factors=((0.0, -1.5),))

    def test_order_cap(self):
        from asepcross.core import ResourceLimitError

        desc = RationalExpDescriptor(factors=((0.0, -12),))
        with pytest.raises(ResourceLimitError):
            laurent_residue(desc, 0.0, order_cap=10)

    def test_merges_repeated_points(self):
        desc = RationalExpDescriptor(factors=((0.0, -1), (1e-13, -2)))
        assert dict(desc.factors) == {0.0 + 0.0j: -3}

    def test_against_circle_integration(self, rng):
        worst = 0.0
        for _ in range(50):
            t = rng.uniform(0.2, 2.0)
            desc = RationalExpDescriptor(
                exp_coeff=t,
                factors=(
                    (0.0, -int(rng.integers(1, 6))),
                    (1.0, -int(rng.integers(1, 4))),
                    (2.5, int(rng.integers(0, 3))),
                ),
                prefactor=math.exp(-t),
            )
            exact = residue_sum(desc, (0.0, 1.0))
            quad = one_circle(desc, ContourSpec(0.5, 1.2))
            denom = max(1.0, abs(exact))
            worst = max(worst, abs(exact - quad) / denom)
        assert worst < 1e-10
