import cmath
import math
import re
import time
import warnings

import numpy as np
import pytest

from asepcross import formulas, quadrature
from asepcross.core import (
    AccuracyError,
    ParticleConfig,
    ResourceLimitError,
    ValidationError,
    signed_permutations,
)
from asepcross.quadrature import (
    DEFAULT_MAX_NODES,
    DEFAULT_START_NODES,
    EVAL_CHUNK,
    ORDER_CAP,
    ROUNDOFF,
    ContourProduct,
    ContourSpec,
    OpenGrid,
    PairProduct,
    RationalExpDescriptor,
    _binomial_series,
    _roots,
    laurent_residue,
    product_integrate,
    residue_moments,
)
from conftest import make_blocks


class TestContourSpecs:
    def test_validation(self):
        with pytest.raises(ValidationError):
            ContourSpec(center=0.0, radius=0.0)


def residues(desc, points) -> list[complex]:
    """The residue of ``desc`` at each of the distinct ``points``."""
    return [laurent_residue(desc, p) for p in points]


def descriptor_value(desc, z):
    """The integrand ``desc`` describes, exp(exp_coeff (z - 1)) prod (z - a)^e, at z."""
    out = np.exp(desc.exp_coeff * (z - 1.0))
    for point, expo in desc.factors:
        out = out * (z - point) ** expo
    return out


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

    def test_laurent_polynomial_exactness(self, rng):
        # trapezoid on N nodes is exact when no power but -1 is -1 mod N:
        # with powers -20..20 the 32- and 64-node rules are and the 16-node
        # rule is not, so the 32 new nodes of the 64-node grid confirm it
        powers = range(-20, 21)
        coeffs = {p: complex(*rng.normal(size=2)) for p in powers}

        def f(z):
            out = np.zeros_like(z)
            for p, c in coeffs.items():
                out = out + c * z**p
            return out

        cp = ContourProduct((ContourSpec(0.0, 0.8),))
        g, levels = counted(lambda Z: f(Z[0]), cp)
        val, _ = product_integrate(g, cp)
        assert levels == {(32,): 32, (64,): 32}
        assert abs(val - coeffs[-1]) < 1e-12 * max(abs(c) for c in coeffs.values())

    @pytest.mark.parametrize("d", [1, 2])
    def test_aliasing_negative_control(self, d):
        # z^31 z = z^32 is 1 at every node of the 8-, 16- and 32-node rules,
        # so their sums agree on 1 against a true 0 and differ by rounding
        # only: the 32-node grid must not be accepted
        cp = ContourProduct((ContourSpec(0.0, 1.0),) * d)
        g, levels = counted(lambda Z: math.prod(z**31 for z in Z), cp)
        value, err = product_integrate(g, cp)
        assert abs(value) <= err < 1e-14
        assert set(levels) != {(32,) * d}

    def test_pole_on_contour_detected(self):
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(AccuracyError):
                one_circle(lambda z: 1.0 / (z - 1.0), ContourSpec(0.0, 1.0))


class TestProductIntegrate:
    def test_product_of_residues(self):
        cp = ContourProduct((ContourSpec(0, 0.3), ContourSpec(0, 0.7)))
        val, err = product_integrate(lambda Z: 1.0 / (Z[0] * Z[1]), cp)
        assert abs(val - 1.0) < 1e-14
        assert err < 1e-10

    def test_iterated_residue(self):
        # inner pole in z at the origin leaves 1/u, whose u-residue is 1
        cp = ContourProduct((ContourSpec(0, 0.3), ContourSpec(0, 0.7)))
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
        # the 1/Z[1] axis is exact under every rule, so it is trusted only
        # once doubled, and that second 32 x 32 grid is over the budget
        cp = ContourProduct((ContourSpec(0, 0.5), ContourSpec(0, 0.6)))
        with pytest.raises(AccuracyError, match="budget") as info:
            product_integrate(
                lambda Z: np.exp(1.0 / Z[0]) / Z[1], cp, tol=1e-14, node_budget=1500
            )
        message = str(info.value)
        assert "nodes per axis (32, 32), 1024 evaluations" in message
        value, est = re.search(r"last value (\S+) with est_err (\S+)$", message).groups()
        assert abs(complex(value) - 1.0) < 1e-12
        assert est == "inf"

    def test_node_cap_failure_reports_iterates(self):
        # a pole 1e-4 inside the circle: the rules converge like 0.9999^n
        cp = ContourProduct((ContourSpec(0, 1.0),))
        with pytest.raises(AccuracyError, match="did not reach") as info:
            product_integrate(lambda Z: 1.0 / (Z[0] - 0.9999), cp)
        message = str(info.value)
        assert f"nodes per axis ({DEFAULT_MAX_NODES},), {DEFAULT_MAX_NODES} evaluations" in message
        assert re.search(r"last value \S+ with est_err \S+$", message)

    def test_est_err_bounds_the_doubled_grid(self):
        # each evaluator's integral against the same trapezoid rule with
        # twice its final nodes on every axis, in 2 and 3 variables, the
        # rainbow integrand summed by elimination in both
        calls = [
            lambda: formulas.rainbow_total_crossing((1, 0), (1, 2), 0.5, 1.0),
            lambda: formulas.r_asep_transition((1, 0), (0, 2), 0.5, 1.0),
            lambda: formulas.block_crossing(formulas.CrossingQuery(
                make_blocks([[1, 0], [-1]], "initial"), make_blocks([[2, 1], [3]], "final"),
                0.5, 1.0)),
            lambda: formulas.rainbow_total_crossing((3, 1, 0), (0, 1, 3), 0.5, 1.0),
        ]
        seen = []

        def recording(f, cp, **kwargs):
            g, levels = counted(f, cp)
            value, err = product_integrate(g, cp, **kwargs)
            seen.append((f, cp, value, err, max(levels)))
            return value, err

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(formulas, "product_integrate", recording)
            for call in calls:
                call()
        assert [cp.dim for _, cp, *_ in seen] == [2, 2, 3, 3]
        for f, cp, value, err, counts in seen:
            assert abs(value - trapezoid(f, cp, [2 * n for n in counts])) <= err


def node_grid(z, c: ContourSpec) -> int:
    """Node count of the coarsest grid of ``c`` (a power of two up to
    DEFAULT_MAX_NODES) that holds every node in ``z``, read off the angles."""
    j = np.rint(np.angle(np.ravel(z) - c.center) / (2 * np.pi) * DEFAULT_MAX_NODES)
    j = j.astype(int) % DEFAULT_MAX_NODES
    return DEFAULT_MAX_NODES // int(np.gcd.reduce(np.append(j, DEFAULT_MAX_NODES)))


def counted(f, cp, blocks=None):
    """Wrap f to tally node tuples by nodes per axis: an axis's count is the
    coarsest grid holding all of its nodes handed to f so far (at least
    DEFAULT_START_NODES), so each block is tallied under the grid it fills."""
    counts = [DEFAULT_START_NODES] * cp.dim
    levels = {}

    def g(Z):
        assert isinstance(Z, OpenGrid)
        for k, (z, c) in enumerate(zip(Z, cp.contours)):
            counts[k] = max(counts[k], node_grid(z, c))
        key = tuple(counts)
        levels[key] = levels.get(key, 0) + Z.shape[1]
        if blocks is not None:
            blocks.append(Z)
        return f(Z)

    return g, levels


def trapezoid(f, cp, counts):
    """The counts[k]-node trapezoid rule on axis k, summed over slabs of 8
    nodes of the first axis."""
    d = cp.dim
    axes = [c.center + c.radius * _roots(n) for c, n in zip(cp.contours, counts)]
    total = 0.0
    for i in range(0, counts[0], 8):
        grid = OpenGrid(
            (a[i:i + 8] if k == 0 else a).reshape((1,) * k + (-1,) + (1,) * (d - 1 - k))
            for k, a in enumerate(axes)
        )
        weight = math.prod(
            (z - c.center) / n for c, z, n in zip(cp.contours, grid, counts)
        )
        total += complex(np.sum(f(grid) * weight))
    return total


def flat_reference(f, cp, tol=1e-10):
    """The driver's stopping rule on the flat (d, M) list of all node
    tuples: each grid is evaluated whole and each rule summed over its own
    nodes.  Returns (value, est_err, {nodes per axis: new node tuples})."""
    d = cp.dim
    counts = [DEFAULT_START_NODES] * d
    levels = {tuple(counts): math.prod(counts)}
    while True:
        idx = np.indices(counts).reshape(d, -1)
        pts = np.array([(c.center + c.radius * _roots(n))[i]
                        for c, n, i in zip(cp.contours, counts, idx)])
        vals = np.broadcast_to(f(pts), idx.shape[1:])
        terms = vals * np.prod(
            [(p - c.center) / n for c, n, p in zip(cp.contours, counts, pts)],
            axis=0,
        )

        def rule(k, step):  # every step-th node on axis k, every node elsewhere
            return step * complex(np.sum(terms[idx[k] % step == 0]))

        value = rule(0, 1)
        floor = ROUNDOFF * float(np.sum(np.abs(vals))) * math.prod(
            c.radius / n for c, n in zip(cp.contours, counts)
        )
        errs = []
        for k in range(d):
            half, quarter = rule(k, 2), rule(k, 4)
            delta, coarse = abs(value - half), abs(half - quarter)
            err = math.inf
            if 0 < delta < coarse and coarse > 1e3 * floor:
                err = 10 * delta**2 / coarse
            if counts[k] > DEFAULT_START_NODES:
                err = min(err, delta)
            errs.append(err)
        est = sum(errs) + floor
        if est < tol:
            return value, est, levels
        share = min((tol - floor) / d, max(errs))
        for k in range(d):
            if errs[k] >= share:
                assert counts[k] < DEFAULT_MAX_NODES
                before = math.prod(counts)
                counts[k] *= 2
                levels[tuple(counts)] = math.prod(counts) - before


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
        # every rule is exact, so each axis is doubled once, in order: the
        # k-th doubling adds 32 new nodes times the 64^k x 32^(d-1-k) others
        blocks = []
        cp = ContourProduct((ContourSpec(0.0, 0.5),) * d)
        g, levels = counted(lambda Z: 1.0 / math.prod(Z), cp, blocks)
        product_integrate(g, cp)
        assert levels == {(32,) * d: 32**d} | {
            (64,) * (k + 1) + (32,) * (d - 1 - k): 2**k * 32**d for k in range(d)
        }
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
        g, levels = counted(f, cp)
        value, err = product_integrate(g, cp)
        ref_value, ref_err, ref_levels = flat_reference(f, cp)
        assert abs(value) < 1e-14 and abs(value - ref_value) < 1e-14
        assert abs(err - ref_err) < 1e-14
        assert levels == ref_levels

    @pytest.mark.parametrize(
        "f",
        [lambda Z: 2.5, lambda Z: np.exp(1.0 / Z[1]) / Z[1]],
        ids=["constant", "one_variable"],
    )
    def test_broadcast_integrands_on_the_half_grid(self, f):
        # the block broadcast to its shape feeds the half grid's row sums,
        # slice check and sum of |f| as a full-shaped one does
        value, err = half_grid_matches_full(f, circles(3))
        assert abs(value) < 1e-14

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
            g, levels = counted(f, cp)
            value, err = product_integrate(g, cp)
            ref_value, ref_err, ref_levels = flat_reference(f, cp)
            assert levels == ref_levels
            assert abs(value - ref_value) < 1e-14
            assert abs(err - ref_err) < 1e-14
            assert abs(value - exact) < 1e-10


def half_grid_matches_full(f, cp, **kwargs):
    """``f`` integrated over ``cp`` on the half grid and on the full grid:
    the same nodes per axis, (n_0/2 + 1)/n_0 of the evaluations, values
    within est_err and est_err within 10 %.  Returns the half grid's
    (value, est_err)."""
    runs = []
    for symmetric in (True, False):
        g, levels = counted(f, cp)
        value, err = product_integrate(g, cp, conjugate_symmetric=symmetric, **kwargs)
        runs.append((value, err, levels))
    (value, err, levels), (full_value, full_err, full_levels) = runs
    counts = [max(key[k] for key in levels) for k in range(cp.dim)]
    assert counts == [max(key[k] for key in full_levels) for k in range(cp.dim)]
    assert sum(levels.values()) * counts[0] == sum(full_levels.values()) * (counts[0] // 2 + 1)
    assert value.imag == 0.0
    assert abs(value - full_value) <= min(err, full_err)
    assert abs(err - full_err) <= 0.1 * full_err
    return value, err


class TestConjugateSymmetric:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_half_grid_matches_full_grid(self, d):
        f, exact = exp_product(d)  # real coefficients: f(z̄) = conj f(z)
        value, err = half_grid_matches_full(f, circles(d))
        assert abs(value - exact) < 1e-10

    def test_budget_counts_evaluations_made(self):
        # exact rules double each axis once: 17 x 32, then 16 x 32 new
        # nodes on axis 0 and 33 x 32 on axis 1, 2112 = 33 x 64 in all
        cp = ContourProduct((ContourSpec(0, 0.5), ContourSpec(0, 0.6)))
        f = lambda Z: 1.0 / (Z[0] * Z[1])
        g, levels = counted(f, cp)
        product_integrate(g, cp, node_budget=2112, conjugate_symmetric=True)
        assert sum(levels.values()) == 2112
        with pytest.raises(AccuracyError, match="budget 2111") as info:
            product_integrate(f, cp, node_budget=2111, conjugate_symmetric=True)
        assert "nodes per axis (64, 32), 1056 evaluations" in str(info.value)

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_round_off_level_is_the_full_grids(self, symmetric):
        # |f·w| sums to 1 over the full 32 x 32 grid: the level is ROUNDOFF
        cp = ContourProduct((ContourSpec(0, 0.5), ContourSpec(0, 0.6)))
        with pytest.raises(AccuracyError, match=f"round-off level {ROUNDOFF:.3g} is not"):
            product_integrate(lambda Z: 1.0 / (Z[0] * Z[1]), cp, tol=1e-17,
                              conjugate_symmetric=symmetric)

    @pytest.mark.parametrize("d", [1, 2])
    def test_asymmetric_integrand_fails_the_slice_check(self, d):
        # e^(i z_0) is not real at z_0 = ±0.5, and the other axis sums 1/z_1 to 1
        cp = circles(d)
        with pytest.raises(AccuracyError, match="not conjugate-symmetric"):
            product_integrate(lambda Z: np.exp(1j * Z[0]) / Z[d - 1] ** (d - 1), cp,
                              conjugate_symmetric=True)

    def test_complex_centre_is_refused(self):
        cp = ContourProduct((ContourSpec(0.5 + 0.1j, 0.3),))
        with pytest.raises(ValidationError, match="real contour centres"):
            product_integrate(lambda Z: 1.0 / Z[0], cp, conjugate_symmetric=True)

    def test_evaluators_on_the_bench_cases(self):
        # the contour workload's calls, each integral run on both grids; the
        # Green's functions and the two_tasep_crossing, tasep_block_crossing
        # and step calls are exact moment sums and integrate nothing
        green = [
            ((0, 1), (1,), (1, 3), (2,), 1.0), ((-1, 0, 1), (1,), (1, 2, 4), (3,), 1.0),
            ((-1, 0, 1), (), (1, 2, 4), (), 1.0), ((0, 1), (2,), (2, 3), (2,), 0.5),
        ]
        calls = [
            lambda query=formulas.GreenQuery(ParticleConfig.from_two_species(mu, p0),
                                             ParticleConfig.from_two_species(nu, p), t):
            formulas.two_tasep_green(query) for mu, p0, nu, p, t in green
        ] + [
            lambda: formulas.two_tasep_crossing((0, 1), (1, 3), 1, 1.0),
            lambda: formulas.two_tasep_crossing((-1, 0, 1), (1, 2, 4), 1, 1.0),
            lambda: formulas.tasep_block_crossing(formulas.CrossingQuery(
                make_blocks([[1, 0], [-1]], "initial"), make_blocks([[2, 1], [4]], "final"),
                0.0, 1.0)),
            lambda: formulas.rainbow_total_crossing((1, 0), (1, 2), 0.5, 1.0),
            lambda: formulas.rainbow_total_crossing((3, 1, 0), (0, 1, 3), 0.5, 1.0),
            lambda: formulas.rainbow_total_crossing((3, 2, 0), (0, 2, 3), 0.5, 1.0),
            lambda: formulas.r_asep_transition((1, 0), (0, 2), 0.5, 1.0),
            lambda: formulas.r_asep_transition((2, 1, 0), (1, 3, 0), 0.5, 1.0),
            lambda: formulas.block_crossing(formulas.CrossingQuery(
                make_blocks([[1, 0], [-1]], "initial"), make_blocks([[2, 1], [3]], "final"),
                0.5, 1.0)),
            lambda: formulas.cumulative_crossing_step((-1, 0), 1, -3, 2, 2.0),
            lambda: formulas.cumulative_crossing_step((-2, -1, 0), 2, -3, 2, 1.0),
            lambda: formulas.cumulative_crossing_bernoulli(
                formulas.WallQuery(-3, 2, 0.5, 2, 1, 2.0), form="direct"),
        ]
        dims = []

        def both(f, cp, **kwargs):
            assert kwargs.pop("conjugate_symmetric") is True
            dims.append(cp.dim)
            return half_grid_matches_full(f, cp, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(formulas, "product_integrate", both)
            for call in calls:
                call()
        assert dims == [2, 3, 3, 2, 3, 3, 2]


def random_pair_product(rng, d, missing=(), folded=False):
    """An integrand c·prod_k g_k(z_k)·prod_(i<j) P_ij(z_i, z_j) that returns a
    PairProduct, with random complex coefficients and a pole at 0 in each
    g_k, so that no rule sum cancels to rounding: the pairs in ``missing``
    left out, and with ``folded`` a factor in z_0 and one in z_0, z_(d-1)
    multiplied in afterwards."""
    a = rng.normal(size=(d, 2)) + 1j * rng.normal(size=(d, 2))
    b = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))

    def f(Z):
        out = PairProduct(d, {}) * 0.7
        for k in range(d):
            out = out * (np.exp(a[k, 0] * Z[k]) * (2.0 + a[k, 1] * Z[k]) / Z[k])
        for j in range(d):
            for i in range(j):
                if (i, j) not in missing:
                    out = out * (1.0 / (3.0 - b[i, j] * Z[i] * Z[j]))
        if folded:
            out = out * np.cos(Z[0]) * (1.0 + Z[0] * Z[d - 1])
        return out

    return f


class TestPairProduct:
    """``quadrature._pair_sums``: an integrand that returns a PairProduct is
    summed one variable at a time, as the grid path sums its values."""

    @staticmethod
    def grid(d, axis0, last_odd):
        """Nodes and weights of a d-axis grid of 32 nodes per axis: axis 0
        full, a half grid with its end nodes, or the odd nodes of a doubled
        half grid (one weight column); with ``last_odd`` the last axis holds
        the odd nodes of a doubled axis (one weight column)."""
        c = ContourSpec(0.0, 0.5)
        axes, mats = map(list, zip(*(quadrature._axis_grid(c, 32, False) for _ in range(d))))
        if axis0 == "half":
            axes[0], mats[0] = quadrature._axis_grid(c, 32, True)
        elif axis0 == "half_odd":
            fine, fine_mats = quadrature._axis_grid(c, 64, True)
            axes[0], mats[0] = fine[1::2], fine_mats[1::2, :1]
        if last_odd:
            fine, fine_mats = quadrature._axis_grid(c, 64, False)
            axes[-1], mats[-1] = fine[1::2], fine_mats[1::2, :1]
        return axes, mats

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("axis0, last_odd", [
        ("full", False), ("half", False), ("half_odd", False), ("half", True),
    ])
    @pytest.mark.parametrize("missing, folded", [
        ((), False), (((0, 1), (1, 2), (0, 3)), False), ((), True),
    ], ids=["all_pairs", "missing_pairs", "folded"])
    def test_elimination_matches_the_grid(self, rng, d, axis0, last_odd, missing, folded):
        # every d = 4 grid spans several blocks; the last block of the half
        # grid, 17 x 32^3 nodes, holds one node of axis 0
        f = random_pair_product(rng, d, missing, folded)
        axes, mats = self.grid(d, axis0, last_odd)
        pairs = quadrature._grid_sums(f, axes, mats)
        grid = quadrature._grid_sums(lambda Z: np.asarray(f(Z)), axes, mats)
        for got, ref in zip(pairs, grid):
            assert np.shape(got) == np.shape(ref)
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_folding_keeps_two_axes_and_materializes_three(self, rng):
        Z = OpenGrid(np.arange(1.0, n + 1).reshape((1,) * k + (-1,) + (1,) * (2 - k))
                     for k, n in enumerate((2, 3, 4)))
        pp = PairProduct(3, {}) * Z[0] * (Z[0] + Z[2]) * 2.0
        assert isinstance(pp, PairProduct)
        assert sorted(pp.factors) == [(), (0,), (0, 2)]
        full = pp * (Z[0] + Z[1] + Z[2])
        assert type(full) is np.ndarray
        np.testing.assert_array_equal(full, 2.0 * Z[0] * (Z[0] + Z[2]) * (Z[0] + Z[1] + Z[2]))

    def test_non_finite_single_is_refused(self):
        def f(Z):
            nan_at_one_node = np.where(np.abs(Z[1] - Z[1].flat[5]) < 1e-12, np.nan, 1.0)
            return PairProduct(3, {}) * np.exp(Z[0]) * nan_at_one_node * (1.0 + Z[1] * Z[2])

        with pytest.raises(AccuracyError, match="integrand is non-finite"):
            product_integrate(f, circles(3))

    @pytest.mark.parametrize("call", [
        *[lambda q=q, n=n: formulas.rainbow_total_crossing(mu, nu, q, 1.0)
          for q in (0.3, 0.5, 1.5)
          for n, mu, nu in ((1, (0,), (1,)), (2, (1, 0), (1, 2)), (3, (3, 1, 0), (0, 1, 3)),
                            (4, (3, 2, 1, 0), (0, 1, 2, 3)))],
        lambda: formulas.block_crossing(formulas.CrossingQuery(
            make_blocks([[1, 0], [-1]], "initial"), make_blocks([[2, 1], [3]], "final"),
            0.5, 1.0)),
        lambda: formulas.block_crossing(formulas.CrossingQuery(
            make_blocks([[1], [0], [-1]], "initial"), make_blocks([[2], [3], [4]], "final"),
            0.5, 1.0)),
        lambda: formulas.r_asep_transition((1, 0), (0, 2), 0.5, 1.0),
    ], ids=[f"rainbow_q{q}_n{n}" for q in (0.3, 0.5, 1.5) for n in (1, 2, 3, 4)]
        + ["block_crossing_2+1", "block_crossing_1+1+1", "r_asep_n2"])
    def test_evaluators_match_the_grid_path(self, call):
        # each integral run on its PairProduct and on the materialized grid:
        # the same nodes per axis and evaluations, values within 1e-14 and
        # est_err, whose δ²/δ' terms amplify rounding, within 1e-6
        kinds = set()

        def both(f, cp, **kwargs):
            def recorded(Z):
                out = f(Z)
                kinds.add(type(out))
                return out

            runs = []
            for g in (recorded, lambda Z: np.asarray(f(Z))):
                g, levels = counted(g, cp)
                runs.append((*product_integrate(g, cp, **kwargs), levels))
            (value, err, levels), (grid_value, grid_err, grid_levels) = runs
            assert levels == grid_levels
            assert abs(value - grid_value) <= 1e-14 * abs(grid_value)
            assert abs(err - grid_err) <= 1e-6 * grid_err
            return value, err

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(formulas, "product_integrate", both)
            call()
        assert kinds == {PairProduct}

    def test_products_stay_below_the_blas_threading_threshold(self):
        # every product _matmul makes for the n = 4 rainbow has m·n·k < 2^16:
        # OpenBLAS splits larger ones across threads
        sizes = []

        class Recorded(np.ndarray):
            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                if ufunc is np.matmul:
                    a, b = inputs
                    sizes.append(a.shape[-2] * a.shape[-1] * b.shape[-1])
                inputs = [x.view(np.ndarray) if isinstance(x, Recorded) else x for x in inputs]
                return getattr(ufunc, method)(*inputs, **kwargs)

        matmul = quadrature._matmul
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(quadrature, "_matmul",
                       lambda a, b: matmul(a.view(Recorded), b.view(Recorded)))
            formulas.rainbow_total_crossing((3, 2, 1, 0), (0, 1, 2, 3), 0.5, 1.0)
        assert sizes and max(sizes) < 2**16


class TestDetKernel:
    """``formulas._det_and_permanent``, the one Leibniz determinant kernel."""

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
    def test_matches_lapack_on_an_open_grid(self, rng, k):
        # row i varies along axis i only, as on an OpenGrid block
        grid = OpenGrid(
            (rng.uniform(0.2, 0.9, 3) * np.exp(2j * np.pi * rng.uniform(size=3)))
            .reshape((1,) * i + (-1,) + (1,) * (k - 1 - i))
            for i in range(k)
        )
        coeff = rng.uniform(-0.5, 0.5, (k, k)) + 1j * rng.uniform(-0.5, 0.5, (k, k))

        def entry(i, j):
            return (3.0 if i == j else 0.0) + coeff[i, j] * grid[i] ** (j + 1)

        shape = np.broadcast_shapes(*(np.shape(x) for x in grid))
        mat = np.empty(shape + (k, k), dtype=complex)
        for i in range(k):
            for j in range(k):
                mat[..., i, j] = entry(i, j)
        expected = np.linalg.det(mat)
        value, _ = formulas._det_and_permanent(
            signed_permutations(k), [[(entry(i, j), 0.0) for j in range(k)] for i in range(k)])
        assert np.shape(value) == shape
        assert np.max(np.abs(value - expected) / np.abs(expected)) < 1e-13

    def test_empty_and_capped(self):
        assert formulas._det_and_permanent(signed_permutations(0), []) == (1.0, 1.0)
        with pytest.raises(ResourceLimitError):  # a 10 x 10 u-sum: 10! terms
            formulas.u_sum_determinant(range(1, 11), np.full(10, 0.5), np.full(10, 0.1))


class TestLaurentResidue:
    def test_poisson_coefficient(self):
        desc = RationalExpDescriptor(exp_coeff=1.0, factors=((0.0, -3),))
        assert abs(laurent_residue(desc, 0.0) - math.exp(-1) / 2.0) < 1e-16

    def test_two_simple_poles(self):
        desc = RationalExpDescriptor(exp_coeff=0.0, factors=((0.0, -1), (1.0, -1)))
        assert abs(laurent_residue(desc, 0.0) - (-1.0)) < 1e-16
        assert abs(laurent_residue(desc, 1.0) - 1.0) < 1e-16
        assert abs(sum(residues(desc, (0.0, 1.0)))) < 1e-16

    def test_regular_point_gives_zero(self):
        desc = RationalExpDescriptor(exp_coeff=0.0, factors=((0.0, -1),))
        assert laurent_residue(desc, 2.0) == 0.0

    def test_non_integer_order_rejected(self):
        with pytest.raises(ValidationError):
            RationalExpDescriptor(exp_coeff=0.0, factors=((0.0, -1.5),))

    def test_order_cap(self):
        # 1/(z^N (z - 1)) has residue -1 at the origin for every N
        at_cap = RationalExpDescriptor(exp_coeff=0.0, factors=((0.0, -ORDER_CAP), (1.0, -1)))
        assert laurent_residue(at_cap, 0.0) == -1.0
        desc = RationalExpDescriptor(exp_coeff=0.0, factors=((0.0, -4097), (1.0, -1)))
        with pytest.raises(ResourceLimitError, match="pole order 4097 exceeds the cap 4096"):
            laurent_residue(desc, 0.0)

    def test_merges_repeated_points(self):
        desc = RationalExpDescriptor(exp_coeff=0.0, factors=((0.0, -1), (1e-13, -2)))
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
            )
            exact = sum(residues(desc, (0.0, 1.0)))
            quad = one_circle(lambda z: descriptor_value(desc, z), ContourSpec(0.5, 1.2))
            denom = max(1.0, abs(exact))
            worst = max(worst, abs(exact - quad) / denom)
        assert worst < 1e-10


def mpmath_moments(desc, points, lo, hi, dps=50, nodes=96):
    """M(e) for e = lo..hi and an error bar, independent of the series
    engine: the trapezoid rule on a circle about each pole p, of radius 0.25
    times the distance to the nearest other point, sums the residue of
    g(z)·z^e to within 0.25^nodes of the size of its terms; the bar is
    10^(5 - dps) times that size, the sum's own rounding."""
    mpmath = pytest.importorskip("mpmath")
    poles = quadrature._distinct(points)
    others = [p for p, _ in desc.factors] + poles
    with mpmath.workdps(dps):
        total = [mpmath.mpc(0)] * (hi - lo + 1)
        size = [mpmath.mpf(0)] * (hi - lo + 1)
        for p in poles:
            r = 0.25 * min((abs(a - p) for a in others if abs(a - p) > 0), default=1.0)
            for j in range(nodes):
                w = mpmath.expjpi(mpmath.mpf(2 * j) / nodes)
                z = p + r * w
                g = mpmath.exp(desc.exp_coeff * (z - 1))
                for a, e in desc.factors:
                    g *= (z - a) ** e
                term = g * z**lo * r * w / nodes
                for k in range(len(total)):
                    total[k] += term
                    size[k] += abs(term)
                    term *= z
        return [(complex(m), float(s * mpmath.mpf(10) ** (5 - dps)))
                for m, s in zip(total, size)]


class TestResidueMoments:
    @staticmethod
    def shifted(desc, e):
        return RationalExpDescriptor(desc.exp_coeff, desc.factors + ((0.0, e),))

    def test_matches_residue_terms_at_every_shift(self, rng):
        for _ in range(20):
            rho = float(rng.uniform(0.2, 0.8))
            desc = RationalExpDescriptor(
                exp_coeff=float(rng.uniform(0.2, 3.0)),
                factors=((0.0, -int(rng.integers(0, 6))), (1.0, -int(rng.integers(1, 4))),
                         (1.0 - rho, -int(rng.integers(0, 3))), (2.5, int(rng.integers(0, 3)))),
            )
            points = (0.0, 1.0, 1.0 - rho)
            lo, hi = -int(rng.integers(1, 5)), int(rng.integers(0, 6))
            moments, sizes = residue_moments(desc, points, lo, hi)
            assert len(moments) == len(sizes) == hi - lo + 1
            for e in range(lo, hi + 1):
                terms = residues(self.shifted(desc, e), points)
                size = sum(map(abs, terms))
                assert abs(moments[e - lo] - sum(terms)) <= 1e-13 * max(size, 1e-300)
                assert sizes[e - lo] == pytest.approx(size, rel=1e-13, abs=1e-300)

    @staticmethod
    def route_tables(kind, t, rng):
        """Moment tables as the exact routes ask for them, pole orders <= 12:
        ``formulas._variable`` about 0 and about 1, and the Andréief
        z-descriptor with its simple pole at 1 - rho."""
        while True:
            lo = -int(rng.integers(0, 3))
            hi = lo + int(rng.integers(0, 5))
            if kind == "andreief":
                rho = float(rng.uniform(0.2, 0.8))
                n, m, s2 = (int(rng.integers(1, 5)), int(rng.integers(1, 4)),
                            int(rng.integers(-2, 5)))
                desc = RationalExpDescriptor(t, ((1.0, -n), (1.0 - rho, -1), (0.0, -s2 - m + 1)))
                points = (0.0, 1.0, 1.0 - rho)
            else:
                e, b, pairs = (int(rng.integers(-4, 7)), int(rng.integers(-4, 5)),
                               int(rng.integers(0, 3)))
                desc, points = formulas._variable(kind == "variable_1", t, e, b, pairs)
            orders = [-x - (lo if abs(p) < 1e-12 else 0) for p, x in desc.factors]
            if 0 < max(orders) <= 12:
                return desc, points, lo, hi

    # the draws whose error exceeds ROUNDING·S: S sizes a pole by |Res|, not
    # by the terms that cancel inside its series product, so the bound
    # under-reports (ROADMAP direction 4); some miss it by only 1.1x, so a
    # last-bit change in the product may let one pass; (variable_0, 2.0)
    # draw 5 has a true M(0) of 0 and reads 2.8e-17 ± 2.5e-32
    UNDER_REPORTED = {
        ("variable_0", 2.0): {1, 5}, ("variable_0", 8.0): {1, 3, 6},
        ("variable_1", 2.0): {0, 3, 6}, ("variable_1", 8.0): {0, 1, 2, 3, 6},
        ("andreief", 0.5): {3},
    }

    @pytest.mark.parametrize("t", [0.5, 2.0, 8.0])
    @pytest.mark.parametrize("kind", ["variable_0", "variable_1", "andreief"])
    def test_route_tables_match_mpmath(self, kind, t, rng):
        under = set()
        for draw in range(8):
            desc, points, lo, hi = self.route_tables(kind, t, rng)
            moments, sizes = residue_moments(desc, points, lo, hi)
            reference = mpmath_moments(desc, points, lo, hi)
            if any(abs(m - ref) > formulas.ROUNDING * s + ref_err
                   for m, s, (ref, ref_err) in zip(moments, sizes, reference)):
                under.add(draw)
        listed = self.UNDER_REPORTED.get((kind, t), set())
        assert under <= listed
        if under != listed:
            warnings.warn(f"listed draws {sorted(listed - under)} now meet ROUNDING·S")

    def test_pole_order_199_at_the_origin(self):
        desc = RationalExpDescriptor(1.0, ((1.0, -1), (0.0, -199)))
        moments, _ = residue_moments(desc, (0.0, 1.0), 0, 3)
        assert all(map(math.isfinite, (abs(m) for m in moments)))
        for e in range(4):
            terms = residues(self.shifted(desc, e), (0.0, 1.0))
            assert moments[e] == pytest.approx(sum(terms), rel=1e-12, abs=1e-300)

    def test_long_series_keep_their_cost(self):
        # series of 4,000 terms: np.convolve multiplies them in about 14 ms,
        # an interpreted O(order^2) product would take about 1.5 s
        desc = RationalExpDescriptor(1.0, ((1.0, -1), (0.5, 3), (0.0, -4000)))
        start = time.thread_time()
        moments, _ = residue_moments(desc, (0.0, 1.0), 0, 3)
        assert time.thread_time() - start < 0.2
        assert all(map(cmath.isfinite, moments))

    def test_long_jump_keeps_its_value(self):
        # pole orders 602 and 604; the value the engine gave when it
        # multiplied every series by np.convolve
        value = formulas.two_tasep_crossing((0, 1, 2), (601, 602, 603), 1, 600.0)
        assert abs(value - 1.7064756919009903e-06) <= value.est_err

    def test_one_table_per_symmetric_variable(self, monkeypatch):
        calls = []

        def counting(desc, points, lo, hi):
            calls.append((lo, hi))
            return residue_moments(desc, points, lo, hi)

        monkeypatch.setattr(formulas, "residue_moments", counting)
        formulas.gamma_wall(3, 5, 1.0)
        assert calls == [(0, 4)]  # [z] * 3: one table over the Hankel range
        calls.clear()
        formulas.cumulative_crossing_bernoulli(formulas.WallQuery(-5, 2, 0.5, 4, 2, 2.0))
        assert len(calls) == 3  # z once, then each of the k = 2 w's

    def test_errors_keep_their_types(self, monkeypatch):
        # 0.5^-1100 at the pole 0.5 and 10^400 from the table's powers
        with pytest.raises(AccuracyError, match="overflows"):
            residue_moments(RationalExpDescriptor(2.0, ((0.5, -1), (0.0, -1100))), (0.5,), 0, 1)
        with pytest.raises(AccuracyError, match="overflows"):
            residue_moments(RationalExpDescriptor(0.0, ((10.0, -2),)), (10.0,), 0, 400)
        # the order at the origin is that of the lowest shift: 5 + 4092 > 4096,
        # refused before any series is built
        def unbuilt(*args):
            raise AssertionError("a series was built past the order cap")

        monkeypatch.setattr(quadrature, "_binomial_series", unbuilt)
        desc = RationalExpDescriptor(0.0, ((0.0, -5), (1.0, -1)))
        with pytest.raises(ResourceLimitError, match="pole order 4097 exceeds the cap 4096"):
            residue_moments(desc, (0.0,), -4092, 0)
        with pytest.raises(ValidationError, match="pole collision"):
            _binomial_series(0.0, -1, 3)

    @pytest.mark.parametrize("order", [1, 3])
    def test_prefactor_overflow_fails_typed(self, order):
        # e^(800 (p - 1)) at p = 2 overflows, in the simple-pole path too
        desc = RationalExpDescriptor(800.0, ((2.0, -order), (0.5, 1)))
        with pytest.raises(AccuracyError, match=re.escape(f"pole {2 + 0j:.3g} overflows")):
            residue_moments(desc, (2.0,), 0, 1)

    @pytest.mark.parametrize("at", [1.0, 0.0])
    def test_non_finite_residue_fails_typed(self, at):
        # e^(a x) with a = 1e300: a^2 / 2 overflows; at the origin the
        # prefactor e^(-a) underflows as well, and 0 * inf is NaN
        desc = RationalExpDescriptor(1e300, ((at, -3),))
        with pytest.raises(AccuracyError, match=re.escape(f"pole {complex(at):.3g} overflows")):
            laurent_residue(desc, at)

