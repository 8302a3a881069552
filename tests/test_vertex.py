import itertools
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from asepcross import formulas, vertex
from asepcross.core import (
    ConfigurationError,
    ResourceLimitError,
    ValidationError,
    signed_permutations,
)
from asepcross.quadrature import OpenGrid, spectral_rows
from asepcross.vertex import (
    G_mu_nu,
    admissible_contours,
    discrete_transition,
    f_mu,
    out_states,
    sfF_lambda,
    stochastic_weights_check,
    weight_L,
    weight_M,
    xi_mu,
)
import vertex_reference
from vertex_reference import (
    F_lambda_sym,
    cauchy_check,
    g_star_mu,
    orthogonality_check,
    pochhammer,
)

Q, S = 1.7 + 0.1j, 0.23 - 0.05j


def weight_M_stochastic(I, j, K, l, y, q):
    """Stochastic leftward weight: M at z = y/sqrt(q), s = 1/sqrt(q), gauged."""
    rq = q ** -0.5
    gauge = (-(q**0.5)) if j >= 1 else 1.0
    return gauge * weight_M(I, j, K, l, rq * y, q, rq)


def sfF_lambda_det0(lam, u):
    """q = 0 determinant form of sfF_lambda, Vandermonde-normalized.  The
    determinant is a Leibniz sum, so len(lam) above the factorial cap is refused."""
    lam = [int(x) for x in lam]
    N = len(lam)
    U, finish = spectral_rows(u, N)
    dets, _ = formulas._det_and_permanent(signed_permutations(N), [
        [(U[j] ** i * (1.0 - U[j]) ** lam[i], 0.0) for j in range(N)] for i in range(N)])
    vand = 1.0
    for i in range(N):
        for j in range(i + 1, N):
            vand = vand * (U[j] - U[i])
    return finish(dets / vand)


def _states_upto(n, bound):
    def rec(prefix, remaining, slots):
        if slots == 0:
            yield tuple(prefix)
            return
        for k in range(remaining + 1):
            yield from rec(prefix + [k], remaining - k, slots - 1)

    for tot in range(bound + 1):
        yield from rec([], tot, n)


class TestWeights:
    def test_table_top_left(self):
        # colour-free pass-through against the tabulated entry
        I = (1, 2)
        z = 0.4 + 0.3j
        expected = (1 - S * z * Q ** sum(I)) / (1 - S * z)
        assert abs(weight_L(I, 0, I, 0, z, Q, S) - expected) < 1e-15

    def test_empty_vertex_is_one(self):
        assert weight_L((0, 0), 0, (0, 0), 0, 0.3, Q, S) == 1.0

    def test_conservation_gives_zero(self):
        for n in (1, 2, 3):
            for I in _states_upto(n, 2):
                for K in _states_upto(n, 2):
                    for j in range(n + 1):
                        for l in range(n + 1):
                            lhs = list(I)
                            if j:
                                lhs[j - 1] += 1
                            rhs = list(K)
                            if l:
                                rhs[l - 1] += 1
                            if lhs != rhs:
                                assert weight_L(I, j, K, l, 0.4, Q, S) == 0
                                assert weight_M(I, j, K, l, 0.4, Q, S) == 0

    def test_pole_errors(self):
        with pytest.raises(ConfigurationError):
            weight_L((0,), 0, (0,), 0, 1.0 / S, Q, S)
        with pytest.raises(ConfigurationError):
            weight_M((0,), 0, (0,), 0, 0.4, Q, 0.0)
        with pytest.raises(ConfigurationError):
            weight_M((0,), 0, (0,), 0, 0.4, 0.0, S)

    def test_m_weight_matches_inverted_l(self):
        # direct table against the defining substitution, away from z = 0
        z, q, s = 0.37 + 0.21j, 1.9 - 0.2j, 0.4 + 0.1j
        for I in _states_upto(2, 2):
            for j in range(3):
                for K, l in out_states(I, j):
                    gauge = (-s) ** ((1 if j >= 1 else 0) - (1 if l >= 1 else 0))
                    ref = gauge * weight_L(I, j, K, l, 1 / z, 1 / q, 1 / s)
                    assert abs(weight_M(I, j, K, l, z, q, s) - ref) < 1e-13

    def test_stochastic_table_diagonal(self):
        y, q = 0.37, 2.3
        I = (1, 0)
        lhs = weight_M_stochastic(I, 1, I, 1, y, q)
        rhs = (1 - y * q ** -I[0]) * q ** -(sum(I[1:])) / (1 - y / q)
        assert abs(lhs - rhs) < 1e-14

    def test_stochastic_rank_one(self):
        # single-path vertex: incoming colour i below colour j, i < j
        y, q = 0.41, 1.8
        ej, ei = (0, 1, 0), (1, 0, 0)
        val = weight_M_stochastic(ej, 1, ei, 2, y, q)
        assert abs(val - (1 - 1 / q) / (1 - y / q)) < 1e-14
        val2 = weight_M_stochastic(ei, 2, ej, 1, y, q)
        assert abs(val2 - y * (1 - 1 / q) / (1 - y / q)) < 1e-14

    def test_sum_to_unity(self, rng):
        for _ in range(5):
            z = rng.uniform(0.1, 0.5)
            q = rng.uniform(1.3, 3.0)
            s = rng.uniform(0.2, 0.8)
            rep_l, rep_m = stochastic_weights_check(2, z, q, s)
            assert rep_l.sums_ok and rep_m.sums_ok

    def test_positivity_regime(self):
        rep_l, rep_m = stochastic_weights_check(2, 0.1, 2.0, 0.3)
        assert rep_l.positive and rep_m.positive

    def test_perturbation_breaks_sums(self):
        rep_l, _ = stochastic_weights_check(2, 0.35, 2.2, 0.4, perturb=1.01)
        assert not rep_l.sums_ok


def _staircases(colour, n, target):
    # turn columns for rows colour..n; the top crossing is pinned at target
    span = range(0, target + 1)
    for d in itertools.product(span, repeat=n - colour):
        d = d + (target,)
        if all(a <= b for a, b in zip(d, d[1:])):
            yield d


def f_mu_by_paths(mu, z, q, s):
    """Brute-force path enumeration over staircase trajectories."""
    n = len(mu)
    cmax = max(mu)
    total = 0.0 + 0.0j
    per_colour = [list(_staircases(i + 1, n, mu[i])) for i in range(n)]
    for combo in itertools.product(*per_colour):
        horiz = {}
        vert = {}
        ok = True
        for colour, d in enumerate(combo, start=1):
            row0 = colour
            prev = None
            for row, col in zip(range(row0, n + 1), d):
                start = 0 if prev is None else prev + 1
                for c in range(start, col + 1):
                    key = (row, c)
                    if key in horiz:
                        ok = False
                    horiz[key] = colour
                vert.setdefault((row, col), []).append(colour)
                prev = col
            if not ok:
                break
        if not ok:
            continue
        weight = 1.0 + 0.0j
        for row in range(1, n + 1):
            for col in range(0, cmax + 1):
                I = [0] * n
                for c in vert.get((row - 1, col), []):
                    I[c - 1] += 1
                K = [0] * n
                for c in vert.get((row, col), []):
                    K[c - 1] += 1
                j = horiz.get((row, col), 0)
                l = horiz.get((row, col + 1), 0)
                weight *= weight_L(tuple(I), j, tuple(K), l, z[row - 1], q, s)
        total += weight
    return total


class TestPartitionFunctions:
    def test_single_row_factorization(self):
        z = 0.4 + 0.2j
        for k in (0, 1, 4):
            lhs = f_mu([k], [z], Q, S)
            rhs = (1 - S**2) / (1 - S * z) * ((z - S) / (1 - S * z)) ** k
            assert abs(lhs - rhs) < 1e-14

    def test_two_row_antidominant(self):
        z1, z2 = 0.3 + 0.1j, 0.5 - 0.2j
        lhs = f_mu([0, 1], [z1, z2], Q, S)
        rhs = (1 - S**2) ** 2 / ((1 - S * z1) * (1 - S * z2)) * (z2 - S) / (1 - S * z2)
        assert abs(lhs - rhs) < 1e-14

    def test_repeated_parts_pochhammer(self):
        z1, z2 = 0.3 + 0.1j, 0.5 - 0.2j
        lhs = f_mu([1, 1], [z1, z2], Q, S)
        rhs = pochhammer(S**2, Q, 2) / ((1 - S * z1) * (1 - S * z2))
        rhs *= ((z1 - S) / (1 - S * z1)) * ((z2 - S) / (1 - S * z2))
        assert abs(lhs - rhs) < 1e-14

    @pytest.mark.parametrize("mu", [(2, 0), (1, 3), (3, 1), (0, 2), (2, 2)])
    def test_against_path_enumeration(self, mu):
        z = np.array([0.31 + 0.12j, 0.52 - 0.17j])
        lhs = f_mu(mu, z, Q, S)
        rhs = f_mu_by_paths(mu, z, Q, S)
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))

    def test_against_path_enumeration_n3(self):
        z = np.array([0.31 + 0.12j, 0.52 - 0.17j, 0.44 + 0.21j])
        mu = (2, 0, 1)
        assert abs(f_mu(mu, z, Q, S) - f_mu_by_paths(mu, z, Q, S)) < 1e-12

    def test_stability(self, rng):
        for k in (1, 2, 3):
            z = rng.uniform(0.2, 0.6, 2) + 1j * rng.uniform(-0.2, 0.2, 2)
            mu = [2, 0]
            lhs = f_mu([x + k for x in mu], z, Q, S)
            rhs = f_mu(mu, z, Q, S)
            for zz in z:
                rhs *= ((zz - S) / (1 - S * zz)) ** k
            assert abs(lhs - rhs) < 1e-12

    def test_negative_parts_via_shift(self, rng):
        z = rng.uniform(0.2, 0.6, 2) + 1j * rng.uniform(-0.2, 0.2, 2)
        lhs = f_mu([0, -2], z, Q, S)
        rhs = f_mu([2, 0], z, Q, S)
        for zz in z:
            rhs *= ((1 - S * zz) / (zz - S)) ** 2
        assert abs(lhs - rhs) < 1e-12

    def test_block_factorization(self, rng):
        # two blocks of sizes (2, 2) with strictly ordered values between them
        z = rng.uniform(0.2, 0.6, 4) + 1j * rng.uniform(-0.2, 0.2, 4)
        mu = [1, 0, 4, 3]
        lhs = f_mu(mu, z, Q, S)
        rhs = f_mu([1, 0], z[:2], Q, S) * f_mu([4, 3], z[2:], Q, S)
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))

    def test_g_star_dominant_closed_form(self):
        z = np.array([0.3 + 0.1j, 0.5 - 0.2j])
        mu = [2, 1]
        lhs = g_star_mu(mu, z, Q, S)
        rhs = 1.0
        for zz, m in zip(z, mu):
            rhs *= 1 / (1 - S * zz) * ((zz - S) / (1 - S * zz)) ** m
        assert abs(lhs - rhs) < 1e-13

    def test_g_star_single_site(self):
        z = 0.4 + 0.1j
        assert abs(g_star_mu([0], [z], Q, S) - 1 / (1 - S * z)) < 1e-14


def _reflected_grid(sizes, q):
    """The r-ASEP integrand's arguments sqrt(1/q)/z on an OpenGrid, with m
    nodes z per axis at the angles (2j + 1)pi/(2m), on the upper half of the
    circle of radius 0.17 around 1."""
    d = len(sizes)
    axes = []
    for k, m in enumerate(sizes):
        z = 1.0 + 0.17 * np.exp(1j * np.pi * (2 * np.arange(m) + 1) / (2 * m))
        axes.append((q**-0.5 / z).reshape((1,) * k + (-1,) + (1,) * (d - 1 - k)))
    return OpenGrid(axes)


def _uses_rows(mu, z):
    # the cap f_mu sets for the row order
    points = int(np.prod(np.broadcast_shapes(*(np.shape(x) for x in z))))
    cap = len(mu) * (max(mu) + 1) * points // vertex.ROW_MOVE_POINTS
    return vertex._row_plan(list(mu), cap) is not None


def _close(a, b, tol=1e-13):
    a, b = np.broadcast_arrays(np.asarray(a), np.asarray(b))
    return np.max(np.abs(a - b)) <= tol * np.max(np.abs(b))


class TestSweepOrders:
    """The row sweep, the column sweep and path enumeration agree on every
    input kind, and f_mu takes each order where it is cheaper."""

    Q, S = 0.5, 0.5**-0.5
    INPUTS = {
        "scalar": np.array([0.31 + 0.12j, 0.52 - 0.17j, 0.44 + 0.21j]),
        "flat": np.array([[0.31 + 0.12j, -0.2 + 0.1j, 0.6],
                          [0.52 - 0.17j, 0.1 - 0.4j, 0.25 + 0.3j],
                          [0.44 + 0.21j, 0.33, -0.5 - 0.1j]]),
        "grid": _reflected_grid((5, 4, 3), 0.5),
    }

    @pytest.mark.parametrize("kind", INPUTS)
    @pytest.mark.parametrize("mu", [(1, 3, 0), (2, 0, 1), (0, 0, 2), (3, 1, 2), (1, 1, 1)])
    def test_both_orders_match_path_enumeration(self, kind, mu):
        z = self.INPUTS[kind]
        rows = vertex._rows(z, self.S)
        # path enumeration adds in place, so it sees the grid as a flat list
        shape = np.broadcast_shapes(*(np.shape(x) for x in z))
        flat = np.array([np.broadcast_to(x, shape).ravel() for x in z])
        by_paths = f_mu_by_paths(mu, flat, self.Q, self.S).reshape(shape)
        by_rows = vertex._f_mu_by_rows(vertex._row_plan(list(mu), np.inf), rows, self.Q, self.S)
        by_columns = vertex._f_mu_columns(list(mu), rows, self.Q, self.S)
        assert _close(by_rows, by_paths) and _close(by_columns, by_paths)
        assert _close(f_mu(mu, z, self.Q, self.S), by_columns)

    @pytest.mark.parametrize("mu, sizes, rows", [
        ((1, 3, 0), (17, 32, 32), True),  # the bench case
        ((1, 3, 0), (8, 8, 8), False),
        ((5, 3, -2), (17, 32, 32), True),
        ((5, 3, -2), (4, 4, 4), False),
        ((2, 0, 1, 3), (9, 8, 8, 8), True),
        ((4, 0), (17, 64), True),
        ((4, 0), (3, 3), False),
    ])
    def test_f_mu_on_either_side_of_the_order_choice(self, mu, sizes, rows):
        z = _reflected_grid(sizes, self.Q)
        shift = max(0, -min(mu))
        assert _uses_rows([m + shift for m in mu], z) is rows
        columns = vertex._f_mu_columns([m + shift for m in mu], vertex._rows(z, self.S),
                                       self.Q, self.S)
        for x in z:
            columns = columns * ((1.0 - self.S * x) / (x - self.S)) ** shift
        assert _close(f_mu(mu, z, self.Q, self.S), columns)

    @pytest.mark.parametrize("mu", [(1, 3, 0), (5, 3, -2), (30, 0, 15)])
    def test_row_order_is_conjugate_symmetric(self, mu):
        # at mirrored nodes the value is the conjugate bit for bit, as
        # TestConjugateSymmetry asks of the integrands on its smaller grids
        m = 32
        half = np.exp(1j * np.pi * (2 * np.arange(m // 2) + 1) / m)
        z = 1.0 + 0.17 * np.concatenate((half, half[::-1].conj()))
        grid = OpenGrid((self.S / z).reshape((1,) * k + (-1,) + (1,) * (2 - k)) for k in range(3))
        assert _uses_rows([p + max(0, -min(mu)) for p in mu], grid)
        values = np.broadcast_to(f_mu(mu, grid, self.Q, self.S), (m,) * 3)
        mirror = np.ix_(*[np.arange(m - 1, -1, -1)] * 3)
        np.testing.assert_array_equal(values[mirror], values.conj())

    def test_long_parts_take_the_column_order(self):
        # nu = (120, 100, 0) is a long jump of the r-ASEP conjugate-symmetry
        # draws; the row order's middle row alone has 129,481 moves there
        z = _reflected_grid((17, 32, 32), self.Q)
        assert not _uses_rows((120, 100, 0), z)
        start = time.thread_time()
        value = f_mu((120, 100, 0), z, self.Q, self.S)
        assert time.thread_time() - start < 0.5
        assert value.shape == (17, 32, 32) and np.isfinite(value).all()

    @pytest.mark.parametrize("mu", [(1, 3, 0), (15, 8, 0), (2, 0, 1, 3), (120, 100, 0)])
    def test_memo_takes_each_caps_order(self, mu):
        # the memo's plan at each cap is an uncached build's, in any cap
        # order and for parts given as a list; (15, 8, 0) has 864 moves
        vertex._memo_row_plan.cache_clear()
        for cap in [0, 816, 768, 863, 10, 864, 1584, 863, 6144]:
            plan = vertex._row_plan(list(mu), cap)
            assert plan == vertex._build_row_plan(tuple(mu), cap)[0]
            assert vertex._row_plan(mu, cap) is plan

    @staticmethod
    def _count_builds(monkeypatch):
        builds = []

        def build(mu, cap, build=vertex._build_row_plan):
            builds.append((mu, cap))
            return build(mu, cap)

        monkeypatch.setattr(vertex, "_build_row_plan", build)
        return builds

    @pytest.mark.parametrize("mu, caps", [((1, 3, 0), [0, 816]), ((15, 8, 0), [0, 816, 863, 864])])
    def test_memo_builds_a_plan_once(self, mu, caps, monkeypatch):
        # a built plan (18 and 864 moves) serves every cap at or above its
        # move count; a build dropped at a cap is tried again only for a
        # larger one
        vertex._memo_row_plan.cache_clear()
        builds = self._count_builds(monkeypatch)
        for cap in [0, 816, 768, 863, 10, 864, 1584, 863, 6144]:
            vertex._row_plan(mu, cap)
        assert builds == [(mu, cap) for cap in caps]

    def test_first_integral_builds_each_plan_once(self, monkeypatch):
        # its blocks' caps are 192, 204 and 396, all above the 28 moves of (3, 1, 0)
        vertex._memo_row_plan.cache_clear()
        builds = self._count_builds(monkeypatch)
        formulas.r_asep_transition((2, 1, 0), (3, 1, 0), 0.5, 1.0)
        assert [mu for mu, _ in builds] == [(3, 1, 0)]

    CALLS = {
        "r_asep_n3": lambda: formulas.r_asep_transition((2, 1, 0), (1, 3, 0), 0.5, 1.0),
        # the first block's cap is below the 864 moves
        "r_asep_near_cap": lambda: formulas.r_asep_transition((15, 8, 0), (15, 8, 0), 0.5, 1.0),
        # 5,198 moves: no block takes the rows
        "r_asep_columns": lambda: formulas.r_asep_transition((30, 15, 0), (30, 15, 0), 0.5, 1.0),
        "discrete": lambda: discrete_transition([2, 1], [1, 0], [0.2], 2.0, 0.35),
    }

    @pytest.mark.parametrize("call", CALLS.values(), ids=CALLS)
    def test_repeated_integral_builds_no_plan(self, call, monkeypatch):
        first = call()
        builds = self._count_builds(monkeypatch)
        again = call()
        assert builds == []
        assert (again, getattr(again, "est_err", None)) == (first, getattr(first, "est_err", None))

    @pytest.mark.parametrize("call", CALLS.values(), ids=CALLS)
    def test_memo_changes_no_bit(self, call, monkeypatch):
        value = call()

        def uncached(mu, cap, row_plan=vertex._row_plan):
            vertex._memo_row_plan.cache_clear()
            return row_plan(mu, cap)

        monkeypatch.setattr(vertex, "_row_plan", uncached)
        fresh = call()
        assert (fresh, getattr(fresh, "est_err", None)) == (value, getattr(value, "est_err", None))

    @pytest.mark.parametrize("mu", [(1, 3, 0), (0, 1)])
    def test_pole_is_refused(self, mu):
        n = len(mu)
        at_pole = np.full(n, 0.3 + 0.1j)
        at_pole[-1] = 1.0 / self.S
        with pytest.raises(ConfigurationError):
            f_mu(mu, at_pole, self.Q, self.S)
        grid = _reflected_grid((17,) * (n - 1) + (32,), self.Q)
        grid = OpenGrid(grid[:-1] + (np.full((1,) * (n - 1) + (32,), 1.0 / self.S),))
        with pytest.raises(ConfigurationError):
            f_mu(mu, grid, self.Q, self.S)


class TestExchangeRelation:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_exchange(self, data):
        # for mu_i < mu_(i+1): f_(s_i mu)(z) = q f_mu(z)
        #   - (z_i - q z_(i+1)) / (z_i - z_(i+1)) (f_mu(z) - f_mu(s_i z)),
        # on 2048 point tuples at once: small parts take the row order there
        q = data.draw(st.sampled_from([0.5, 2.0, 0.3, 1 / 0.7, 0.5 + 0.2j]))
        s = data.draw(st.sampled_from([0.35, 0.5**0.5, 0.8, -0.4, 0.3 + 0.2j]))
        n = data.draw(st.integers(2, 4))
        mu = data.draw(st.lists(st.integers(-5, 8), min_size=n, max_size=n))
        i = data.draw(st.integers(0, n - 2))
        lo, hi = sorted((mu[i], mu[i + 1]))
        assume(lo < hi)
        mu[i], mu[i + 1] = lo, hi
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        z = rng.uniform(0.1, 0.9, (n, 2048)) * np.exp(2j * np.pi * rng.random((n, 2048)))
        apart = (np.abs(z - s) >= 0.05).all(axis=0)
        for a, b in itertools.combinations(range(n), 2):
            apart &= np.abs(z[a] - z[b]) >= 0.05
        z = z[:, apart]
        swapped_mu = list(mu)
        swapped_mu[i], swapped_mu[i + 1] = hi, lo
        swapped_z = z.copy()
        swapped_z[[i, i + 1]] = z[[i + 1, i]]
        f, f_swapped = f_mu(mu, z, q, s), f_mu(mu, swapped_z, q, s)
        coef = (z[i] - q * z[i + 1]) / (z[i] - z[i + 1])
        lhs = f_mu(swapped_mu, z, q, s)
        rhs = q * f - coef * (f - f_swapped)
        scale = np.abs(q * f) + np.abs(coef) * (np.abs(f) + np.abs(f_swapped))
        # f_mu's own sum cancels: at q = 0.3 with parts up to 13 after the
        # shift, single points deviate by 1.7e-12 of this scale
        assert np.all(np.abs(lhs - rhs) <= 1e-10 * scale)


class TestSymmetricFunctions:
    def test_f_to_F(self, rng):
        z = rng.uniform(0.2, 0.6, 2) + 1j * rng.uniform(-0.2, 0.2, 2)
        lam = [1, 0]
        lhs = F_lambda_sym(lam, z, Q, S)
        rhs = f_mu([1, 0], z, Q, S) + f_mu([0, 1], z, Q, S)
        assert abs(lhs - rhs) < 1e-12

    def test_f_to_F_n3(self, rng):
        z = rng.uniform(0.2, 0.6, 3) + 1j * rng.uniform(-0.2, 0.2, 3)
        lam = [2, 1, 1]
        lhs = F_lambda_sym(lam, z, Q, S)
        rhs = sum(
            f_mu(mu, z, Q, S)
            for mu in {(2, 1, 1), (1, 2, 1), (1, 1, 2)}
        )
        assert abs(lhs - rhs) < 1e-11 * max(1.0, abs(rhs))

    def test_F_symmetric_in_z(self, rng):
        z = rng.uniform(0.2, 0.6, 2) + 1j * rng.uniform(-0.2, 0.2, 2)
        lam = [3, 1]
        a = F_lambda_sym(lam, z, Q, S)
        b = F_lambda_sym(lam, z[::-1], Q, S)
        assert abs(a - b) < 1e-12 * max(1.0, abs(a))

    def test_sfF_single_variable(self):
        u = 0.4 + 0.2j
        q = 0.6
        assert abs(sfF_lambda([3], [u], q) - ((1 - u) / (1 - q * u)) ** 3) < 1e-14
        assert abs(xi_mu([3], [u], q) - ((1 - q * u) / (1 - u)) ** 3) < 1e-14

    def test_sfF_determinant_at_q0(self, rng):
        worst = 0.0
        for _ in range(100):
            u = rng.uniform(0.1, 0.6, 3) + 1j * rng.uniform(-0.3, 0.3, 3)
            lam = sorted(rng.integers(-3, 6, 3).tolist(), reverse=True)
            if len(set(lam)) < 3:
                continue
            a = sfF_lambda(lam, u, 0.0)
            b = sfF_lambda_det0(lam, u)
            worst = max(worst, abs(a - b) / max(1.0, abs(b)))
        assert worst < 1e-10

    @pytest.mark.parametrize("call", [
        lambda: f_mu([1.5, 0], [0.3, 0.4], Q, S),
        lambda: G_mu_nu([2, 0], [True, 0], [0.3], 2.0, 0.6),
        lambda: sfF_lambda([2.5], [0.4], 0.6),
        lambda: xi_mu([0.5], [0.4], 0.6),
        lambda: discrete_transition([2, 0.5], [2, 0], [0.3], 2.0, 0.6),
    ], ids=["f_mu", "G_mu_nu", "sfF_lambda", "xi_mu", "discrete_transition"])
    def test_non_integral_parts_refused(self, call):
        # int() would floor 1.5 to 1 and read True as 1
        with pytest.raises(ValidationError, match="must be integral"):
            call()

    def test_coincident_points_rejected(self):
        with pytest.raises(ConfigurationError):
            sfF_lambda([1, 0], [0.4, 0.4 + 1e-12], 0.5)
        with pytest.raises(ConfigurationError):
            F_lambda_sym([1, 0], [0.4, 0.4 + 1e-12], Q, S)


class TestGFamily:
    def test_empty_alphabet_is_delta(self):
        assert G_mu_nu([2, 0], [2, 0], [], 2.0, 0.6) == 1.0
        assert G_mu_nu([2, 0], [1, 0], [], 2.0, 0.6) == 0.0

    def test_hand_contraction_two_vertices(self):
        q, s, y = 2.0, 0.6, 0.3
        val = G_mu_nu([1], [0], [y], q, s)
        hand = weight_M((1,), 0, (0,), 1, y, q, s) * weight_M(
            (0,), 1, (1,), 0, y, q, s
        )
        assert abs(val - hand) < 1e-15

    def test_stochasticity_single_row(self):
        q, s, y = 2.0, 0.6, 0.3
        mu = 3
        total = sum(
            (-s) ** (nu - mu) * G_mu_nu([mu], [nu], [y], q, s)
            for nu in range(mu, mu - 60, -1)
        )
        assert abs(total - 1.0) < 1e-12

    def test_requires_componentwise_domination(self):
        assert G_mu_nu([0], [1], [0.3], 2.0, 0.6) == 0.0


class TestOrthogonality:
    def test_diagonal_n1(self):
        assert abs(orthogonality_check([0], [0], 2.0, 0.1) - 1.0) < 1e-8

    def test_off_diagonal_n1(self):
        assert abs(orthogonality_check([0], [1], 2.0, 0.1)) < 1e-8

    def test_diagonal_n2(self):
        val = orthogonality_check([1, 0], [1, 0], 2.0, 0.1)
        assert abs(val - 1.0) < 1e-6

    def test_off_diagonal_n2(self):
        val = orthogonality_check([1, 0], [2, 0], 2.0, 0.1)
        assert abs(val) < 1e-6

    def test_admissible_contour_construction(self):
        contours = admissible_contours(2.0, 0.1, 2)
        radii = [c.radius for c in contours]
        assert radii == [0.2, 0.5]  # the circles orthogonality_check uses at n = 2
        assert radii[0] > 0.1 and radii[1] < 10.0
        assert radii[1] > 2.0 * radii[0]
        with pytest.raises(ConfigurationError):
            admissible_contours(5.0, 0.9, 3)


class TestCauchy:
    def test_converges_to_product_form(self):
        rep = cauchy_check([0], [0.55], [0.5], 2.0, 0.6)
        assert abs(rep.lhs - rep.rhs) < 1e-10
        assert rep.within_bound

    def test_degenerate_row_y_zero(self):
        rep = cauchy_check([0], [0.55], [0.0], 2.0, 0.6)
        assert abs(rep.lhs - rep.rhs) < 1e-14
        # only kappa = nu survives at y = 0
        q, s = 2.0, 0.6
        only = f_mu([0], [0.55], q, s) * G_mu_nu([0], [0], [0.0], q, s)
        assert abs(rep.lhs - only) < 1e-14

    def test_two_colours(self):
        rep = cauchy_check([1, 0], [0.55, 0.62], [0.5], 2.0, 0.6)
        assert rep.within_bound
        assert abs(rep.lhs - rep.rhs) <= max(rep.tail_bound, 1e-11)

    def test_divergent_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            cauchy_check([0], [-20.0], [-20.0], 2.0, 0.6)

    def test_box_from_the_decay_ratio(self, monkeypatch):
        # r = 0.0107 at these points: T = ceil(ln 1e-16 / ln r) = 9, so a
        # 10 x 10 box of kappa and one more f_mu call for the product side
        calls = []
        monkeypatch.setattr(vertex_reference, "f_mu", lambda mu, *a: calls.append(mu) or f_mu(mu, *a))
        rep = cauchy_check([1, 0], [0.55, 0.62], [0.5], 2.0, 0.6)
        assert len(calls) == 10**2 + 1
        assert max(kappa[0] for kappa in calls) == 1 + 9
        assert rep.within_bound

    @pytest.mark.parametrize("nu, z, y", [
        ([0], [-0.999], [-0.999]),  # r = 0.9995: T + 1 = 73,647 for one colour
        ([1, 0], [-0.9, -0.85], [-0.9]),  # r = 0.949: (T + 1)^2 = 491,401
    ])
    def test_ratio_near_one_is_refused(self, nu, z, y):
        with pytest.raises(ResourceLimitError, match="above the cap 20000"):
            cauchy_check(nu, z, y, 2.0, 0.6)


class TestContinuumLimit:
    def test_discrete_chain_approaches_backhopping_process(self):
        # ell = t/eps steps of the discrete chain, with the spectral value
        # pushed toward its degeneration point, converge at first order in
        # eps to the continuous-time transition probability
        from asepcross.formulas import r_asep_transition

        q, t = 2.0, 0.4
        s = q**-0.5
        target = {}
        for nu in (0, 1, -1):
            target[nu] = r_asep_transition([0], [nu], q, t)
        for nu in (0, 1, -1):
            vals = []
            for eps in (0.05, 0.025):
                ell = round(t / eps)
                y = s * (1.0 + (1.0 - q) * eps)
                raw = G_mu_nu([0], [nu - ell], [y] * ell, q, s)
                prob = ((-s) ** ((nu - ell) - 0)) * raw
                vals.append(prob.real)
            extrapolated = 2.0 * vals[1] - vals[0]
            assert abs(vals[1] - target[nu]) < 0.1 * max(abs(target[nu]), 0.02)
            assert abs(extrapolated - target[nu]) < 5e-3


class TestDiscreteTransition:
    def test_empty_alphabet(self):
        assert discrete_transition([1], [1], [], 2.0, 0.6) == 1.0
        assert discrete_transition([1], [0], [], 2.0, 0.6) == 0.0

    @pytest.mark.parametrize("mu,nu", [([1], [0]), ([1], [1]), ([2], [0])])
    def test_single_colour_matches_lattice(self, mu, nu):
        q, s, y = 2.0, 0.6, 0.3
        a = discrete_transition(mu, nu, [y], q, s)
        b = (-s) ** (sum(nu) - sum(mu)) * G_mu_nu(mu, nu, [y], q, s)
        assert abs(a - b) < 1e-10

    @pytest.mark.parametrize("mu,nu", [([1, 0], [0, 0]), ([2, 1], [1, 0]), ([1, 1], [0, 1])])
    def test_two_colours_match_lattice(self, mu, nu):
        q, s, y = 2.0, 0.35, 0.2
        a = discrete_transition(mu, nu, [y], q, s)
        b = (-s) ** (sum(nu) - sum(mu)) * G_mu_nu(mu, nu, [y], q, s)
        assert abs(a - b) < 1e-8

    def test_requires_dominant_mu(self):
        with pytest.raises(ValidationError):
            discrete_transition([0, 1], [0, 0], [0.3], 2.0, 0.6)
