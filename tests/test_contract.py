"""The input contract: every public query, evaluator and job refuses a
malformed integer field, rate or Bernoulli datum with ValidationError.

Each entry names a call, a set of valid fields and which of them are
integers, rates or Bernoulli data; a field "mu.1" is entry 1 of the
sequence ``mu``.  Every bad value is refused, and the valid fields alone
are accepted.
"""

import json
import math

import numpy as np
import pytest

from asepcross import formulas, identities, oracle, vertex
from asepcross.cli import main
from asepcross.core import (
    BlockSignatureVector,
    ModelParams,
    ParticleConfig,
    StrictSignature,
    ValidationError,
)
from conftest import make_blocks
import vertex_reference

BAD_INTS = [True, 1.5, "1"]
BAD_RATES = [-1.0, math.nan, math.inf]
BAD_BERNOULLI = [{"rho": 0}, {"rho": 1.5}, {"m": 3, "n": 2}]

Z2 = np.array([0.3 + 0.1j, 0.5 - 0.2j])
# two rows of three nodes each: a grid of nodes is passed as an OpenGrid
Z2D = np.array([[0.3 + 0.1j, 0.2, 0.4j], [0.5 - 0.2j, 0.6, -0.1]])
SPECTRAL_2D = r"spectral parameters of shape \(2, 3\).*OpenGrid\(z\)"


def _green(t):
    return formulas.GreenQuery(ParticleConfig.from_two_species((0, 1), (1,)),
                               ParticleConfig.from_two_species((1, 3), (2,)), t)


def _crossing(q, t):
    return formulas.CrossingQuery(make_blocks([[1, 0]], "initial"),
                                  make_blocks([[2, 1]], "final"), q, t)


def _wall_job(q, horizon, samples, seed, rho, m, n, s1, s2):
    return oracle.MonteCarloJob(q=q, horizon=horizon, samples=samples, seed=seed,
                                bernoulli=(rho, m, n), event=("wall", s1, s2))


def _target_job(positions, species, target):
    return oracle.MonteCarloJob(q=0.5, horizon=1.0, samples=10, seed=0,
                                initial=ParticleConfig(positions, species),
                                event=("target", target, (1, 2)))


def _window(positions, window, q):
    return oracle.build_window_generator(ParticleConfig(positions, (2, 1)), window,
                                         ModelParams(q))


def _sample(index):
    return oracle.simulate_sample(_wall_job(0.0, 1.0, 10, 0, 0.5, 1, 2, -3, 2), index)


def _transition_row(time):
    mu = ParticleConfig((0,), (1,))
    gen = oracle.build_window_generator(mu, (0, 3), ModelParams(0.0))
    return oracle.transition_row(gen, mu, time)


# (id, call, valid fields, integer fields, rate fields, Bernoulli data?)
ENTRIES = [
    ("ParticleConfig", ParticleConfig, {"positions": (0, 1), "species": (2, 1)},
     ["positions.1", "species.0"], [], False),
    ("from_two_species", ParticleConfig.from_two_species,
     {"positions": (0, 1), "type2_indices": (1,)}, ["positions.0", "type2_indices.0"], [], False),
    ("StrictSignature", StrictSignature, {"parts": (2, 0)}, ["parts.0"], [], False),
    ("ModelParams", ModelParams, {"q": 0.5}, [], ["q"], False),
    ("GreenQuery", _green, {"t": 1.0}, [], ["t"], False),
    ("CrossingQuery", _crossing, {"q": 0.5, "t": 1.0}, [], ["q", "t"], False),
    ("WallQuery", formulas.WallQuery, {"s1": -3, "s2": 2, "rho": 0.5, "n": 2, "m": 1, "t": 2.0},
     ["s1", "s2", "n", "m"], ["t"], True),
    ("schutz_determinant", formulas.schutz_determinant, {"mu": (0, 1), "nu": (1, 3), "t": 1.0},
     ["mu.1", "nu.0"], ["t"], False),
    ("two_tasep_crossing", formulas.two_tasep_crossing,
     {"mu": (0, 1), "nu": (1, 3), "m": 1, "t": 1.0}, ["mu.0", "nu.1", "m"], ["t"], False),
    ("r_asep_transition", formulas.r_asep_transition,
     {"mu": (1, 0), "nu": (0, 2), "q": 0.5, "t": 1.0}, ["mu.0", "nu.1"], ["q", "t"], False),
    ("rainbow_total_crossing", formulas.rainbow_total_crossing,
     {"mu": (1, 0), "nu": (1, 2), "q": 0.5, "t": 1.0}, ["mu.1", "nu.0"], ["q", "t"], False),
    ("cumulative_crossing_step", formulas.cumulative_crossing_step,
     {"mu": (-1, 0), "m": 1, "s1": -3, "s2": 2, "t": 2.0}, ["mu.0", "m", "s1", "s2"], ["t"],
     False),
    ("gamma_wall", formulas.gamma_wall, {"n": 2, "s": 3, "t": 1.0}, ["n", "s"], ["t"], False),
    ("eigenfunction_P", formulas.eigenfunction_P,
     {"nu": (1, 3), "p": (1,), "t": 1.0, "z": Z2, "u": Z2[:1]}, ["nu.0", "p.0"], [], False),
    ("MonteCarloJob_wall", _wall_job,
     {"q": 0.0, "horizon": 1.0, "samples": 10, "seed": 0, "rho": 0.5, "m": 1, "n": 2,
      "s1": -3, "s2": 2}, ["samples", "seed", "m", "n", "s1", "s2"], ["q", "horizon"], True),
    ("MonteCarloJob_target", _target_job,
     {"positions": (0, 1), "species": (2, 1), "target": (0, 2)},
     ["positions.0", "species.1", "target.1"], [], False),
    ("build_window_generator", _window, {"positions": (0, 1), "window": (-2, 3), "q": 0.5},
     ["positions.1", "window.0", "window.1"], ["q"], False),
    ("simulate_sample", _sample, {"index": 3}, ["index"], [], False),
    ("transition_row", _transition_row, {"time": 1.0}, [], ["time"], False),
    ("f_mu", vertex.f_mu, {"mu": (1, 0), "z": Z2, "q": 0.5, "s": 0.4}, ["mu.0"], [], False),
    ("G_mu_nu", vertex.G_mu_nu, {"mu": (2, 1), "nu": (1, 0), "ys": [0.2], "q": 2.0, "s": 0.35},
     ["mu.0", "nu.1"], [], False),
    ("sfF_lambda", vertex.sfF_lambda, {"lam": (3, 1), "u": Z2, "q": 0.5}, ["lam.0"], [], False),
    ("xi_mu", vertex.xi_mu, {"mu": (3, 1), "u": Z2, "q": 0.5}, ["mu.1"], [], False),
    ("discrete_transition", vertex.discrete_transition,
     {"mu": (2, 1), "nu": (1, 0), "ys": [0.2], "q": 2.0, "s": 0.35}, ["mu.0", "nu.0"], [],
     False),
    ("check_free_evolution", identities.check_free_evolution,
     {"nu": (0, 2), "p": (), "t": 0.4, "z": Z2, "u": np.zeros(0)}, ["nu.1"], [], False),
    ("check_boundary_conditions", identities.check_boundary_conditions,
     {"nu": (0, 0, 3), "l": 1, "p": (1,), "z": np.append(Z2, 0.6), "u": np.array([0.8 + 0.1j])},
     ["nu.2", "l", "p.0"], [], False),
    # the single-vertex weights and out-states live beside the tests, which alone call them
    ("weight_L", vertex_reference.weight_L,
     {"I": (1, 0), "j": 0, "K": (1, 0), "l": 0, "z": 0.3, "q": 0.5, "s": 0.4},
     ["I.0", "K.1", "j", "l"], [], False),
    ("weight_M", vertex_reference.weight_M,
     {"I": (1, 0), "j": 1, "K": (1, 0), "l": 1, "z": 0.3, "q": 0.5, "s": 0.4},
     ["I.1", "K.0", "j", "l"], [], False),
    ("out_states", vertex_reference.out_states, {"I": (1, 0), "j": 1}, ["I.0", "j"], [], False),
    ("stochastic_weights_check", vertex.stochastic_weights_check,
     {"n": 1, "z": 0.3, "q": 0.5, "s": 0.4}, ["n"], [], False),
]
IDS = [entry[0] for entry in ENTRIES]


def _with(fields, field, value):
    """``fields`` with ``field`` (or entry i of it, "name.i") set to ``value``."""
    fields = dict(fields)
    name, _, index = field.partition(".")
    if index:
        seq = list(fields[name])
        seq[int(index)] = value
        fields[name] = tuple(seq)
    else:
        fields[name] = value
    return fields


def _cases(column, bad):
    """(call, valid fields, field, bad value) for each field in ``column`` of the entries."""
    return [pytest.param(call, valid, field, value, id=f"{name}-{field}-{value!r}")
            for name, call, valid, *columns in ENTRIES
            for field in columns[column] for value in bad]


@pytest.mark.parametrize("call, valid", [entry[1:3] for entry in ENTRIES], ids=IDS)
def test_valid_fields_are_accepted(call, valid):
    call(**valid)


@pytest.mark.parametrize("call, valid, field, value", _cases(0, BAD_INTS))
def test_integer_field_is_refused(call, valid, field, value):
    with pytest.raises(ValidationError, match="must be integral, got"):
        call(**_with(valid, field, value))


@pytest.mark.parametrize("call, valid, field, value", _cases(1, BAD_RATES))
def test_rate_is_refused(call, valid, field, value):
    with pytest.raises(ValidationError, match=f"^{field} must be >= 0 and finite, got"):
        call(**_with(valid, field, value))


@pytest.mark.parametrize("call, valid", [entry[1:3] for entry in ENTRIES if entry[5]],
                         ids=[entry[0] for entry in ENTRIES if entry[5]])
@pytest.mark.parametrize("bad", BAD_BERNOULLI, ids=["rho_0", "rho_1.5", "m_above_n"])
def test_bernoulli_data_is_refused(call, valid, bad):
    with pytest.raises(ValidationError, match=r"^(rho must lie in \(0, 1\]|need 0 <= m <= n)"):
        call(**dict(valid, **bad))


INTEGRAL_FLOATS = {
    "bernoulli_n": lambda x: formulas.cumulative_crossing_bernoulli(
        formulas.WallQuery(-3, 2, 0.5, 2 * x, 1, 2.0)),
    "one_wall_s1": lambda x: formulas.cumulative_crossing_one_wall(
        formulas.WallQuery(-3 * x, 2, 0.5, 2, 1, 2.0)),
    "step_m": lambda x: formulas.cumulative_crossing_step((-1, 0), x, -3, 2, 2.0),
    "two_tasep_crossing_m": lambda x: formulas.two_tasep_crossing((0, 1), (1, 3), x, 1.0),
    "gamma_wall_n": lambda x: formulas.gamma_wall(2 * x, 3, 1.0),
}


@pytest.mark.parametrize("call", INTEGRAL_FLOATS.values(), ids=INTEGRAL_FLOATS)
def test_integral_floats_are_ints(call):
    # as_int takes 2.0 for 2: the same value, error bar and route
    exact, floated = call(1), call(1.0)
    assert (floated, floated.est_err, floated.method) == (exact, exact.est_err, exact.method)


def test_wall_query_stores_ints():
    query = formulas.WallQuery(-3.0, 2.0, 0.5, 2.0, 1.0, 2.0)
    assert [type(x) for x in (query.s1, query.s2, query.n, query.m)] == [int] * 4


def _event_job(event):
    return oracle.MonteCarloJob(q=0.0, horizon=1.0, samples=10, seed=0,
                                bernoulli=(0.5, 1, 2), event=event)


def _run_threads(threads):
    return oracle.run_monte_carlo(_event_job(("wall", -3, 2)), threads=threads)


# (id, call, message): malformed structure that no field check covers
MALFORMED = [
    ("empty_block_of_two", lambda: BlockSignatureVector(((2,), ())),
     "each with at least one part"),
    ("lone_empty_block", lambda: BlockSignatureVector(((),)), "each with at least one part"),
    ("short_wall_event", lambda: _event_job(("wall", -3)), "a wall event needs 2 fields"),
    ("short_target_event", lambda: _event_job(("target", (1, 2))),
     "a target event needs 2 fields"),
    ("long_wall_event", lambda: _event_job(("wall", -3, 2, 5)), "a wall event needs 2 fields"),
    ("out_states_j_above_n", lambda: vertex_reference.out_states((1, 0), 3),
     "inconsistent vertex state"),
    ("f_mu_2d_spectral", lambda: vertex.f_mu((1, 0), Z2D, 0.5, 0.4), SPECTRAL_2D),
    ("sfF_lambda_2d_spectral", lambda: vertex.sfF_lambda((3, 1), Z2D, 0.5), SPECTRAL_2D),
    ("xi_mu_2d_spectral", lambda: vertex.xi_mu((3, 1), Z2D, 0.5), SPECTRAL_2D),
    ("eigenfunction_P_2d_spectral",
     lambda: formulas.eigenfunction_P((1, 3), (1,), 1.0, Z2D, Z2D[:1]), SPECTRAL_2D),
    ("stochastic_check_negative_n", lambda: vertex.stochastic_weights_check(-1, 0.3, 0.5, 0.4),
     "n must be >= 0"),
    ("identity_suite_zero_samples", lambda: identities.run_identity_suite(samples=0),
     "^samples must be >= 1, got 0$"),
    ("window_of_three_ends", lambda: _window((0, 1), (0, 3, 5), 0.5), "two ends"),
    ("empty_configuration_on_reversed_window",
     lambda: oracle.build_window_generator(ParticleConfig((), ()), (3, 0), ModelParams(0.5)),
     r"a window needs a <= b, got \(3, 0\)"),
    ("monte_carlo_tiny_density", lambda: _wall_job(0.0, 1.0, 10, 3, 1e-300, 2, 3, -3, 2),
     r"^rho = 1e-300 is too small for m = 2"),
    ("monte_carlo_wide_initial_state",
     lambda: _target_job((-2**62, 1), (2, 1), (-2**62, 2)), "span more than 2\\*\\*62 sites"),
    ("monte_carlo_negative_seed", lambda: _wall_job(0.0, 1.0, 10, -1, 0.5, 1, 2, -3, 2),
     r"^seed must lie in \[0, 2\*\*64\), got -1$"),
    ("monte_carlo_seed_of_65_bits", lambda: _wall_job(0.0, 1.0, 10, 2**64, 0.5, 1, 2, -3, 2),
     rf"^seed must lie in \[0, 2\*\*64\), got {2**64}$"),
    ("identity_suite_negative_seed", lambda: identities.run_identity_suite(seed=-1),
     r"^seed must lie in \[0, 2\*\*64\), got -1$"),
    ("identity_suite_seed_of_65_bits", lambda: identities.run_identity_suite(seed=2**64),
     rf"^seed must lie in \[0, 2\*\*64\), got {2**64}$"),
    ("monte_carlo_zero_threads", lambda: _run_threads(0), "^threads must be >= 1, got 0$"),
    ("monte_carlo_negative_threads", lambda: _run_threads(-3), "^threads must be >= 1, got -3$"),
    ("monte_carlo_fractional_threads", lambda: _run_threads(1.5), "threads must be integral"),
    ("monte_carlo_string_threads", lambda: _run_threads("2"), "threads must be integral"),
]


@pytest.mark.parametrize("call, message", [entry[1:] for entry in MALFORMED],
                         ids=[entry[0] for entry in MALFORMED])
def test_malformed_structure_is_refused(call, message):
    with pytest.raises(ValidationError, match=message):
        call()


def test_wall_event_bounds_are_ints():
    job = _wall_job(0.0, 1.0, 10, 0, 0.5, 1, 2, -3.0, 2.0)
    assert job.event == ("wall", -3, 2) and all(type(x) is int for x in job.event[1:])


CLI_PAYLOADS = [
    ("wall", {"form": "bernoulli", "s1": -3, "s2": 2, "rho": 0.5, "n": 2, "m": 1, "t": 2.0},
     ["s1", "s2", "n", "m"]),
    ("wall", {"form": "one_wall", "s1": -3, "s2": 2, "rho": 0.5, "n": 2, "m": 1, "t": 2.0},
     ["s1", "s2", "n", "m"]),
    ("wall", {"form": "step", "mu": [-1, 0], "m": 1, "s1": -3, "s2": 2, "t": 2.0},
     ["mu.0", "m", "s1", "s2"]),
    ("wall", {"form": "gamma", "n": 2, "s": 3, "t": 1.0}, ["n", "s"]),
    ("crossing", {"kind": "two_species", "mu": [0, 1], "nu": [1, 3], "m": 1, "t": 1.0},
     ["mu.1", "nu.0", "m"]),
    ("crossing", {"kind": "rainbow", "mu": [1, 0], "nu": [1, 2], "q": 0.5, "t": 1.0},
     ["mu.0", "nu.1"]),
    ("green", {"kind": "two_species", "mu": [0, 1], "p0": [1], "nu": [1, 3], "p": [2],
               "t": 1.0}, ["mu.0", "nu.1", "p0.0", "p.0"]),
    ("green", {"kind": "rainbow_asep", "mu": [1, 0], "nu": [0, 2], "q": 0.5, "t": 1.0},
     ["mu.1", "nu.0"]),
    ("simulate", {"task": "estimate_wall", "rho": 0.5, "m": 1, "n": 2, "s1": -3, "s2": 2,
                  "t": 2.0, "samples": 100}, ["m", "n", "s1", "s2", "samples"]),
    ("simulate", {"task": "bernoulli_sample", "rho": 0.5, "m": 1, "n": 2}, ["m", "n"]),
    ("simulate", {"task": "estimate", "positions": [0, 1], "species": [2, 1], "t": 1.0,
                  "target_positions": [0, 2], "target_species": [1, 2], "samples": 100},
     ["positions.1", "species.0", "target_positions.1"]),
]


CLI_IDS = [f"{c}-{p.get('form', p.get('kind', p.get('task')))}" for c, p, _ in CLI_PAYLOADS]


@pytest.mark.parametrize("command, payload, field, value", [
    pytest.param(command, payload, field, value, id=f"{name}-{field}-{value!r}")
    for (command, payload, fields), name in zip(CLI_PAYLOADS, CLI_IDS)
    for field in fields for value in (True, 1.5)])
def test_cli_integer_field_exits_2(capsys, command, payload, field, value):
    code = main([command, "--json", json.dumps(_with(payload, field, value))])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("validation error: ") and "must be integral" in err


@pytest.mark.parametrize("command, payload", [(c, p) for c, p, _ in CLI_PAYLOADS], ids=CLI_IDS)
def test_cli_valid_payload_exits_0(capsys, command, payload):
    assert main([command, "--json", json.dumps(payload)]) == 0


@pytest.mark.parametrize("mu_blocks, lambda_blocks", [([[1], []], [[2], [3]]), ([[]], [[]])],
                         ids=["empty_block_of_two", "lone_empty_block"])
def test_cli_empty_block_exits_2(capsys, mu_blocks, lambda_blocks):
    payload = {"kind": "blocks", "mu_blocks": mu_blocks, "lambda_blocks": lambda_blocks,
               "t": 1.0}
    assert main(["crossing", "--json", json.dumps(payload)]) == 2
    assert "at least one part" in capsys.readouterr().err
