import json
import math
import os
import re
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import pytest

from asepcross.cli import EVALUATORS, SELECTORS, dumps_record, main
from asepcross.core import ParticleConfig
from asepcross.oracle import MonteCarloJob, run_monte_carlo
import gillespie_reference as reference


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip().splitlines()
    return code, out


class TestSerialization:
    def test_round_trip_is_byte_stable(self):
        record = {
            "command": "green",
            "value": 0.1839397205857212,
            "est_error": 1e-12,
            "input": {"t": 1.0, "mu": [0, 1]},
            "flag": True,
            "note": None,
        }
        line = dumps_record(record)
        parsed = json.loads(line)
        assert dumps_record(parsed) == line

    def test_sorted_keys(self):
        assert dumps_record({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    def test_seventeen_digit_floats(self):
        line = dumps_record({"x": 1.0 / 3.0})
        assert line == '{"x":0.33333333333333331}'
        assert json.loads(line)["x"] == 1.0 / 3.0


class TestGreenCommand:
    def test_identity_query_uses_laurent(self, capsys):
        code, out = run_cli(
            capsys, "green", "--json",
            '{"kind":"two_species","mu":[0],"p0":[],"nu":[0],"p":[],"t":0.0}',
        )
        assert code == 0
        rec = json.loads(out[-1])
        assert rec["value"] == 1.0
        assert rec["method"] == "laurent"

    def test_poisson_query(self, capsys):
        code, out = run_cli(
            capsys, "green", "--json",
            '{"kind":"two_species","mu":[0],"p0":[],"nu":[2],"p":[],"t":1.0}',
        )
        rec = json.loads(out[-1])
        assert abs(rec["value"] - math.exp(-1) / 2) < 1e-12

    def test_long_jump_query(self, capsys):
        # a jump of 200 at t = 1: t^200 / 200! underflows, 200! overflows a float
        code, out = run_cli(
            capsys, "green", "--json",
            '{"kind":"two_species","mu":[0],"p0":[],"nu":[200],"p":[],"t":1.0}',
        )
        assert code == 0
        rec = json.loads(out[-1])
        assert 0.0 <= rec["value"] < 1e-300 and rec["method"] == "laurent"

    def test_rainbow_payload(self, capsys):
        code, out = run_cli(
            capsys, "green", "--json",
            '{"kind":"rainbow_asep","mu":[1,0],"nu":[0,1],"q":0.5,"t":0.0}',
        )
        assert code == 0
        rec = json.loads(out[-1])
        assert abs(rec["value"]) < 1e-10

    def test_golden_instance_from_config_file(self, capsys, tmp_path):
        golden = 0.06766764161830637
        cfg = tmp_path / "query.json"
        cfg.write_text(
            '{"kind":"two_species","mu":[0,1],"p0":[1],"nu":[1,2],"p":[2],"t":1.0}'
        )
        code, out = run_cli(capsys, "green", "--config", str(cfg))
        assert code == 0
        assert abs(json.loads(out[-1])["value"] - golden) < 1e-9


class TestCrossingCommand:
    def test_t0_crossed_target_is_zero(self, capsys):
        code, out = run_cli(
            capsys, "crossing", "--json",
            '{"kind":"blocks","mu_blocks":[[0],[-1]],'
            '"lambda_blocks":[[2],[3]],"t":0.0}',
        )
        assert code == 0
        assert abs(json.loads(out[-1])["value"]) < 1e-12

    def test_blocks_match_python_api(self, capsys):
        from asepcross.formulas import CrossingQuery, block_crossing
        from conftest import make_blocks

        code, out = run_cli(
            capsys, "crossing", "--json",
            '{"kind":"blocks","mu_blocks":[[1],[0]],'
            '"lambda_blocks":[[2],[3]],"q":0.5,"t":1.0}',
        )
        rec = json.loads(out[-1])
        query = CrossingQuery(
            make_blocks([[1], [0]], "initial"),
            make_blocks([[2], [3]], "final"),
            0.5,
            1.0,
        )
        assert abs(rec["value"] - block_crossing(query)) < 1e-12

    def test_blocks_at_the_symmetric_point_are_refused(self, capsys):
        code = main(["crossing", "--json", '{"kind":"blocks","mu_blocks":[[1],[0]],'
                     '"lambda_blocks":[[2],[3]],"q":1.0,"t":1.0}'])
        err = capsys.readouterr().err
        assert code == 2
        assert err.strip() == "validation error: the symmetric point q = 1 is not supported"


class TestWallCommand:
    def test_infeasible_wall_is_zero(self, capsys):
        code, out = run_cli(
            capsys, "wall", "--json",
            '{"form":"step","mu":[-1,0],"m":1,"s1":0,"s2":0,"t":1.0}',
        )
        assert code == 0
        assert json.loads(out[-1])["value"] == 0.0

    def test_rho_one_matches_step(self, capsys):
        _, out1 = run_cli(
            capsys, "wall", "--json",
            '{"form":"bernoulli","s1":-3,"s2":2,"rho":1.0,"n":2,"m":1,"t":2.0}',
        )
        _, out2 = run_cli(
            capsys, "wall", "--json",
            '{"form":"step","mu":[-1,0],"m":1,"s1":-3,"s2":2,"t":2.0}',
        )
        v1 = json.loads(out1[-1])["value"]
        v2 = json.loads(out2[-1])["value"]
        assert abs(v1 - v2) < 1e-9

    def test_gamma_form(self, capsys):
        _, out = run_cli(
            capsys, "wall", "--json", '{"form":"gamma","n":1,"s":2,"t":1.0}'
        )
        assert abs(json.loads(out[-1])["value"] - (1 - math.exp(-1))) < 1e-12


class TestSimulateCommand:
    def test_t0_returns_initial_state(self, capsys):
        code, out = run_cli(
            capsys, "simulate", "--json",
            '{"task":"run","positions":[0,2],"species":[2,1],"t":0.0}',
        )
        rec = json.loads(out[-1])
        assert rec["result"] == {"positions": [0, 2], "species": [2, 1]}

    def test_fixed_seed_reproducible(self, capsys):
        argv = (
            "simulate", "--json",
            '{"task":"estimate","positions":[0],"species":[1],"t":1.0,'
            '"samples":20000,"target_positions":[1],"target_species":[1]}',
            "--seed", "42",
        )
        _, out1 = run_cli(capsys, *argv)
        _, out2 = run_cli(capsys, *argv)
        rec1, rec2 = json.loads(out1[-1]), json.loads(out2[-1])
        rec1.pop("wall_ms")
        rec2.pop("wall_ms")
        assert rec1 == rec2

    def test_thread_count_invariance(self, capsys):
        base = (
            "simulate", "--json",
            '{"task":"estimate_wall","rho":0.5,"n":2,"m":1,"s1":-3,"s2":2,'
            '"t":2.0,"samples":30000}',
            "--seed", "7",
        )
        _, out1 = run_cli(capsys, *base, "--threads", "1")
        _, out2 = run_cli(capsys, *base, "--threads", "2")
        rec1, rec2 = json.loads(out1[-1]), json.loads(out2[-1])
        rec1.pop("wall_ms")
        rec2.pop("wall_ms")
        assert rec1 == rec2

    @pytest.mark.parametrize("seed", range(5))
    def test_samples_are_sample_zero_of_the_counted_stream(self, capsys, seed):
        # a one-sample job whose target is the printed state counts it
        runs = [
            ('{"task":"run","positions":[0,1,2],"species":[3,2,1],"q":0.5,"t":1.0}',
             dict(q=0.5, horizon=1.0, initial=ParticleConfig((0, 1, 2), (3, 2, 1)))),
            ('{"task":"bernoulli_sample","rho":0.3,"m":2,"n":3}',
             dict(q=0.0, horizon=0.0, bernoulli=(0.3, 2, 3))),
        ]
        for payload, fields in runs:
            code, out = run_cli(capsys, "simulate", "--json", payload, "--seed", str(seed))
            assert code == 0
            final = json.loads(out[-1])["result"]
            event = ("target", tuple(final["positions"]), tuple(final["species"]))
            job = MonteCarloJob(samples=1, seed=seed, event=event, **fields)
            assert run_monte_carlo(job)[2] == 1

    def test_large_bernoulli_sample_runs_in_linear_memory(self, capsys):
        # 20,000 particles at horizon 0: the sampler's arrays grow linearly
        # in n (a dense block-by-particle weight matrix would take 800 MB)
        payload = '{"task":"bernoulli_sample","rho":0.5,"m":10000,"n":20000}'
        tracemalloc.start()
        try:
            code, out = run_cli(capsys, "simulate", "--json", payload, "--seed", "4")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and peak < 32 * 2**20
        final = json.loads(out[-1])["result"]
        job = MonteCarloJob(q=0.0, horizon=0.0, samples=1, seed=4, bernoulli=(0.5, 10000, 20000))
        expected = reference.sample(job, 0)
        assert (tuple(final["positions"]), tuple(final["species"])) == (
            expected.positions, expected.species)
        assert final["positions"][10000:] == list(range(10000))

    def test_tiny_density_is_validation_error(self, capsys):
        # at rho = 1e-300 a gap can span 10**301 sites, past the int64 lockstep
        code = main(["simulate", "--json", '{"task":"estimate_wall","rho":1e-300,"m":2,"n":3,'
                     '"s1":-3,"s2":2,"t":1.0,"samples":100}', "--seed", "3"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("validation error: rho = 1e-300 is too small for m = 2")


class TestVerifyCommand:
    def test_vertex_suite_passes(self, capsys):
        code, out = run_cli(
            capsys, "verify", "--json",
            '{"suite":"vertex","negative_control":true}',
        )
        assert code == 0
        rec = json.loads(out[-1])
        assert rec["all_passed"] is True
        names = [c["name"] for c in rec["checks"]]
        assert "perturbation_control_breaks_sums" in names

    def test_zero_samples_is_validation_error(self, capsys):
        code = main(["verify", "--json", '{"suite":"identities","samples":0}'])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("validation error: samples must be >= 1, got 0")


# The README payloads, one or more per EVALUATORS entry, with the method each
# record must report.
TABLE_PAYLOADS = [
    ("green", '{"kind":"two_species","mu":[0,1],"p0":[2],"nu":[1,3],"p":[2],"t":1.0}',
     "laurent"),
    ("green", '{"kind":"two_species","mu":[0,1],"p0":[1],"nu":[1,2],"p":[2],"t":1.0}',
     "laurent"),
    ("green", '{"kind":"two_species","mu":[0],"p0":[],"nu":[2],"p":[],"t":1.0}', "laurent"),
    ("green", '{"kind":"rainbow_asep","mu":[1,0],"nu":[0,1],"q":0.5,"t":1.0}', "quadrature"),
    ("crossing", '{"kind":"two_species","mu":[0,1],"nu":[1,3],"m":1,"t":1.0}', "laurent"),
    ("crossing", '{"kind":"rainbow","mu":[1,0],"nu":[1,2],"q":0.5,"t":1.0}', "quadrature"),
    ("crossing", '{"kind":"blocks","mu_blocks":[[1],[0]],"lambda_blocks":[[2],[3]],'
                 '"q":0.5,"t":1.0}', "quadrature"),
    ("crossing", '{"kind":"blocks","mu_blocks":[[1],[0]],"lambda_blocks":[[2],[3]],'
                 '"q":0.0,"t":1.0}', "laurent"),
    ("wall", '{"form":"step","mu":[-1,0],"m":1,"s1":-3,"s2":2,"t":2.0}', "laurent"),
    ("wall", '{"form":"step","mu":[-1,0],"m":1,"s1":0,"s2":0,"t":1.0}', "exact"),
    ("wall", '{"form":"bernoulli","s1":-3,"s2":2,"rho":0.5,"n":2,"m":1,"t":2.0}', "laurent"),
    # no type-1 particles: s1 above s2 is no infeasible wall
    ("wall", '{"form":"bernoulli","s1":4,"s2":1,"rho":0.5,"n":2,"m":2,"t":2.0}', "laurent"),
    ("wall", '{"form":"one_wall","s1":-3,"s2":2,"rho":0.5,"n":2,"m":1,"t":2.0}', "laurent"),
    ("wall", '{"form":"gamma","n":1,"s":2,"t":1.0}', "laurent"),
    ("wall", '{"form":"gamma","n":2,"s":3,"t":0.0}', "exact"),
]


class TestEvaluatorTable:
    def test_payloads_cover_every_entry(self):
        covered = {
            (command, json.loads(payload).get(*SELECTORS[command]))
            for command, payload, _ in TABLE_PAYLOADS
        }
        assert covered == set(EVALUATORS)

    @pytest.mark.parametrize("command, payload, method", TABLE_PAYLOADS)
    def test_record_reports_the_route_and_its_error(self, capsys, command, payload, method):
        code, out = run_cli(capsys, command, "--json", payload)
        assert code == 0
        rec = json.loads(out[-1])
        assert rec["method"] == method
        if method == "quadrature":
            assert 0.0 <= rec["est_error"] < 1e-10
            # no setting of the invocation reaches the route: the record is
            # the in-process Result, bit for bit
            fields = json.loads(payload)
            expected = EVALUATORS[command, fields.get(*SELECTORS[command])](fields)
            assert (rec["value"], rec["est_error"]) == (float(expected), expected.est_err)
        elif method == "laurent":
            # moment, residue and series sums report the rounding of their terms
            assert 0.0 < rec["est_error"] < 1e-12
        else:
            assert rec["est_error"] == 0.0

    def test_one_wall_variants_run_the_one_evaluator(self, capsys):
        base = {"form": "one_wall", "s1": -3, "s2": 2, "rho": 0.5, "n": 2, "m": 1, "t": 2.0}
        records = []
        for variant in ("collapsed", "cauchy_binet", None):
            payload = dict(base) if variant is None else dict(base, variant=variant)
            code, out = run_cli(capsys, "wall", "--json", json.dumps(payload))
            assert code == 0
            rec = json.loads(out[-1])
            rec.pop("wall_ms")
            rec["input"].pop("variant", None)  # the echoed payload names it
            records.append(dumps_record(rec))
        assert records[0] == records[1] == records[2]

    @pytest.mark.parametrize("command, field", [
        ("green", "kind"), ("crossing", "kind"), ("wall", "form"),
    ])
    def test_unknown_kind_or_form_is_validation_error(self, capsys, command, field):
        code, _ = run_cli(capsys, command, "--json", json.dumps({field: "bogus", "t": 1.0}))
        assert code == 2

    def test_green_record_matches_python_result(self, capsys):
        from asepcross.core import ParticleConfig
        from asepcross.formulas import GreenQuery, two_tasep_green

        code, out = run_cli(capsys, "green", "--json", TABLE_PAYLOADS[0][1])
        rec = json.loads(out[-1])
        val = two_tasep_green(GreenQuery(
            ParticleConfig.from_two_species((0, 1), (2,)),
            ParticleConfig.from_two_species((1, 3), (2,)), 1.0,
        ))
        assert (rec["value"], rec["est_error"], rec["method"]) == (
            float(val), val.est_err, val.method
        )


def readme_payloads():
    """(command, payload) for each inline JSON object of the `green`,
    `crossing` and `wall` items of the README CLI section."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    found = []
    for item in re.split(r"\n\* ", section)[1:]:
        command = re.match(r"`(\w+)`", item).group(1)
        if command not in SELECTORS:
            continue
        for code in re.findall(r"`(\{[^`]*\})`", item):
            try:
                json.loads(code)
            except ValueError:
                continue
            found.append((command, code))
    return found


README_PAYLOADS = readme_payloads()


class TestReadmePayloads:
    def test_payloads_cover_every_entry(self):
        covered = {(command, json.loads(payload).get(*SELECTORS[command]))
                   for command, payload in README_PAYLOADS}
        assert covered == set(EVALUATORS)

    @pytest.mark.parametrize("command, payload", README_PAYLOADS)
    def test_payload_runs(self, capsys, command, payload):
        assert main([command, "--json", payload]) == 0


class TestExitCodes:
    def test_usage_error_without_payload(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["green"])
        assert exc.value.code == 2

    def test_unknown_verify_suite_is_usage_error(self, capsys):
        code, _ = run_cli(capsys, "verify", "--json", '{"suite":"bogus"}')
        assert code == 2

    def test_validation_error(self, capsys):
        code, _ = run_cli(
            capsys, "green", "--json",
            '{"kind":"two_species","mu":[1,0],"p0":[],"nu":[0,1],"p":[],"t":1.0}',
        )
        assert code == 2

    def test_tasep_blocks_kind_is_validation_error(self, capsys):
        # "blocks" takes the same q = 0 payloads through block_crossing
        code = main(["crossing", "--json", '{"kind":"tasep_blocks","mu_blocks":[[1],[0]],'
                     '"lambda_blocks":[[2],[3]],"q":0.0,"t":1.0}'])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("validation error: ") and "tasep_blocks" in err

    def test_one_wall_with_n_equal_m_is_validation_error(self, capsys):
        code, _ = run_cli(
            capsys, "wall", "--json",
            '{"form":"one_wall","s1":-2,"s2":2,"rho":0.5,"n":1,"m":1,"t":2.0}',
        )
        assert code == 2

    @pytest.mark.parametrize("command, argv", [
        ("green", ["--json", '{"mu":[0],"nu":[2],"t":"abc"}']),
        ("green", ["--json", '{"mu":[0],"nu":[2']),
        ("green", ["--json", '{"mu":5,"nu":[2],"t":1.0}']),
        ("green", ["--json", '[{"mu":[0],"nu":[2],"t":1.0}]']),
        ("simulate", ["--json", '{"task":"run","positions":[0],"species":[1],"t":"x"}']),
        ("verify", ["--json", '{"suite":"vertex","samples":"x"}']),
        ("green", ["--config", "missing.json"]),
    ], ids=["bad_float", "truncated_json", "bad_type", "array_payload", "simulate_bad_t",
            "verify_bad_samples", "missing_config"])
    def test_malformed_payload_is_validation_error(self, capsys, tmp_path, command, argv):
        argv = [str(tmp_path / a) if a == "missing.json" else a for a in argv]
        code = main([command, *argv])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("validation error: ") and "Traceback" not in err

    @pytest.mark.parametrize("command, payload", [
        ("wall", '{"form":"one_wall","s1":-3.7,"s2":2,"rho":0.5,"n":2,"m":1,"t":2.0}'),
        ("simulate", '{"task":"estimate_wall","rho":0.5,"n":2,"m":1,"s1":-3,"s2":2,'
                     '"t":2.0,"samples":2000.5}'),
        ("simulate", '{"task":"estimate_wall","rho":0.5,"n":2,"m":1,"s1":-3,"s2":2,'
                     '"t":2.0,"samples":true}'),
        ("green", '{"kind":"two_species","mu":[0,1.5],"nu":[1,3],"t":1.0}'),
        ("wall", '{"form":"gamma","n":2.0,"s":3.5,"t":1.0}'),
    ], ids=["wall_s1", "simulate_samples", "simulate_samples_bool", "green_mu", "gamma_s"])
    def test_non_integral_field_is_validation_error(self, capsys, command, payload):
        # int() would floor -3.7 to -3 and 2000.5 to 2000, and read true as 1
        code = main([command, "--json", payload])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("validation error: ") and "must be integral" in err

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_simulate_without_a_worker_is_validation_error(self, capsys, threads):
        code = main(["simulate", "--threads", threads, "--json",
                     '{"task":"estimate_wall","rho":0.5,"n":2,"m":1,"s1":-3,"s2":2,'
                     '"t":2.0,"samples":100}'])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("validation error: ") and "threads must be >= 1" in err

    @pytest.mark.parametrize("command, payload", [
        ("simulate", '{"task":"estimate_wall","rho":0.5,"n":2,"m":1,"s1":-3,"s2":2,'
                     '"t":2.0,"samples":100}'),
        ("verify", '{"suite":"identities","samples":1}'),
    ])
    def test_negative_seed_is_validation_error(self, capsys, command, payload):
        code = main([command, "--seed", "-1", "--json", payload])
        err = capsys.readouterr().err
        assert code == 2
        assert err.strip() == "validation error: seed must lie in [0, 2**64), got -1"

    @pytest.mark.parametrize("form", ["bernoulli", "one_wall"])
    def test_long_wall_overflow_is_accuracy_error(self, capsys, form):
        code, _ = run_cli(
            capsys, "wall", "--json",
            f'{{"form":"{form}","s1":-3,"s2":1100,"rho":0.5,"n":2,"m":1,"t":2.0}}',
        )
        assert code == 3

    @pytest.mark.parametrize("task", ["estimate_wall", "bernoulli_sample"])
    @pytest.mark.parametrize("rho, m, n", [(0.0, 1, 2), (1.5, 1, 2), (0.5, 3, 2)])
    def test_bernoulli_data_is_validation_error(self, capsys, task, rho, m, n):
        payload = json.dumps({"task": task, "rho": rho, "m": m, "n": n, "s1": -3,
                              "s2": 2, "t": 2.0, "samples": 100})
        code, _ = run_cli(capsys, "simulate", "--json", payload)
        assert code == 2

    def test_resource_cap(self, capsys):
        # 2^8 determinants of 9! Leibniz terms each, refused before the first
        code, _ = run_cli(
            capsys, "green", "--json",
            '{"kind":"two_species","mu":[0,1,2,3,4,5,6,7,8],"p0":[2],'
            '"nu":[1,2,3,4,5,6,7,8,9],"p":[9],"t":1.0}',
        )
        assert code == 4

    def test_five_variable_green_is_evaluated(self, capsys):
        # the full path in 5 variables, refused by the quadrature route (exit 4)
        code, out = run_cli(
            capsys, "green", "--json",
            '{"kind":"two_species","mu":[0,1,2],"p0":[1,3],"nu":[1,3,4],"p":[2,3],"t":1.0}',
        )
        assert code == 0
        rec = json.loads(out[-1])
        assert rec["method"] == "laurent"
        assert abs(rec["value"] - 0.002597375981989935) <= rec["est_error"] + 1e-16

    def test_andreief_work_cap(self, capsys):
        # 2^36 row-subset choices, refused before the first
        code, _ = run_cli(
            capsys, "wall", "--json",
            '{"form":"bernoulli","s1":-12,"s2":2,"rho":0.5,"n":12,"m":6,"t":1.0}',
        )
        assert code == 4

    @pytest.mark.parametrize("command, payload", [
        ("crossing", '{"kind":"two_species","mu":[0,1],"nu":[1,2,3],"m":1,"t":1.0}'),
        ("crossing", '{"kind":"two_species","mu":[0,1],"nu":[1,2],"m":3,"t":1.0}'),
        ("wall", '{"form":"step","mu":[-1,0],"m":3,"s1":-3,"s2":2,"t":2.0}'),
        ("crossing", '{"kind":"rainbow","mu":[3,1],"nu":[7],"q":0.0,"t":1.0}'),
        ("crossing", '{"kind":"rainbow","mu":[],"nu":[],"q":0.0,"t":1.0}'),
    ], ids=["crossing_nu_longer", "crossing_m_above_n", "step_m_above_n", "rainbow_nu_shorter",
            "rainbow_empty"])
    def test_malformed_particle_counts_are_validation_errors(self, capsys, command, payload):
        code = main([command, "--json", payload])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("validation error: ") and "Traceback" not in err

    @pytest.mark.parametrize("command, payload", [
        ("green", '{"kind":"two_species","mu":[0,1],"p0":[1],"nu":[1,2],"p":[2],"t":"nan"}'),
        ("green", '{"kind":"rainbow_asep","mu":[1,0],"nu":[0,1],"q":"nan","t":1.0}'),
        ("crossing", '{"kind":"two_species","mu":[0,1],"nu":[1,3],"m":1,"t":"inf"}'),
        ("crossing", '{"kind":"rainbow","mu":[1,0],"nu":[1,2],"q":"nan","t":1.0}'),
        ("crossing", '{"kind":"blocks","mu_blocks":[[1],[0]],"lambda_blocks":[[2],[3]],'
                     '"q":"inf","t":1.0}'),
        ("wall", '{"form":"bernoulli","s1":-3,"s2":2,"rho":0.5,"n":2,"m":1,"t":"nan"}'),
        ("wall", '{"form":"bernoulli","s1":-3,"s2":2,"rho":0.5,"n":2,"m":1,"t":"inf"}'),
        ("wall", '{"form":"step","mu":[-1,0],"m":1,"s1":-3,"s2":2,"t":"nan"}'),
        ("wall", '{"form":"gamma","n":1,"s":2,"t":"inf"}'),
    ], ids=["green_t_nan", "rainbow_asep_q_nan", "crossing_t_inf", "rainbow_q_nan",
            "blocks_q_inf", "bernoulli_t_nan", "bernoulli_t_inf", "step_t_nan", "gamma_t_inf"])
    def test_non_finite_rate_is_validation_error(self, capsys, command, payload):
        code = main([command, "--json", payload])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("validation error: ") and "must be >= 0 and finite" in err

    def test_accuracy_failure(self, capsys):
        # contour radius |q - 1| / 3 = 3.3e-14 about 1, below RADIUS_FLOOR
        payload = '{"kind":"rainbow_asep","mu":[1,0],"nu":[0,1],"q":0.9999999999999,"t":1.0}'
        code = main(["green", "--json", payload])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("accuracy failure: ") and "too close to 1" in err

    @pytest.mark.parametrize("flag, value", [("--tol", "1e-8"), ("--budget", "64")])
    def test_removed_quadrature_flags_are_usage_errors(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["crossing", flag, value, "--json",
                  '{"kind":"rainbow","mu":[1,0],"nu":[1,2],"q":0.5,"t":1.0}'])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


class TestOutputs:
    def test_out_file_appends(self, capsys, tmp_path):
        out_path = tmp_path / "records.jsonl"
        argv = (
            "green", "--json",
            '{"kind":"two_species","mu":[0],"p0":[],"nu":[1],"p":[],"t":1.0}',
            "--out", str(out_path),
        )
        run_cli(capsys, *argv)
        run_cli(capsys, *argv)
        lines = out_path.read_text().strip().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["command"] == "green"

    def test_csv_export(self, capsys, tmp_path):
        csv_path = tmp_path / "table.csv"
        run_cli(
            capsys, "green", "--json",
            '{"kind":"two_species","mu":[0],"p0":[],"nu":[1],"p":[],"t":1.0}',
            "--csv", str(csv_path),
        )
        content = csv_path.read_text().splitlines()
        assert content[0].startswith("command,")
        assert content[1].startswith("green,")


# Run in a fresh interpreter: the rest of the suite loads scipy.
COLD_START = textwrap.dedent("""
    import contextlib, io, sys
    from asepcross import cli
    from asepcross.core import ModelParams, ParticleConfig
    from asepcross.oracle import MonteCarloJob, build_window_generator, run_monte_carlo, simulate_sample

    heavy = ("scipy", "concurrent.futures.process")
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [
            cli.main(["crossing", "--json",
                      '{"kind":"two_species","mu":[0,1],"nu":[1,3],"m":1,"t":1.0}']),
            cli.main(["crossing", "--json",
                      '{"kind":"rainbow","mu":[1,0],"nu":[1,2],"q":0.5,"t":1.0}']),
            cli.main(["verify", "--json", '{"suite":"all"}']),
        ]
    assert codes == [0, 0, 0], codes
    job = MonteCarloJob(q=0.5, horizon=1.0, samples=2000, seed=3,
                        initial=ParticleConfig((0, 1), (1, 2)),
                        event=("target", (1, 2), (1, 2)))
    run_monte_carlo(job, threads=1)
    simulate_sample(job, 7)
    print(sorted(m for m in heavy if m in sys.modules))
    build_window_generator(ParticleConfig((0,), (1,)), (0, 2), ModelParams(q=0.0))
    print("scipy.sparse" in sys.modules)
""")


class TestColdStart:
    def test_no_command_loads_scipy_or_the_process_pool(self):
        # scipy.sparse serves only the window oracle and the process pool
        # only a run with more than one worker; a CLI call pays for neither
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        run = subprocess.run([sys.executable, "-c", COLD_START], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines() == ["[]", "True"]
