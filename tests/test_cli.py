import json
import math

import pytest

from asepcross.cli import EVALUATORS, SELECTORS, dumps_record, loads_record, main
from asepcross.core import ParticleConfig
from asepcross.oracle import MonteCarloJob, run_monte_carlo
from asepcross.quadrature import ContourProduct, ContourSpec, product_integrate


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
        parsed = loads_record(line)
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
        rec = loads_record(out[-1])
        assert rec["value"] == 1.0
        assert rec["method"] == "laurent"

    def test_poisson_query(self, capsys):
        code, out = run_cli(
            capsys, "green", "--json",
            '{"kind":"two_species","mu":[0],"p0":[],"nu":[2],"p":[],"t":1.0}',
        )
        rec = loads_record(out[-1])
        assert abs(rec["value"] - math.exp(-1) / 2) < 1e-12

    def test_long_jump_query(self, capsys):
        # a jump of 200 at t = 1: t^200 / 200! underflows, 200! overflows a float
        code, out = run_cli(
            capsys, "green", "--json",
            '{"kind":"two_species","mu":[0],"p0":[],"nu":[200],"p":[],"t":1.0}',
        )
        assert code == 0
        rec = loads_record(out[-1])
        assert 0.0 <= rec["value"] < 1e-300 and rec["method"] == "laurent"

    def test_rainbow_payload(self, capsys):
        code, out = run_cli(
            capsys, "green", "--json",
            '{"kind":"rainbow_asep","mu":[1,0],"nu":[0,1],"q":0.5,"t":0.0}',
        )
        assert code == 0
        rec = loads_record(out[-1])
        assert abs(rec["value"]) < 1e-10

    def test_golden_instance_from_config_file(self, capsys, tmp_path):
        golden = 0.06766764161830637
        cfg = tmp_path / "query.json"
        cfg.write_text(
            '{"kind":"two_species","mu":[0,1],"p0":[1],"nu":[1,2],"p":[2],"t":1.0}'
        )
        code, out = run_cli(capsys, "green", "--config", str(cfg))
        assert code == 0
        assert abs(loads_record(out[-1])["value"] - golden) < 1e-9


class TestCrossingCommand:
    def test_t0_crossed_target_is_zero(self, capsys):
        code, out = run_cli(
            capsys, "crossing", "--json",
            '{"kind":"tasep_blocks","mu_blocks":[[0],[-1]],'
            '"lambda_blocks":[[2],[3]],"t":0.0}',
        )
        assert code == 0
        assert abs(loads_record(out[-1])["value"]) < 1e-12

    def test_blocks_match_python_api(self, capsys):
        from asepcross.formulas import CrossingQuery, block_crossing
        from conftest import make_blocks

        code, out = run_cli(
            capsys, "crossing", "--json",
            '{"kind":"blocks","mu_blocks":[[1],[0]],'
            '"lambda_blocks":[[2],[3]],"q":0.5,"t":1.0}',
        )
        rec = loads_record(out[-1])
        query = CrossingQuery(
            make_blocks([[1], [0]], "initial"),
            make_blocks([[2], [3]], "final"),
            0.5,
            1.0,
        )
        assert abs(rec["value"] - block_crossing(query)) < 1e-12


class TestWallCommand:
    def test_infeasible_wall_is_zero(self, capsys):
        code, out = run_cli(
            capsys, "wall", "--json",
            '{"form":"step","mu":[-1,0],"m":1,"s1":0,"s2":0,"t":1.0}',
        )
        assert code == 0
        assert loads_record(out[-1])["value"] == 0.0

    def test_rho_one_matches_step(self, capsys):
        _, out1 = run_cli(
            capsys, "wall", "--json",
            '{"form":"bernoulli","s1":-3,"s2":2,"rho":1.0,"n":2,"m":1,"t":2.0}',
        )
        _, out2 = run_cli(
            capsys, "wall", "--json",
            '{"form":"step","mu":[-1,0],"m":1,"s1":-3,"s2":2,"t":2.0}',
        )
        v1 = loads_record(out1[-1])["value"]
        v2 = loads_record(out2[-1])["value"]
        assert abs(v1 - v2) < 1e-9

    def test_gamma_form(self, capsys):
        _, out = run_cli(
            capsys, "wall", "--json", '{"form":"gamma","n":1,"s":2,"t":1.0}'
        )
        assert abs(loads_record(out[-1])["value"] - (1 - math.exp(-1))) < 1e-12


class TestSimulateCommand:
    def test_t0_returns_initial_state(self, capsys):
        code, out = run_cli(
            capsys, "simulate", "--json",
            '{"task":"run","positions":[0,2],"species":[2,1],"t":0.0}',
        )
        rec = loads_record(out[-1])
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
        rec1, rec2 = loads_record(out1[-1]), loads_record(out2[-1])
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
        rec1, rec2 = loads_record(out1[-1]), loads_record(out2[-1])
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
            final = loads_record(out[-1])["result"]
            event = ("target", tuple(final["positions"]), tuple(final["species"]))
            job = MonteCarloJob(samples=1, seed=seed, event=event, **fields)
            assert run_monte_carlo(job)[2] == 1

    def test_budget_caps_samples(self, capsys):
        code, out = run_cli(
            capsys, "simulate", "--json",
            '{"task":"estimate","positions":[0],"species":[1],"t":1.0,'
            '"samples":50000,"target_positions":[1],"target_species":[1]}',
            "--budget", "5000",
        )
        assert loads_record(out[-1])["samples"] == 5000


class TestVerifyCommand:
    def test_vertex_suite_passes(self, capsys):
        code, out = run_cli(
            capsys, "verify", "--json",
            '{"suite":"vertex","negative_control":true}',
        )
        assert code == 0
        rec = loads_record(out[-1])
        assert rec["all_passed"] is True
        names = [c["name"] for c in rec["checks"]]
        assert "perturbation_control_breaks_sums" in names


# The README payloads, one or more per EVALUATORS entry, with the method each
# record must report.
TABLE_PAYLOADS = [
    ("green", '{"kind":"two_species","mu":[0,1],"p0":[1],"nu":[1,2],"p":[2],"t":1.0}',
     "quadrature"),
    ("green", '{"kind":"two_species","mu":[0],"p0":[],"nu":[2],"p":[],"t":1.0}', "laurent"),
    ("green", '{"kind":"rainbow_asep","mu":[1,0],"nu":[0,1],"q":0.5,"t":1.0}', "quadrature"),
    ("crossing", '{"kind":"two_species","mu":[0,1],"nu":[1,3],"m":1,"t":1.0}', "quadrature"),
    ("crossing", '{"kind":"rainbow","mu":[1,0],"nu":[1,2],"q":0.5,"t":1.0}', "quadrature"),
    ("crossing", '{"kind":"blocks","mu_blocks":[[1],[0]],"lambda_blocks":[[2],[3]],'
                 '"q":0.5,"t":1.0}', "quadrature"),
    ("crossing", '{"kind":"tasep_blocks","mu_blocks":[[1],[0]],"lambda_blocks":[[2],[3]],'
                 '"q":0.0,"t":1.0}', "quadrature"),
    ("wall", '{"form":"step","mu":[-1,0],"m":1,"s1":-3,"s2":2,"t":2.0}', "quadrature"),
    ("wall", '{"form":"step","mu":[-1,0],"m":1,"s1":0,"s2":0,"t":1.0}', "exact"),
    ("wall", '{"form":"bernoulli","s1":-3,"s2":2,"rho":0.5,"n":2,"m":1,"t":2.0,'
             '"variant":"inverted"}', "laurent"),
    ("wall", '{"form":"bernoulli","s1":-3,"s2":2,"rho":0.5,"n":2,"m":1,"t":2.0,'
             '"variant":"direct"}', "quadrature"),
    ("wall", '{"form":"one_wall","s1":-3,"s2":2,"rho":0.5,"n":2,"m":1,"t":2.0,'
             '"variant":"collapsed"}', "laurent"),
    ("wall", '{"form":"one_wall","s1":-3,"s2":2,"rho":0.5,"n":2,"m":1,"t":2.0,'
             '"variant":"cauchy_binet"}', "laurent"),
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
        tol = 1e-10
        code, out = run_cli(capsys, command, "--json", payload, "--tol", str(tol))
        assert code == 0
        rec = loads_record(out[-1])
        assert rec["method"] == method
        if method == "quadrature":
            assert 0.0 <= rec["est_error"] < tol
            assert rec["est_error"] != tol
        elif (command, method) == ("wall", "laurent"):
            # wall residue sums report the rounding of their terms
            assert 0.0 < rec["est_error"] < 1e-12
        else:
            assert rec["est_error"] == 0.0

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
        rec = loads_record(out[-1])
        val = two_tasep_green(GreenQuery(
            ParticleConfig.from_two_species((0, 1), (1,)),
            ParticleConfig.from_two_species((1, 2), (2,)), 1.0,
        ))
        assert (rec["value"], rec["est_error"], rec["method"]) == (
            float(val), val.est_err, val.method
        )


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

    def test_one_wall_with_n_equal_m_is_validation_error(self, capsys):
        code, _ = run_cli(
            capsys, "wall", "--json",
            '{"form":"one_wall","s1":-2,"s2":2,"rho":0.5,"n":1,"m":1,"t":2.0}',
        )
        assert code == 2

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
        code, _ = run_cli(
            capsys, "green", "--json",
            '{"kind":"two_species","mu":[0,1,2,3,4,5],"p0":[],'
            '"nu":[1,2,3,4,5,6],"p":[],"t":1.0,"method":"quadrature"}',
        )
        assert code == 4

    def test_accuracy_failure_under_tiny_budget(self, capsys):
        code, _ = run_cli(
            capsys, "green", "--json",
            '{"kind":"two_species","mu":[0,1],"p0":[1],"nu":[1,2],"p":[2],"t":1.0}',
            "--budget", "64",
        )
        assert code == 3

    def test_budget_applies_to_one_invocation_only(self, capsys):
        payload = (
            '{"kind":"two_species","mu":[0,1],"p0":[1],"nu":[1,2],"p":[2],"t":1.0}'
        )
        code, _ = run_cli(capsys, "green", "--json", payload, "--budget", "64")
        assert code == 3
        # 32^2 + 64^2 nodes: converges only if the 64-node cap did not persist
        cp = ContourProduct((ContourSpec(0.0, 0.5), ContourSpec(0.0, 0.5)))
        value, _ = product_integrate(lambda Z: 1.0 / (Z[0] * Z[1]), cp)
        assert abs(value - 1.0) < 1e-12
        code, out = run_cli(capsys, "green", "--json", payload)
        assert code == 0
        assert abs(loads_record(out[-1])["value"] - 0.06766764161830637) < 1e-9


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
        assert loads_record(lines[0])["command"] == "green"

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
