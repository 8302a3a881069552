"""Command-line interface: evaluate formulas, run oracles, verify identities.

Commands read their query payload from a JSON file (--config) or an inline
JSON string (--json) and append one result record per run to --out (and to
stdout).  Records are serialized with sorted keys and 17-significant-digit
decimal floats so reruns are byte-for-byte comparable; the wall_ms field is
the only volatile entry.

Exit codes: 0 success, 1 verification failure, 2 validation error,
3 accuracy failure, 4 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time

from . import __version__
from .core import (
    AccuracyError,
    BlockSignatureVector,
    ConfigurationError,
    ParticleConfig,
    ResourceLimitError,
    StrictSignature,
    ValidationError,
)
from .formulas import (
    CrossingQuery,
    GreenQuery,
    WallQuery,
    block_crossing,
    cumulative_crossing_bernoulli,
    cumulative_crossing_one_wall,
    cumulative_crossing_step,
    gamma_wall,
    r_asep_transition,
    rainbow_total_crossing,
    tasep_block_crossing,
    two_tasep_crossing,
    two_tasep_green,
)
from .identities import run_identity_suite
from .oracle import MonteCarloJob, run_monte_carlo, simulate_sample
from .quadrature import DEFAULT_NODE_BUDGET, MIN_NODE_BUDGET
from .vertex import stochastic_weights_check


def _format_value(v) -> str:
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return format(v, ".17g")
    if isinstance(v, str):
        return json.dumps(v)
    if isinstance(v, (list, tuple)):
        return "[" + ",".join(_format_value(x) for x in v) + "]"
    if isinstance(v, dict):
        items = sorted(v.items(), key=lambda kv: kv[0])
        return "{" + ",".join(f"{json.dumps(k)}:{_format_value(x)}" for k, x in items) + "}"
    raise ValidationError(f"cannot serialize value of type {type(v).__name__}")


def dumps_record(record: dict) -> str:
    """One record per line, stable key order, 17-significant-digit floats."""
    return _format_value(record)


def loads_record(line: str) -> dict:
    return json.loads(line)


def _emit(record: dict, out_path: str | None, csv_path: str | None) -> None:
    line = dumps_record(record)
    print(line)
    if out_path:
        with open(out_path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
    if csv_path:
        import os

        write_header = not os.path.exists(csv_path) or os.path.getsize(csv_path) == 0
        with open(csv_path, "a", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            if write_header:
                writer.writerow(["command", "input", "value", "est_error", "method"])
            writer.writerow(
                [
                    record.get("command"),
                    _format_value(record.get("input")),
                    _format_value(record.get("value")),
                    _format_value(record.get("est_error")),
                    record.get("method"),
                ]
            )


def _record(command, payload, value, est_error, method, started, extra=None):
    rec = {
        "command": command,
        "input": payload,
        "value": value,
        "est_error": est_error,
        "method": method,
        "wall_ms": (time.perf_counter() - started) * 1000.0,
        "version": __version__,
    }
    if extra:
        rec.update(extra)
    return rec


def _blocks(payload, key, orientation):
    return BlockSignatureVector(
        tuple(StrictSignature(tuple(b)) for b in payload[key]), orientation
    )


def _quadrature_budget(args) -> int:
    """Per-integral quadrature node cap for this invocation (--budget)."""
    if args.budget is None:
        return DEFAULT_NODE_BUDGET
    return max(MIN_NODE_BUDGET, args.budget)


def _crossing_query(p) -> CrossingQuery:
    return CrossingQuery(_blocks(p, "mu_blocks", "initial"), _blocks(p, "lambda_blocks", "final"),
                         float(p.get("q", 0.0)), float(p["t"]))


def _wall_query(p) -> WallQuery:
    return WallQuery(s1=int(p["s1"]), s2=int(p["s2"]), rho=float(p["rho"]),
                     n=int(p["n"]), m=int(p["m"]), t=float(p["t"]))


# The payload field that picks the formula, and its default, per command.
SELECTORS = {"green": ("kind", "two_species"), "crossing": ("kind", "blocks"),
             "wall": ("form", "bernoulli")}

# (command, kind or form) -> evaluator of (payload, tol, node budget); each
# returns a formulas.Result, which carries its own est_err and method.
EVALUATORS = {
    ("green", "two_species"): lambda p, tol, budget: two_tasep_green(GreenQuery(
        ParticleConfig.from_two_species(p["mu"], p.get("p0", ())),
        ParticleConfig.from_two_species(p["nu"], p.get("p", ())), float(p["t"]),
        method=p.get("method", "auto"), tol=tol, node_budget=budget)),
    ("green", "rainbow_asep"): lambda p, tol, budget: r_asep_transition(
        p["mu"], p["nu"], float(p["q"]), float(p["t"]), tol=tol, node_budget=budget),
    ("crossing", "two_species"): lambda p, tol, budget: two_tasep_crossing(
        p["mu"], p["nu"], int(p["m"]), float(p["t"]), tol=tol, node_budget=budget),
    ("crossing", "rainbow"): lambda p, tol, budget: rainbow_total_crossing(
        p["mu"], p["nu"], float(p["q"]), float(p["t"]), tol=tol, node_budget=budget),
    ("crossing", "blocks"): lambda p, tol, budget: block_crossing(
        _crossing_query(p), tol=tol, node_budget=budget),
    ("crossing", "tasep_blocks"): lambda p, tol, budget: tasep_block_crossing(
        _crossing_query(p), tol=tol, node_budget=budget),
    ("wall", "step"): lambda p, tol, budget: cumulative_crossing_step(
        p["mu"], int(p["m"]), int(p["s1"]), int(p["s2"]), float(p["t"]),
        tol=tol, node_budget=budget),
    ("wall", "gamma"): lambda p, tol, budget: gamma_wall(
        int(p["n"]), int(p["s"]), float(p["t"])),
    ("wall", "bernoulli"): lambda p, tol, budget: cumulative_crossing_bernoulli(
        _wall_query(p), form=p.get("variant", "inverted"), tol=tol, node_budget=budget),
    ("wall", "one_wall"): lambda p, tol, budget: cumulative_crossing_one_wall(
        _wall_query(p), form=p.get("variant", "collapsed")),
}


def cmd_evaluate(command, payload, args, started):
    """Evaluate a green, crossing or wall payload through EVALUATORS."""
    field, default = SELECTORS[command]
    kind = payload.get(field, default)
    evaluate = EVALUATORS.get((command, kind))
    if evaluate is None:
        raise ValidationError(f"unknown {command} payload {field} {kind!r}")
    value = evaluate(payload, args.tol, _quadrature_budget(args))
    return _record(command, payload, value, value.est_err, value.method, started)


# simulate task -> (initial-state source, event kind); "run" and
# "bernoulli_sample" print sample 0 of the stream the estimates count
SIMULATE_TASKS = {"run": ("initial", None), "bernoulli_sample": ("bernoulli", None),
                  "estimate": ("initial", "target"), "estimate_wall": ("bernoulli", "wall")}


def cmd_simulate(payload, args, started):
    """Build one MonteCarloJob from the payload; print its sample 0 or
    estimate the probability of its event."""
    task = payload.get("task", "run")
    if task not in SIMULATE_TASKS:
        raise ValidationError(f"unknown simulate task {task!r}")
    source, event = SIMULATE_TASKS[task]
    samples = 1
    if event is not None:
        samples = int(payload.get("samples", 100000))
        if args.budget is not None:
            samples = min(samples, args.budget)
    fields = {"q": float(payload.get("q", 0.0)), "samples": samples, "seed": args.seed,
              "horizon": 0.0 if task == "bernoulli_sample" else float(payload["t"])}
    if source == "initial":
        fields["initial"] = ParticleConfig(tuple(payload["positions"]),
                                           tuple(payload["species"]))
    else:
        fields["bernoulli"] = (float(payload["rho"]), int(payload["m"]), int(payload["n"]))
    if event == "target":
        fields["event"] = ("target", tuple(payload["target_positions"]),
                           tuple(payload["target_species"]))
    elif event == "wall":
        fields["event"] = ("wall", int(payload["s1"]), int(payload["s2"]))
    job = MonteCarloJob(**fields)
    if event is None:
        final = simulate_sample(job)
        return _record(
            "simulate", payload, None, 0.0, "gillespie" if task == "run" else "bernoulli",
            started, extra={"result": {"positions": list(final.positions),
                                       "species": list(final.species)}},
        )
    phat, stderr, successes = run_monte_carlo(job, threads=args.threads)
    return _record(
        "simulate", payload, phat, stderr, "monte_carlo", started,
        extra={"successes": successes, "samples": samples},
    )


def cmd_verify(payload, args, started):
    samples = int(payload.get("samples", 100))
    suite = payload.get("suite", "all")
    if suite not in ("all", "identities", "vertex"):
        raise ValidationError(
            f"unknown suite {suite!r}: choose all, identities or vertex"
        )
    checks = []
    ok = True
    if suite in ("all", "identities"):
        for rep in run_identity_suite(seed=args.seed, samples=samples,
                                      node_budget=_quadrature_budget(args)):
            checks.append(
                {"name": rep.name, "max_rel_err": rep.max_rel_err,
                 "threshold": rep.threshold, "passed": rep.passed}
            )
            ok = ok and rep.passed
    if suite in ("all", "vertex"):
        for (n, z, q, s) in ((1, 0.35, 2.2, 0.4), (2, 0.25, 1.8, 0.45)):
            rep_l, rep_m = stochastic_weights_check(n, z, q, s)
            for rep in (rep_l, rep_m):
                checks.append(
                    {"name": f"sum_to_unity_{rep.family}_n{n}",
                     "max_rel_err": rep.max_deviation,
                     "threshold": rep.tol, "passed": rep.sums_ok}
                )
                ok = ok and rep.sums_ok
        rep_l, rep_m = stochastic_weights_check(2, 0.1, 2.0, 0.3)
        pos_ok = rep_l.positive and rep_m.positive
        checks.append(
            {"name": "weight_positivity", "max_rel_err": 0.0 if pos_ok else 1.0,
             "threshold": 0.5, "passed": pos_ok}
        )
        ok = ok and pos_ok
    if payload.get("negative_control"):
        rep_l, _ = stochastic_weights_check(2, 0.35, 2.2, 0.4, perturb=1.01)
        control_failed = not rep_l.sums_ok
        checks.append(
            {"name": "perturbation_control_breaks_sums",
             "max_rel_err": rep_l.max_deviation, "threshold": 1e-12,
             "passed": control_failed}
        )
        ok = ok and control_failed
    for chk in checks:
        status = "pass" if chk["passed"] else "FAIL"
        print(f"[{status}] {chk['name']}: max_rel_err={chk['max_rel_err']:.3e}")
    record = _record(
        "verify", payload, 1.0 if ok else 0.0, 0.0, "suite", started,
        extra={"checks": checks, "all_passed": ok},
    )
    return record, ok


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="asepcross",
        description="Transition and total-crossing probabilities for "
                    "multi-species exclusion processes",
    )
    parser.add_argument("command",
                        choices=["green", "crossing", "wall", "simulate", "verify"])
    parser.add_argument("--config", help="path to a JSON payload file")
    parser.add_argument("--json", help="inline JSON payload")
    parser.add_argument("--seed", type=int, default=0, help="master RNG seed")
    parser.add_argument("--threads", type=int, default=1,
                        help="worker processes for Monte Carlo sampling")
    parser.add_argument("--budget", type=int, default=None,
                        help="cap on quadrature nodes per integral and on Monte "
                             "Carlo samples, for this invocation only")
    parser.add_argument("--tol", type=float, default=1e-10,
                        help="quadrature convergence tolerance")
    parser.add_argument("--out", help="append the result record to this file")
    parser.add_argument("--csv", help="append a CSV row to this file")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config and args.json:
        parser.error("supply --config or --json, not both")
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    elif args.json:
        payload = json.loads(args.json)
    elif args.command == "verify":
        payload = {}
    else:
        parser.error("a payload is required: pass --config FILE or --json STRING")
    started = time.perf_counter()
    try:
        if args.command == "verify":
            record, ok = cmd_verify(payload, args, started)
            _emit(record, args.out, args.csv)
            return 0 if ok else 1
        if args.command == "simulate":
            record = cmd_simulate(payload, args, started)
        else:
            record = cmd_evaluate(args.command, payload, args, started)
        _emit(record, args.out, args.csv)
        return 0
    except (ValidationError, ConfigurationError, KeyError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except AccuracyError as exc:
        print(f"accuracy failure: {exc}", file=sys.stderr)
        return 3
    except ResourceLimitError as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
