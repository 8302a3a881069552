"""Per-layer tracing by wrapping the public names each layer is reached through.

``Tracer.install`` replaces module attributes of ``asepcross`` with wrappers
that record a span (name, start, end, parent) and the layer's work counts;
the untraced run never calls it.  A span's self time is its duration minus
the durations of its child spans.  Spans of the first round are kept in
memory for the trace file; every span also feeds running totals, which the
harness takes once per round and scales by the round's calibration factor.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

# per-layer metric -> (unit, better); see README for the end-to-end metric
# each one should move
METRICS = {
    "quadrature.integrals": ("count", "lower"),
    "quadrature.evals": ("count", "lower"),
    "quadrature.levels": ("count", "lower"),
    "quadrature.driver_ms": ("ms", "lower"),
    "quadrature.residues": ("count", "lower"),
    "quadrature.residue_ms": ("ms", "lower"),
    "quadrature.poly_ms": ("ms", "lower"),
    "formulas.integrand_ms": ("ms", "lower"),
    "formulas.eigenfunction_P_ms": ("ms", "lower"),
    "vertex.f_mu_ms": ("ms", "lower"),
    "vertex.f_mu_points": ("count", "lower"),
    "vertex.sfF_lambda_ms": ("ms", "lower"),
    "vertex.xi_mu_ms": ("ms", "lower"),
    "vertex.G_mu_nu_ms": ("ms", "lower"),
    "core.perm_terms": ("count", "lower"),
    "identities.check_ms": ("ms", "lower"),
    "oracle.mc_ms": ("ms", "lower"),
    "oracle.mc_samples": ("count", "higher"),
    "oracle.samples_per_s": ("1/s", "higher"),
    "oracle.window_build_ms": ("ms", "lower"),
    "oracle.window_states": ("count", "lower"),
    "oracle.uniformization_ms": ("ms", "lower"),
}

# span name -> metric fed by its self time (True) or its whole duration
TIMED = {
    "quadrature.driver": ("quadrature.driver_ms", True),
    "quadrature.residue": ("quadrature.residue_ms", False),
    "quadrature.poly": ("quadrature.poly_ms", False),
    "formulas.integrand": ("formulas.integrand_ms", True),
    "formulas.eigenfunction_P": ("formulas.eigenfunction_P_ms", False),
    "vertex.f_mu": ("vertex.f_mu_ms", False),
    "vertex.sfF_lambda": ("vertex.sfF_lambda_ms", False),
    "vertex.xi_mu": ("vertex.xi_mu_ms", False),
    "vertex.G_mu_nu": ("vertex.G_mu_nu_ms", False),
    "identities.check": ("identities.check_ms", False),
    "oracle.mc": ("oracle.mc_ms", False),
    "oracle.window_build": ("oracle.window_build_ms", False),
    "oracle.uniformization": ("oracle.uniformization_ms", False),
}

KEEP_SPANS = 50_000


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.keep = True
        self._stack: list[list] = []  # [name, start, child_time, span index]
        self.round_ms: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)

    def span(self, name, fn, count=None):
        """Wrap fn in a span; count(args, kwargs, result) feeds counters."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1][3] if self._stack else -1
            index = len(self.spans) if self.keep and len(self.spans) < KEEP_SPANS else -1
            frame = [name, time.perf_counter(), 0.0, index]
            if index >= 0:
                self.spans.append((name, frame[1], 0.0, parent))
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                duration = end - frame[1]
                if self._stack:
                    self._stack[-1][2] += duration
                if index >= 0:
                    self.spans[index] = (name, frame[1], end, parent)
                metric, self_time = TIMED.get(name, (None, False))
                if metric:
                    spent = duration - frame[2] if self_time else duration
                    self.round_ms[metric] += 1e3 * spent
            if count is not None:
                count(args, kwargs, result)
            return result

        return wrapper

    def take_round(self) -> tuple[dict, dict]:
        """Times (raw ms) and counts accumulated since the last call, then reset."""
        out = (dict(self.round_ms), dict(self.counts))
        self.round_ms.clear()
        self.counts.clear()
        return out

    def install(self):
        """Wrap the layer entry points of asepcross in place."""
        from asepcross import core, formulas, identities, oracle, quadrature, vertex

        counts = self.counts

        def patch(module, attr, name, count=None):
            setattr(module, attr, self.span(name, getattr(module, attr), count))

        def integrals(args, kwargs, result):
            counts["quadrature.integrals"] += 1

        def traced_quadrature(fn):
            @functools.wraps(fn)
            def product_integrate(f, cp, *args, **kwargs):
                evals = [0]

                def integrand(points):
                    evals[0] += points.shape[1]
                    return f(points)

                traced = self.span("formulas.integrand", integrand)
                result = fn(traced, cp, *args, **kwargs)
                counts["quadrature.evals"] += evals[0]
                counts["quadrature.levels"] += _levels(
                    evals[0], cp.dim, kwargs.get("start_nodes", 32)
                )
                return result

            return self.span("quadrature.driver", product_integrate, integrals)

        formulas.product_integrate = traced_quadrature(formulas.product_integrate)
        patch(formulas, "eigenfunction_P", "formulas.eigenfunction_P")

        def points(args, kwargs, result):
            counts["vertex.f_mu_points"] += max(1, args[1].size // max(1, len(args[0])))

        for module in (formulas, vertex):
            patch(module, "f_mu", "vertex.f_mu", points)
            patch(module, "sfF_lambda", "vertex.sfF_lambda")
        patch(formulas, "xi_mu", "vertex.xi_mu")
        patch(vertex, "G_mu_nu", "vertex.G_mu_nu")

        def residues(args, kwargs, result):
            counts["quadrature.residues"] += 1

        for module in (quadrature, formulas):
            patch(module, "laurent_residue", "quadrature.residue", residues)
        for method in ("multiply_linear", "multiply_terms"):
            patch(quadrature.MultivariatePolynomial, method, "quadrature.poly")

        def perms(args, kwargs, result):
            counts["core.perm_terms"] += len(result)

        for module in (core, formulas, vertex, identities):
            patch(module, "signed_permutations", "core.signed_permutations", perms)
        for check in ("check_nested_geometric", "check_symmetrization"):
            patch(identities, check, "identities.check")

        def samples(args, kwargs, result):
            counts["oracle.mc_samples"] += args[0].samples

        def states(args, kwargs, result):
            counts["oracle.window_states"] += result.size

        patch(oracle, "run_monte_carlo", "oracle.mc", samples)
        patch(oracle, "build_window_generator", "oracle.window_build", states)
        patch(oracle, "transition_row", "oracle.uniformization")


def _levels(evals: int, dim: int, start: int) -> int:
    """Node-doubling levels that spend ``evals`` evaluations in ``dim`` axes."""
    levels, nodes = 0, start
    while evals > 0:
        evals -= nodes**dim
        nodes *= 2
        levels += 1
    return levels
