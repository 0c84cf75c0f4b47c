"""Span tracing of magneflow, installed from outside the program.

`Tracer.install` replaces each traced name in the module that looks it
up (for example `magneflow.verify.poisson_bracket`, the name
`check_commutation` calls) with a wrapper that records one span per call:
name, start, end and the index of the enclosing span.  `restore` puts the
originals back, so the program's source is never edited and an untraced
pass runs the unwrapped code.  Counters are taken at the same boundaries
from each call's arguments and result.

A span is named `<layer>.<function>`, where the layer is the module that
defines the function.  A span's self time is its duration minus the part
of it that its child spans cover; in this single-threaded program every
span lies on the blocking path, so the self times of all spans add up to
the time spent inside `cli.main`.
"""

from __future__ import annotations

import os
import time
from collections import Counter
from dataclasses import dataclass

LAYERS = ("cli", "exactpoly", "magnetic_model", "integral_family", "verify", "flow", "sampling")

# Traced names, grouped by the module whose namespace the caller looks them up in.
TARGETS = {
    "magneflow.cli": (
        "main",
        "cmd_normal_form",
        "cmd_build",
        "cmd_verify",
        "cmd_simulate",
        "skew_normal_form",
        "commuting_basis",
        "IntegralFamily.from_dict",
        "run_verification",
        "integrate",
        "picture_map",
        "drift_report",
        "write_csv",
    ),
    "magneflow.verify": (
        "poisson_bracket",
        "compiled_evaluator",
        "hamiltonian_pert",
        "check_commutation",
        "functional_independence",
        "hamiltonian_membership",
        "superintegrability_probe",
    ),
    "magneflow.flow": (
        "step",
        "compiled_evaluator",
        "gauge_shift",
        "hamiltonian_pert",
        "kinetic_energy",
    ),
    "magneflow.sampling": ("constrained_point", "constrained_points"),
}

EVALUATE = "exactpoly.evaluate"

# Per-layer metrics in report order, with their units.  Byte counts are
# computed from array shapes and file sizes, not measured traffic.
PER_LAYER = (
    ("cli.build_s", "s"),
    ("cli.verify_s", "s"),
    ("cli.simulate_s", "s"),
    ("cli.normal_form_s", "s"),
    ("cli.io_self_s", "s"),
    ("exactpoly.bracket_calls", "count"),
    ("exactpoly.bracket_s", "s"),
    ("exactpoly.bracket_in_terms", "count"),
    ("exactpoly.bracket_nonzero", "count"),
    ("exactpoly.eval_compile_calls", "count"),
    ("exactpoly.eval_compile_s", "s"),
    ("exactpoly.eval_calls", "count"),
    ("exactpoly.eval_s", "s"),
    ("exactpoly.eval_rows", "count"),
    ("exactpoly.eval_row_terms", "count"),
    ("exactpoly.eval_tensor_bytes", "bytes"),
    ("magnetic_model.gauge_shift_calls", "count"),
    ("magnetic_model.gauge_shift_s", "s"),
    ("magnetic_model.hamiltonian_calls", "count"),
    ("magnetic_model.hamiltonian_s", "s"),
    ("magnetic_model.normal_form_s", "s"),
    ("integral_family.basis_s", "s"),
    ("integral_family.from_dict_s", "s"),
    ("integral_family.member_terms", "count"),
    ("verify.commutation_s", "s"),
    ("verify.pairs", "count"),
    ("verify.membership_s", "s"),
    ("verify.independence_s", "s"),
    ("verify.rank_tests", "count"),
    ("verify.probe_s", "s"),
    ("verify.probe_self_s", "s"),
    ("verify.probe_candidates", "count"),
    ("verify.additional_integrals", "count"),
    ("flow.steps", "count"),
    ("flow.step_s", "s"),
    ("flow.step_us", "us"),
    ("flow.integrate_self_s", "s"),
    ("flow.record_bytes", "bytes"),
    ("flow.picture_map_s", "s"),
    ("flow.drift_report_s", "s"),
    ("flow.write_csv_s", "s"),
    ("flow.csv_bytes", "bytes"),
    ("sampling.points", "count"),
    ("sampling.points_s", "s"),
) + tuple((f"{layer}.self_s", "s") for layer in LAYERS) + (
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.unattributed_s", "s"),
)

# Counts that must repeat exactly between traced passes of one seed.
DETERMINISTIC = (
    "exactpoly.bracket_in_terms",
    "exactpoly.eval_row_terms",
    "exactpoly.eval_tensor_bytes",
    "flow.steps",
    "flow.csv_bytes",
    "verify.additional_integrals",
)


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []  # [name, start, end, parent index or None]
        self.counters: Counter = Counter()
        self._stack: list = []
        self._patches: list = []

    def wrap(self, name: str, fn, after=None):
        """Return fn wrapped in a span; `after(tracer, args, kwargs, result)`
        runs once the span has closed and returns the result to hand back."""
        spans, stack, clock = self.spans, self._stack, self.clock

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else None]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                result = after(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, modules):
        """Wrap every name in TARGETS; `modules` maps a module name to the
        imported module."""
        for module_name, names in TARGETS.items():
            for dotted in names:
                owner = modules[module_name]
                *path, attr = dotted.split(".")
                for part in path:
                    owner = getattr(owner, part)
                raw = vars(owner)[attr]
                fn = getattr(owner, attr)
                name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__.rsplit('.', 1)[-1]}"
                wrapped = self.wrap(name, fn, _AFTER.get(name))
                if isinstance(owner, type):
                    wrapped = staticmethod(wrapped)
                setattr(owner, attr, wrapped)
                self._patches.append((owner, attr, raw))

    def restore(self):
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)


# -- counters taken at the span boundaries ----------------------------------


def _count_bracket(tracer, args, kwargs, result):
    f, g = args
    tracer.counters["exactpoly.bracket_in_terms"] += f.num_terms * g.num_terms
    tracer.counters["exactpoly.bracket_nonzero"] += not result.is_zero
    return result


def _wrap_evaluator(tracer, args, kwargs, evaluate):
    poly = args[0]
    terms, width = poly.num_terms, poly.width

    def count(tracer, eval_args, eval_kwargs, values):
        rows = len(values)
        tracer.counters["exactpoly.eval_rows"] += rows
        tracer.counters["exactpoly.eval_row_terms"] += rows * terms
        tracer.counters["exactpoly.eval_tensor_bytes"] += rows * terms * width * 8
        return values

    return tracer.wrap(EVALUATE, evaluate, count)


def _counter(metric, measure):
    def after(tracer, args, kwargs, result):
        tracer.counters[metric] += measure(args, result)
        return result
    return after


def _count_probe(tracer, args, kwargs, results):
    tracer.counters["verify.probe_candidates"] += len(results)
    tracer.counters["verify.additional_integrals"] += sum(r.is_additional_integral for r in results)
    return results


def _member_terms(args, family):
    return sum(poly.num_terms for poly in family.members())


def _record_bytes(args, record):
    arrays = [record.times, record.xs, record.ps, record.sphere_residual,
              record.tangency_residual, *record.diagnostics.values()]
    return sum(a.nbytes for a in arrays)


_AFTER = {
    "exactpoly.poisson_bracket": _count_bracket,
    "exactpoly.compiled_evaluator": _wrap_evaluator,
    "integral_family.commuting_basis": _counter("integral_family.member_terms", _member_terms),
    "integral_family.from_dict": _counter("integral_family.member_terms", _member_terms),
    "verify.check_commutation": _counter("verify.pairs", lambda a, pairs: len(pairs)),
    "verify.functional_independence": _counter("verify.rank_tests", lambda a, s: len(s.ranks)),
    "verify.superintegrability_probe": _count_probe,
    "flow.integrate": _counter("flow.record_bytes", _record_bytes),
    "flow.write_csv": _counter("flow.csv_bytes", lambda a, r: os.path.getsize(a[1])),
}


# -- span arithmetic ----------------------------------------------------------


def self_times(spans) -> list:
    """Self time of each span: its duration minus the union of its
    children's intervals, clipped to the span."""
    children: dict = {}
    for _, start, end, parent in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


@dataclass
class SpanTotals:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def summarize(spans) -> dict:
    """Calls, summed duration and summed self time per span name."""
    table: dict = {}
    for span, own in zip(spans, self_times(spans)):
        row = table.setdefault(span[0], SpanTotals())
        row.calls += 1
        row.total_s += span[2] - span[1]
        row.self_s += own
    return table


def layer_metrics(table: dict, counters, wall_s: float, overhead_s: float) -> dict:
    """Every PER_LAYER metric of one traced pass."""
    empty = SpanTotals()

    def get(name):
        return table.get(name, empty)

    def layer_self(layer):
        return sum(row.self_s for name, row in table.items() if name.startswith(layer + "."))

    steps = get("flow.step").calls
    out = {
        "cli.build_s": get("cli.cmd_build").total_s,
        "cli.verify_s": get("cli.cmd_verify").total_s,
        "cli.simulate_s": get("cli.cmd_simulate").total_s,
        "cli.normal_form_s": get("cli.cmd_normal_form").total_s,
        "cli.io_self_s": sum(row.self_s for name, row in table.items() if name.startswith("cli.cmd_")),
        "exactpoly.bracket_calls": get("exactpoly.poisson_bracket").calls,
        "exactpoly.bracket_s": get("exactpoly.poisson_bracket").total_s,
        "exactpoly.eval_compile_calls": get("exactpoly.compiled_evaluator").calls,
        "exactpoly.eval_compile_s": get("exactpoly.compiled_evaluator").total_s,
        "exactpoly.eval_calls": get(EVALUATE).calls,
        "exactpoly.eval_s": get(EVALUATE).total_s,
        "magnetic_model.gauge_shift_calls": get("magnetic_model.gauge_shift").calls,
        "magnetic_model.gauge_shift_s": get("magnetic_model.gauge_shift").total_s,
        "magnetic_model.hamiltonian_calls": get("magnetic_model.hamiltonian_pert").calls,
        "magnetic_model.hamiltonian_s": get("magnetic_model.hamiltonian_pert").total_s,
        "magnetic_model.normal_form_s": get("magnetic_model.skew_normal_form").total_s,
        "integral_family.basis_s": get("integral_family.commuting_basis").total_s,
        "integral_family.from_dict_s": get("integral_family.from_dict").total_s,
        "verify.commutation_s": get("verify.check_commutation").total_s,
        "verify.membership_s": get("verify.hamiltonian_membership").total_s,
        "verify.independence_s": get("verify.functional_independence").total_s,
        "verify.probe_s": get("verify.superintegrability_probe").total_s,
        "verify.probe_self_s": get("verify.superintegrability_probe").self_s,
        "flow.steps": steps,
        "flow.step_s": get("flow.step").total_s,
        "flow.step_us": get("flow.step").total_s / steps * 1e6 if steps else 0.0,
        "flow.integrate_self_s": get("flow.integrate").self_s,
        "flow.picture_map_s": get("flow.picture_map").total_s,
        "flow.drift_report_s": get("flow.drift_report").total_s,
        "flow.write_csv_s": get("flow.write_csv").total_s,
        "sampling.points": get("sampling.constrained_point").calls,
        "sampling.points_s": layer_self("sampling"),
        "trace.wall_s": wall_s,
        "trace.overhead_s": overhead_s,
        "trace.unattributed_s": wall_s - sum(row.self_s for row in table.values()),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self(layer)
    for name, _ in PER_LAYER:
        out.setdefault(name, counters[name])
    return out
