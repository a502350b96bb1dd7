"""Per-layer metrics of a traced run, derived from its spans.

Every metric is reported on every workload; a layer the workload does not
call reads 0.  Per-call and per-operation times are medians over the traced
rounds; ``<module>.self_s`` sums self time over them.
"""

from __future__ import annotations

import statistics

import numpy as np

from tracing import Spans, module_group

MODULES = ("cli", "params", "deficiency", "bessel", "frobenius", "extensions", "indexset",
           "curvature")
ENCODE = ("cli.to_json", "cli.to_csv", "cli._svg_phase_diagram")
BESSEL_EVALUATORS = tuple(f"bessel.bessel_{k}" for k in
                          ("I", "K", "I_tilde", "K_tilde", "I_scaled", "K_scaled"))
ROUTES = ("series", "quadrature", "asymptotic", "real_order")


def _median(values, scale=1.0) -> float:
    return statistics.median(values) * scale if values else 0.0


class _Trace:
    """Spans grouped by operation, with each operation's spec."""

    def __init__(self, path, specs):
        self.s = Spans(path)
        self.specs = specs
        order = np.argsort(self.s.op, kind="stable")
        ops, starts = np.unique(self.s.op[order], return_index=True)
        bounds = list(starts[1:]) + [len(order)]
        self.by_op = {int(o): order[a:b] for o, a, b in zip(ops, starts, bounds) if o >= 0}
        self.group = np.array([module_group(n) for n in self.s.names])[self.s.name] \
            if len(self.s.name) else np.array([], dtype=str)

    def ops(self, prefix):
        """Indices of traced operations whose kind starts with ``prefix``."""
        return [o for o in self.by_op if self.specs[o]["kind"].startswith(prefix)]

    def spans(self, op, *names):
        idx = self.by_op[op]
        return idx[np.isin(self.s.name[idx], self.s.ids(*names))]

    def durations(self, prefix, *names, outermost=False):
        """Durations of the named spans within the operations of a kind."""
        out = []
        for op in self.ops(prefix):
            idx = self.spans(op, *names)
            if outermost:
                idx = idx[~np.isin(self.s.parent[idx], idx)]
            out += list(self.s.duration[idx])
        return out

    def per_op(self, prefix, fn):
        return [fn(op) for op in self.ops(prefix)]


def layer_metrics(path, tally, final) -> dict:
    t = _Trace(str(path), tally.specs)
    s = t.s
    m = {}

    def put(name, value, unit):
        m[name] = {"value": float(value), "unit": unit}

    put("cli.import_s", final["import_s"], "s")
    cli_ops = [o for o in t.by_op if "argv" in t.specs[o]]
    encode_ids = s.ids(*ENCODE)
    cli_self, encode = [], []
    for op in cli_ops:
        idx = t.by_op[op]
        is_encode = np.isin(s.name[idx], encode_ids)
        cli_self.append(s.self_time[idx][(t.group[idx] == "cli") & ~is_encode].sum())
        encode.append(s.duration[idx][is_encode].sum())
    put("cli.self_ms", _median(cli_self, 1e3), "ms")
    put("cli.encode_ms", _median(encode, 1e3), "ms")

    def params_per_row(op):
        idx = t.by_op[op]
        parent = s.parent[idx]
        parent_group = np.where(parent >= 0, t.group[np.maximum(parent, 0)], "")
        top = idx[(t.group[idx] == "params") & (parent_group != "params")]
        return s.duration[top].sum() / t.specs[op]["meta"]["rows"]

    bands = {"bulk": [], "near_singular": []}
    for op in t.ops("classify") + t.ops("phase"):
        bands[t.specs[op]["meta"]["band"]].append(params_per_row(op))
    put("params.row_us.bulk", _median(bands["bulk"], 1e6), "us")
    put("params.row_us.near_singular", _median(bands["near_singular"], 1e6), "us")
    lattice = sum(len(t.spans(op, "params.theta_lattice")) for op in t.ops("classify"))
    rows = sum(t.specs[op]["meta"]["rows"] for op in t.ops("classify"))
    put("params.theta_lattice_calls_per_row", lattice / rows if rows else 0.0, "count")

    for regime in ("limit_circle", "limit_point"):
        put(f"deficiency.count_ms.{regime}",
            _median(t.durations(f"deficiency_{regime}", "deficiency.numeric_deficiency_count"), 1e3),
            "ms")
    put("deficiency.frobenius_start_us",
        _median(t.durations("deficiency", "deficiency.frobenius_start"), 1e6), "us")

    oracle = "bessel.weighted_L2_membership_oracle"
    for order in ("real", "imaginary"):
        put(f"bessel.membership_ms.{order}_order",
            _median(t.durations(f"oracle_{order}", oracle), 1e3), "ms")
    calls = sum(len(t.spans(op, oracle)) for op in t.ops("oracle"))
    u_calls = sum(len(t.spans(op, "bessel.KernelSolutionPair.u")) for op in t.ops("oracle"))
    put("bessel.u_calls_per_oracle", u_calls / calls if calls else 0.0, "count")
    for route in ROUTES:
        put(f"bessel.eval_us.{route}",
            _median(t.durations(f"bessel_{route}", *BESSEL_EVALUATORS), 1e6), "us")

    for case in ("resonant", "nonresonant"):
        put(f"frobenius.expand_ms.{case}",
            _median(t.durations(f"frobenius_{case}_", "frobenius.expand", outermost=True), 1e3),
            "ms")
    put("frobenius.certificate_ms",
        _median(t.durations("frobenius", "frobenius.residual_certificate"), 1e3), "ms")

    put("extensions.realize_jet_ms", _median(t.durations("greens", "extensions.realize_jet"), 1e3),
        "ms")
    put("extensions.greens_check_ms",
        _median(t.durations("greens", "extensions.greens_identity_check"), 1e3), "ms")
    put("extensions.verify_trial_us", _median(t.per_op(
        "verify", lambda op: s.duration[t.spans(op, "cli.cmd_extension_verify")].sum()
        / t.specs[op]["meta"]["trials"]), 1e6), "us")

    put("indexset.compose_ms",
        _median(t.durations("indexset", "indexset.compose_indexsets", outermost=True), 1e3), "ms")

    def parse_format(op):
        whole = s.duration[t.spans(op, "indexset_lang.parse", "indexset_lang.format_value")].sum()
        return whole - s.duration[t.spans(op, "indexset.compose_indexsets")].sum()

    put("indexset.parse_format_ms", _median(t.per_op("indexset", parse_format), 1e3), "ms")
    for n in (1, 2):
        put(f"curvature.scalar_ms.n{n}",
            _median(t.durations(f"curvature_n{n}", "curvature.coordinate_scalar_curvature"), 1e3),
            "ms")

    for module in MODULES:
        put(f"{module}.self_s", s.self_time[t.group == module].sum(), "s")
    plain = statistics.mean(tally.plain_round_s)
    put("trace.overhead_pct", 100.0 * (statistics.mean(tally.traced_round_s) / plain - 1.0), "%")
    return m
