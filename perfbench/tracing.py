"""Span tracing of the program's layers, from outside the program.

The modules of `slackmat` bind each other's functions by name
(`from .matrix import rank`), so wrapping a function in its home module
alone would miss most calls.  `Tracer` replaces the function in every
`slackmat` module whose attribute is that function, and restores all of
them on exit.  Nothing under the package is edited.

Each call becomes one span (name, start, end, parent span, item id), kept in
memory until the run ends.  A span's self time is its duration minus the
time covered by its child spans; a layer's self time is the sum over its
spans.  Small probes record the counts named per layer (input rows, rays
out, LP statuses, bytes) from each call's arguments and result after its
end time is taken.
"""

from __future__ import annotations

import sys
from time import perf_counter

from slackmat import lp as _lp

LAYERS = ("cli", "formats", "recognition", "verification", "polyhedra", "lp", "matrix")

# Public functions timed per layer.  `combinatorial` is left untimed: it does
# linear-time work and the workloads barely reach it.  `canonical_ray` is
# left out because DD calls it per ray, and timing it would mostly time the
# tracer.
FUNCTIONS = {
    "matrix": ("rref", "rank", "right_kernel_basis", "left_kernel_basis",
               "solve_linear", "rank_factorization", "inverse"),
    "lp": ("lp_solve", "check_farkas", "satisfies"),
    "polyhedra": ("dd_h_to_v", "dd_v_to_h", "minimal_vrep", "lineality_and_pointedness",
                  "slack_of_cone", "slack_of_polytope", "dimension",
                  "contains_origin_interior", "facet_inequalities",
                  "vertices_of_h_polytope", "polar"),
    "recognition": ("ccgc_check", "rcgc_check", "is_cone_slack", "is_polytope_slack",
                    "verify_no_certificate", "reconstruct_cone", "reconstruct_polytope",
                    "cone_check_via_polytope", "affine_criterion_check",
                    "polar_realization"),
    "verification": ("containment_check", "verify_polytope_equality"),
    "formats": ("parse", "serialize", "document_for"),
    "cli": ("run", "build_parser"),
}


# Per-layer metrics of one traced pass over the workload's items:
# (name, unit, better).  Counts are exact and repeat from run to run; times
# are self times unless named total or dimension_s.
PER_LAYER = (
    ("polyhedra.dd_h_to_v.calls", "count", "lower"),
    ("polyhedra.dd_h_to_v.self_s", "s", "lower"),
    ("polyhedra.dd_h_to_v.total_s", "s", "lower"),
    ("polyhedra.dd_max_dim", "count", "lower"),
    ("polyhedra.dd_input_rows", "count", "lower"),
    ("polyhedra.rays_out", "count", "lower"),
    ("polyhedra.adjacency_rank_calls", "count", "lower"),
    ("polyhedra.rays_per_rank_call", "ratio", "higher"),
    ("polyhedra.dd_v_to_h.calls", "count", "lower"),
    ("recognition.separator_dd_calls", "count", "lower"),
    ("recognition.no_ratio", "ratio", "lower"),
    ("recognition.is_polytope_slack_per_item", "1/item", "lower"),
    ("recognition.cert_max_bits", "bits", "lower"),
    ("lp.lp_solve.calls", "count", "lower"),
    ("lp.lp_solve.self_s", "s", "lower"),
    ("lp.constraints_per_call", "count", "lower"),
    ("lp.infeasible_ratio", "ratio", "lower"),
    ("verification.dimension_s", "s", "lower"),
    ("verification.lp_calls_per_item", "1/item", "lower"),
    ("matrix.rref.calls", "count", "lower"),
    ("matrix.rref.self_s", "s", "lower"),
    ("matrix.rank_factorization.calls", "count", "lower"),
    ("cli.run.calls", "count", "lower"),
    ("cli.build_parser.self_s", "s", "lower"),
    ("formats.parse.calls", "count", "lower"),
    ("formats.parse.self_s", "s", "lower"),
    ("formats.serialize.self_s", "s", "lower"),
    ("formats.bytes", "bytes", "lower"),
) + tuple((layer + ".self_s", "s", "lower") for layer in LAYERS) + tuple(
    ("split." + layer, "%", "lower") for layer in LAYERS + ("untraced",)
) + (("trace_overhead_ratio", "ratio", "lower"),)


# The exact, repeatable ones: everything but times and shares of time.
COUNTERS = tuple(name for name, unit, _ in PER_LAYER
                 if unit not in ("s", "%") and name != "trace_overhead_ratio")


def _probe(name, args, result):
    """Counts taken from one call, or None."""
    if name in ("dd_h_to_v", "dd_v_to_h"):
        return (len(args[0].vectors), args[0].ambient_dim, len(result.vectors))
    if name == "lp_solve":
        return (len(args[1]), result.status == _lp.INFEASIBLE)
    if name == "parse":
        return len(args[0])
    if name == "serialize":
        return len(result)
    if name in ("is_cone_slack", "is_polytope_slack"):
        return result
    return None


class Tracer:
    """Context manager that records spans while it is active."""

    def __init__(self):
        self.spans = []  # [name, layer, start, end, parent, item, probe]
        self.item = None
        self._stack = []
        self._saved = []

    def _wrap(self, name, layer, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, self.item, None]
            spans.append(span)
            stack.append(idx)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            span[6] = _probe(name, args, result)
            return result

        return traced

    def __enter__(self):
        mods = [m for n, m in sys.modules.items() if n == "slackmat" or n.startswith("slackmat.")]
        for layer, names in FUNCTIONS.items():
            home = sys.modules["slackmat." + layer]
            for name in names:
                fn = getattr(home, name)
                wrapper = self._wrap(name, layer, fn)
                for mod in mods:
                    if getattr(mod, name, None) is fn:
                        self._saved.append((mod, name, fn))
                        setattr(mod, name, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, name, fn in reversed(self._saved):
            setattr(mod, name, fn)
        self._saved.clear()
        return False


def summarize(spans, items):
    """Per-layer metrics of one traced pass over `items` items, the time
    covered by outermost spans, and each layer's time including callees."""
    n = len(spans)
    child = [0.0] * n
    for s in spans:
        if s[4] >= 0:
            child[s[4]] += s[3] - s[2]
    self_s = {layer: 0.0 for layer in LAYERS}
    incl_s = {layer: 0.0 for layer in LAYERS}
    fn_self, fn_calls = {}, {}
    total = 0.0
    for i, s in enumerate(spans):
        name, layer, dur = s[0], s[1], s[3] - s[2]
        own = dur - child[i]
        self_s[layer] += own
        key = layer + "." + name
        fn_self[key] = fn_self.get(key, 0.0) + own
        fn_calls[key] = fn_calls.get(key, 0) + 1
        if s[4] < 0:
            total += dur
        if s[4] < 0 or spans[s[4]][1] != layer:
            incl_s[layer] += dur

    def parent_name(s):
        return spans[s[4]][0] if s[4] >= 0 else None

    # A call that raised has no probe; it still counts as a call.
    dd_h = [s for s in spans if s[0] == "dd_h_to_v" and s[6] is not None]
    adjacency = sum(1 for s in spans if s[0] == "rank" and parent_name(s) == "dd_h_to_v")
    rays_out = sum(s[6][2] for s in dd_h)
    separator = sum(1 for s in spans if s[0] == "dd_v_to_h" and s[4] >= 0
                    and spans[s[4]][1] == "recognition")
    # Recognition asked for by a caller outside the layer, not repeated
    # inside it (as polar_realization does).
    top_recognition = [s[6] for s in spans if s[0] in ("is_cone_slack", "is_polytope_slack")
                       and s[6] is not None and (s[4] < 0 or spans[s[4]][1] != "recognition")]
    lps = [s for s in spans if s[0] == "lp_solve" and s[6] is not None]
    lp_in_verification = sum(1 for s in spans if s[0] == "lp_solve"
                             and _ancestor(spans, s, "verify_polytope_equality"))
    dim_s = sum(s[3] - s[2] for s in spans if s[0] == "dimension"
                and parent_name(s) == "verify_polytope_equality")
    fmt_bytes = sum(s[6] for s in spans if s[0] in ("parse", "serialize") and s[6] is not None)

    out = {
        "polyhedra.dd_h_to_v.calls": fn_calls.get("polyhedra.dd_h_to_v", 0),
        "polyhedra.dd_h_to_v.self_s": fn_self.get("polyhedra.dd_h_to_v", 0.0),
        "polyhedra.dd_h_to_v.total_s": sum(s[3] - s[2] for s in spans if s[0] == "dd_h_to_v"),
        "polyhedra.dd_max_dim": max((s[6][1] for s in dd_h), default=0),
        "polyhedra.dd_input_rows": sum(s[6][0] for s in dd_h),
        "polyhedra.rays_out": rays_out,
        "polyhedra.adjacency_rank_calls": adjacency,
        "polyhedra.rays_per_rank_call": rays_out / max(adjacency, 1),
        "polyhedra.dd_v_to_h.calls": fn_calls.get("polyhedra.dd_v_to_h", 0),
        "recognition.separator_dd_calls": separator,
        "recognition.no_ratio": (sum(1 for r in top_recognition if not r.verdict)
                                 / max(len(top_recognition), 1)),
        "recognition.is_polytope_slack_per_item":
            fn_calls.get("recognition.is_polytope_slack", 0) / items,
        "recognition.cert_max_bits": max((_cert_bits(r.certificate) for r in top_recognition),
                                         default=0),
        "lp.lp_solve.calls": fn_calls.get("lp.lp_solve", 0),
        "lp.lp_solve.self_s": fn_self.get("lp.lp_solve", 0.0),
        "lp.constraints_per_call": sum(s[6][0] for s in lps) / max(len(lps), 1),
        "lp.infeasible_ratio": sum(1 for s in lps if s[6][1]) / max(len(lps), 1),
        "verification.dimension_s": dim_s,
        "verification.lp_calls_per_item": lp_in_verification / items,
        "matrix.rref.calls": fn_calls.get("matrix.rref", 0),
        "matrix.rref.self_s": fn_self.get("matrix.rref", 0.0),
        "matrix.rank_factorization.calls": fn_calls.get("matrix.rank_factorization", 0),
        "cli.run.calls": fn_calls.get("cli.run", 0),
        "cli.build_parser.self_s": fn_self.get("cli.build_parser", 0.0),
        "formats.parse.calls": fn_calls.get("formats.parse", 0),
        "formats.parse.self_s": fn_self.get("formats.parse", 0.0),
        "formats.serialize.self_s": fn_self.get("formats.serialize", 0.0),
        "formats.bytes": fmt_bytes,
    }
    for layer in LAYERS:
        out[layer + ".self_s"] = self_s[layer]
    return out, total, incl_s


def _ancestor(spans, s, name):
    while s[4] >= 0:
        s = spans[s[4]]
        if s[0] == name:
            return True
    return False


def _cert_bits(cert):
    """Largest numerator or denominator bit length in a certificate."""
    values = []
    if hasattr(cert, "a"):
        values = [x for m in (cert.a, cert.b) for row in m.data for x in row]
        if cert.mu is not None:
            values.extend(cert.mu)
    else:
        for v in (cert.witness, cert.separator):
            values.extend(v or ())
    return max((max(x.numerator.bit_length(), x.denominator.bit_length()) for x in values),
               default=0)
