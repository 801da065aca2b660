"""Spans around the calls into each layer of univalence_lab, and the
per-layer metrics derived from them.

The tracer replaces a function at the name its callers bind (for example
`criterion.eval_many`, the name criterion.py calls, rather than
`series.eval_many`), records one span per call and puts the original back
when it is closed.  Nothing inside the package changes.  A target that no
longer exists is skipped and listed in `missing`, so a later refactor that
renames a function makes that metric read 0 instead of breaking the run.
"""

import os
import time
from collections import defaultdict
from dataclasses import dataclass, field

LAYERS = (
    "series",
    "kernels",
    "branchpow",
    "operator",
    "criterion",
    "chain",
    "extension",
    "oracle",
    "cli",
)


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    layer: str
    t0: float
    t1: float
    op: int | None
    raised: str | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.t1 - self.t0

    @property
    def func(self):
        return self.name.rsplit(".", 1)[1]

    def to_json(self):
        return {
            "id": self.id,
            "parent": self.parent,
            "name": self.name,
            "layer": self.layer,
            "start": self.t0,
            "end": self.t1,
            "op": self.op,
            "raised": self.raised,
            "attrs": {k: (v if isinstance(v, (int, float, str)) else repr(v)) for k, v in self.attrs.items()},
        }


# ---------------------------------------------------------------------------
# counters: work recorded at the boundary, from arguments and results.  A
# counter is also called, with result None, when the call raised.
# ---------------------------------------------------------------------------


def _size(x):
    return int(getattr(x, "size", 1))


def _horner(accumulators):
    """Counter for a Horner kernel: every step reads and writes each
    accumulator array and reads z once, 16 bytes per complex value."""

    def count(args, kwargs, result):
        n = len(args[0]) * _size(args[1])
        return {"coeff_points": n, "bytes": n * 16 * (2 * accumulators + 1)}

    return count


def _collision_bytes(args, kwargs, result):
    # five sorted 8-byte arrays of the cloud are scanned
    return {"bytes": 5 * 8 * _size(args[0])}


def _winding_bytes(args, kwargs, result):
    # the curve is read once per target
    return {"bytes": 16 * _size(args[0]) * _size(args[1])}


def _grid(args, kwargs, result):
    if result is None:
        return {}
    flagged = int(result[3].sum())
    return {"points": _size(args[0]), "panels": int(result[2]), "flagged": flagged}


def _chunk(args, kwargs, result):
    if result is None:
        return {}
    q = args[5]
    doubled = 2 * int(result[2]) - 1  # panels tried: 1 + 2 + ... + n
    return {"node_evals": q.nodes_per_panel * doubled * _size(args[0])}


def _cloud(args, kwargs, result):
    return {"cloud_points": _size(args[0].z)}


def _winding_pairs(args, kwargs, result):
    return {"pairs": _size(args[0]) * _size(args[1])}


def _probe(args, kwargs, result):
    return {"samples": kwargs.get("samples", args[8] if len(args) > 8 else 64)}


def _main(args, kwargs, result):
    if result is None:
        return {}
    argv = list(args[0]) if args else []
    written = 0
    if "--out" in argv:
        path = argv[argv.index("--out") + 1]
        if os.path.exists(path):
            written = os.path.getsize(path)
    return {"rc": int(result), "bytes_written": written}


def _first_arg(args, kwargs, result):
    return {"z": complex(args[0])} if args else {}


# (module attribute path, layer, counter).  "cli.operator_grid" means the
# name operator_grid inside univalence_lab.cli.
TARGETS = (
    # cli
    ("cli.main", "cli", _main),
    ("cli._build_parser", "cli", None),
    ("cli._Parser.parse_args", "cli", None),
    ("cli.parse_config", "cli", None),
    ("cli.run_command", "cli", None),
    ("cli.emit_grid_csv", "cli", None),
    # criterion
    ("cli.criterion_check", "criterion", None),
    ("criterion.criterion_check", "criterion", None),
    ("criterion._check_hypotheses", "criterion", None),
    ("criterion.criterion_values", "criterion", None),
    ("criterion.criterion_value", "criterion", None),
    # series
    ("criterion.eval_many", "series", None),
    ("criterion.log_derivative", "series", None),
    ("criterion.nonvanishing_check", "series", None),
    ("chain.criterion_terms", "series", None),
    ("series.eval_with_derivatives", "series", None),
    ("series.log_derivative", "series", None),
    ("series.cofactor_values", "series", None),
    # kernels
    ("_kernels.polyval012", "kernels", _horner(3)),
    ("_kernels.polyval", "kernels", _horner(1)),
    ("_kernels.collision_scan", "kernels", _collision_bytes),
    ("_kernels.winding_stats", "kernels", _winding_bytes),
    # operator
    ("cli.operator_eval", "operator", None),
    ("cli.operator_grid", "operator", _grid),
    ("chain.operator_grid", "operator", _grid),
    ("extension.operator_eval", "operator", None),
    ("operator.operator_grid", "operator", _grid),
    ("operator._grid_chunk", "operator", _chunk),
    ("operator._integrand_matrix", "operator", None),
    ("chain._integrand_matrix", "operator", None),
    # branchpow
    ("chain.principal_power", "branchpow", None),
    ("operator.principal_power", "branchpow", None),
    # chain
    ("cli.chain_eval", "chain", None),
    ("cli.transfer_functions", "chain", None),
    ("extension.chain_eval", "chain", None),
    ("chain.chain_eval", "chain", None),
    ("chain.transfer_functions", "chain", None),
    ("chain._h_at", "chain", None),
    ("chain.pde_residual", "chain", None),
    ("chain.subordination_probe", "chain", _probe),
    # extension
    ("cli.becker_extend", "extension", _first_arg),
    ("cli.beltrami_estimate", "extension", _first_arg),
    ("cli.extension_constants", "extension", None),
    ("extension.becker_extend", "extension", _first_arg),
    ("extension.beltrami_estimate", "extension", _first_arg),
    ("extension.beltrami_ring", "extension", None),
    # oracle
    ("cli.injectivity_scan", "oracle", _cloud),
    ("cli.argument_principle_check", "oracle", None),
    ("cli.polar_samples", "oracle", None),
    ("oracle.winding_numbers", "oracle", _winding_pairs),
)


class Tracer:
    """Records spans while installed; `op` tags new spans with the id of
    the benchmark operation that caused them."""

    def __init__(self, package):
        self.package = package
        self.spans = []
        self.op = None
        self.missing = []
        self._stack = []
        self._saved = []

    def _resolve(self, path):
        parts = path.split(".")
        owner = getattr(self.package, parts[0], None)
        for part in parts[1:-1]:
            owner = getattr(owner, part, None)
        if owner is None or not hasattr(owner, parts[-1]):
            return None, parts[-1]
        return owner, parts[-1]

    def __enter__(self):
        for path, layer, counter in TARGETS:
            owner, attr = self._resolve(path)
            if owner is None:
                self.missing.append(path)
                continue
            own = attr in vars(owner)  # else inherited: delete the wrapper on exit
            self._saved.append((owner, attr, own, vars(owner).get(attr)))
            setattr(owner, attr, self._wrap(getattr(owner, attr), path, layer, counter))
        return self

    def __exit__(self, *exc):
        for owner, attr, own, original in reversed(self._saved):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._saved.clear()
        return False

    def _wrap(self, fn, name, layer, counter):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = Span(len(spans), stack[-1] if stack else None, name, layer, 0.0, 0.0, self.op)
            spans.append(span)
            stack.append(span.id)
            span.t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.t1 = clock()
                span.raised = type(exc).__name__
                if counter is not None:
                    span.attrs.update(counter(args, kwargs, None))
                raise
            else:
                span.t1 = clock()
                if counter is not None:
                    span.attrs.update(counter(args, kwargs, result))
                return result
            finally:
                stack.pop()

        traced.__wrapped__ = fn
        return traced


# ---------------------------------------------------------------------------
# derived metrics
# ---------------------------------------------------------------------------


def self_times(spans):
    """Span id -> duration minus the part of it that child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.t0, s.t1))
    out = {}
    for s in spans:
        covered = 0.0
        end = None
        for a, b in sorted(children[s.id]):
            a, b = max(a, s.t0), min(b, s.t1)
            if end is not None:
                a = max(a, end)
            if b > a:
                covered += b - a
                end = b
        out[s.id] = s.duration - covered
    return out


def layer_metrics(spans):
    """Per-layer metrics of one pass, by the names BENCHMARK.json lists."""
    by_id = {s.id: s for s in spans}
    self_t = self_times(spans)
    m = defaultdict(float)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = 0.0
    for s in spans:
        m[f"{s.layer}.self_s"] += self_t[s.id]

    def total(func, where=lambda s: True):
        return sum(s.duration for s in spans if s.func == func and where(s))

    def count(func):
        return sum(1 for s in spans if s.func == func)

    def attr(key, funcs=None):
        return sum(s.attrs.get(key, 0) for s in spans if funcs is None or s.func in funcs)

    def parent_func(s):
        return by_id[s.parent].func if s.parent is not None else None

    m["criterion.refine_s"] = total("criterion_value")
    m["criterion.refine_calls"] = count("criterion_value")
    m["criterion.scan_s"] = total("criterion_values", lambda s: parent_func(s) == "criterion_check")
    m["criterion.hypotheses_s"] = total("_check_hypotheses")

    m["kernels.coeff_points"] = attr("coeff_points")
    m["kernels.bytes_computed"] = attr("bytes", ("polyval012", "polyval", "collision_scan", "winding_stats"))

    m["series.calls"] = sum(1 for s in spans if s.layer == "series")

    grids = [s for s in spans if s.func == "operator_grid" and s.raised is None]
    points = sum(s.attrs.get("points", 0) for s in grids)
    flagged = sum(s.attrs.get("flagged", 0) for s in grids)
    m["operator.grid_calls"] = count("operator_grid")
    m["operator.points"] = points
    m["operator.panels_max"] = max((s.attrs.get("panels", 0) for s in grids), default=0)
    m["operator.node_evals"] = attr("node_evals")
    m["operator.flagged"] = flagged
    m["operator.kept_ratio"] = (points - flagged) / points if points else 1.0

    m["branchpow.calls"] = sum(1 for s in spans if s.layer == "branchpow")

    m["chain.eval_calls"] = count("chain_eval")
    m["chain.eval_s"] = total("chain_eval")
    m["chain.transfer_s"] = total("transfer_functions")
    m["chain.pde_s"] = total("pde_residual")
    m["chain.probe_s"] = total("subordination_probe")
    probes = {s.id: s.attrs.get("samples", 0) for s in spans if s.func == "subordination_probe"}
    m["chain.probe_curve_evals"] = sum(
        1 for s in spans if s.func == "chain_eval" and s.parent in probes
    ) - sum(probes.values())

    m["extension.extend_calls"] = count("becker_extend")
    m["extension.beltrami_calls"] = count("beltrami_estimate")
    m["extension.failed"] = sum(
        1
        for s in spans
        if s.layer == "extension"
        and s.raised is not None
        and (s.parent is None or by_id[s.parent].layer != "extension")
    )

    m["oracle.collision_s"] = total("injectivity_scan")
    m["oracle.cloud_points"] = attr("cloud_points")
    m["oracle.winding_s"] = total("winding_numbers")
    m["oracle.winding_pairs"] = attr("pairs")

    m["cli.parse_s"] = sum(total(f) for f in ("_build_parser", "parse_args", "parse_config"))
    m["cli.emit_s"] = total("emit_grid_csv")
    m["cli.bytes_written"] = attr("bytes_written")
    m["cli.exit_nonzero"] = sum(1 for s in spans if s.func == "main" and s.attrs.get("rc", 0) != 0)
    return dict(m)


def raised_spans(spans):
    """Spans that ended in an exception, except those whose exception came
    from a child span of the same layer: where each failure entered each
    layer, with the point when one was recorded."""
    by_id = {s.id: s for s in spans}
    passed_on = {(s.parent, s.layer) for s in spans if s.raised is not None}
    out = []
    for s in spans:
        if s.raised is None or (s.id, s.layer) in passed_on:
            continue
        parent = by_id.get(s.parent)
        out.append(
            {"span": s.name, "op": s.op, "error": s.raised, "caller": parent.name if parent else None}
            | {k: repr(v) for k, v in s.attrs.items()}
        )
    return out
