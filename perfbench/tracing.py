"""Span tracer for the benchmark's traced runs.

``Tracer.install`` wraps each public lincat function named in ``WRAPPED`` in
every ``lincat.*`` namespace that binds it, so calls made inside the library
(``lincat.rep.conjugacy_classes`` as well as ``lincat.groups.conjugacy_classes``)
are recorded too.  A wrapper records one span per call: name, start, end,
parent span and run id, plus a few counters read from the arguments.  Spans
stay in memory until ``write`` dumps them at the end of a run.

``layer_metrics`` turns spans into the per-layer metrics listed in
``METRICS``: ``<module>.<function>.<stat>`` with stats ``calls``, ``self_s``
(the span's duration minus the part its child spans cover) and ``total_s``
(outermost calls only, so recursion is not counted twice).

Nothing here is imported by an untraced run.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

WRAPPED = {
    "groups": ["conjugacy_classes", "group_from_permutations", "direct_product",
               "validate_group", "all_homs"],
    "groupoids": ["comma_category", "vertical_compose_spanmaps",
                  "horizontal_compose_spanmaps"],
    "rep": ["irreps", "intertwiner_basis", "induce_rep", "hom_dim", "restrict_rep",
            "regular_rep", "verify_zigzag", "eta_L", "eps_L", "eta_R", "eps_R",
            "nakayama"],
    "twovect": ["compose_2linear", "vcompose_2morph", "hcompose_2morph"],
    "linearization": ["lambda_span", "lambda_spanmap", "beta_compositor",
                      "composite_block_iso"],
    "documents": ["parse", "dump_canonical"],
    "cli": ["main"],
}

# Marker attribute set on every wrapper; an untraced run counts these to show
# that it measured the library unwrapped.
MARK = "__perfbench_span__"


def _span_key(x):
    """Value key of a Span: apex, both legs' object maps and hom tables."""

    def groupoid(a):
        return tuple((n, g.fingerprint) for n, g in a.objects)

    def functor(f):
        return (groupoid(f.target), f.object_map.tobytes(),
                tuple(h.map.tobytes() for h in f.hom_maps))

    return (groupoid(x.apex), functor(x.left), functor(x.right))


def _irreps_attrs(args, kwargs, result):
    from lincat.rep import DEFAULT_SEED

    g = args[0]
    seed = args[1] if len(args) > 1 else kwargs.get("seed", DEFAULT_SEED)
    return {"key": (g.fingerprint, seed), "order": g.order}


def _lambda_span_attrs(args, kwargs, result):
    x = args[0]
    return {"key": _span_key(x), "apex": len(x.apex)}


def _comma_attrs(args, kwargs, result):
    return {"classes": len(result.classes)}


def _intertwiner_attrs(args, kwargs, result):
    r1, r2 = args[0], args[1]
    n, d1, d2 = r1.group.order, r1.dim, r2.dim
    if d1 == 0 or d2 == 0:
        return {"kron_terms": 0, "kron_bytes": 0}
    # np.kron of a d2 x d2 and a d1 x d1 complex128 matrix, once per element
    return {"kron_terms": n, "kron_bytes": n * (d1 * d2) ** 2 * 16}


ATTRS = {
    "rep.irreps": _irreps_attrs,
    "linearization.lambda_span": _lambda_span_attrs,
    "groupoids.comma_category": _comma_attrs,
    "rep.intertwiner_basis": _intertwiner_attrs,
}


class Tracer:
    """Records spans of the wrapped lincat functions of one run."""

    def __init__(self, run_id):
        self.run_id = run_id
        # [name, start_ns, end_ns, parent index, outermost-of-name, attrs]
        self.spans = []
        self.child_ns = []
        self._stack = []
        self._depth = {}
        self._undo = []

    def _wrap(self, name, fn):
        spans, child_ns, stack, depth = self.spans, self.child_ns, self._stack, self._depth
        attrs_of = ATTRS.get(name)
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            outer = depth.get(name, 0) == 0
            span = [name, 0, 0, parent, outer, None]
            spans.append(span)
            child_ns.append(0)
            stack.append(idx)
            depth[name] = depth.get(name, 0) + 1
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                span[2] = end
                stack.pop()
                depth[name] -= 1
                if parent >= 0:
                    child_ns[parent] += end - span[1]
            if attrs_of is not None:
                span[5] = attrs_of(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        setattr(wrapper, MARK, name)
        return wrapper

    def install(self):
        """Wrap every listed function in every loaded lincat namespace."""
        for module, names in WRAPPED.items():
            home = importlib.import_module(f"lincat.{module}")
            for fn_name in names:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{module}.{fn_name}", original)
                for mod in lincat_modules():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._undo.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()

    def write(self, path):
        """Dump the spans as JSON lines: name, start, end, parent, run id."""
        with open(path, "w") as fh:
            for name, start, end, parent, _, _ in self.spans:
                fh.write(json.dumps([name, start, end, parent, self.run_id]) + "\n")


def lincat_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "lincat" or n.startswith("lincat."))]


def count_wrappers():
    """Number of traced wrappers bound anywhere in the lincat namespaces."""
    return sum(
        1
        for mod in lincat_modules()
        for value in vars(mod).values()
        if callable(value) and hasattr(value, MARK)
    )


# ---------------------------------------------------------------------------
# per-layer metrics

COUNT, SECONDS, BYTES = "count", "s", "B"


def _metric_spec():
    spec = [
        ("groups.conjugacy_classes.calls", COUNT),
        ("groups.conjugacy_classes.self_s", SECONDS),
        ("groups.build.total_s", SECONDS),
        ("groups.all_homs.total_s", SECONDS),
        ("groupoids.comma_category.calls", COUNT),
        ("groupoids.comma_category.self_s", SECONDS),
        ("groupoids.comma_category.classes", COUNT),
        ("groupoids.comma_category.max_classes", COUNT),
        ("groupoids.vertical_compose_spanmaps.self_s", SECONDS),
        ("groupoids.horizontal_compose_spanmaps.self_s", SECONDS),
        ("rep.irreps.calls", COUNT),
        ("rep.irreps.total_s", SECONDS),
        ("rep.irreps.distinct", COUNT),
        ("rep.irreps.max_order", COUNT),
        ("rep.intertwiner_basis.calls", COUNT),
        ("rep.intertwiner_basis.self_s", SECONDS),
        ("rep.intertwiner_basis.kron_terms", COUNT),
        ("rep.intertwiner_basis.kron_bytes", BYTES),
    ]
    for fn in ("induce_rep", "hom_dim", "restrict_rep", "regular_rep"):
        spec += [(f"rep.{fn}.calls", COUNT), (f"rep.{fn}.self_s", SECONDS)]
    spec.append(("rep.verify_zigzag.total_s", SECONDS))
    for fn in ("eta_L", "eps_L", "eta_R", "eps_R", "nakayama"):
        spec.append((f"rep.{fn}.self_s", SECONDS))
    spec += [
        ("linearization.lambda_span.calls", COUNT),
        ("linearization.lambda_span.distinct", COUNT),
        ("linearization.lambda_span.self_s", SECONDS),
        ("linearization.lambda_span.total_s", SECONDS),
        ("linearization.lambda_span.max_apex", COUNT),
    ]
    for fn in ("lambda_spanmap", "beta_compositor", "composite_block_iso"):
        spec += [(f"linearization.{fn}.calls", COUNT),
                 (f"linearization.{fn}.self_s", SECONDS)]
    for fn in ("compose_2linear", "vcompose_2morph", "hcompose_2morph"):
        spec.append((f"twovect.{fn}.calls", COUNT))
    spec += [
        ("cli.import_s", SECONDS),
        ("documents.parse.calls", COUNT),
        ("documents.parse.total_s", SECONDS),
        ("documents.dump_canonical.total_s", SECONDS),
        ("cli.main.total_s", SECONDS),
        # whole-run figures of the traced run itself
        ("trace.spans", COUNT),
        ("trace.wall_s", SECONDS),
        ("trace.untraced_wall_s", SECONDS),
        ("trace.overhead_s", SECONDS),
    ]
    return spec


METRICS = _metric_spec()

# metrics computed from span attributes rather than from durations
COUNTERS = [name for name, unit in METRICS if unit != SECONDS]

_BUILD = ("groups.group_from_permutations", "groups.direct_product",
          "groups.validate_group")


def aggregate(spans, child_ns, start=0, stop=None):
    """Per-function sums over spans[start:stop]: calls, self/total ns, attrs."""
    stop = len(spans) if stop is None else stop
    out = {}
    for i in range(start, stop):
        name, begin, end, _, outer, attrs = spans[i]
        row = out.get(name)
        if row is None:
            row = out[name] = {"calls": 0, "self_ns": 0, "total_ns": 0,
                               "keys": set(), "max": {}, "sum": {}}
        dur = end - begin
        row["calls"] += 1
        row["self_ns"] += dur - child_ns[i]
        if outer:
            row["total_ns"] += dur
        if attrs:
            for k, v in attrs.items():
                if k == "key":
                    row["keys"].add(v)
                else:
                    row["sum"][k] = row["sum"].get(k, 0) + v
                    row["max"][k] = max(row["max"].get(k, 0), v)
    return out


def layer_metrics(rows, import_s, n_spans):
    """The METRICS values (timings in seconds) from ``aggregate`` rows."""
    empty = {"calls": 0, "self_ns": 0, "total_ns": 0, "keys": set(), "max": {}, "sum": {}}

    def row(name):
        return rows.get(name, empty)

    values = {}
    for metric, _ in METRICS:
        parts = metric.split(".")
        if parts[0] == "trace":
            continue
        if metric == "cli.import_s":
            values[metric] = import_s
            continue
        if metric == "groups.build.total_s":
            values[metric] = sum(row(n)["total_ns"] for n in _BUILD) / 1e9
            continue
        fn, stat = ".".join(parts[:2]), parts[2]
        r = row(fn)
        if stat == "calls":
            values[metric] = r["calls"]
        elif stat == "self_s":
            values[metric] = r["self_ns"] / 1e9
        elif stat == "total_s":
            values[metric] = r["total_ns"] / 1e9
        elif stat == "distinct":
            values[metric] = len(r["keys"])
        elif stat == "max_order":
            values[metric] = r["max"].get("order", 0)
        elif stat == "max_apex":
            values[metric] = r["max"].get("apex", 0)
        elif stat == "max_classes":
            values[metric] = r["max"].get("classes", 0)
        else:
            values[metric] = r["sum"].get(stat, 0)
    values["trace.spans"] = n_spans
    return values
