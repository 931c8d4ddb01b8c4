"""Command-line interface.

Exit codes: 0 success, 1 verification failure, 2 input error.  The
``--seed`` flag overrides the default random seed; machine output
(--output json) is byte-stable for fixed inputs and seed.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .documents import (
    complex_matrix_obj,
    dump_canonical,
    parse,
    rational_matrix_obj,
    rational_obj,
    to_document_obj,
)
from .errors import LincatError
from .groupoids import compose_spans, groupoid_cardinality
from .linearization import (
    beta_compositor,
    degroupoidify,
    degroupoidify_2cell,
    lambda_object,
    lambda_span,
    lambda_spanmap,
    verify_functoriality,
)
from .rep import DEFAULT_SEED, DEFAULT_TOL, regular_rep, trivial_rep, verify_zigzag
from .suites import default_suite, standard_homs


def _expect(doc, kinds, path):
    if doc.kind not in kinds:
        raise LincatError(
            f"{path}: expected a {'/'.join(kinds)} document, found {doc.kind!r}"
        )
    return doc.payload


def _print_table_matrix(rows, cols, cells, out):
    width = max(
        [len(str(c)) for c in cols] + [len(s) for row in cells for s in row] + [1]
    )
    head = " " * (max((len(str(r)) for r in rows), default=0) + 2)
    out.write(head + "  ".join(str(c).rjust(width) for c in cols) + "\n")
    rw = max((len(str(r)) for r in rows), default=0)
    for rlabel, row in zip(rows, cells):
        out.write(
            str(rlabel).rjust(rw) + "  " + "  ".join(s.rjust(width) for s in row) + "\n"
        )


def cmd_card(args, out):
    gpd = _expect(parse(args.file), ("groupoid",), args.file)
    card = groupoid_cardinality(gpd)
    if args.output == "json":
        out.write(dump_canonical({"cardinality": rational_obj(card)}) + "\n")
    else:
        out.write(f"{card.numerator}/{card.denominator}\n")
    return 0


def cmd_basis(args, out):
    gpd = _expect(parse(args.file), ("groupoid",), args.file)
    obj = lambda_object(gpd, seed=args.seed)
    if args.output == "json":
        out.write(
            dump_canonical(
                {
                    "basis": [
                        {"object": o, "irrep": k, "dim": d}
                        for (o, k, d) in obj.basis.labels
                    ]
                }
            )
            + "\n"
        )
    else:
        out.write(f"basis of size {len(obj.basis)}\n")
        for o, k, d in obj.basis.labels:
            out.write(f"  ({o}, irrep {k}, dim {d})\n")
    return 0


def cmd_span(args, out):
    span = _expect(parse(args.file), ("span",), args.file)
    res = lambda_span(span, seed=args.seed)
    dims = res.map.dims
    if args.output == "json":
        obj = {
            "dims": dims.tolist(),
            "rows": [list(l) for l in res.map.codomain.labels],
            "cols": [list(l) for l in res.map.domain.labels],
            "witnesses": {
                f"{r},{c}": [span.apex.names[i] for i in res.witnesses[(r, c)]]
                for r in range(dims.shape[0])
                for c in range(dims.shape[1])
                if res.witnesses[(r, c)]
            },
        }
        out.write(dump_canonical(obj) + "\n")
    else:
        rows = [f"({o},{k})" for o, k, _ in res.map.codomain.labels]
        cols = [f"({o},{k})" for o, k, _ in res.map.domain.labels]
        cells = [[str(int(v)) for v in row] for row in dims]
        _print_table_matrix(rows, cols, cells, out)
        for (r, c), wits in sorted(res.witnesses.items()):
            if wits:
                names = ", ".join(span.apex.names[i] for i in wits)
                out.write(f"witnesses[{r},{c}]: {names}\n")
    return 0


def cmd_compose(args, out):
    s1 = _expect(parse(args.first), ("span",), args.first)
    s2 = _expect(parse(args.second), ("span",), args.second)
    beta = beta_compositor(s1, s2, seed=args.seed) if args.verify_beta else None
    comp = beta.composite if beta is not None else compose_spans(s1, s2)
    if args.output == "json":
        obj = {"composite": to_document_obj(comp, name="composite")}
        obj["apex"] = [
            {"name": comp.apex.names[i], "aut_order": comp.apex.aut(i).order}
            for i in range(len(comp.apex))
        ]
        if beta is not None:
            obj["beta"] = {
                "dims_ok": bool(beta.dims_ok),
                "dims": beta.dims_composite.tolist(),
                "max_condition_number": beta.max_condition_number,
                "max_defect": beta.max_defect,
            }
        out.write(dump_canonical(obj) + "\n")
    else:
        out.write(f"composite apex: {len(comp.apex)} objects\n")
        for i in range(len(comp.apex)):
            out.write(f"  {comp.apex.names[i]} (aut order {comp.apex.aut(i).order})\n")
        if beta is not None:
            status = "ok" if beta.ok() else "FAILED"
            out.write(
                f"beta check: {status} (dims {beta.dims_composite.tolist()}, "
                f"max condition {beta.max_condition_number:.3e}, "
                f"max defect {beta.max_defect:.3e})\n"
            )
    if beta is not None and not beta.ok():
        return 1
    return 0


def cmd_twomorph(args, out):
    sm = _expect(parse(args.file), ("spanmap",), args.file)
    res = lambda_spanmap(sm, seed=args.seed, tol=args.tolerance)
    if args.output == "json":
        obj = {
            "coefficients": [
                {
                    "top_object": sm.top.apex.names[x1],
                    "bottom_object": sm.bottom.apex.names[x2],
                    "value": rational_obj(q),
                }
                for (x1, x2), q in sorted(res.coefficients.items())
            ],
            "blocks": {
                f"{r},{c}": complex_matrix_obj(blk)
                for (r, c), blk in sorted(res.morphism.blocks.items())
                if blk.size
            },
            "source_dims": res.source_result.map.dims.tolist(),
            "target_dims": res.target_result.map.dims.tolist(),
        }
        out.write(dump_canonical(obj) + "\n")
    else:
        out.write("exact coefficients (top object, bottom object):\n")
        for (x1, x2), q in sorted(res.coefficients.items()):
            out.write(
                f"  ({sm.top.apex.names[x1]}, {sm.bottom.apex.names[x2]}): "
                f"{q.numerator}/{q.denominator}\n"
            )
        for (r, c), blk in sorted(res.morphism.blocks.items()):
            if blk.size:
                out.write(f"block[{r},{c}]:\n")
                for row in np.round(blk, 10):
                    out.write(
                        "  [" + ", ".join(f"{z.real:+.6f}{z.imag:+.6f}j" for z in row) + "]\n"
                    )
    return 0


def cmd_degroupoidify(args, out):
    doc = parse(args.file)
    if doc.kind == "span":
        mat = degroupoidify(doc.payload)
    elif doc.kind == "spanmap":
        mat = degroupoidify_2cell(doc.payload)
    else:
        raise LincatError(f"{args.file}: expected a span or spanmap document")
    if args.output == "json":
        out.write(dump_canonical({"matrix": rational_matrix_obj(mat)}) + "\n")
    else:
        for row in mat:
            out.write("[" + ", ".join(f"{q.numerator}/{q.denominator}" for q in row) + "]\n")
    return 0


def cmd_verify(args, out):
    if args.suite == "default":
        config = default_suite(seed=args.seed, tolerance=args.tolerance)
    else:
        doc = parse(args.suite)
        if doc.kind != "suite":
            raise LincatError(f"{args.suite}: expected a suite document")
        from .linearization import SuiteConfig

        config = SuiteConfig(
            doc.payload["groupoids"],
            doc.payload["spans"],
            doc.payload["spanmaps"],
            tolerance=args.tolerance,
            seed=args.seed,
        )
    report = verify_functoriality(config)
    zz_lines = []
    zz_ok = True
    if args.suite == "default":
        for name, hom in standard_homs().items():
            probes = [
                trivial_rep(hom.source),
                regular_rep(hom.source),
                trivial_rep(hom.target),
                regular_rep(hom.target),
            ]
            zrep = verify_zigzag(hom, probes)
            ok = zrep.ok(args.tolerance)
            zz_ok = zz_ok and ok
            zz_lines.append((name, ok, zrep.max_deviation))
    passed = report.ok and zz_ok
    if args.output == "json":
        obj = {
            "ok": bool(passed),
            "max_deviation": report.max_deviation,
            "checks": [
                {
                    "section": r.section,
                    "name": r.name,
                    "passed": bool(r.passed),
                    "deviation": r.deviation,
                }
                for r in report.results
            ],
            "skipped": list(report.skipped),
            "zigzag": [
                {"hom": n, "passed": bool(ok), "deviation": dev}
                for n, ok, dev in zz_lines
            ],
        }
        out.write(dump_canonical(obj) + "\n")
    else:
        for line in report.summary_lines():
            out.write(line + "\n")
        for n, ok, dev in zz_lines:
            out.write(
                f"[{'pass' if ok else 'FAIL'}] zigzag: {n} (deviation {dev:.3e})\n"
            )
        out.write(("all checks passed\n") if passed else ("VERIFICATION FAILED\n"))
    return 0 if passed else 1


def build_parser():
    p = argparse.ArgumentParser(
        prog="lincat",
        description="2-linearization of spans of finite groupoids",
    )
    p.add_argument("--output", choices=("table", "json"), default="table")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="random seed override")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("card", help="exact groupoid cardinality")
    sp.add_argument("file")
    sp.set_defaults(func=cmd_card)

    sp = sub.add_parser("basis", help="basis of the 2-vector space of a groupoid")
    sp.add_argument("file")
    sp.set_defaults(func=cmd_basis)

    sp = sub.add_parser("span", help="matrix of a span with witnesses")
    sp.add_argument("file")
    sp.set_defaults(func=cmd_span)

    sp = sub.add_parser("compose", help="compose two spans by weak pullback")
    sp.add_argument("first")
    sp.add_argument("second")
    sp.add_argument("--verify-beta", action="store_true")
    sp.set_defaults(func=cmd_compose)

    sp = sub.add_parser("twomorph", help="matrix of linear operators of a span map")
    sp.add_argument("file")
    sp.add_argument("--tolerance", type=float, default=DEFAULT_TOL)
    sp.set_defaults(func=cmd_twomorph)

    sp = sub.add_parser("degroupoidify", help="exact rational matrix of a span or span map")
    sp.add_argument("file")
    sp.set_defaults(func=cmd_degroupoidify)

    sp = sub.add_parser("verify", help="functoriality and zig-zag suites")
    sp.add_argument("--suite", default="default")
    sp.add_argument("--tolerance", type=float, default=DEFAULT_TOL)
    sp.set_defaults(func=cmd_verify)

    return p


def _check_options(args):
    """Reject a negative seed or a tolerance that is NaN, infinite or
    negative before any work."""
    if args.seed < 0:
        raise LincatError(f"seed must be non-negative, got {args.seed}")
    tol = getattr(args, "tolerance", None)
    if tol is not None and not (math.isfinite(tol) and tol >= 0):
        raise LincatError(f"tolerance must be finite and non-negative, got {tol}")


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_options(args)
        return args.func(args, sys.stdout)
    except (LincatError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
