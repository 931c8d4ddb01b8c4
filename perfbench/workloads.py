"""The four benchmark workloads and their correctness gates.

Each workload is a class with ``setup(seed, workdir)``, run once before the
first timed operation, and ``run_pass(index)``, one timed pass.  A pass
returns a ``PassResult``: the latency of each command it issued, how many
operations it attempted and how many failed its gate.  An operation is a
check, a span or a command; a failed check, a raised ``LincatError``, a
non-zero exit or an output that differs from ``expected.json`` each count as
a failure.

Exact outputs (integer dims, ``Fraction`` coefficients, check names, exit
codes, ``ok`` flags) are compared with the values recorded in
``expected.json``.  Float blocks are judged only by the library's own
tolerance, through basis-independent invariants (singular values), because
intertwiner bases are not canonical.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import lincat
import lincat.cli
from environment import ROOT, child_env
from lincat import DEFAULT_TOL, GroupoidFunctor, LincatError, Span, SpanMap

# Library functions are called as ``lincat.<name>`` so that a traced run,
# which rebinds them in the lincat namespaces, sees the benchmark's own calls.

HERE = Path(__file__).resolve().parent
DATA = ROOT / "src" / "lincat" / "data"
EXPECTED_PATH = HERE / "expected.json"


@dataclasses.dataclass
class PassResult:
    command_s: list
    attempted: int
    failed: int
    mismatches: list


def load_expected():
    return json.loads(EXPECTED_PATH.read_text())


def count_mismatches(got, want, label, mismatches):
    """Position-wise comparison of two lists; each differing or missing item
    is one failed operation."""
    bad = 0
    for i in range(max(len(got), len(want))):
        g = got[i] if i < len(got) else None
        w = want[i] if i < len(want) else None
        if g != w:
            bad += 1
            if len(mismatches) < 5:
                mismatches.append(f"{label}[{i}]: got {g!r}, want {w!r}")
    return bad


_FLOAT = re.compile(r"[-+]?\d+\.\d+(?:e[-+]?\d+)?")


def mask_floats(value):
    """Replace every float by a marker so that exact parts compare exactly."""
    if isinstance(value, float):
        return "<float>"
    if isinstance(value, str):
        return _FLOAT.sub("<float>", value)
    if isinstance(value, list):
        return [mask_floats(v) for v in value]
    if isinstance(value, dict):
        return {k: mask_floats(v) for k, v in value.items()}
    return value


def singular_values(block):
    """Basis-independent invariant of a block in orthonormal bases."""
    if block.size == 0:
        return []
    return np.linalg.svd(block, compute_uv=False).tolist()


def close(got, want, tol=DEFAULT_TOL):
    return len(got) == len(want) and all(abs(a - b) <= tol for a, b in zip(got, want))


def fraction_text(q):
    return f"{q.numerator}/{q.denominator}"


def parse_json(text):
    """The command's JSON output, or {} (which no gate expects) if it is not JSON."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return {}


# ---------------------------------------------------------------------------
# suite-composite: verify_functoriality on the seed-5 random suite


class SuiteComposite:
    """``verify_functoriality(random_suite(5, n_spans=4, n_maps=3))``.  The
    suite's shape is the seed-5 suite; the benchmark seed is the suite's
    ``seed`` (irrep splitting and bases), so every seed does the same checks
    on the same spans."""

    SUITE_SEED = 5

    def setup(self, seed, workdir):
        suite = lincat.random_suite(self.SUITE_SEED, n_spans=4, n_maps=3)
        self.config = dataclasses.replace(suite, seed=seed)
        self.want = load_expected()["suite-composite"]

    def run_pass(self, index):
        mismatches = []
        want = self.want["checks"]
        start = time.perf_counter()
        try:
            report = lincat.verify_functoriality(self.config)
        except LincatError as exc:
            return PassResult([time.perf_counter() - start], len(want), len(want),
                              [f"verify_functoriality raised {exc!r}"])
        elapsed = time.perf_counter() - start
        got = self._summary(report)
        failed = count_mismatches(got["checks"], want, "check", mismatches)
        failed += count_mismatches(got["skipped"], self.want["skipped"], "skip", mismatches)
        return PassResult([elapsed], len(want), failed, mismatches)

    @staticmethod
    def _summary(report):
        return {"checks": [[r.section, r.name, bool(r.passed)] for r in report.results],
                "skipped": list(report.skipped)}

    def record(self):
        return self._summary(lincat.verify_functoriality(self.config))


# ---------------------------------------------------------------------------
# verify-default: the CLI's default verification suite, in process


class VerifyDefault:
    """``lincat.cli.main(["--output", "json", "--seed", S, "verify"])``."""

    def setup(self, seed, workdir):
        self.argv = ["--output", "json", "--seed", str(seed), "verify"]
        self.want = load_expected()["verify-default"]

    def _call(self):
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            rc = lincat.cli.main(self.argv)
        return rc, out.getvalue(), time.perf_counter() - start

    @staticmethod
    def _summary(rc, text):
        obj = parse_json(text) if rc in (0, 1) else {}
        return {
            "rc": rc,
            "ok": obj.get("ok"),
            "checks": [[c["section"], c["name"], c["passed"]] for c in obj.get("checks", [])],
            "skipped": obj.get("skipped", []),
            "zigzag": [[z["hom"], z["passed"]] for z in obj.get("zigzag", [])],
        }

    def run_pass(self, index):
        rc, text, elapsed = self._call()
        got, want = self._summary(rc, text), self.want
        mismatches = []
        failed = int(got["rc"] != want["rc"] or got["ok"] != want["ok"])
        if failed:
            mismatches.append(f"exit {got['rc']} ok={got['ok']}, want exit {want['rc']}")
        for key in ("checks", "skipped", "zigzag"):
            failed += count_mismatches(got[key], want[key], key, mismatches)
        attempted = 1 + len(want["checks"]) + len(want["zigzag"])
        return PassResult([elapsed], attempted, failed, mismatches)

    def record(self):
        rc, text, _ = self._call()
        return self._summary(rc, text)


# ---------------------------------------------------------------------------
# groups-large: one-object groupoids on groups of order 36, 48 and 60

# A5 from two 3-cycles, closed by group_from_permutations
A5_GENERATORS = [(1, 2, 0, 3, 4), (0, 1, 3, 4, 2)]

GROUPS = {
    "S3xS3": lambda: lincat.direct_product(lincat.symmetric_group(3),
                                           lincat.symmetric_group(3)),
    "S4xZ2": lambda: lincat.direct_product(lincat.symmetric_group(4), lincat.cyclic_group(2)),
    "A5": lambda: lincat.group_from_permutations(A5_GENERATORS, 5, name="A5"),
}


def noncentral_involution(g):
    """First element x of order 2 that does not commute with everything, so
    that <x> is a proper, non-normal subgroup."""
    m = g.mult
    for x in range(1, g.order):
        if m[x, x] == 0 and np.any(m[x, :] != m[:, x]):
            return x
    raise ValueError(f"{g.name} has no non-central involution")


class GroupsLarge:
    """Per group: build it, ``lambda_object``, ``lambda_span`` of
    ``1 <- BH -> BG`` for H = <x> non-normal, ``lambda_spanmap`` of its
    identity span map (dual-path check on) and ``beta_compositor(x, x^op)``.
    Each pass uses a fresh irrep seed, so every ``irreps`` call misses the
    cache and computes."""

    def setup(self, seed, workdir):
        self.seed = seed
        self.want = load_expected()["groups-large"]

    def pass_seed(self, index):
        return self.seed * 1000 + index

    def steps(self, name, seed):
        """Yield (step name, thunk, summary of the thunk's result)."""
        state = {}

        def build():
            state["g"] = g = GROUPS[name]()
            return g

        def span():
            g = state["g"]
            h, incl = lincat.subgroup_embedding(g, [0, noncentral_involution(g)])
            bg, bh = lincat.one_object_groupoid(g), lincat.one_object_groupoid(h)
            one = lincat.terminal_groupoid()
            state["x"] = x = Span(bh, GroupoidFunctor.to_terminal(bh, one),
                                  GroupoidFunctor(bh, bg, [0], [incl]))
            return lincat.lambda_span(x, seed=seed)

        def spanmap():
            state["y"] = y = SpanMap.identity(state["x"])
            return lincat.lambda_spanmap(y, seed=seed, check=True)

        def objects():
            return lincat.lambda_object(lincat.one_object_groupoid(state["g"]), seed=seed)

        def beta():
            return lincat.beta_compositor(state["x"], lincat.reverse_span(state["x"]), seed=seed)

        yield "build", build, lambda g: {"order": g.order}
        yield "lambda_object", objects, lambda lo: {"labels": [list(l) for l in lo.basis.labels]}
        yield "lambda_span", span, lambda r: {"dims": r.map.dims.tolist()}
        yield "lambda_spanmap", spanmap, lambda r: self._spanmap_summary(state["y"], r)
        yield "beta_compositor", beta, lambda b: {"dims": b.dims_composite.tolist(),
                                                  "ok": bool(b.ok())}

    @staticmethod
    def _spanmap_summary(y, res):
        d2c = lincat.degroupoidify_2cell(y)
        coeffs = {f"{x1},{x2}": fraction_text(q)
                  for (x1, x2), q in sorted(res.coefficients.items())}
        return {
            "coefficients": coeffs,
            "coefficients_match_2cell": all(
                q == d2c[x2][x1] for (x1, x2), q in res.coefficients.items()),
            "singular_values": {f"{r},{c}": singular_values(b)
                                for (r, c), b in sorted(res.morphism.blocks.items())},
        }

    @staticmethod
    def _matches(got, want):
        if set(got) != set(want):
            return False
        for key, w in want.items():
            g = got[key]
            if key == "singular_values":
                if set(g) != set(w) or not all(close(g[k], w[k]) for k in w):
                    return False
            elif g != w:
                return False
        return True

    def run_pass(self, index):
        seed = self.pass_seed(index)
        times, failed, mismatches = [], 0, []
        for name in GROUPS:
            # one command per group: its five steps, gate checks excluded
            times.append(0.0)
            for done, (step, thunk, summarize) in enumerate(self.steps(name, seed)):
                start = time.perf_counter()
                try:
                    result = thunk()
                except LincatError as exc:
                    times[-1] += time.perf_counter() - start
                    failed += len(self.want[name]) - done  # this step and the skipped ones
                    mismatches.append(f"{name} {step} raised {exc!r}")
                    break
                times[-1] += time.perf_counter() - start
                got = summarize(result)
                if not self._matches(got, self.want[name][step]):
                    failed += 1
                    if len(mismatches) < 5:
                        mismatches.append(f"{name} {step}: got {got!r}")
        attempted = sum(len(steps) for steps in self.want.values())
        return PassResult(times, attempted, failed, mismatches)

    def record(self):
        seed = self.pass_seed(0)
        return {name: {step: summarize(thunk())
                       for step, thunk, summarize in self.steps(name, seed)}
                for name in GROUPS}


# ---------------------------------------------------------------------------
# cli-fixtures: fresh `python -m lincat.cli` processes over the fixtures

FIXTURE_COMMANDS = {
    "card": ["card", "{data}/bz2.json"],
    "basis": ["basis", "{data}/bs3.json"],
    "span": ["span", "{data}/fig1_span.json"],
    "twomorph": ["twomorph", "{data}/gmap_bz2.json"],
    "degroupoidify": ["degroupoidify", "{data}/fig1_span.json"],
    "verify": ["verify", "--suite", "{data}/suite_small.json"],
    "compose": ["compose", "{work}/fig1_rev.json", "{data}/fig1_span.json", "--verify-beta"],
}
FORMS = ("table", "json")
COMMAND_TIMEOUT_S = 60


class CliFixtures:
    """The seven fixture commands in table and JSON form, one process at a
    time; the seed orders each pass's commands and is every command's
    ``--seed``.  A traced run starts ``traced_cli.py`` instead, which wraps
    the library before calling ``lincat.cli.main``."""

    def __init__(self, traced_spans_dir=None):
        self.spans_dir = traced_spans_dir

    def setup(self, seed, workdir):
        self.seed = seed
        self.work = Path(workdir)
        fig1 = lincat.parse(str(DATA / "fig1_span.json")).payload
        rev = lincat.serialize(lincat.reverse_span(fig1), name="fig1_rev")
        (self.work / "fig1_rev.json").write_bytes(rev)
        self.rng = np.random.default_rng(seed)
        self.env = child_env()
        self.want = load_expected()["cli-fixtures"]
        self.child_reports = {}  # pass index -> metric files of its traced commands

    def argv(self, name, form):
        args = [a.format(data=DATA, work=self.work) for a in FIXTURE_COMMANDS[name]]
        return ["--output", form, "--seed", str(self.seed)] + args

    def _run(self, name, form, index):
        if self.spans_dir is None:
            cmd = [sys.executable, "-m", "lincat.cli"]
        else:
            report = Path(self.spans_dir) / f"cli-{index}-{name}-{form}.json"
            self.child_reports.setdefault(index, []).append(report)
            cmd = [sys.executable, str(HERE / "traced_cli.py"), str(report)]
        start = time.perf_counter()
        proc = subprocess.run(cmd + self.argv(name, form), capture_output=True,
                              text=True, env=self.env, cwd=self.work, timeout=COMMAND_TIMEOUT_S)
        return proc, time.perf_counter() - start

    @staticmethod
    def summary(name, form, proc):
        out = {"rc": proc.returncode}
        if form == "json" and proc.returncode in (0, 1):
            obj = parse_json(proc.stdout)
            if name == "twomorph":
                out["singular_values"] = {
                    key: singular_values(np.array([[complex(*z) for z in row] for row in blk]))
                    for key, blk in obj.get("blocks", {}).items()}
            out["stdout"] = mask_floats(obj)
        else:
            out["stdout"] = mask_floats(proc.stdout)
        return out

    def commands(self):
        return [(name, form) for name in FIXTURE_COMMANDS for form in FORMS]

    def run_pass(self, index):
        order = self.commands()
        self.rng.shuffle(order)
        times, failed, mismatches = [], 0, []
        for name, form in order:
            proc, elapsed = self._run(name, form, index)
            times.append(elapsed)
            got, want = self.summary(name, form, proc), self.want[f"{name} {form}"]
            ok = got["rc"] == want["rc"] and got["stdout"] == want["stdout"]
            if "singular_values" in want:
                sv = got.get("singular_values", {})
                ok = ok and set(sv) == set(want["singular_values"]) and all(
                    close(sv[k], v) for k, v in want["singular_values"].items())
            if not ok:
                failed += 1
                if len(mismatches) < 5:
                    mismatches.append(f"{name} {form}: exit {proc.returncode}, "
                                      f"stderr {proc.stderr.strip()[-200:]!r}")
        return PassResult(times, len(order), failed, mismatches)

    def record(self):
        return {f"{name} {form}": self.summary(name, form, self._run(name, form, 0)[0])
                for name, form in self.commands()}


WORKLOADS = {
    "suite-composite": SuiteComposite,
    "verify-default": VerifyDefault,
    "groups-large": GroupsLarge,
    "cli-fixtures": CliFixtures,
}
