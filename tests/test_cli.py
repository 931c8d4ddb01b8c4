import json
import os
import pathlib
import subprocess
import sys

import pytest

import lincat.cli
from lincat.cli import main
from lincat.errors import IntertwinerProjectionFailure, RankMismatch, SingularMap

DATA = "src/lincat/data"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_card_bz2(capsys):
    code, out, _ = run_cli(capsys, "card", f"{DATA}/bz2.json")
    assert code == 0
    assert out.strip() == "1/2"


def test_card_json(capsys):
    code, out, _ = run_cli(capsys, "--output", "json", "card", f"{DATA}/mixed.json")
    assert code == 0
    assert json.loads(out)["cardinality"] == {"num": 5, "den": 3}


def test_basis_bs3(capsys):
    code, out, _ = run_cli(capsys, "--output", "json", "basis", f"{DATA}/bs3.json")
    assert code == 0
    basis = json.loads(out)["basis"]
    assert len(basis) == 3
    assert sorted(b["dim"] for b in basis) == [1, 1, 2]


def test_span_fig1(capsys):
    code, out, _ = run_cli(capsys, "--output", "json", "span", f"{DATA}/fig1_span.json")
    assert code == 0
    assert json.loads(out)["dims"] == [[1, 1, 0], [0, 1, 1]]


def test_degroupoidify_fig1(capsys):
    code, out, _ = run_cli(
        capsys, "--output", "json", "degroupoidify", f"{DATA}/fig1_span.json"
    )
    assert code == 0
    mat = json.loads(out)["matrix"]
    assert mat[0][0] == {"num": 1, "den": 1}
    assert mat[1][0] == {"num": 0, "den": 1}


def test_degroupoidify_spanmap(capsys):
    code, out, _ = run_cli(
        capsys, "--output", "json", "degroupoidify", f"{DATA}/gmap_bz2.json"
    )
    assert code == 0
    assert json.loads(out)["matrix"] == [[{"num": 1, "den": 2}]]


def test_twomorph_gmap(capsys):
    code, out, _ = run_cli(capsys, "--output", "json", "twomorph", f"{DATA}/gmap_bz2.json")
    assert code == 0
    obj = json.loads(out)
    assert obj["coefficients"][0]["value"] == {"num": 1, "den": 2}
    assert obj["blocks"]["0,0"] == [[[0.5, 0.0]]]


def test_compose_type_error_exit_2(capsys):
    code, _, err = run_cli(capsys, "compose", f"{DATA}/fig1_span.json", f"{DATA}/fig1_span.json")
    assert code == 2
    assert "error" in err


def test_missing_file_exit_2(capsys, tmp_path):
    not_an_object = tmp_path / "list.json"
    not_an_object.write_text("[1, 2]")
    for path in ("no-such-file.json", tmp_path, not_an_object):
        code, _, err = run_cli(capsys, "card", str(path))
        assert code == 2
        assert err.startswith("error: ")


@pytest.mark.parametrize(
    "content",
    # a UTF-16 byte-order mark before UTF-8 text, nesting deeper than the
    # decoder's recursion limit, and more digits than int() converts
    [b"\xff\xfe{}\n", b"[" * 100_000, b"1" * 5000],
    ids=["utf16-bom", "deep-nesting", "long-integer"],
)
def test_undecodable_file_exit_2(capsys, tmp_path, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    code, out, err = run_cli(capsys, "card", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def _groupoid_doc(group_spec):
    return {
        "format_version": "1",
        "kind": "groupoid",
        "payload": "B",
        "definitions": {
            "groups": [dict(name="G", **group_spec)],
            "groupoids": [{"name": "B", "objects": [{"name": "*", "group": "G"}]}],
        },
    }


def _functor_doc(hom_map):
    doc = _groupoid_doc({"mult": [[0]]})
    doc["kind"], doc["payload"] = "functor", "F"
    doc["definitions"]["functors"] = [
        {"name": "F", "source": "B", "target": "B", "object_map": [0], "hom_maps": [hom_map]}
    ]
    return doc


@pytest.mark.parametrize(
    "doc",
    [
        _groupoid_doc({"mult": [[0, 1], [1, 2**63]]}),
        _functor_doc([2**64]),
        _groupoid_doc({"permutation_generators": [[0]], "degree": 2**62}),
        _groupoid_doc({"permutation_generators": [], "degree": 2**62}),
    ],
    ids=["mult", "hom_maps", "degree-with-generator", "degree-without-generators"],
)
def test_oversized_integer_exit_2(capsys, tmp_path, doc):
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "card", str(path))
    assert code == 2
    assert err.startswith("error: ")


def test_wrong_kind_exit_2(capsys):
    code, _, err = run_cli(capsys, "card", f"{DATA}/s3.json")
    assert code == 2


def test_machine_output_byte_identical(capsys):
    _, out1, _ = run_cli(capsys, "--output", "json", "twomorph", f"{DATA}/gmap_bz2.json")
    _, out2, _ = run_cli(capsys, "--output", "json", "twomorph", f"{DATA}/gmap_bz2.json")
    assert out1 == out2


def test_table_and_json_agree(capsys):
    _, table, _ = run_cli(capsys, "card", f"{DATA}/bz2.json")
    _, machine, _ = run_cli(capsys, "--output", "json", "card", f"{DATA}/bz2.json")
    q = json.loads(machine)["cardinality"]
    assert table.strip() == f"{q['num']}/{q['den']}"


def test_verify_small_suite(capsys):
    code, out, _ = run_cli(
        capsys,
        "--output",
        "json",
        "verify",
        "--suite",
        f"{DATA}/suite_small.json",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["ok"] is True


def _write_rev_and_fig1(tmp_path):
    """fig1's reverse and fig1 as span documents; they compose."""
    from lincat.documents import serialize
    from lincat.suites import fig1_span
    from lincat.groupoids import reverse_span

    p1 = tmp_path / "rev.json"
    p2 = tmp_path / "fig1.json"
    p1.write_bytes(serialize(reverse_span(fig1_span()), name="rev"))
    p2.write_bytes(serialize(fig1_span(), name="fig1"))
    return p1, p2


def test_compose_with_beta(capsys, tmp_path):
    p1, p2 = _write_rev_and_fig1(tmp_path)
    code, out, _ = run_cli(
        capsys, "--output", "json", "compose", str(p1), str(p2), "--verify-beta"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["beta"]["dims_ok"] is True
    assert obj["beta"]["dims"] == [[2, 1], [1, 2]]
    assert len(obj["apex"]) == 6


def test_compose_with_beta_builds_one_comma_category(capsys, tmp_path, monkeypatch):
    import lincat.groupoids

    p1, p2 = _write_rev_and_fig1(tmp_path)
    _, plain, _ = run_cli(capsys, "--output", "json", "compose", str(p1), str(p2))
    calls = []
    real = lincat.groupoids.comma_category

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(lincat.groupoids, "comma_category", counted)
    code, out, _ = run_cli(
        capsys, "--output", "json", "compose", str(p1), str(p2), "--verify-beta"
    )
    assert code == 0
    assert len(calls) == 1
    with_beta = json.loads(out)
    del with_beta["beta"]
    assert with_beta == json.loads(plain)


def test_verify_impossible_tolerance_exits_1(capsys):
    # with tolerance 0 the vertical and horizontal checks fail, since they
    # require a float deviation below 10 * tol; the exact checks (compositor,
    # associator, unitor) still pass.  This exercises the verification-failure
    # exit path
    code, out, _ = run_cli(
        capsys,
        "verify",
        "--suite",
        f"{DATA}/suite_small.json",
        "--tolerance",
        "0",
    )
    assert code == 1
    assert "VERIFICATION FAILED" in out


def test_verify_impossible_tolerance_exits_1_on_default_suite(capsys):
    # at tolerance 0 the dual path of the default suite's span maps cannot
    # agree within 0, which fails the vertical and horizontal checks; the
    # exact checks still pass, and no zig-zag deviation is below 0
    code, out, _ = run_cli(capsys, "--output", "json", "verify", "--tolerance", "0")
    assert code == 1
    obj = json.loads(out)
    failed = {c["section"] for c in obj["checks"] if not c["passed"]}
    assert failed == {"vertical", "horizontal"}
    assert obj["zigzag"] and not any(z["passed"] for z in obj["zigzag"])
    code, out, err = run_cli(capsys, "verify", "--tolerance", "0")
    assert code == 1
    assert "VERIFICATION FAILED" in out and err == ""


@pytest.mark.parametrize("target, error, sections", [
    ("_condition", SingularMap, {"horizontal"}),
    ("_check_dual_path", IntertwinerProjectionFailure, {"vertical", "horizontal"}),
    ("intertwiner_basis", RankMismatch, {"vertical", "horizontal"}),
], ids=["singular-beta-block", "dual-path-disagrees", "rank-mismatch"])
def test_verify_reports_check_errors_and_exits_1(capsys, monkeypatch, target, error,
                                                 sections):
    # an error by which a check fails (a singular compositor block, the two
    # evaluation paths disagreeing, or an intertwiner rank decision failing
    # while the checked models are built) is a failed check, not an input
    # error
    import lincat.linearization

    def failing(*args, **kwargs):
        raise error("injected failure")

    monkeypatch.setattr(lincat.linearization, target, failing)
    code, out, _ = run_cli(capsys, "--output", "json", "verify")
    assert code == 1
    checks = json.loads(out)["checks"]
    failed = {c["section"] for c in checks if not c["passed"]}
    assert failed == sections
    # the injected error measured no deviation, so its check records inf,
    # written as JSON's Infinity
    assert all(c["deviation"] == float("inf") for c in checks if not c["passed"])
    assert json.loads(out)["max_deviation"] == float("inf") and "Infinity" in out
    code, out, _ = run_cli(capsys, "verify")
    assert code == 1
    assert "-- injected failure" in out and "VERIFICATION FAILED" in out
    assert "(deviation inf) -- injected failure" in out


def test_verify_tolerance_reaches_zigzag(capsys, monkeypatch):
    # the tolerance decides ZigzagReport.ok and nothing else: the exterior
    # trace map behind eps_R takes no tolerance
    import lincat.rep

    seen, oks = [], []
    real, real_ok = lincat.rep._nakayama_data, lincat.rep.ZigzagReport.ok

    def spied(*args, **kwargs):
        seen.append((len(args), kwargs))
        return real(*args, **kwargs)

    def spied_ok(report, tol):
        oks.append(tol)
        return real_ok(report, tol)

    monkeypatch.setattr(lincat.rep, "_nakayama_data", spied)
    monkeypatch.setattr(lincat.rep.ZigzagReport, "ok", spied_ok)
    code, out, _ = run_cli(capsys, "--output", "json", "verify", "--tolerance", "1e-6")
    assert code == 0
    zigzag = json.loads(out)["zigzag"]
    assert zigzag and all(z["passed"] for z in zigzag)
    assert len(oks) == len(zigzag) and set(oks) == {1e-6}
    assert seen and set(n for n, _ in seen) == {2} and not any(kw for _, kw in seen)
    # at the worst deviation as the tolerance, the homs that reach it fail
    worst = max(z["deviation"] for z in zigzag)
    assert worst > 0
    code, out, _ = run_cli(capsys, "--output", "json", "verify", "--tolerance", repr(worst))
    assert code == 1
    assert [z["passed"] for z in json.loads(out)["zigzag"]] == [
        z["deviation"] < worst for z in zigzag]


def test_negative_seed_flag_exit_2(capsys):
    code, out, err = run_cli(capsys, "--seed", "-1", "basis", f"{DATA}/bs3.json")
    assert code == 2
    assert out == ""
    assert err.startswith("error: seed must be non-negative")


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_bad_tolerance_exit_2(capsys, tol):
    code, out, err = run_cli(capsys, "twomorph", "--tolerance", tol,
                             f"{DATA}/gmap_bz2.json")
    assert code == 2
    assert out == ""
    assert err.startswith("error: tolerance must be finite and non-negative")


def test_valid_documents_parse_without_jsonschema():
    # jsonschema is unimportable: the schema check needs none of it
    src = pathlib.Path(lincat.cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
    code = (
        "import sys\n"
        "sys.modules['jsonschema'] = None\n"
        "import lincat.cli\n"
        "from lincat.documents import parse_obj\n"
        "from lincat.errors import SchemaError\n"
        "data = sys.argv[1]\n"
        "assert lincat.cli.main(['--output', 'json', 'card', data + '/bz2.json']) == 0\n"
        "assert lincat.cli.main(['--output', 'json', 'verify', '--suite',\n"
        "                        data + '/suite_small.json']) == 0\n"
        "try:\n"
        "    parse_obj({'format_version': '1', 'kind': 'group', 'payload': 'x',\n"
        "               'definitions': {'groups': [{'mult': [[0]]}]}})\n"
        "except SchemaError as exc:\n"
        "    print(exc, exc.path, file=sys.stderr)\n"
    )
    done = subprocess.run([sys.executable, "-c", code, str(src / "lincat" / "data")],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stderr == (
        "'name' is a required property (at definitions/groups/0) ['definitions', 'groups', 0]\n"
    )


def test_duplicate_definition_name_exit_2(capsys, tmp_path):
    doc = _groupoid_doc({"mult": [[0]]})
    doc["definitions"]["groups"].append({"name": "G", "mult": [[0, 1], [1, 0]]})
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "card", str(path))
    assert code == 2
    assert out == ""
    assert err == "error: duplicate group name 'G' (at definitions/groups/1/name)\n"
