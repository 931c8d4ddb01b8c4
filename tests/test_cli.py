import json

import pytest

from lincat.cli import main

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


def test_seed_env_override(capsys, monkeypatch):
    monkeypatch.setenv("LINCAT_SEED", "12345")
    code, out, _ = run_cli(capsys, "--output", "json", "basis", f"{DATA}/bs3.json")
    assert code == 0
    assert len(json.loads(out)["basis"]) == 3
    monkeypatch.setenv("LINCAT_SEED", "not-an-int")
    code, _, err = run_cli(capsys, "basis", f"{DATA}/bs3.json")
    assert code == 2


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
    # with tolerance 0 even exact checks cannot pass, exercising the
    # verification-failure exit path
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
