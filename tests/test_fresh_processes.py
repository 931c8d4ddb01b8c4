"""What a fresh interpreter loads and prints: computing irreps, every
lincat command and ``random_suite`` leave ``numpy.random`` unloaded (the
splitting and the suite draws come from plain-Python generators).  A seed
fixes every float a command prints.  Λ of a regular span keeps its
pushforward in coset form, so its peak memory stays flat."""

import pytest

from fresh import SRC, python

DATA = SRC / "lincat" / "data"


@pytest.mark.parametrize(
    "work, loaded",
    [
        ("lincat.cli.main(['--output', 'json', 'verify'])", False),
        ("lincat.cli.main(['basis', data + '/bs3.json'])", False),
        ("a5 = lincat.group_from_permutations([(1, 2, 0, 3, 4), (0, 1, 3, 4, 2)], 5)\n"
         "assert len(lincat.irreps(a5)) == 5", False),
        ("lincat.random_suite(0)", False),
    ],
    ids=["verify", "basis", "irreps", "random_suite"],
)
def test_no_lincat_code_loads_numpy_random(work, loaded):
    code = ("import sys, lincat, lincat.cli\n"
            "data = sys.argv[1]\n"
            f"{work}\n"
            "print('numpy.random' in sys.modules)")
    assert python("-c", code, str(DATA)).splitlines()[-1] == str(loaded)


def test_one_seed_prints_the_same_twomorph_bytes_in_two_processes():
    args = ["-m", "lincat.cli", "--output", "json", "--seed", "11", "twomorph",
            str(DATA / "gmap_bz2.json")]
    outs = [python(*args, PYTHONHASHSEED=h) for h in ("0", "1")]
    assert outs[0] == outs[1]
    assert '"blocks"' in outs[0]


def test_lambda_of_the_regular_span_of_s5_builds_no_dense_pushforward():
    # 1 <- B1 -> BS5 pushes forward along an index-120 inclusion, whose dense
    # induced matrices would take 120^3 * 16 B = 26 MB
    code = """if True:
        import resource
        import lincat
        from lincat import GroupoidFunctor, Span, SpanMap
        g = lincat.symmetric_group(5)
        h, incl = lincat.subgroup_embedding(g, [0])
        bh = lincat.one_object_groupoid(h)
        x = Span(bh, GroupoidFunctor.to_terminal(bh, lincat.terminal_groupoid()),
                 GroupoidFunctor(bh, lincat.one_object_groupoid(g), [0], [incl]))
        lincat.irreps(g), lincat.irreps(h)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        lincat.lambda_spanmap(SpanMap.identity(x), check=True)
        after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        print((after - before) / 1024)
    """
    grown_mb = float(python("-c", code, OPENBLAS_NUM_THREADS="1"))
    assert grown_mb < 5, grown_mb
