"""What a fresh interpreter loads and prints: computing irreps, every
lincat command and ``random_suite`` leave ``numpy.random`` unloaded (the
splitting and the suite draws come from plain-Python generators).  A seed
fixes every float a command prints.  Λ of a regular span keeps its
pushforward in coset form, so its peak memory stays flat.  A size guard
bounds the peak of the call it admits, and refuses GL_2(F_7)'s split before
it starts."""

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


def test_irreps_of_gl2_f5_stay_within_the_bytes_their_guard_states():
    # GL_2(F_5), order 480 on its 24 nonzero vectors, splits C[G]; the
    # guard's statement is read from its refusal at a limit of 0
    code = """if True:
        import re, resource
        import lincat, lincat.groups
        from fresh import gl2_generators
        g = lincat.group_from_permutations(gl2_generators(5), 24)
        assert g.order == 480
        limit, lincat.groups.MAX_DENSE_BYTES = lincat.groups.MAX_DENSE_BYTES, 0
        try:
            lincat.irreps(g)
        except lincat.InputTooLarge as exc:
            stated = int(re.search(r"needs (\\d+) bytes", str(exc)).group(1))
        lincat.groups.MAX_DENSE_BYTES = limit
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        assert sum(r.dim**2 for r in lincat.irreps(g)) == 480
        after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        print(stated, (after - before) * 1024)
    """
    stated, grown = map(int, python("-c", code, OPENBLAS_NUM_THREADS="1").split())
    assert stated == 11 * 480**2 * 16
    assert grown <= stated, (grown, stated)


def test_gl2_f7_builds_and_its_split_is_refused_before_it_starts():
    # order 2016 on 48 points: the closure states about 120 MB, the split
    # 11 times the 65 MB basis of C[G]
    code = """if True:
        import lincat, lincat.rep
        from fresh import gl2_generators
        g = lincat.group_from_permutations(gl2_generators(7), 48)
        assert g.order == 2016
        def refuse(*args):
            raise AssertionError("a split started")
        lincat.rep._irreps_by_splitting = refuse
        try:
            lincat.irreps(g)
        except lincat.InputTooLarge as exc:
            print(exc)
    """
    out = python("-c", code)
    assert out.strip() == ("the irreducible representations of a group of order 2016 "
                           "needs 715309056 bytes, above the limit of 268435456")
