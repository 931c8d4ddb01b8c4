"""What a fresh interpreter loads and prints: computing irreps, every
lincat command and ``random_suite`` leave ``numpy.random`` unloaded (the
splitting and the suite draws come from plain-Python generators).  A seed
fixes every float a command prints."""

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
