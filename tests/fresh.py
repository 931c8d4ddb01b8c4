"""Fresh interpreters and fresh group values, for the tests that need a cold
store of group invariants.

Every group object of one value shares one store (``FinGroup.store``), which
lives while any of them does.  The session fixtures and the module-level
pools of the tests hold the small groups (1, Z2, Z3, Z4, Z2xZ2, S3, S4) for
the whole run, so a test that needs an invariant computed afresh builds a
value no live object holds (``relabelled``, checked by ``cold``) or runs in
a fresh interpreter (``python``)."""

import gc
import os
import pathlib
import subprocess
import sys

import numpy as np

import lincat
from lincat.groups import FinGroup

SRC = pathlib.Path(lincat.__file__).resolve().parents[1]
TESTS = pathlib.Path(__file__).resolve().parent


def python(*args, **env):
    """stdout of a fresh interpreter run with ``args``, lincat from SRC, the
    test modules importable and ``env`` added to the environment; fails the
    test on a nonzero exit."""
    env = dict(os.environ, **env)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), str(TESTS), os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout


def relabelled(g):
    """A group isomorphic to ``g`` (of order at least 4) under another table:
    element i becomes i + 1 for 0 < i < |g| - 1 and the last element becomes 1,
    which is no automorphism of the groups the tests relabel."""
    new = np.r_[0, np.arange(2, g.order), 1]
    table = np.empty_like(g.mult)
    table[np.ix_(new, new)] = new[g.mult]
    h = FinGroup(table, name=f"{g.name}'")
    assert h.fingerprint != g.fingerprint
    return h


def cold(make):
    """``make()``, a group whose value's store is empty: garbage that may
    still hold that store is collected first, and the test fails if a live
    object holds it."""
    gc.collect()
    g = make()
    assert not g.store, f"a live object holds the store of {g!r}"
    return g
