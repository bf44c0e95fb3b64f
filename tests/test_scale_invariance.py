"""Verdicts do not depend on the generators' scales.

Whether ``(A_1, ..., A_m)`` is unitarily a direct sum of identical copies
does not change when a generator is multiplied by a nonzero real
(``x_l -> x_l / c_l`` keeps a perfect power a perfect power), so every
command must give its ground-truth exit code at every scale.
"""

import dataclasses
import json

import numpy as np
import pytest

from pencilspec.cli import EXIT_FAIL, EXIT_PASS, EXIT_PRECONDITION, main, save_tuple
from pencilspec.config import DEFAULT
from pencilspec.decomposer import decompose, verify_decomposition
from pencilspec.instances import gen_commuting, gen_conjugate_negative, gen_decomposable
from pencilspec.linalg import HermitianTuple

COMMANDS = ("analyze", "decompose", "corollary")

CASES = {
    "conjugate_negative": (gen_conjugate_negative(1)[0], EXIT_FAIL),
    "decomposable-3-2-2": (gen_decomposable(3, 2, 2, seed=1)[0], EXIT_PASS),
    "commuting-3-2-2": (gen_commuting(3, 2, 2, seed=1)[0], EXIT_PASS),
}

WHOLE = (1e-300, 1e-200, 1e-9, 1e-6, 1e-3, 1e3, 1e6, 1e200, 1e300)
# per-generator scale vectors 10^U(-6, 6), long enough for any case
PER_GENERATOR = tuple(10.0 ** np.random.default_rng(s).uniform(-6, 6, 3) for s in (1, 2, 3))
SCALES = [pytest.param(c, id=f"x{c:g}") for c in WHOLE] + [
    pytest.param(v, id=f"per-generator-{i}") for i, v in enumerate(PER_GENERATOR)
]


def run_all(tmp_path, tup, k=2):
    path = tmp_path / "t.json"
    save_tuple(str(path), tup)
    out = str(tmp_path / "rep.json")
    return tuple(main([cmd, str(path), "--k", str(k), "--out", out]) for cmd in COMMANDS)


def scaled(tup, scales):
    scales = np.broadcast_to(scales, (3,))
    return HermitianTuple(tuple(c * a for c, a in zip(scales, tup.matrices)))


@pytest.mark.parametrize("scales", SCALES)
@pytest.mark.parametrize("case", list(CASES))
def test_exit_codes_are_scale_invariant(tmp_path, case, scales):
    tup, want = CASES[case]
    assert run_all(tmp_path, scaled(tup, scales)) == (want,) * len(COMMANDS)


def test_zero_generator(tmp_path):
    tup = HermitianTuple((np.diag([1.0, 1.0, 2.0, 2.0]), np.zeros((4, 4))))
    # the zero generator is not admissible, but the tuple splits
    assert run_all(tmp_path, tup) == (EXIT_PRECONDITION, EXIT_PASS, EXIT_PASS)


def test_identity_pair(tmp_path):
    # one eigenvalue cluster of size 4 breaks the first-generator pattern,
    # but det(xI + yI - I) = (x + y - 1)^4 is a square
    tup = HermitianTuple((np.eye(4), np.eye(4)))
    assert run_all(tmp_path, tup) == (EXIT_PRECONDITION, EXIT_PRECONDITION, EXIT_PASS)


@pytest.mark.parametrize("scale", [1e-7, 1e-200])
def test_tampered_block_unitary_rejected_at_small_scale(scale):
    tup = scaled(gen_decomposable(2, 2, 2, seed=53)[0], scale)
    res = decompose(tup, 2)
    assert verify_decomposition(tup, res)["ok"]
    tampered = res.block_unitary.copy()
    tampered[:2, :2] *= -1.0
    rep = verify_decomposition(tup, dataclasses.replace(res, block_unitary=tampered))
    assert not rep["ok"]


SPLITTING = {"decomposable": gen_decomposable, "commuting": gen_commuting}


@pytest.mark.parametrize("scale", WHOLE, ids=lambda c: f"x{c:g}")
@pytest.mark.parametrize("seed", (1, 2))
@pytest.mark.parametrize("shape", [(3, 2, 2), (2, 3, 3)], ids=lambda s: "-".join(map(str, s)))
@pytest.mark.parametrize("family", list(SPLITTING))
def test_decompose_residual_within_bound(tmp_path, family, shape, seed, scale):
    # decompose never returns a residual above its bound, and the residual it
    # returns, in process and in a report, is its own audit's max_residual
    n, k, m = shape
    tup = scaled(SPLITTING[family](n, k, m, seed=seed)[0], scale)
    res = decompose(tup, k)
    assert res.residual == res.verification["max_residual"] <= DEFAULT.residual_tol * tup.max_norm()
    assert res.verification["ok"]
    assert verify_decomposition(tup, res) == res.verification
    path, out = tmp_path / "t.json", tmp_path / "dec.json"
    save_tuple(str(path), tup)
    assert main(["decompose", str(path), "--k", str(k), "--out", str(out)]) == EXIT_PASS
    rep = json.loads(out.read_text())
    assert rep["residual"] == rep["verification"]["max_residual"]


# Subnormal entries (1e-310, 1e-315) overflow unit scaling, and at 1e308 the
# loaded tuple's Hermitian part overflows (ROADMAP item 7).  The tuple splits,
# but neither can be answered: each command refuses the file with 3 and one
# stderr line naming the cause, writes no report and warns nothing (the suite
# turns warnings into errors).
EXTREME = {1e-310: "is below the normal range: unit scaling overflows",
           1e-315: "is below the normal range: unit scaling overflows",
           1e308: "Hermitian part (A + A^H) / 2 overflows"}


@pytest.mark.parametrize("scale", list(EXTREME), ids=lambda c: f"x{c:g}")
def test_extreme_scales_answer_or_refuse(tmp_path, capsys, scale):
    tup = gen_decomposable(3, 2, 2, seed=1)[0]
    path, out = tmp_path / "t.json", tmp_path / "rep.json"
    save_tuple(str(path), HermitianTuple.exact([scale * a for a in tup.matrices]))
    capsys.readouterr()
    for cmd in COMMANDS:
        assert main([cmd, str(path), "--k", "2", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ") and EXTREME[scale] in err
        assert not out.exists()


# Every entry is finite, but at 1e308 the Hermitian part (a + a^H) / 2
# overflows: with or without --allow-nonhermitian, each command refuses the
# file with one line naming the overflow, writes no report and warns nothing
# (the suite turns warnings into errors).  Just below, the tuple splits.
@pytest.mark.parametrize("flags", [(), ("--allow-nonhermitian",)], ids=["strict", "allow-nonhermitian"])
def test_overflowing_hermitian_part_is_refused(tmp_path, capsys, flags):
    tup = gen_decomposable(3, 2, 2, seed=1)[0]
    path, out = tmp_path / "t.json", tmp_path / "rep.json"
    save_tuple(str(path), HermitianTuple.exact([1e308 * a for a in tup.matrices]))
    capsys.readouterr()
    for cmd in COMMANDS:
        assert main([cmd, str(path), "--k", "2", "--out", str(out), *flags]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ") and "overflows" in err
        assert not out.exists()


@pytest.mark.parametrize("scale", [5e307, np.finfo(float).max / 4], ids=["x5e307", "x(max/4)"])
@pytest.mark.parametrize("flags", [(), ("--allow-nonhermitian",)], ids=["strict", "allow-nonhermitian"])
def test_largest_scales_below_the_overflow_answer(tmp_path, scale, flags):
    tup = gen_decomposable(3, 2, 2, seed=1)[0]
    path = tmp_path / "t.json"
    save_tuple(str(path), HermitianTuple.exact([scale * a for a in tup.matrices]))
    out = str(tmp_path / "rep.json")
    assert [main([cmd, str(path), "--k", "2", "--out", out, *flags]) for cmd in COMMANDS] == [0] * 3
