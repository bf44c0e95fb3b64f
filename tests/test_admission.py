"""One Hermitian admission rule wherever a matrix enters from outside.

``HermitianTuple``, a tuple file read by ``load_tuple``, ``kth_power_batch``
and ``kth_power_test`` all admit through ``linalg._admitted``: entries must be
finite, the Hermitian part ``(A + A^H) / 2`` must not overflow, and the
Hermitian defect ``max|A - A^H|`` must be within ``hermitian_rel`` times the
spectral norm.  Each case below feeds one malformed generator to the four
routes and expects the same exception type and message from each.
"""

import json
import re

import numpy as np
import pytest

from pencilspec.charpoly import _draw_directions, kth_power_batch, kth_power_test
from pencilspec.cli import load_tuple
from pencilspec.config import DEFAULT
from pencilspec.errors import NotHermitian, SpectralError
from pencilspec.linalg import HermitianTuple

SECOND = np.diag([1.0, 1.0, 2.0, 2.0]).astype(complex)
HUGE = 1.7e308

FINITE = "matrix entries must be finite"
OVERFLOW = "Hermitian part (A + A^H) / 2 overflows: entries too large"


def ones(entry=(0, 0), value=1.0):
    """The all-ones 4 x 4 matrix with ``entry`` set to ``value``."""
    a = np.ones((4, 4), dtype=complex)
    a[entry] = value
    return a


def anti_hermitian_pair():
    a = np.eye(4, dtype=complex)
    a[0, 1], a[1, 0] = HUGE, -HUGE
    return a


# (generator, exception type, message); None marks an admitted generator
CASES = {
    "nan-upper": (ones((0, 1), np.nan), ValueError, FINITE),
    "nan-lower": (ones((1, 0), np.nan), ValueError, FINITE),
    "nan-diagonal": (ones((2, 2), np.nan), ValueError, FINITE),
    "inf": (ones((1, 3), np.inf), ValueError, FINITE),
    "-inf": (ones((3, 3), -np.inf), ValueError, FINITE),
    # ||ones||_2 = 4, so the bound is 4e-12; max|G| = 1 would bound it by 1e-12
    "all-ones-2e-12": (ones((0, 1), 1.0 + 2e-12), None, None),
    "just-below": (ones((0, 1), 1.0 + 3.9e-12), None, None),
    "just-above": (ones((0, 1), 1.0 + 4.1e-12), NotHermitian, "Hermitian defect 4.100e-12 exceeds 4.000e-12"),
    "above-half-max": (ones((0, 0), 0.6 * np.finfo(float).max), ValueError, OVERFLOW),
    "anti-hermitian-near-max": (anti_hermitian_pair(), NotHermitian,
                                f"Hermitian defect inf exceeds {DEFAULT.hermitian_rel * HUGE:.3e}"),
}


def _to_file(path, mats):
    doc = {
        "format": "pencilspec-tuple",
        "version": 15,
        "dim": 4,
        "m": len(mats),
        "matrices": [[[[float(z.real), float(z.imag)] for z in row] for row in a] for a in mats],
    }
    path.write_text(json.dumps(doc))  # NaN and Infinity as Python's json writes them
    return path


def _routes(tmp_path, mats):
    dirs = _draw_directions(np.random.default_rng(3), DEFAULT.lines, len(mats))[None]
    path = _to_file(tmp_path / "tuple.json", mats)
    return {
        "HermitianTuple": lambda: HermitianTuple(mats),
        "load_tuple": lambda: load_tuple(str(path)),
        "kth_power_batch": lambda: kth_power_batch(np.stack(mats)[None], k=2, n=2, dirs=dirs),
        "kth_power_test": lambda: kth_power_test(mats, k=2, n=2, seed=3),
    }


@pytest.mark.parametrize("case", list(CASES))
def test_every_route_refuses_alike(tmp_path, case):
    gen, error, message = CASES[case]
    mats = [gen, SECOND]
    for name, route in _routes(tmp_path, mats).items():
        if error is None:
            route()
            continue
        with pytest.raises(error, match=f"^{re.escape(message)}$") as raised:
            route()
        assert type(raised.value) is error, name


def test_the_defect_cases_straddle_the_spectral_norm_rule():
    # the rule the cases are built around: defect against hermitian_rel ||G||_2
    for case in ("all-ones-2e-12", "just-below", "just-above"):
        gen, error, _ = CASES[case]
        defect = np.max(np.abs(gen - gen.conj().T))
        bound = DEFAULT.hermitian_rel * np.linalg.norm(gen, 2)
        assert (defect > bound) == (error is NotHermitian), case
    # a bound of hermitian_rel max|G| would refuse the all-ones example, so
    # it tells the two rules apart
    gen = CASES["all-ones-2e-12"][0]
    assert np.max(np.abs(gen - gen.conj().T)) > DEFAULT.hermitian_rel * np.max(np.abs(gen))


def test_a_hermitian_refusal_is_a_value_error():
    assert issubclass(NotHermitian, ValueError)
    assert issubclass(NotHermitian, SpectralError)
