"""Acceptance battery.

Each test covers one numbered acceptance criterion at its stated tolerance
and prints a single pass/fail line.  The expensive round-trip battery
(criterion 3) is built once per session and shared with criteria 5, 6 and 9.
"""

import os
import re
import time
from dataclasses import dataclass

import numpy as np
import pytest

from pencilspec.charpoly import kth_power_test
from pencilspec.cli import main as cli_main
from pencilspec.conditions import analyze, count_words, enumerate_words
from pencilspec.decomposer import decompose, extract_block_structure, unify_layers
from pencilspec.errors import CycleInconsistency
from pencilspec.instances import gen_conjugate_negative, gen_decomposable, haar_unitary
from pencilspec.linalg import HermitianTuple
from pencilspec.reference import (
    apply_tuple_map,
    axis_derivative_closed_form,
    branch_derivative,
    coefficient_distance,
    eigendecompose_clustered,
    norm_scale,
    pencil_charpoly,
    projection_by_interpolation,
    restrict_pencil_to_line,
    shift_to_invertible,
    transform_tuple_vars,
    verify_cycle_identity,
    verify_first_order_identity,
)

from conftest import rand_hermitian


def emit(num, ok, text):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {text}", flush=True)
    assert ok, f"criterion {num}: {text}"


BATTERY_COMBOS = [
    (n, k, m)
    for n in (2, 3, 4)
    for k in (2, 3)
    for m in (2, 3)
    if n * k <= 12
]
BATTERY_SEEDS = (0, 1, 2, 3, 4)


@dataclass
class BatteryRecord:
    n: int
    k: int
    m: int
    seed: int
    tuple: HermitianTuple
    seed_tuple: tuple
    report: object
    result: object


@pytest.fixture(scope="session")
def battery():
    t0 = time.perf_counter()
    records = []
    for n, k, m in BATTERY_COMBOS:
        for s in BATTERY_SEEDS:
            seed = 1000 * n + 100 * k + 10 * m + s
            tup, desc = gen_decomposable(n, k, m, seed=seed)
            rep = analyze(tup, k, seed=seed)
            res = decompose(tup, k)
            records.append(
                BatteryRecord(
                    n=n, k=k, m=m, seed=seed, tuple=tup,
                    seed_tuple=desc.seed_tuple, report=rep, result=res,
                )
            )
    elapsed = time.perf_counter() - t0
    return records, elapsed


def _spectrum_with_gap_floor(dim, rng, tight_pair):
    """Jittered equispaced eigenvalues on [-1, 1]; optionally one pair pushed
    down to a 1.5e-3 gap to exercise the interpolation separation floor.

    Equispaced bases keep the Lagrange node products balanced; with many
    independently uniform eigenvalues the node polynomial's derivative
    ratios amplify eigensolver noise past the 1e-9 target, regardless of
    the minimum gap.
    """
    if dim == 1:
        return rng.uniform(-1.0, 1.0, size=1)
    base = np.linspace(-1.0, 1.0, dim)
    spacing = base[1] - base[0]
    eigs = base + rng.uniform(-0.2, 0.2, size=dim) * spacing
    if tight_pair and dim >= 3:
        i = int(rng.integers(1, dim - 1))
        mid = (eigs[i] + eigs[i + 1]) / 2.0
        eigs[i], eigs[i + 1] = mid - 7.5e-4, mid + 7.5e-4
    return np.sort(eigs)


def test_criterion_1_projection_formula():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    min_gap_seen = np.inf
    for trial in range(50):
        dim = 2 + trial % 11  # sizes 2..12
        eigs = _spectrum_with_gap_floor(dim, rng, tight_pair=(trial % 5 == 0))
        min_gap_seen = min(min_gap_seen, float(np.min(np.diff(eigs))))
        assert np.min(np.diff(eigs)) >= 1e-3
        q = haar_unitary(dim, 7000 + trial)
        a = q @ np.diag(eigs).astype(complex) @ q.conj().T
        a = (a + a.conj().T) / 2.0
        sd = eigendecompose_clustered(a)
        for j in range(sd.n):
            p = projection_by_interpolation(a, sd, j)
            worst = max(worst, float(np.max(np.abs(p - sd.projections[j]))) / dim)
    elapsed = time.perf_counter() - t0
    emit(
        1,
        worst <= 1e-9 and elapsed < 5.0,
        f"interpolation vs eigenvector projector over 50 matrices "
        f"(min gap seen {min_gap_seen:.2e}), worst max-norm/N = {worst:.3e} "
        f"(bound 1e-9), {elapsed:.2f}s (< 5s)",
    )


def test_criterion_2_spectrum_transform_law():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    for trial in range(20):
        m = 2 if trial % 2 == 0 else 3
        dim = 3 + trial % 4  # sizes 3..6
        mats = [rand_hermitian(dim, rng) for _ in range(m)]
        tup = HermitianTuple(tuple(mats))
        raw = rng.uniform(-1.0, 1.0, size=(m, m))
        c = np.eye(m) + raw * (0.1 * rng.uniform(0.1, 1.0) / np.linalg.norm(raw, 2))
        assert np.linalg.norm(c - np.eye(m), 2) <= 0.1
        lhs = pencil_charpoly(list(apply_tuple_map(tup, c).matrices))
        rhs = transform_tuple_vars(pencil_charpoly(mats), c)
        worst = max(worst, coefficient_distance(lhs, rhs))
    elapsed = time.perf_counter() - t0
    emit(
        2,
        worst <= 1e-8 and elapsed < 10.0,
        f"variable-transformation law, worst coefficient distance = {worst:.3e} "
        f"(bound 1e-8), {elapsed:.2f}s (< 10s)",
    )


def test_criterion_3_round_trip(battery):
    records, elapsed = battery
    assert len(records) == len(BATTERY_COMBOS) * len(BATTERY_SEEDS)
    worst_residual = 0.0
    worst_poly = 0.0
    for rec in records:
        assert rec.report.overall == "pass", (
            f"analyze failed for n={rec.n} k={rec.k} m={rec.m} seed={rec.seed}: "
            f"{rec.report.detail}"
        )
        assert all(v.is_kth_power for _, v in rec.report.word_results)
        bound = 1e-6 * max(1.0, rec.tuple.max_norm())
        assert rec.result.residual <= bound
        worst_residual = max(worst_residual, rec.result.residual / bound)
        dist = coefficient_distance(
            pencil_charpoly(list(rec.result.reduced.matrices)),
            pencil_charpoly(list(rec.seed_tuple)),
        )
        assert dist <= 1e-6
        worst_poly = max(worst_poly, dist)
    emit(
        3,
        elapsed < 60.0,
        f"{len(records)} round trips: all analyses pass, worst residual/bound = "
        f"{worst_residual:.3e}, worst charpoly distance = {worst_poly:.3e} "
        f"(bound 1e-6), battery built in {elapsed:.1f}s (< 60s)",
    )


def test_criterion_4_negative_detection():
    t0 = time.perf_counter()
    for seed in range(20):
        tup, _ = gen_conjugate_negative(seed=seed)
        full = kth_power_test(list(tup.matrices), k=2, n=3, seed=seed)
        assert full.is_kth_power, f"seed {seed}: full tuple failed the square test"
        rep = analyze(tup, 2, seed=seed)
        assert rep.overall == "fail", f"seed {seed}: analyze returned {rep.overall}"
        with pytest.raises(CycleInconsistency) as err:
            decompose(tup, 2)
        assert len(err.value.cycle) == 3
    elapsed = time.perf_counter() - t0
    emit(
        4,
        elapsed < 10.0,
        f"20 obstruction instances: square test passes, analysis fails, splitting "
        f"aborts naming a 3-cycle, {elapsed:.2f}s (< 10s)",
    )


def test_criterion_5_first_order_identity(battery):
    records, _ = battery
    worst = 0.0
    for rec in records:
        shifted, _ = shift_to_invertible(rec.tuple)
        sd = eigendecompose_clustered(shifted.matrices[0])
        for l in range(2, rec.m + 1):
            scale = float(np.linalg.norm(shifted.matrices[l - 1], 2))
            for i in range(sd.n):
                resid = verify_first_order_identity(shifted, sd, i, l)
                worst = max(worst, resid / max(scale, 1e-300))
    emit(
        5,
        worst <= 1e-7,
        f"compression identity over all clusters and generators of the battery, "
        f"worst residual/||A_l|| = {worst:.3e} (bound 1e-7)",
    )


def test_criterion_6_cycle_identity(battery):
    records, _ = battery
    worst = 0.0
    checked = 0
    for rec in records:
        shifted, _ = shift_to_invertible(rec.tuple)
        sd = eigendecompose_clustered(shifted.matrices[0])
        blocks = extract_block_structure(shifted, sd)
        scales = [norm_scale(a) for a in shifted.matrices[1:]]
        bs = unify_layers(blocks, scales)
        for i in range(rec.n):
            for j in range(i + 1, rec.n):
                for l in range(j + 1, rec.n):
                    if all(p in bs.pairs for p in ((i, j), (j, l), (l, i))):
                        _, resid = verify_cycle_identity(bs, (i, j, l))
                        worst = max(worst, resid)
                        checked += 1
    emit(
        6,
        worst <= 1e-7 and checked > 0,
        f"{checked} three-cycles with nonzero coefficients, worst distance from a "
        f"unimodular scalar = {worst:.3e} (bound 1e-7)",
    )


def test_criterion_7_derivative_anchor():
    worst = 0.0
    a1, a2 = np.diag([1.0, 2.0]).astype(complex), np.diag([3.0, 4.0]).astype(complex)
    sd = eigendecompose_clustered(a1)
    worst = max(worst, abs(branch_derivative([a1, a2], sd, 0) - (-3.0)))
    worst = max(worst, abs(branch_derivative([a1, a2], sd, 1) - (-2.0)))
    rng = np.random.default_rng(707)
    for _ in range(5):
        lams = np.sort(rng.uniform(0.5, 3.0, size=3))
        ws = rng.standard_normal(3)
        d1, d2 = np.diag(lams).astype(complex), np.diag(ws).astype(complex)
        sdd = eigendecompose_clustered(d1)
        for j in range(3):
            got = branch_derivative([d1, d2], sdd, j)
            worst = max(worst, abs(got - (-ws[j] / lams[j])))
    # closed-form slope of the reduced axis polynomial on diag(1, 2)
    q = restrict_pencil_to_line([np.diag([1.0, 2.0]).astype(complex)], [0.0], [1.0])
    formula = axis_derivative_closed_form([1.0, 2.0], 0)
    anchor_err = max(abs(formula - 1.0), abs(q.derivative()(1.0) - formula))
    worst = max(worst, anchor_err)
    emit(
        7,
        worst <= 1e-10,
        f"analytic slopes on commuting diagonal pairs and the reduced axis "
        f"derivative anchor, worst error = {worst:.3e} (bound 1e-10)",
    )


def test_criterion_8_word_count_conformance():
    ok = True
    details = []
    for n in (1, 2, 3, 4):
        for m in (2, 3):
            words, truncated = enumerate_words(n, m, mode="all")
            want = count_words(n, m, "all")
            ok = ok and not truncated and len(words) == want
            details.append(f"n={n},m={m}:{len(words)}")
    ok = ok and count_words(3, 3, "all") == 62
    emit(8, ok, f"enumeration matches the closed form exactly ({', '.join(details)})")


def _run_cli(threads, argv):
    old = os.environ.get("PENCIL_THREADS")
    os.environ["PENCIL_THREADS"] = threads
    try:
        return cli_main(argv)
    finally:
        if old is None:
            os.environ.pop("PENCIL_THREADS", None)
        else:
            os.environ["PENCIL_THREADS"] = old


def _strip_timestamp(text):
    return re.sub(r'"timestamp": "[^"]*"', '"timestamp": null', text)


def test_criterion_9_determinism(tmp_path):
    pos = tmp_path / "pos.json"
    neg = tmp_path / "neg.json"
    assert _run_cli("1", [
        "generate", "--family", "decomposable", "--n", "3", "--k", "2", "--m", "3",
        "--seed", "3230", "--out", str(pos),
    ]) == 0
    assert _run_cli("1", [
        "generate", "--family", "conjugate_negative", "--seed", "5", "--out", str(neg),
    ]) == 0
    ok = True
    for src, k in ((pos, 2), (neg, 2)):
        for cmd in ("analyze", "decompose"):
            o1 = tmp_path / f"{src.stem}-{cmd}-1.json"
            o2 = tmp_path / f"{src.stem}-{cmd}-2.json"
            argv = [cmd, str(src), "--k", str(k), "--seed", "17"]
            c1 = _run_cli("1", argv + ["--out", str(o1)])
            c2 = _run_cli("6", argv + ["--out", str(o2)])
            ok = ok and c1 == c2
            ok = ok and _strip_timestamp(o1.read_text()) == _strip_timestamp(o2.read_text())
    emit(
        9,
        ok,
        "analyze and decompose reports byte-identical across reruns and worker "
        "counts (timestamp field excluded)",
    )
