import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pencilspec.charpoly import kth_power_test
from pencilspec.config import DEFAULT
from pencilspec.errors import NotHermitian
from pencilspec.linalg import HermitianTuple
from pencilspec.reference import (
    DegenerateDirection,
    GridTooLarge,
    MultiPoly,
    SingularTransform,
    UniPoly,
    apply_tuple_map,
    axis_derivative_closed_form,
    branch_derivative,
    cluster_roots,
    coefficient_distance,
    eigendecompose_clustered,
    pencil_charpoly,
    restrict_pencil_to_line,
    transform_tuple_vars,
)

from conftest import rand_hermitian


def diag(*vals):
    return np.diag(np.asarray(vals, dtype=np.complex128))


class TestPencilCharpoly:
    def test_commuting_diagonal_expansion(self):
        # (x1 + 3 x2 - 1)(2 x1 + 4 x2 - 1), expanded by hand
        p = pencil_charpoly([diag(1, 2), diag(3, 4)])
        want = {
            (2, 0): 2.0,
            (1, 1): 10.0,
            (0, 2): 12.0,
            (1, 0): -3.0,
            (0, 1): -7.0,
            (0, 0): 1.0,
        }
        assert set(p.terms) == set(want)
        for exps, c in want.items():
            assert p.terms[exps] == pytest.approx(c, abs=1e-12)

    def test_single_matrix(self):
        p = pencil_charpoly([diag(1)])
        assert set(p.terms) == {(1,), (0,)}
        assert p.terms[(1,)] == pytest.approx(1.0)
        assert p.terms[(0,)] == pytest.approx(-1.0)

    def test_matches_direct_determinant(self):
        rng = np.random.default_rng(13)
        mats = [rand_hermitian(7, rng) for _ in range(2)]
        p = pencil_charpoly(mats)
        pts = rng.standard_normal((20, 2)) + 1j * rng.standard_normal((20, 2))
        for x in pts:
            direct = np.linalg.det(x[0] * mats[0] + x[1] * mats[1] - np.eye(7))
            assert abs(p.evaluate(x) - direct) <= 1e-8 * max(1.0, abs(direct))

    def test_constant_term(self):
        rng = np.random.default_rng(5)
        for n in (3, 6, 9):
            mats = [rand_hermitian(n, rng) for _ in range(2)]
            p = pencil_charpoly(mats)
            assert abs(p.constant_term() - (-1.0) ** n) <= 1e-10

    def test_real_on_real_points_for_hermitian(self):
        rng = np.random.default_rng(42)
        mats = [rand_hermitian(6, rng) for _ in range(3)]
        p = pencil_charpoly(mats)
        pts = rng.standard_normal((20, 3))
        vals = p.evaluate(pts.astype(np.complex128))
        assert np.all(np.abs(vals.imag) <= 1e-9 * np.maximum(1.0, np.abs(vals)))

    def test_grid_cap(self):
        with pytest.raises(GridTooLarge):
            pencil_charpoly([diag(1, 2), diag(3, 4)], grid_cap=4)
        with pytest.raises(GridTooLarge):
            pencil_charpoly([diag(1)] * 4)


class TestRestrictToLine:
    def test_axis_restriction(self):
        q = restrict_pencil_to_line([diag(1, 2)], base=[0.0], direction=[1.0])
        # (t - 1)(2t - 1) = 1 - 3t + 2t^2
        assert np.allclose(q.coeffs, [1.0, -3.0, 2.0], atol=1e-12)

    def test_constant_term_at_origin(self):
        rng = np.random.default_rng(3)
        mats = [rand_hermitian(5, rng) for _ in range(2)]
        q = restrict_pencil_to_line(mats, base=[0.0, 0.0], direction=[1.0, 0.5 + 0.5j])
        assert abs(q(0.0) - (-1.0) ** 5) <= 1e-10

    def test_matches_full_expansion(self):
        rng = np.random.default_rng(17)
        mats = [rand_hermitian(5, rng) for _ in range(2)]
        p = pencil_charpoly(mats)
        a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        d = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        q = restrict_pencil_to_line(mats, a, d)
        for t in rng.standard_normal(10) + 1j * rng.standard_normal(10):
            full = p.evaluate(a + t * d)
            assert abs(q(t) - full) <= 1e-9 * max(1.0, abs(full))

    def test_degenerate_direction(self):
        with pytest.raises(DegenerateDirection):
            restrict_pencil_to_line([diag(1, 0)], base=[0.0], direction=[1.0])


class TestClusterRoots:
    def test_pairs_example(self):
        clusters = cluster_roots([1.0, 1.0 + 1e-9, 2.0], tol=1e-6)
        assert sorted(c.size for c in clusters) == [1, 2]

    def test_empty(self):
        assert cluster_roots([], tol=1e-6) == []

    def test_perturbed_double_roots(self):
        rng = np.random.default_rng(4)
        centers = np.array([0.0, 1.0, 2.0 + 1.0j])
        pts = np.concatenate([centers + rng.normal(0, 1e-8, 3) * 1j, centers])
        clusters = cluster_roots(pts, tol=1e-6)
        assert sorted(c.size for c in clusters) == [2, 2, 2]

    @given(
        st.lists(
            st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=12,
        ),
        st.floats(min_value=1e-9, max_value=1.0),
        st.lists(st.integers(min_value=0, max_value=40), max_size=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_partition_property(self, pts, tol, steps):
        # Points 0.6 tol apart along a ray from pts[0] form chains whose ends
        # are more than tol apart, so only a transitive closure joins them.
        pts = pts + [pts[0] + 0.6 * tol * s for s in steps]
        clusters = cluster_roots(pts, tol)
        merged = np.concatenate(clusters)
        assert merged.size == len(pts)
        assert sorted(merged.tolist(), key=lambda z: (z.real, z.imag)) == sorted(
            [complex(p) for p in pts], key=lambda z: (z.real, z.imag)
        )
        # single linkage: clusters are separated by more than tol ...
        for i, a in enumerate(clusters):
            for b in clusters[i + 1 :]:
                assert np.min(np.abs(a[:, None] - b[None, :])) > tol
        # ... and each one is connected in its own <= tol graph
        for c in clusters:
            adj = np.abs(c[:, None] - c[None, :]) <= tol
            reached = np.zeros(c.size, dtype=bool)
            reached[0] = True
            for _ in range(c.size):
                reached |= adj[reached].any(axis=0)
            assert reached.all()
        keys = [(round(float(np.mean(c.real)), 12), round(float(np.mean(c.imag)), 12))
                for c in clusters]
        assert keys == sorted(keys)

    def test_singletons_for_tiny_tol(self):
        pts = [0.0, 1.0, 2.0]
        clusters = cluster_roots(pts, tol=1e-12)
        assert all(c.size == 1 for c in clusters)


class TestKthPowerTest:
    def test_explicit_square(self):
        v = kth_power_test([diag(1, 1, 2, 2), diag(3, 3, 4, 4)], k=2, n=2, seed=0)
        assert v.is_kth_power
        assert all(sizes == (2, 2) for sizes, _ in v.per_line_clusters)

    def test_failing_pencil_golden(self):
        # Line profiles mix (1, 3) and (3, 1), so both the per-line records
        # and the first failing line are pinned.
        v = kth_power_test([diag(1, 1, 1, 2), diag(3, 3, 3, 5)], k=2, n=2, seed=0)
        assert not v.is_kth_power
        assert v.per_line_clusters == (
            ((1, 3), 0.0),
            ((3, 1), 0.0),
            ((3, 1), 0.0),
            ((3, 1), 0.0),
            ((1, 3), 0.0),
            ((1, 3), 0.0),
            ((1, 3), 0.0),
            ((1, 3), 0.0),
        )
        assert v.failure_reason == "line 0: cluster sizes (1, 3), spread 0.000e+00"

    def test_nonpositive_cluster_tolerance_rejected(self):
        from pencilspec.config import Tolerances

        for rel in (0.0, -1e-6):
            with pytest.raises(ValueError):
                kth_power_test([diag(1, 1, 2, 2), diag(3, 3, 4, 4)], k=2, n=2,
                               tol=Tolerances(resolution=rel))

    def test_simple_spectrum_is_not_square(self):
        v = kth_power_test([diag(1, 2)], k=2, n=1, seed=0)
        assert not v.is_kth_power

    def test_decomposable_instance(self):
        from pencilspec.instances import gen_decomposable

        tup, _ = gen_decomposable(3, 2, 2, seed=1)
        v = kth_power_test(list(tup.matrices), k=2, n=3, seed=5)
        assert v.is_kth_power
        assert v.worst_spread <= 1e-8

    def test_conjugate_negative_full_tuple_is_square(self):
        from pencilspec.instances import gen_conjugate_negative

        tup, _ = gen_conjugate_negative(seed=1)
        v = kth_power_test(list(tup.matrices), k=2, n=3, seed=5)
        assert v.is_kth_power

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            kth_power_test([diag(1, 2)], k=2, n=2, seed=0)

    @pytest.mark.parametrize("mats", [
        [],
        [diag(1, 2), diag(1, 2, 3)],
        [np.ones((2, 3)), np.ones((2, 3))],
        [np.ones(2), np.ones(2)],
    ], ids=["empty", "unequal", "non-square", "vectors"])
    def test_malformed_generators_rejected(self, mats):
        # refused as HermitianTuple refuses them, message and all
        with pytest.raises(ValueError, match="^generators must be a non-empty") as tuple_refusal:
            HermitianTuple(mats)
        with pytest.raises(ValueError) as raised:
            kth_power_test(mats, 1, 1)
        assert str(raised.value) == str(tuple_refusal.value)

    @pytest.mark.parametrize("route", [
        lambda mats: pencil_charpoly(mats),
        lambda mats: restrict_pencil_to_line(mats, [], [1.0]),
        lambda mats: branch_derivative(mats, eigendecompose_clustered(diag(1, 1, 2, 2)), 0),
    ], ids=["pencil_charpoly", "restrict_pencil_to_line", "branch_derivative"])
    @pytest.mark.parametrize("mats, message", [
        ([], "at least one array"),
        ([diag(1, 2), diag(1, 2, 3)], "same shape"),
        ([np.ones((2, 3)), np.ones((2, 3))], "square and equal-sized"),
    ], ids=["empty", "unequal", "non-square"])
    def test_reference_routes_reject_malformed_generators(self, route, mats, message):
        with pytest.raises(ValueError, match=message):
            route(mats)

    def test_needs_four_lines(self):
        from pencilspec.config import Tolerances
        with pytest.raises(ValueError):
            kth_power_test([diag(1, 1)], k=2, n=1, seed=0, tol=Tolerances(lines=2))

    def test_deterministic_in_seed(self):
        from pencilspec.instances import gen_decomposable

        tup, _ = gen_decomposable(2, 2, 2, seed=3)
        v1 = kth_power_test(list(tup.matrices), k=2, n=2, seed=9)
        v2 = kth_power_test(list(tup.matrices), k=2, n=2, seed=9)
        assert v1 == v2

    # A shared kernel puts a root at infinity on every line: a zero
    # eigenvalue of q . A, clustered like any other.
    def test_shared_kernel_simple_root_at_infinity(self):
        v = kth_power_test([diag(1, 0), diag(2, 0)], k=1, n=2, seed=0)
        assert v.is_kth_power

    def test_shared_kernel_double_root_at_infinity(self):
        v = kth_power_test([diag(1, 1, 0, 0), diag(2, 2, 0, 0)], k=2, n=2, seed=0)
        assert v.is_kth_power
        assert all(sizes == (2, 2) for sizes, _ in v.per_line_clusters)

    def test_shared_kernel_simple_root_at_infinity_is_not_square(self):
        v = kth_power_test([diag(1, 1, 1, 0), diag(2, 2, 2, 0)], k=2, n=2, seed=0)
        assert not v.is_kth_power
        assert all(sorted(sizes) == [1, 3] for sizes, _ in v.per_line_clusters)


def reference_verdict(mats, k, n, seed, lines=8):
    """The per-line loop the batched test replaced, kept as its reference:
    one pencil, one line at a time, every direction from one draw of the
    pencil's generator.  ``q . A`` is formed as the batch forms it, one
    pencil at a time; each line then gets its own ``eigvalsh`` and its
    clusters are the runs between sorted gaps above the cluster tolerance."""
    from pencilspec.charpoly import KPowerVerdict, _draw_directions
    from pencilspec.config import DEFAULT

    gen = np.stack(mats).astype(np.complex128)
    m, dim = gen.shape[0], gen.shape[-1]
    dirs = _draw_directions(np.random.default_rng(seed), lines, m)
    line_mats = (dirs @ gen.view(np.float64).reshape(m, -1)).view(np.complex128)
    records, reason, failing, worst = [], "", None, 0.0
    for li in range(lines):
        lams = np.linalg.eigvalsh(line_mats[li].reshape(dim, dim))
        ctol = DEFAULT.cluster_rel * (1.0 + float(np.max(np.abs(lams))))
        runs = [[lams[0]]]
        for lo, hi in zip(lams[:-1], lams[1:]):
            if hi - lo > ctol:
                runs.append([hi])
            else:
                runs[-1].append(hi)
        sizes = tuple(len(r) for r in runs)
        spread = max(float(r[-1] - r[0]) for r in runs)
        worst = max(worst, spread)
        records.append((sizes, spread))
        if failing is None and not (all(x % k == 0 for x in sizes) and spread <= ctol):
            failing = li
            reason = f"line {li}: cluster sizes {sizes}, spread {spread:.3e}"
    return KPowerVerdict(failing is None, k, n, tuple(records), worst, reason, failing)


def verdicts_by_init(lams, k, n):
    """The verdicts of line spectra ``(P, lines, N)`` through
    ``KPowerVerdict(...)``, one line at a time in Python floats: the
    reference of ``charpoly._verdicts``, which skips the dataclass's
    ``__init__``."""
    from pencilspec.charpoly import KPowerVerdict

    verdicts = []
    for rows in lams.tolist():
        records, reason, failing = [], "", None
        for li, lam in enumerate(rows):
            ctol = DEFAULT.cluster_rel * (1.0 + max(-lam[0], lam[-1]))
            runs = [[lam[0]]]
            for lo, hi in zip(lam, lam[1:]):
                if hi - lo > ctol:
                    runs.append([hi])
                else:
                    runs[-1].append(hi)
            sizes = tuple(len(r) for r in runs)
            spread = max(r[-1] - r[0] for r in runs)
            records.append((sizes, spread))
            if failing is None and not (all(s % k == 0 for s in sizes) and spread <= ctol):
                failing, reason = li, f"line {li}: cluster sizes {sizes}, spread {spread:.3e}"
        worst = max(spread for _, spread in records)
        verdicts.append(KPowerVerdict(failing is None, k, n, tuple(records), worst, reason, failing))
    return verdicts


class TestVerdicts:
    """``_verdicts`` builds its verdicts without ``KPowerVerdict.__init__``;
    they must equal, field by field and in type, the ones it builds.  A
    word's ``failure_reason`` appears in no report, so only this catches a
    wrong one."""

    # (k, n) of the synthetic spectra, N = 1 and one cluster among them
    SYNTHETIC = [(2, 3), (3, 2), (1, 4), (4, 1), (2, 1), (1, 1)]

    @staticmethod
    def battery_spectra(monkeypatch, tup, k):
        """The line spectra that ``analyze`` turns into word verdicts, and
        the full tuple's."""
        from pencilspec import conditions

        seen, spectra = [], conditions._spectra

        def recording(*args):
            seen.append(spectra(*args))
            return seen[-1]

        monkeypatch.setattr(conditions, "_spectra", recording)
        # in one process: a forked share's spectra never reach this one
        monkeypatch.setattr(conditions, "_share_count", lambda *args: 1)
        conditions.analyze(tup, k)
        return np.concatenate(seen)

    @staticmethod
    def synthetic_spectra(k, n, rng, pencils=32, lines=8):
        """Sorted spectra whose pencils cycle through four kinds of lines: n
        clusters of size k, clusters merged into multiples of k, clusters of
        any sizes, and n clusters of size k spread over 3 cluster tolerances
        (the others stay within 0.3 of one).  Pencil p takes its kind from
        line p % lines on, n clusters of size k before it."""

        def composition(total):
            cuts = rng.choice(np.arange(1, total), rng.integers(0, total), replace=False)
            return np.diff([0, *sorted(cuts), total])

        dim = n * k
        out = np.empty((pencils, lines, dim))
        for p, row in itertools.product(range(pencils), range(lines)):
            kind = "rmow"[p % 4] if row >= p % lines else "r"
            sizes = {"m": k * composition(n), "o": composition(dim)}.get(kind, [k] * n)
            centers = np.cumsum(rng.uniform(0.2, 1.0, len(sizes))) - 2.0
            ctol = DEFAULT.cluster_rel * (1.0 + np.max(np.abs(centers)))
            width = (3.0 if kind == "w" else 0.3) * ctol
            out[p, row] = np.sort(np.repeat(centers, sizes) + rng.uniform(0, width, dim))
        return out

    def assert_equal_to_init(self, lams, k, n):
        from pencilspec.charpoly import _verdicts

        got, want = _verdicts(lams, k, n, DEFAULT), verdicts_by_init(lams, k, n)
        assert got == want
        for g, w in zip(got, want):
            assert hash(g) == hash(w)
            assert type(g.is_kth_power) is bool and type(g.k) is int and type(g.n) is int
            assert type(g.worst_spread) is float and type(g.failure_reason) is str
            assert g.failing_line is None or type(g.failing_line) is int
            assert type(g.per_line_clusters) is tuple
            for record in g.per_line_clusters:
                assert type(record) is tuple and type(record[1]) is float
                assert type(record[0]) is tuple and {type(s) for s in record[0]} == {int}
        return got

    def test_decomposable_battery(self, monkeypatch):
        from pencilspec.instances import gen_decomposable

        lams = self.battery_spectra(monkeypatch, gen_decomposable(4, 3, 3, seed=7)[0], 3)
        got = self.assert_equal_to_init(lams, 3, 4)
        assert all(v.is_kth_power for v in got) and len(got) > 200

    def test_failing_conjugate_negative_words(self, monkeypatch):
        from pencilspec.instances import gen_conjugate_negative

        lams = self.battery_spectra(monkeypatch, gen_conjugate_negative(1)[0], 2)
        got = self.assert_equal_to_init(lams, 2, lams.shape[-1] // 2)
        failing = [v for v in got if not v.is_kth_power]
        assert failing

    @pytest.mark.parametrize("k, n", SYNTHETIC)
    def test_profiles_other_than_n_clusters_of_k(self, k, n):
        lams = self.synthetic_spectra(k, n, np.random.default_rng(10 * k + n))
        got = self.assert_equal_to_init(lams, k, n)
        profiles = {sizes for v in got for sizes, _ in v.per_line_clusters}
        if k * n > 1:
            assert profiles - {(k,) * n}
            assert any(v.is_kth_power for v in got)
        if k > 1:
            # failing lines past line 0, named by failure_reason
            assert {v.failing_line for v in got} - {None, 0}
        if n > 1:
            # merged clusters pass with a profile of their own
            assert any(v.is_kth_power and {s for s, _ in v.per_line_clusters} - {(k,) * n}
                       for v in got)

    @pytest.mark.parametrize(
        "spectra",
        ["decomposable-battery", "negative-words", *(f"synthetic-{k}-{n}" for k, n in SYNTHETIC)],
    )
    def test_line_tests_in_slices_give_the_verdicts(self, monkeypatch, spectra):
        """The battery tests its lines a slice of pencils at a time and makes
        a share's verdicts from the joined tests: at any cut points, that is
        ``_verdicts`` of the whole stack, and so is each slice's verdicts
        joined."""
        from pencilspec.charpoly import _line_tests, _tested_verdicts, _verdicts
        from pencilspec.instances import gen_conjugate_negative, gen_decomposable

        if spectra == "decomposable-battery":
            k, lams = 3, self.battery_spectra(monkeypatch, gen_decomposable(4, 3, 3, seed=7)[0], 3)
        elif spectra == "negative-words":
            k, lams = 2, self.battery_spectra(monkeypatch, gen_conjugate_negative(1)[0], 2)
        else:
            k, n = map(int, spectra.split("-")[1:])
            lams = self.synthetic_spectra(k, n, np.random.default_rng(10 * k + n))
        n, pencils = lams.shape[-1] // k, len(lams)
        want = _verdicts(lams, k, n, DEFAULT)
        assert want == verdicts_by_init(lams, k, n)
        for cuts in ([], [0], [1], [pencils // 2], [1, 2, pencils - 1], range(pencils)):
            tests = [_line_tests(part, k, DEFAULT) for part in np.split(lams, list(cuts))]
            gaps, spreads, ok = (np.concatenate(t, axis=a) for t, a in zip(zip(*tests), (1, 0, 0)))
            assert _tested_verdicts(gaps, spreads, ok, k, n) == want
            assert sum((_tested_verdicts(*t, k, n) for t in tests), []) == want

    def test_verdicts_stay_frozen(self):
        import dataclasses

        from pencilspec.charpoly import _verdicts

        v = _verdicts(self.synthetic_spectra(2, 2, np.random.default_rng(1), 1), 2, 2, DEFAULT)[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            v.k = 3


class TestOutsidePencils:
    GOLDEN = [diag(1, 1, 1, 2), diag(3, 3, 3, 5)]
    GOLDEN_LINES = (
        ((1, 3), 0.0),
        ((3, 1), 0.0),
        ((3, 1), 0.0),
        ((3, 1), 0.0),
        ((1, 3), 0.0),
        ((1, 3), 0.0),
        ((1, 3), 0.0),
        ((1, 3), 0.0),
    )

    def stack(self):
        # passing pencils, the failing golden pencil (unequal cluster sizes)
        # and a rotated pencil whose generators share a two-dimensional
        # kernel, so every line has a double root at infinity
        from pencilspec.instances import gen_decomposable, haar_unitary

        q = haar_unitary(4, 3)
        kernel = [q @ diag(1, 1, 0, 0) @ q.conj().T, q @ diag(3, 3, 0, 0) @ q.conj().T]
        pencils = [
            [diag(1, 1, 2, 2), diag(3, 3, 4, 4)],
            list(gen_decomposable(2, 2, 2, seed=1)[0].matrices),
            self.GOLDEN,
            [(a + a.conj().T) / 2 for a in kernel],
            list(gen_decomposable(2, 2, 2, seed=2)[0].matrices),
        ]
        return np.stack([np.stack(p) for p in pencils]), [7, 5, 0, 0, 11]

    def test_kth_power_test_is_the_one_outside_entry(self):
        import pencilspec
        import pencilspec.charpoly as charpoly

        assert charpoly.__all__ == ["KPowerVerdict", "kth_power_test"]
        assert pencilspec.kth_power_test is kth_power_test
        assert not hasattr(charpoly, "kth_power_batch")
        assert not hasattr(pencilspec, "kth_power_batch")

    def test_verdicts_equal_per_line_reference(self):
        gens, seeds = self.stack()
        reference = [reference_verdict(list(g), 2, 2, s) for g, s in zip(gens, seeds)]
        verdicts = [kth_power_test(list(g), k=2, n=2, seed=s) for g, s in zip(gens, seeds)]
        assert verdicts == reference
        assert [v.is_kth_power for v in verdicts] == [True, True, False, True, True]
        assert verdicts[2].per_line_clusters == self.GOLDEN_LINES
        assert verdicts[2].failure_reason == "line 0: cluster sizes (1, 3), spread 0.000e+00"
        assert verdicts[3].worst_spread > 0.0  # the rotation leaves rounding in the roots

    def test_kth_power_test_builds_one_generator(self, monkeypatch):
        # one generator per call, whatever the number of lines
        gens, seeds = self.stack()
        built = []
        default_rng = np.random.default_rng

        def counting(seed):
            built.append(seed)
            return default_rng(seed)

        monkeypatch.setattr(np.random, "default_rng", counting)
        kth_power_test(list(gens[0]), k=2, n=2, seed=seeds[0])
        assert built == seeds[:1]

    def test_rejects_a_non_hermitian_generator(self):
        gens, seeds = self.stack()
        gens[3, 1, 0, 2] += 1e-6  # one entry off its conjugate partner
        with pytest.raises(ValueError, match="Hermitian"):
            kth_power_test(list(gens[3]), k=2, n=2, seed=seeds[3])

    def test_accepts_a_rotated_hermitian_generator(self):
        # a Haar rotation leaves a defect at rounding level, which the
        # relative admission bound lets through
        from pencilspec.instances import haar_unitary

        u = haar_unitary(4, 8)
        gens = [u @ g @ u.conj().T for g in (diag(1, 1, 2, 2), diag(3, 3, 4, 4))]
        defect = max(float(np.max(np.abs(g - g.conj().T))) for g in gens)
        assert 0.0 < defect <= 1e-14
        assert kth_power_test(gens, k=2, n=2, seed=3).is_kth_power

    def test_exact_first_admission_keeps_verdicts_and_message(self):
        # exact and rounding-level pencils get the reference verdicts, and a
        # pencil above the bound the tuple rule's message: the first generator
        # whose defect exceeds hermitian_rel times its spectral norm
        from pencilspec.instances import haar_unitary

        gens, seeds = self.stack()
        assert np.array_equal(gens, np.swapaxes(gens, -1, -2).conj())
        u = haar_unitary(4, 8)
        rotated = u @ gens @ u.conj().T
        defect = np.max(np.abs(rotated - np.swapaxes(rotated, -1, -2).conj()), axis=(-2, -1))
        assert 0.0 < np.max(defect) <= 1e-14
        for stack in (gens, rotated):
            for g, s in zip(stack, seeds):
                assert kth_power_test(list(g), k=2, n=2, seed=s) == reference_verdict(list(g), 2, 2, s)
        rotated[3, 1, 0, 2] += 1e-6
        bad = rotated[3, 1]
        defect = np.max(np.abs(bad - bad.conj().T))
        bound = DEFAULT.hermitian_rel * np.linalg.norm(bad, 2)
        assert defect > bound
        with pytest.raises(NotHermitian) as raised:
            kth_power_test(list(rotated[3]), k=2, n=2, seed=seeds[3])
        assert str(raised.value) == f"Hermitian defect {defect:.3e} exceeds {bound:.3e}"

    def test_nan_entry_is_rejected(self):
        # the pencil is refused before the eigensolver, which reads one
        # triangle only and would ignore or mangle the entry
        gens, seeds = self.stack()
        gens[1, 1, 0, 1] = gens[1, 1, 1, 0] = np.nan
        with pytest.raises(ValueError, match="^matrix entries must be finite$"):
            kth_power_test(list(gens[1]), k=2, n=2, seed=seeds[1])

    @pytest.mark.parametrize(
        "value, entries",
        [(np.nan, [(0, 1)]), (np.nan, [(0, 0)]), (np.nan, [(1, 0)]),
         (np.inf, [(0, 1), (1, 0)]), (np.inf, [(0, 1)]), (-np.inf, [(2, 2)]),
         (complex(1.0, np.inf), [(3, 2)])],
        ids=["nan-upper", "nan-diagonal", "nan-lower", "inf-hermitian-pair", "inf-upper",
             "inf-diagonal", "inf-imaginary-lower"],
    )
    def test_non_finite_entry_is_rejected(self, value, entries):
        # before, these passed, failed with a NaN spread or raised
        # LinAlgError, by where the entry sat; an exactly Hermitian inf pair
        # is refused too
        second = diag(3, 3, 4, 4)
        for entry in entries:
            second[entry] = value
        with pytest.raises(ValueError, match="^matrix entries must be finite$"):
            kth_power_test([diag(1, 1, 2, 2), second], k=2, n=2, seed=1)

    def test_chain_merges_transitively(self):
        # Relative to cluster_rel (1 + max|lambda|), consecutive points of the
        # chain sit 0.6 ctol apart on every line, so sorted-gap linkage joins
        # all four although the ends are 1.8 ctol apart; the spread is the
        # chain's range, which fails the test.
        from pencilspec.charpoly import _draw_directions

        top, step = 1e8, 0.6e8 * DEFAULT.cluster_rel
        chain = [top - 3 * step, top - 2 * step, top - step, top]
        v = kth_power_test([diag(5e7, 5e7, *chain)], k=2, n=3, seed=4)
        q = _draw_directions(np.random.default_rng(4), DEFAULT.lines, 1)[:, 0]
        for qi, (sizes, spread) in zip(q, v.per_line_clusters):
            assert sizes == ((2, 4) if qi > 0 else (4, 2))
            assert spread == pytest.approx(3 * step * abs(qi), rel=1e-6)
        assert not v.is_kth_power
        assert v.failing_line == 0

    def test_overflowing_lines_are_rejected(self):
        # finite generators whose line combinations overflow: before, a
        # failing verdict with spread nan after an overflow RuntimeWarning,
        # which filterwarnings = error turns into a test failure; 8e307 is
        # below half the float maximum, so admission lets it through
        with pytest.raises(ValueError, match=r"^line combinations q \. A overflow"):
            kth_power_test([8e307 * np.eye(2), np.eye(2)], k=2, n=1, seed=0)

    @pytest.mark.parametrize("gen", [
        np.array([[0, 1.7e308], [-1.7e308, 0]]),
        np.diag([1.5e308j, 1.5e308]),
        np.diag([1.7e308 + 1.7e308j, 1]),
    ], ids=["antisymmetric", "imaginary-diagonal", "complex-diagonal"])
    def test_finite_entries_near_the_maximum_are_refused_without_a_warning(self, gen):
        # the defect |G - G^H| or the Hermitian part (G + G^H) / 2 overflows
        # on these finite entries: they warned before, and filterwarnings =
        # error turns a warning into a failure; an infinite defect is not
        # Hermitian, and an overflowing Hermitian part is refused as such
        with pytest.raises(ValueError):
            kth_power_test([gen.astype(complex), np.eye(2)], k=2, n=1, seed=1)

    def test_large_lines_below_the_overflow_bound_are_tested(self):
        v = kth_power_test([1e300 * np.eye(2), np.eye(2)], k=2, n=1, seed=0)
        assert v.is_kth_power
        assert v.worst_spread == 0.0


class TestTransformVars:
    def test_identity(self):
        p = MultiPoly(2, {(1, 0): 1.0, (0, 0): -1.0})
        q = transform_tuple_vars(p, np.eye(2))
        assert coefficient_distance(p, q) <= 1e-12

    def test_swap(self):
        p = MultiPoly(2, {(1, 0): 1.0, (0, 0): -1.0})
        q = transform_tuple_vars(p, np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert set(q.terms) == {(0, 1), (0, 0)}
        assert q.terms[(0, 1)] == pytest.approx(1.0)

    def test_transformation_law(self):
        rng = np.random.default_rng(23)
        for m in (2, 3):
            mats = [rand_hermitian(4, rng) for _ in range(m)]
            tup = HermitianTuple(tuple(mats))
            c = np.eye(m) + 0.1 * rng.uniform(-1, 1, (m, m))
            lhs = pencil_charpoly(list(apply_tuple_map(tup, c).matrices))
            rhs = transform_tuple_vars(pencil_charpoly(mats), c)
            assert coefficient_distance(lhs, rhs) <= 1e-8

    def test_singular_transform(self):
        p = MultiPoly(2, {(1, 0): 1.0})
        with pytest.raises(SingularTransform):
            transform_tuple_vars(p, np.zeros((2, 2)))


class TestBranchDerivative:
    def test_commuting_diagonal_slopes(self):
        a1, a2 = diag(1, 2), diag(3, 4)
        sd = eigendecompose_clustered(a1)
        assert branch_derivative([a1, a2], sd, 0) == pytest.approx(-3.0, abs=1e-10)
        assert branch_derivative([a1, a2], sd, 1) == pytest.approx(-2.0, abs=1e-10)

    def test_clusters_too_close_to_track(self):
        # A_1's eigenvalues 1 and 1 + 1e-6 are two clusters (the gap is 100
        # times the split threshold), but at the step 1e-4 the branches
        # through 1 and 1/(1 + 1e-6) sit 1e-4 apart, closer than three steps
        from pencilspec.reference import BranchTrackingLost

        a2 = diag(3, 4)
        sd = eigendecompose_clustered(diag(1, 1 + 1e-6))
        assert sd.multiplicities == (1, 1)
        with pytest.raises(BranchTrackingLost, match="not separated"):
            branch_derivative([diag(1, 1 + 1e-6), a2], sd, 0)
        # a step small against the gap tracks the same branch
        slope = branch_derivative([diag(1, 1 + 1e-6), a2], sd, 0, eps=1e-9)
        assert slope == pytest.approx(-3.0, rel=1e-5)

    def test_random_commuting_pairs(self):
        rng = np.random.default_rng(31)
        lams = np.array([0.7, 1.3, 2.2])
        ws = rng.standard_normal(3)
        a1, a2 = diag(*lams), diag(*ws)
        sd = eigendecompose_clustered(a1)
        for j in range(3):
            want = -ws[j] / lams[j]
            got = branch_derivative([a1, a2], sd, j)
            assert got == pytest.approx(want, abs=1e-10)

    def test_axis_derivative_formula_on_disk_example(self):
        # slope of (x-1)(2x-1) at x=1 is 1; the closed form gives the same
        q = restrict_pencil_to_line([diag(1, 2)], base=[0.0], direction=[1.0])
        numeric = q.derivative()(1.0)
        closed = axis_derivative_closed_form([1.0, 2.0], 0)
        assert closed == pytest.approx(1.0, abs=1e-12)
        assert abs(numeric - closed) <= 1e-10
        assert axis_derivative_closed_form([1.0, 2.0], 1) == pytest.approx(-1.0)

    def test_axis_derivative_formula_random(self):
        rng = np.random.default_rng(12)
        lams = np.sort(rng.uniform(0.5, 3.0, size=4))
        q = restrict_pencil_to_line([diag(*lams)], base=[0.0], direction=[1.0])
        dq = q.derivative()
        for j in range(4):
            want = axis_derivative_closed_form(lams, j)
            assert abs(dq(1.0 / lams[j]) - want) <= 1e-8 * max(1.0, abs(want))


class TestUniPoly:
    def test_eval(self):
        p = UniPoly([6.0, -9.0, 3.0])  # 3 (t - 1) (t - 2)
        assert p(1.0) == pytest.approx(0.0)
        assert p(0.0) == pytest.approx(6.0)
        assert p.degree == 2

    def test_derivative(self):
        p = UniPoly([1.0, -3.0, 2.0])
        assert np.allclose(p.derivative().coeffs, [-3.0, 4.0])


def test_coefficient_distance_mismatched_vars():
    with pytest.raises(ValueError):
        coefficient_distance(MultiPoly(1, {(1,): 1}), MultiPoly(2, {(1, 0): 1}))
