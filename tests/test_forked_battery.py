"""The word battery gives the same verdicts and report bytes whether its
shares run in forked processes or in one, and no forked process outlives
``analyze``.  Each route is forced through ``os.sched_getaffinity`` and
``conditions._FORK_COST``; there is no setting for it."""

import errno
import json
import mmap
import os
import re
import signal
import threading
import time
import warnings

import numpy as np
import pytest

from pencilspec import conditions
from pencilspec.cli import EXIT_FAIL, EXIT_PASS, main
from pencilspec.conditions import analyze
from pencilspec.config import DEFAULT
from pencilspec.instances import gen_conjugate_negative, gen_decomposable

pytestmark = pytest.mark.skipif(
    not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")),
    reason="the battery forks only where os.fork and os.sched_getaffinity exist",
)

# the warning CPython 3.12 and later give when a multi-threaded process forks
THREADED_FORK = ("This process (pid={}) is multi-threaded, use of fork() may lead to "
                 "deadlocks in the child.")


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children ``os.fork`` starts during the test."""
    pids = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return pids


def use_cpus(monkeypatch, cpus, fork_cost=None):
    """``cpus`` usable CPUs, whatever the host's cgroup quota."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(conditions, "_CPU_QUOTA_FILES", ())
    if fork_cost is not None:
        monkeypatch.setattr(conditions, "_FORK_COST", fork_cost)


def slice_words(monkeypatch, words, dim):
    """Slices of ``words`` words at N = ``dim``: a budget of their line matrices."""
    monkeypatch.setattr(conditions, "_BATCH_ENTRIES", words * DEFAULT.lines * dim * dim)


def generate(tmp_path, *args):
    path = tmp_path / "tuple.json"
    assert main(["generate", *args, "--out", str(path)]) == EXIT_PASS
    return path


def analyze_report(path, k, out):
    """Exit code and report lines, the timestamp line dropped."""
    rc = main(["analyze", str(path), "--k", str(k), "--mode", "all", "--out", str(out)])
    lines = out.read_text().splitlines()
    return rc, [line for line in lines if not line.startswith(' "timestamp": ')]


def rows_tested(report):
    return [i for i in range(len(report.word_results)) if i not in report.adjoint_of]


# --------------------------------------------------------------------------
# the forked route agrees with the serial one
# --------------------------------------------------------------------------


@pytest.mark.parametrize("cpus", [2, 3])
@pytest.mark.parametrize("n, k, m", [(6, 2, 2), (4, 3, 3)])
def test_forked_report_is_the_serial_report(tmp_path, monkeypatch, forks, n, k, m, cpus):
    path = generate(tmp_path, "--family", "decomposable", "--n", str(n), "--k", str(k),
                    "--m", str(m), "--seed", "7")
    use_cpus(monkeypatch, 1)
    serial = analyze_report(path, k, tmp_path / "serial.json")
    assert not forks
    use_cpus(monkeypatch, cpus)
    assert analyze_report(path, k, tmp_path / "forked.json") == serial
    assert len(forks) == cpus - 1
    assert serial[0] == EXIT_PASS


@pytest.mark.parametrize("seed", range(5))
def test_forked_negative_fails_on_its_word(tmp_path, monkeypatch, forks, seed):
    path = generate(tmp_path, "--family", "conjugate_negative", "--seed", str(seed))
    use_cpus(monkeypatch, 1)
    serial = analyze_report(path, 2, tmp_path / "serial.json")
    # the fork cost lowered so that the 10-word battery forks
    use_cpus(monkeypatch, 2, fork_cost=1)
    assert analyze_report(path, 2, tmp_path / "forked.json") == serial
    assert len(forks) == 1
    assert serial[0] == EXIT_FAIL
    failing = json.loads((tmp_path / "forked.json").read_text())["failing_words"]
    assert {"letters": [2, 2, 2], "projections": [2, 3]} in failing


@pytest.mark.parametrize(
    "tup, cpus, word_slice, children",
    [
        # 3 tested words over 4 CPUs: one-word shares, the last child's empty
        (gen_decomposable(2, 2, 2, seed=4)[0], 4, 128, 2),
        # 7 tested words in slices of 2: shares of 4 and 3, or 3, 2 and 2
        (gen_conjugate_negative(0)[0], 2, 2, 1),
        (gen_conjugate_negative(0)[0], 3, 2, 2),
        # 622 tested words: shares of 208, 207 and 207
        (gen_decomposable(6, 2, 2, seed=7)[0], 3, 128, 2),
    ],
    ids=["empty-and-one-word-shares", "slices-4-3", "slices-3-2-2", "shares-208-207-207"],
)
def test_share_edges(monkeypatch, forks, tup, cpus, word_slice, children):
    use_cpus(monkeypatch, 1)
    serial = analyze(tup, 2)
    use_cpus(monkeypatch, cpus, fork_cost=1)
    slice_words(monkeypatch, word_slice, tup.dim)
    assert analyze(tup, 2) == serial
    assert len(forks) == children


def test_battery_stacks_at_most_one_slice(tmp_path, monkeypatch, forks):
    """Every call of the battery in this process stacks at most the words
    whose line matrices fit the budget, 17 at N = 12; the full tuple,
    ``corollary`` and ``kth_power_test`` pass one pencil each."""
    from pencilspec import charpoly

    tup = gen_decomposable(6, 2, 2, seed=7)[0]
    path = generate(tmp_path, "--family", "decomposable", "--n", "6", "--k", "2", "--m", "2",
                    "--seed", "7")
    stacks, spectra = [], charpoly._spectra

    def recording(gens, dirs):
        stacks.append(gens.shape[:2])  # (pencils, generators)
        return spectra(gens, dirs)

    monkeypatch.setattr(conditions, "_spectra", recording)
    monkeypatch.setattr(charpoly, "_spectra", recording)
    bound = max(1, conditions._BATCH_ENTRIES // (DEFAULT.lines * tup.dim**2))
    assert bound == 17
    # 622 tested words, all in this process or half of them beside a child
    for cpus, words in [(1, 622), (2, 311)]:
        use_cpus(monkeypatch, cpus)
        stacks.clear()
        assert analyze_report(path, 2, tmp_path / "report.json")[0] == EXIT_PASS
        battery = [p for p, m in stacks if m == 3]
        assert max(battery) == bound and sum(battery) == words
        assert [p for p, m in stacks if m != 3] == [1]  # the full tuple, m = 2
    assert len(forks) == 1
    stacks.clear()
    out = tmp_path / "corollary.json"
    assert main(["corollary", str(path), "--k", "2", "--out", str(out)]) == EXIT_PASS
    assert charpoly.kth_power_test(tup.matrices, 2, 6).is_kth_power
    assert [p for p, _ in stacks] == [1, 1]


def test_shared_mapping_holds_line_tests(monkeypatch, forks):
    """The children write each line's test, N + 8 bytes (20 at N = 12), not
    its spectrum, 8 N bytes: the mapping is under a quarter of the spectra."""
    tup = gen_decomposable(6, 2, 2, seed=7)[0]
    use_cpus(monkeypatch, 2)
    lengths, mapping = [], mmap.mmap

    def recording(fileno, length, *args, **kwargs):
        lengths.append(length)
        return mapping(fileno, length, *args, **kwargs)

    monkeypatch.setattr(mmap, "mmap", recording)
    report = analyze(tup, 2)
    assert len(forks) == 1 and len(lengths) == 1
    assert lengths[0] < 8 * len(rows_tested(report)) * DEFAULT.lines * tup.dim / 4


def test_share_count(monkeypatch):
    use_cpus(monkeypatch, 4, fork_cost=100)
    assert conditions._share_count(1, 1, 4) == 1        # 64 units: less than two forks
    assert conditions._share_count(2, 2, 4) == 2        # 256 units: two shares of 128
    assert conditions._share_count(10, 8, 12) == 4      # one per usable CPU at most
    monkeypatch.delattr(os, "fork")
    assert conditions._share_count(10, 8, 12) == 1


@pytest.mark.parametrize("units, shares", [(200, 1), (201, 2), (2000, 4), (2001, 5)])
def test_share_count_pays_for_its_forks(monkeypatch, units, shares):
    """S shares take (S - 1) forks and units / S here: the S-th pays while
    S (S - 1) forks cost less than the units."""
    use_cpus(monkeypatch, 64, fork_cost=100)
    assert conditions._share_count(units, 1, 1) == shares


def test_default_fork_cost_caps_the_largest_battery(monkeypatch):
    # decomposable (6,2,2): 622 tested words, 8 lines, N = 12
    use_cpus(monkeypatch, 64)
    assert conditions._share_count(622, 8, 12) == 5


@pytest.mark.parametrize(
    "files, cpus",
    [
        ({"cpu.max": "250000 100000\n"}, 2),
        ({"cpu.max": "50000 100000\n"}, 1),
        ({"cpu.max": "max 100000\n"}, 8),
        ({"quota": "300000\n", "period": "100000\n"}, 3),
        ({"quota": "-1\n", "period": "100000\n"}, 8),
        ({}, 8),
    ],
    ids=["v2-quota", "v2-under-one-cpu", "v2-no-quota", "v1-quota", "v1-no-quota", "no-cgroup"],
)
def test_cgroup_quota_caps_the_usable_cpus(tmp_path, monkeypatch, files, cpus):
    use_cpus(monkeypatch, 8)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    monkeypatch.setattr(conditions, "_CPU_QUOTA_FILES", (
        (str(tmp_path / "cpu.max"),),
        (str(tmp_path / "quota"), str(tmp_path / "period")),
    ))
    assert conditions._usable_cpus() == cpus
    assert conditions._share_count(622, 8, 12) == min(5, cpus)


def test_no_fork_while_other_threads_run(monkeypatch, forks):
    tup = gen_decomposable(6, 2, 2, seed=7)[0]
    use_cpus(monkeypatch, 2)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        report = analyze(tup, 2)
    finally:
        release.set()
        thread.join()
    assert not forks
    assert report.overall == "pass"


# --------------------------------------------------------------------------
# failures: the parent solves a failed share itself, and reaps every child
# --------------------------------------------------------------------------


@pytest.fixture
def negative(monkeypatch):
    """``conjugate_negative`` (seed 0), its serial report, and the forked
    route set up: 7 tested words in slices of 2, shares of 4 and 3."""
    tup = gen_conjugate_negative(0)[0]
    use_cpus(monkeypatch, 1)
    serial = analyze(tup, 2)
    use_cpus(monkeypatch, 2, fork_cost=1)
    slice_words(monkeypatch, 2, tup.dim)
    return tup, serial


def solve_in_child(monkeypatch, in_child):
    """Replace the share routine by ``in_child(solve, share)`` in forked
    processes, where ``solve(*share)`` runs the routine on the child's
    arguments; returns the rows this process solves."""
    parent, share_tests = os.getpid(), conditions._share_tests
    solved = []

    def patched(realized, rows, dirs, tol, out):
        if os.getpid() != parent:
            return in_child(share_tests, (realized, rows, dirs, tol, out))
        solved.extend(rows.tolist())
        return share_tests(realized, rows, dirs, tol, out)

    monkeypatch.setattr(conditions, "_share_tests", patched)
    return solved


def child_raises(solve, share):
    raise RuntimeError("only in the child")


def child_exits_three(solve, share):
    os._exit(3)


def child_writes_one_slice(solve, share):
    # it exits 0, but its row count says the share is incomplete
    realized, rows, dirs, tol, out = share
    solve(realized, rows[:2], dirs, tol, out[:2])
    os._exit(0)


def child_blocks(solve, share):
    time.sleep(60)  # killed long before
    return solve(*share)


@pytest.mark.parametrize("in_child", [child_raises, child_exits_three, child_writes_one_slice],
                         ids=["raises", "exits-non-zero", "short-data"])
def test_failed_child_share_is_solved_here(monkeypatch, forks, negative, in_child):
    tup, serial = negative
    solved = solve_in_child(monkeypatch, in_child)
    assert analyze(tup, 2) == serial
    assert len(forks) == 1
    assert solved == rows_tested(serial)


def test_child_blocks_sigint_and_parent_restores_its_mask(monkeypatch, forks, negative):
    """Ctrl-C reaches every process of the group: a child must not unwind
    the caller's stack on it, so it solves its share with SIGINT blocked."""
    tup, serial = negative

    def needs_sigint_blocked(solve, share):
        if signal.SIGINT not in signal.pthread_sigmask(signal.SIG_BLOCK, []):
            os._exit(5)
        return solve(*share)

    solved = solve_in_child(monkeypatch, needs_sigint_blocked)
    assert analyze(tup, 2) == serial
    assert len(forks) == 1
    assert solved == rows_tested(serial)[:4]
    assert signal.SIGINT not in signal.pthread_sigmask(signal.SIG_BLOCK, [])


def test_child_exiting_non_zero_after_its_data_is_not_trusted(monkeypatch, forks, negative):
    tup, serial = negative
    solved = solve_in_child(monkeypatch, lambda solve, share: solve(*share))
    exit_ = os._exit
    monkeypatch.setattr(os, "_exit", lambda status: exit_(status or 3))
    assert analyze(tup, 2) == serial
    assert len(forks) == 1
    assert solved == rows_tested(serial)


def test_child_share_error_is_the_serial_error(monkeypatch, forks, negative):
    tup, serial = negative
    last = rows_tested(serial)[-1]
    share_tests = conditions._share_tests

    def failing(realized, rows, dirs, tol, out):
        if last in rows:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return share_tests(realized, rows, dirs, tol, out)

    monkeypatch.setattr(conditions, "_share_tests", failing)
    with pytest.raises(np.linalg.LinAlgError, match="^Eigenvalues did not converge$"):
        analyze(tup, 2)
    assert len(forks) == 1
    use_cpus(monkeypatch, 1)
    with pytest.raises(np.linalg.LinAlgError, match="^Eigenvalues did not converge$"):
        analyze(tup, 2)


@pytest.mark.parametrize("module, call", [(os, "fork"), (mmap, "mmap")], ids=["fork", "mmap"])
def test_fork_failure_falls_back_to_serial(monkeypatch, forks, negative, module, call):
    tup, serial = negative

    def failing(*args):
        raise OSError(errno.ENOMEM, "Cannot allocate memory")

    monkeypatch.setattr(module, call, failing)
    fds = os.listdir("/proc/self/fd")
    assert analyze(tup, 2) == serial
    assert os.listdir("/proc/self/fd") == fds
    assert not forks


@pytest.mark.parametrize("target", ["_share_verdicts", "waitpid"],
                         ids=["own-share", "before-reading-child"])
def test_parent_error_kills_and_reaps_the_child(monkeypatch, forks, target):
    """The parent fails in the first verdicts of its own share, or as it
    starts to wait for the child's, while the child still solves its share."""
    tup = gen_decomposable(6, 2, 2, seed=7)[0]
    use_cpus(monkeypatch, 2)
    solve_in_child(monkeypatch, child_blocks)
    waitpid, statuses, interrupted = os.waitpid, [], []

    def failing(*args):
        raise KeyboardInterrupt

    def recording_waitpid(pid, options):
        if target == "waitpid" and not interrupted:
            interrupted.append(pid)
            failing()
        statuses.append(waitpid(pid, options)[1])
        return pid, statuses[-1]

    if target == "_share_verdicts":
        monkeypatch.setattr(conditions, target, failing)
    monkeypatch.setattr(os, "waitpid", recording_waitpid)
    with pytest.raises(KeyboardInterrupt):
        analyze(tup, 2)
    monkeypatch.setattr(os, "waitpid", waitpid)
    assert len(forks) == 1
    assert [os.WIFSIGNALED(s) and os.WTERMSIG(s) for s in statuses] == [signal.SIGKILL]


def test_threaded_fork_warning_is_ignored(monkeypatch, forks, negative):
    tup, serial = negative
    fork = os.fork

    def warning_fork():
        pid = fork()
        if pid:
            warnings.warn(THREADED_FORK.format(os.getpid()), DeprecationWarning, stacklevel=2)
        return pid

    monkeypatch.setattr(os, "fork", warning_fork)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert analyze(tup, 2) == serial
    assert len(forks) == 1


def test_only_the_threaded_fork_warning_is_ignored():
    assert re.match(conditions._FORK_WARNING, THREADED_FORK.format(123), re.I)
    assert not re.match(conditions._FORK_WARNING, "use of fork() may lead to deadlocks", re.I)
