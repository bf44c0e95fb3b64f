"""The production path holds what the commands run.

The production path is every module of the package but
``pencilspec.reference``.  A matrix of ``generate``, ``analyze``,
``decompose`` and ``corollary`` runs in process under ``sys.setprofile``,
which records the code of every Python function entered; each ``def`` of a
production module, found by walking its AST, must be entered or be listed
in :data:`ALLOWED` with the reason it stays.  A listed name that a command
enters, or that no longer exists, fails too, so the list cannot go stale.
"""

import ast
import os
import sys
from pathlib import Path

import pytest

import pencilspec
from pencilspec import cli, conditions
from pencilspec.cli import EXIT_FAIL, EXIT_PASS, main

# Functions no command enters, each with the reason it stays.
ALLOWED = {
    "charpoly.kth_power_batch":
        "public API: admits pencils from outside the program, while every pencil "
        "a command builds is exactly Hermitian and goes to the eigensolves directly",
    "charpoly.kth_power_test":
        "public API: the one-pencil entry for outside callers; the acceptance "
        "battery tests the full tuple through it",
    "conditions.WordSpec.__post_init__":
        "public API: validates a WordSpec built by an outside caller; "
        "enumerate_words builds its words from valid labels past __init__",
    "linalg.SpectralData.projections":
        "read only by reference (word realization, the first-order identity) "
        "and by acceptance criterion 1",
    "linalg.direct_sum_k_copies":
        "public API for outside callers; no command builds a direct sum",
}

PRODUCTION = sorted(p for p in Path(pencilspec.__file__).parent.glob("*.py")
                    if p.name != "reference.py")

# (family, n, k, m, seed): decomposable (2,2,3) reaches decomposer._phase_match
# and (6,2,2) the forked battery; commuting has no off-diagonal blocks, and
# conjugate_negative (which reads only its seed) fails its words and its cycle
CASES = [
    ("decomposable", 3, 2, 2, 1),
    ("decomposable", 2, 2, 3, 1),
    ("decomposable", 6, 2, 2, 1),
    ("commuting", 2, 2, 3, 1),
    ("conjugate_negative", 3, 2, 2, 1),
]


def production_defs():
    """``{"module.qualname": (path, first line, name)}`` for every ``def`` of
    the production modules; the first line is that of the first decorator, as
    in the code object's ``co_firstlineno``."""
    defs = {}

    def visit(node, module, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                defs[f"{module}.{prefix}{child.name}"] = (path, first, child.name)
                visit(child, module, path, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, module, path, f"{prefix}{child.name}.")
            else:
                visit(child, module, path, prefix)

    for path in PRODUCTION:
        visit(ast.parse(path.read_text(), filename=str(path)), path.stem,
              os.path.realpath(path), "")
    return defs


def command_matrix(tmp):
    """Each case generated, then the three commands at its k and k + 1, in
    both modes, and at k once with ``--tol word_cap=3`` and once with
    ``--allow-nonhermitian``.  Yields ``(case, key, argv)``, the key being
    ``argv`` without the tuple and report paths."""
    out = str(tmp / "report.json")
    for case in CASES:
        family, n, k, m, seed = case
        path = str(tmp / f"{family}-{n}-{k}-{m}.json")
        yield case, ("generate",), ["generate", "--family", family, "--n", str(n), "--k", str(k),
                                    "--m", str(m), "--seed", str(seed), "--out", path]
        runs = [(kk, mode) for kk in (k, k + 1) for mode in conditions.MODES]
        runs += [(k, "all", "--tol", "word_cap=3"), (k, "all", "--allow-nonhermitian")]
        for kk, mode, *extra in runs:
            for command in ("analyze", "decompose", "corollary"):
                if command == "analyze":
                    key = (command, "--k", str(kk), "--mode", mode, *extra)
                elif mode == "all":
                    key = (command, "--k", str(kk), *extra)
                else:
                    continue
                yield case, key, [command, path, *key[1:], "--out", out]


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Run the command matrix under ``sys.setprofile``; returns the exit codes
    by ``(case, key)`` and the entered functions as ``(path, first line,
    name)``."""
    tmp = tmp_path_factory.mktemp("reachability")
    codes, entered = {}, set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    with pytest.MonkeyPatch.context() as mp:
        # two usable CPUs whatever the host, so that (6,2,2)'s battery forks
        # and _fork_share is entered
        mp.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        mp.setattr(conditions, "_CPU_QUOTA_FILES", ())
        cli._build_parser.cache_clear()
        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            for case, key, argv in command_matrix(tmp):
                codes[case, key] = main(argv)
        finally:
            sys.setprofile(previous)
    keys = {(os.path.realpath(c.co_filename), c.co_firstlineno, c.co_name) for c in entered}
    return codes, keys


def test_every_production_def_is_entered_or_allowed(traced):
    _, entered = traced
    missed = sorted(name for name, key in production_defs().items()
                    if key not in entered and name not in ALLOWED)
    assert not missed, f"no command enters {missed}: call them or list them in ALLOWED"


def test_no_command_enters_an_allowed_def(traced):
    _, entered = traced
    defs = production_defs()
    reached = sorted(name for name in ALLOWED if defs.get(name) in entered)
    assert not reached, f"a command enters {reached}: take them off ALLOWED"


def test_every_allowed_name_exists_and_says_why():
    defs = production_defs()
    assert sorted(set(ALLOWED) - set(defs)) == []
    assert all(reason.strip() for reason in ALLOWED.values())


def test_exit_codes(traced):
    # at k every command gives the ground truth, with kth_power_batch never
    # entered on the way (test_no_command_enters_an_allowed_def)
    codes, _ = traced
    for case in CASES:
        family, _, k, _, _ = case
        want = EXIT_FAIL if family == "conjugate_negative" else EXIT_PASS
        got = [codes[case, ("analyze", "--k", str(k), "--mode", "all")],
               codes[case, ("decompose", "--k", str(k))],
               codes[case, ("corollary", "--k", str(k))]]
        assert got == [want] * 3, case
    assert codes[CASES[0], ("generate",)] == EXIT_PASS
