"""Workload definitions: seeded instances, the CLI commands run on them, and
the ground truth each command is checked against.

Every instance comes from one of the program's own seeded generators
(``pencilspec.instances``), so its expected verdict is known: the
``decomposable`` and ``commuting`` families split, ``conjugate_negative``
does not.  Instance seeds and command seeds derive from the benchmark's
``--seed`` only.

Why these workloads:

* ``words`` - ``analyze --mode all`` on word-heavy shapes: ~2,258 sampled
  power tests per pass, nearly all time in ``charpoly`` and the worker pool.
  It exercises the per-word battery (batching, adjoint dedup).
* ``split`` - the user pipeline ``analyze --mode proof_core`` then
  ``decompose`` on few-word, large-k shapes: ~110 short commands where CLI
  serialization, ``linalg`` and ``decomposer`` carry a real share.  A change
  to the word battery alone should not move it.
* ``monomials`` - ``corollary`` on families within the program's monomial
  cap: one wide pencil (up to 3,279 generators) per command instead of
  thousands of narrow ones, with most time spent building monomials.
  Families over the cap would only measure the refusal, so none are run.
"""

from __future__ import annotations

import json
import math
import random
import time
from dataclasses import dataclass
from pathlib import Path

from pencilspec import cli
from pencilspec.instances import gen_commuting, gen_conjugate_negative, gen_decomposable

WORKLOADS = ("words", "split", "monomials")

# (n, k, m) shapes of the decomposable instances in ``words``.
WORDS_SHAPES = ((3, 2, 2), (4, 3, 3), (6, 2, 2), (4, 2, 3))
# (n, k) shapes with m = 2 in ``split``: few words, k up to 8, N <= 16.
SPLIT_SHAPES = ((2, 2), (2, 4), (2, 8), (3, 2), (3, 4), (3, 5), (4, 2), (4, 3), (4, 4))
SPLIT_SEEDS = 3
# (n, k, m) shapes in ``monomials``; each family has at most 3,279 monomials.
# With an odd shape count the median command latency falls inside one group
# of similar commands, not on the step between two groups.
MONOMIAL_SHAPES = (
    (2, 2, 2), (2, 4, 3), (2, 8, 4), (2, 3, 5), (3, 2, 2),
    (3, 4, 2), (3, 2, 3), (3, 3, 3), (3, 5, 3),
)
MONOMIAL_SEEDS = 2

_GENERATORS = {"decomposable": gen_decomposable, "commuting": gen_commuting}


@dataclass(frozen=True)
class Instance:
    path: str             # tuple file, relative to the checkout root
    desc: object          # the generator's InstanceDescriptor (ground truth)
    max_norm: float


@dataclass(frozen=True)
class Command:
    kind: str             # "analyze" | "decompose" | "corollary"
    mode: str | None      # analyze word mode
    inst: Instance
    argv: tuple
    out: str              # report path, relative to the checkout root
    tests: int            # sampled power tests the command runs
    pencil_mats: int      # generator matrices certified across those tests

    @property
    def expected_rc(self) -> int:
        return cli.EXIT_PASS if self.inst.desc.expected_pass else cli.EXIT_FAIL


def word_count(n: int, m: int, mode: str) -> int:
    """Size of the word family, from its definition (independent of the program)."""
    arrangements = math.perm if mode == "all" else math.comb
    return sum((m - 1) ** (r + 1) * arrangements(n, r) for r in range(n))


def monomial_count(n: int, m: int) -> int:
    return sum(m**d for d in range(1, n * n - n + 2))


def _specs(workload: str):
    """(family, n, k, m) for every instance of the workload."""
    if workload == "words":
        specs = [("decomposable", n, k, m) for n, k, m in WORDS_SHAPES]
    elif workload == "split":
        specs = [
            (family, n, k, 2)
            for family in _GENERATORS
            for n, k in SPLIT_SHAPES
            for _ in range(SPLIT_SEEDS)
        ]
    elif workload == "monomials":
        specs = [
            (family, n, k, m)
            for family in _GENERATORS
            for n, k, m in MONOMIAL_SHAPES
            for _ in range(MONOMIAL_SEEDS)
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return specs + [("conjugate_negative", 3, 2, 2)]


def build(workload: str, seed: int, workdir: Path, root: Path):
    """Generate the instances, write their tuple files, and list the commands.

    Returns ``(commands, instance_count, gen_s)`` where ``gen_s`` is the time
    spent in the program's instance generators.
    """
    rng = random.Random(f"{workload}:{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    rel = workdir.relative_to(root)
    commands = []
    gen_s = 0.0
    specs = _specs(workload)
    for idx, (family, n, k, m) in enumerate(specs):
        inst_seed = rng.randrange(2**31)
        t0 = time.perf_counter()
        if family == "conjugate_negative":
            tup, desc = gen_conjugate_negative(inst_seed)
        else:
            tup, desc = _GENERATORS[family](n, k, m, inst_seed)
        gen_s += time.perf_counter() - t0
        path = f"{rel}/t{idx:03d}.json"
        cli.save_tuple(str(root / path), tup, metadata={"descriptor": desc.as_dict()})
        inst = Instance(path=path, desc=desc, max_norm=tup.max_norm())
        cmd_seed = str(rng.randrange(2**31))

        def add(kind, mode=None, tests=0, pencil_mats=0, extra=()):
            out = f"{rel}/r{len(commands):03d}.json"
            argv = (kind, path, "--k", str(k), "--seed", cmd_seed, "--out", out) + extra
            commands.append(Command(kind, mode, inst, argv, out, tests, pencil_mats))

        if workload == "monomials":
            add("corollary", tests=1, pencil_mats=monomial_count(n, m))
            continue
        mode = "all" if workload == "words" else "proof_core"
        words = word_count(n, m, mode)
        add("analyze", mode, tests=1 + words, pencil_mats=m + 2 * words, extra=("--mode", mode))
        if workload == "split":
            add("decompose")
    return commands, len(specs), gen_s


def _failing_word(desc):
    word = desc.failing_word
    return {"letters": list(word["letters"]), "projections": list(word["projections"])}


def check(cmd: Command, rc, report: bytes | None) -> str:
    """Correctness gate for one command; returns '' or the reason it failed."""
    if rc != cmd.expected_rc:
        return f"exit code {rc}, expected {cmd.expected_rc}"
    if report is None:
        return "no report written"
    rep = json.loads(report)
    desc = cmd.inst.desc
    positive = desc.expected_pass
    if cmd.kind == "analyze":
        if rep.get("overall") != ("pass" if positive else "fail"):
            return f"overall {rep.get('overall')!r}"
        if len(rep.get("words", ())) != word_count(desc.n, desc.m, cmd.mode):
            return f"{len(rep.get('words', ()))} words, expected {word_count(desc.n, desc.m, cmd.mode)}"
        if not positive and _failing_word(desc) not in rep.get("failing_words", ()):
            return "the known failing word is not reported as failing"
    elif cmd.kind == "decompose":
        if not positive:
            if rep.get("violated_condition") != "CycleInconsistency":
                return f"violated condition {rep.get('violated_condition')!r}"
            if len(rep.get("cycle", ())) != 3:
                return f"cycle {rep.get('cycle')!r} is not a 3-cycle"
            return ""
        bound = rep["tolerances"]["residual_tol"] * max(1.0, cmd.inst.max_norm)
        verification = rep.get("verification", {})
        if rep.get("outcome") != "decomposed" or (rep.get("n"), rep.get("k")) != (desc.n, desc.k):
            return f"outcome {rep.get('outcome')!r} n={rep.get('n')} k={rep.get('k')}"
        if not verification.get("ok"):
            return "verification.ok is false"
        if not rep["residual"] <= bound or not verification["max_residual"] <= bound:
            return f"residual {rep['residual']:.3e} above bound {bound:.3e}"
    elif cmd.kind == "corollary":
        if rep.get("outcome") != ("pass" if positive else "fail"):
            return f"outcome {rep.get('outcome')!r}"
        if rep.get("family_size") != monomial_count(desc.n, desc.m):
            return f"family size {rep.get('family_size')}"
    return ""
