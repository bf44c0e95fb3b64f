"""Command-line driver and the on-disk tuple/report formats.

Subcommands: ``analyze``, ``decompose``, ``corollary``, ``generate``.
Exit codes are a stable contract:

* 0 - conditions hold / command succeeded,
* 1 - spectral conditions fail (including structural splitting failures;
  ``decompose`` exits 0 exactly when its report's ``verification.ok`` holds),
* 2 - precondition violated (k does not divide N; for ``analyze`` and
  ``decompose`` also a first generator without N/k clusters of size k or
  with an ambiguous eigenvalue gap; for ``analyze`` a tuple that is not
  admissible, or a word battery larger than ``word_cap``, of which no
  prefix is tested); every exit 2 writes a report naming the violation,
* 3 - I/O trouble, malformed input, numerical breakdown, or invalid
  arguments: usage errors (a missing or unknown flag, a value of the wrong
  type, ``--k`` below 1, ``generate``'s ``--n`` or ``--m`` below 1,
  ``--seed`` below 0), a ``--tol`` name other than
  ``resolution``, ``lines`` and ``word_cap`` (the other thresholds are
  derived from ``resolution``) and values that
  :class:`~pencilspec.config.Tolerances` rejects.  ``--help`` exits 0.

Only input from outside the program is checked, once, where it enters:
arguments by the parser, tolerances when :class:`~pencilspec.config.Tolerances`
is built (without ``--tol``, :data:`~pencilspec.config.DEFAULT` serves as it
is), the tuple's generators when it is loaded (finite, Hermitian unless
``--allow-nonhermitian``, with a Hermitian part that does not overflow), and
``k`` against the tuple by :func:`~pencilspec.linalg.prepare_tuple`
(``corollary`` needs only ``k | N``, which
:func:`~pencilspec.conditions.corollary` checks).
An exit 3 writes no report.

Files are JSON, one line per top-level key (sorted), so the ``timestamp``
line can be dropped with a line filter.  A top-level list or generator (as
``analyze``'s word rows are) is encoded ``_LIST_CHUNK`` items per encoder
call, with the bytes of one call, since the C encoder holds every piece of a
call's text until it returns.  Complex numbers are stored as ``[re, im]``
pairs with full shortest-round-trip decimal digits, so a load/save cycle is
lossless.  Reports echo the inputs, the seeds and the whole tolerance block;
rerunning with identical inputs reproduces a report byte for byte except for
its ``timestamp`` line.  ``analyze`` draws every line of its battery from one
generator seeded with ``--seed`` (the full tuple's first, then one block per
word), tests its words in batched calls, and lists every word in its report:
a word whose adjoint was tested earlier carries that word's verdict and its
index under ``adjoint_of``.  ``corollary`` draws its lines from a generator
seeded with ``--seed``, in one draw; a verdict's ``lines`` give, per line,
its ``cluster_sizes`` and ``spread``.  No environment variable changes the
reports, and the CPU count changes only the speed: ``analyze`` may run a
large battery over forked processes, at most one per usable CPU, with the
same report.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import gc
import hashlib
import json
import os
import sys
from datetime import datetime, timezone
from itertools import islice
from types import GeneratorType

import numpy as np

from .conditions import MODES, ConditionReport, analyze, corollary
from .config import DEFAULT, LADDER, Tolerances
from .decomposer import decompose
from .errors import ClusterAmbiguity, DecompositionError, SpectralError, SpectrumPatternViolation
from .instances import FAMILIES
from .linalg import HermitianTuple, hermitian_part

TUPLE_FORMAT = "pencilspec-tuple"
REPORT_FORMAT = "pencilspec-report"
FORMAT_VERSION = 17
TUPLE_VERSION = 15  # versioned apart, so a report-format bump leaves tuple bytes alone

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_PRECONDITION = 2
EXIT_ERROR = 3


# --------------------------------------------------------------------------
# serialization
# --------------------------------------------------------------------------


def _matrix_to_json(a):
    a = np.asarray(a, dtype=np.complex128)
    return np.stack([a.real, a.imag], -1).tolist()


def _matrix_from_json(rows):
    # nested lists, of any depth, of [re, im] pairs of JSON numbers; a bool is
    # an int to Python, and numpy would read a string or a bool as a number, so
    # the types are checked on the object array first (ragged lists fail there)
    try:
        cells = np.array(rows, dtype=object)
        pairs = cells.shape[-1:] == (2,)
        if not pairs or not set(map(type, cells.ravel())) <= {int, float}:
            raise ValueError("a cell is not an [re, im] pair of numbers")
        return cells.astype(np.float64).view(np.complex128)[..., 0]
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed matrix entry: {exc}") from None


def _atomic_write(path, text):
    """Write ``text`` to ``path`` through a rename, with the mode that
    ``open(path, "w")`` gives: the temporary file, new in the target's
    directory, is created ``0o666`` and the kernel takes off the umask."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f".{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


# Items per encoder call in a long top-level list.  The C encoder keeps each
# piece of a call's text as its own string until the call returns: 2.2 MB
# traced for the 214 KB of decomposable (6,2,2)'s 1,237 word rows, against
# about 0.4 MB in slices of 64 (0.6 MB at 256, 1.0 MB at 512; Python 3.11).
_LIST_CHUNK = 64


def _encode(value) -> str:
    # every document is a tree built afresh, so the encoder skips its cycle check
    return json.dumps(value, sort_keys=True, check_circular=False)


def _encode_value(value) -> str:
    # a list's or generator's slices, joined by the encoder's own ", ": one call's text
    if not isinstance(value, (list, GeneratorType)):
        return _encode(value)
    items = iter(value)
    slices = iter(lambda: list(islice(items, _LIST_CHUNK)), [])
    return "[" + ", ".join(_encode(part)[1:-1] for part in slices) + "]"


def _dump_json(obj) -> str:
    """``obj`` with one line per top-level key, in sorted order, each value
    on one line through the C encoder (``indent`` would force the pure-Python
    one).  A scalar such as ``timestamp`` thus sits on a line of its own.
    A top-level list or generator is encoded ``_LIST_CHUNK`` items at a time,
    with the bytes of one call on the list: the C encoder holds every piece of
    a call's text until the call ends, about ten times the text for
    ``analyze``'s word rows, which a generator builds as they are asked."""
    lines = (f" {json.dumps(key)}: {_encode_value(obj[key])}" for key in sorted(obj))
    return "{\n" + ",\n".join(lines) + "\n}\n"


def save_tuple(path, tup: HermitianTuple, metadata=None):
    doc = {
        "format": TUPLE_FORMAT,
        "version": TUPLE_VERSION,
        "dim": tup.dim,
        "m": tup.m,
        "matrices": _matrix_to_json(tup.matrices),
    }
    if metadata:
        doc["metadata"] = metadata
    _atomic_write(path, _dump_json(doc))


def load_tuple(path, allow_nonhermitian: bool = False, tol: Tolerances = DEFAULT, data=None):
    """Read a tuple file.  Returns ``(HermitianTuple, metadata dict)``.

    Matrices are stored as their Hermitian parts
    (:func:`~pencilspec.linalg.hermitian_part`, which refuses one that is not
    finite or overflows).  A Hermitian defect above ``tol.hermitian_rel``
    times the matrix's spectral norm raises :class:`NotHermitian` unless
    ``allow_nonhermitian`` is set; the tuple is then the Hermitian parts,
    admitted with no defect check.  ``data``, when given, is the file's bytes
    as already read (and hashed) by the caller; ``path`` then only names the
    file in error messages, as in the refusal of one nested too deeply.
    """
    if data is None:
        with open(path, "rb") as fh:
            data = fh.read()
    try:
        doc = json.loads(data.decode("utf-8"))
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply to decode") from None
    if not isinstance(doc, dict) or doc.get("format") != TUPLE_FORMAT:
        raise ValueError(f"{path}: not a {TUPLE_FORMAT} file")
    m, dim, matrices = doc.get("m"), doc.get("dim"), doc.get("matrices")
    if not isinstance(matrices, list) or type(m) is not int or type(dim) is not int:
        raise ValueError(f"{path}: need a list 'matrices' and integers 'm' and 'dim'")
    if m < 1 or dim < 1:
        raise ValueError(f"{path}: need 'm' and 'dim' of at least 1, got m={m}, dim={dim}")
    mats = _matrix_from_json(matrices)
    if mats.shape != (m, dim, dim):
        raise ValueError(f"{path}: matrix shapes disagree with the header")
    tup = HermitianTuple.exact(hermitian_part(mats)) if allow_nonhermitian else HermitianTuple(mats, tol=tol)
    return tup, doc.get("metadata", {})


def _verdict_to_json(v):
    if v is None:
        return None
    return {
        "is_kth_power": v.is_kth_power,
        "k": v.k,
        "n": v.n,
        "worst_spread": v.worst_spread,
        "failure_reason": v.failure_reason,
        "lines": [
            {"cluster_sizes": list(sizes), "spread": spread}
            for sizes, spread in v.per_line_clusters
        ],
    }


def _word_summary(w, v, twin=None):
    # the profile of the line that failure_reason names, else of line 0; a
    # word that takes the verdict of its adjoint ``twin`` names it
    row = {
        "letters": w.letters,
        "projections": w.projections,
        "is_kth_power": v.is_kth_power,
        "cluster_profile": list(v.per_line_clusters[v.failing_line or 0][0]),
        "worst_spread": v.worst_spread,
        "adjoint_of": twin,
    }
    if twin is None:
        del row["adjoint_of"]  # sized for the key, so no row grows
    return row


def _report_skeleton(command, args, input_path, digest, tol: Tolerances):
    return {
        "format": REPORT_FORMAT,
        "version": FORMAT_VERSION,
        "command": command,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "input": {
            "path": str(input_path),
            "sha256": digest,
        },
        "parameters": args,
        "tolerances": tol.as_dict(),
    }


def _emit(report, out_path):
    try:
        text = _dump_json(report)
    except RecursionError:  # the echoed metadata decoded, but nests too deeply to encode
        raise ValueError(f"{report['input']['path']}: metadata nested too deeply to encode") from None
    if out_path:
        _atomic_write(out_path, text)
    else:
        sys.stdout.write(text)


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------


_SETTABLE = tuple(f.name for f in dataclasses.fields(Tolerances) if f.init)


def _tolerances_from_overrides(pairs):
    if not pairs:
        return DEFAULT
    values = {}
    for item in pairs:
        key, _, raw = item.partition("=")
        if key in LADDER:
            raise ValueError(f"tolerance {key} is derived from resolution; set resolution instead")
        if key not in _SETTABLE:
            raise ValueError(f"unknown tolerance name {key!r}")
        values[key] = type(getattr(DEFAULT, key))(raw)
    return dataclasses.replace(DEFAULT, **values)


def _analyze_report_body(report: ConditionReport):
    return {
        "overall": report.overall,
        "detail": report.detail,
        "precondition_ok": report.precondition_ok,
        "admissible_ok": report.admissible_ok,
        "admissibility": report.admissibility,
        "n": report.n,
        "k": report.k,
        "mode": report.mode,
        "shifts": list(report.shifts),
        "scales": list(report.scales),
        "full_tuple": _verdict_to_json(report.full_tuple),
        "words": (_word_summary(w, v, report.adjoint_of.get(i))
                  for i, (w, v) in enumerate(report.word_results)),
        "failing_words": [w.as_dict() for w in report.failing_words],
    }


def _precondition_violated(report, detail, out) -> int:
    report["outcome"] = "precondition_violated"
    report["detail"] = detail
    _emit(report, out)
    return EXIT_PRECONDITION


def _start(command, parameters, args):
    """Shared start of the certifying commands: the tolerances, the loaded
    tuple and the report skeleton (with the tuple file's metadata).  The
    file is read once, so ``input.sha256`` is the digest of the bytes that
    were analyzed."""
    tol = _tolerances_from_overrides(args.tol)
    with open(args.input, "rb") as fh:
        data = fh.read()
    tup, meta = load_tuple(args.input, args.allow_nonhermitian, tol, data=data)
    digest = hashlib.sha256(data).hexdigest()
    report = _report_skeleton(command, parameters, args.input, digest, tol)
    if meta:
        report["input"]["metadata"] = meta
    return tol, tup, report


def cmd_analyze(args) -> int:
    tol, tup, report = _start(
        "analyze", {"k": args.k, "mode": args.mode, "seed": args.seed}, args
    )
    cond = analyze(tup, args.k, mode=args.mode, seed=args.seed, tol=tol)
    report.update(_analyze_report_body(cond))
    _emit(report, args.out)
    if cond.overall == "pass":
        return EXIT_PASS
    if cond.overall == "fail":
        return EXIT_FAIL
    return EXIT_PRECONDITION


def cmd_decompose(args) -> int:
    tol, tup, report = _start("decompose", {"k": args.k, "seed": args.seed}, args)
    try:
        result = decompose(tup, args.k, tol=tol)
    except (SpectrumPatternViolation, ClusterAmbiguity) as exc:
        return _precondition_violated(report, str(exc), args.out)
    except DecompositionError as exc:
        report["outcome"] = "conditions_violated"
        report["violated_condition"] = type(exc).__name__
        report["detail"] = str(exc)
        cycle = getattr(exc, "cycle", None)
        if cycle is not None:
            report["cycle"] = [int(c) + 1 for c in cycle]
        _emit(report, args.out)
        return EXIT_FAIL
    report["outcome"] = "decomposed"
    report["n"] = result.n
    report["k"] = result.k
    report["residual"] = result.residual
    report["eigenvalues"] = [float(x) for x in result.eigenvalues]
    report["partition"] = [[int(i) + 1 for i in blk] for blk in result.partition]
    report["shifts"] = list(result.shifts)
    report["permutation"] = [int(p) for p in result.permutation]
    report["eigenbasis"] = _matrix_to_json(result.eigenbasis)
    report["block_unitary"] = _matrix_to_json(result.block_unitary)
    report["reduced_tuple"] = _matrix_to_json(result.reduced.matrices)
    report["verification"] = result.verification
    _emit(report, args.out)
    return EXIT_PASS


def cmd_corollary(args) -> int:
    tol, tup, report = _start("corollary", {"k": args.k, "seed": args.seed}, args)
    try:
        result = corollary(tup, args.k, seed=args.seed, tol=tol)
    except SpectrumPatternViolation as exc:
        return _precondition_violated(report, str(exc), args.out)
    passed = result.verdict.is_kth_power
    report.update(degree_bound=result.degree_bound, family_size=result.family_size,
                  shifts=list(result.shifts), verdict=_verdict_to_json(result.verdict),
                  outcome="pass" if passed else "fail")
    _emit(report, args.out)
    return EXIT_PASS if passed else EXIT_FAIL


def cmd_generate(args) -> int:
    tup, desc = FAMILIES[args.family](args.n, args.k, args.m, args.seed)
    save_tuple(args.out, tup, metadata={"descriptor": desc.as_dict()})
    return EXIT_PASS


# --------------------------------------------------------------------------
# argument parsing
# --------------------------------------------------------------------------


def _int_at_least(low):
    """argparse type of an integer of at least ``low`` (``--k``, ``--seed``,
    and ``generate``'s ``--n`` and ``--m``)."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return parse


@functools.cache
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="pencilspec",
        description=(
            "Test whether the joint spectrum of a Hermitian matrix tuple (and of "
            "its projection-interleaved words) is a perfect k-th power, and "
            "construct the unitary splitting the tuple into k identical copies."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("input", help="tuple file (JSON)")
        p.add_argument(
            "--k", type=_int_at_least(1), required=True, help="number of copies to certify"
        )
        p.add_argument("--seed", type=_int_at_least(0), default=0)
        p.add_argument("--out", default=None, help="report path (stdout if omitted)")
        p.add_argument(
            "--tol",
            action="append",
            metavar="NAME=VALUE",
            help="set resolution, lines or word_cap (repeatable)",
        )
        p.add_argument(
            "--allow-nonhermitian",
            action="store_true",
            help="project loaded matrices onto their Hermitian parts",
        )

    p_an = sub.add_parser("analyze", help="run the spectral condition battery")
    common(p_an)
    p_an.add_argument("--mode", choices=MODES, default="all")
    p_an.set_defaults(func=cmd_analyze)

    p_de = sub.add_parser("decompose", help="construct the splitting unitary")
    common(p_de)
    p_de.set_defaults(func=cmd_decompose)

    p_co = sub.add_parser("corollary", help="monomial-family certificate (no admissibility hypothesis)")
    common(p_co)
    p_co.set_defaults(func=cmd_corollary)

    p_ge = sub.add_parser("generate", help="write a seeded instance to a tuple file")
    p_ge.add_argument("--family", required=True, choices=FAMILIES)
    p_ge.add_argument("--n", type=_int_at_least(1), default=2)
    p_ge.add_argument("--k", type=_int_at_least(1), default=2)
    p_ge.add_argument("--m", type=_int_at_least(1), default=2)
    p_ge.add_argument("--seed", type=_int_at_least(0), default=0)
    p_ge.add_argument("--out", required=True)
    p_ge.set_defaults(func=cmd_generate)
    return parser


def main(argv=None) -> int:
    # No command builds a reference cycle, so the cyclic collector is off for
    # one and then restored.  Left on, in process (perfbench words, seed 3, 10
    # passes, 2-vCPU VM), it ran 27.8 times a pass for 2.1 ms, 1.6 ms of it in
    # (6,2,2), and freed nothing but, once, the cached parser's 97 objects.
    enabled = gc.isenabled()
    gc.disable()
    try:
        # argparse exits 0 after --help and 2 on a usage error, which exits 3
        # here (2 means "precondition violated"); no command raises SystemExit
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return EXIT_PASS if exc.code == 0 else EXIT_ERROR
    except (OSError, ValueError, SpectralError) as exc:
        # JSONDecodeError, NotHermitian: ValueErrors
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ERROR
    except MemoryError as exc:
        # numpy's message names the allocation; a bare MemoryError has none
        sys.stderr.write(f"error: out of memory: {str(exc) or 'no detail'}\n")
        return EXIT_ERROR
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
