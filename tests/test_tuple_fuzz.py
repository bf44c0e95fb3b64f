"""Tuple files mutated from a valid one, read by every certifying command.

Each file is decomposable ``(3,2,2)`` seed 1 with one seeded mutation.  Every
command must answer with an exit code of the contract, with nothing escaping
``cli.main`` (the suite turns warnings into errors too); an exit 3 writes no
report and one ``error:`` line that names the cause.  The mutations that keep
the file valid (a generator rescaled, the first generator alone) must split.
Its ``matrices`` or ``metadata`` nested around and past the JSON decoder's
limit must be answered or refused the same way.
"""

import json
import re

import numpy as np
import pytest

from pencilspec.cli import EXIT_ERROR, EXIT_PASS, main, save_tuple
from pencilspec.instances import gen_decomposable

COMMANDS = ("analyze", "decompose", "corollary")
SEEDS = range(5)

MALFORMED = r"^malformed matrix entry: a cell is not an \[re, im\] pair of numbers$"
SHAPES = r": matrix shapes disagree with the header$"


def _position(doc, rng):
    """A random ``(generator, row, column)`` of the tuple."""
    return tuple(int(rng.integers(size)) for size in (doc["m"], doc["dim"], doc["dim"]))


def _replace_number(value):
    def mutate(doc, rng):
        g, i, j = _position(doc, rng)
        doc["matrices"][g][i][j][int(rng.integers(2))] = value
    return mutate


def _drop_cell(doc, rng):
    g, i, j = _position(doc, rng)
    del doc["matrices"][g][i][j]


def _drop_row(doc, rng):
    g, i, _ = _position(doc, rng)
    del doc["matrices"][g][i]


def _resize_cell(size):
    def mutate(doc, rng):
        g, i, j = _position(doc, rng)
        doc["matrices"][g][i][j] = (doc["matrices"][g][i][j] + [0.0])[:size]
    return mutate


def _scale_generator(factor):
    def mutate(doc, rng):
        g = int(rng.integers(doc["m"]))
        doc["matrices"][g] = (factor * np.array(doc["matrices"][g])).tolist()
    return mutate


def _shift_header(key):
    def mutate(doc, rng):
        doc[key] += int(rng.choice([-1, 1]))
    return mutate


def _nest_deeper(doc, rng):
    if rng.integers(2):
        doc["matrices"] = [doc["matrices"]]
    else:
        doc["matrices"] = np.array(doc["matrices"])[..., None, :].tolist()


def _nest_shallower(doc, rng):
    if rng.integers(2):
        doc["matrices"] = doc["matrices"][int(rng.integers(doc["m"]))]
    else:
        doc["matrices"] = np.array(doc["matrices"]).reshape(doc["m"], doc["dim"], -1).tolist()


def _first_generator_alone(doc, rng):
    doc["m"], doc["matrices"] = 1, doc["matrices"][:1]


def _empty(doc, rng):
    doc["dim"], doc["matrices"] = 0, [[] for _ in range(doc["m"])]


# label -> (mutation, the cause an exit 3 must name, or None for a valid file)
MUTATIONS = {
    "dropped cell": (_drop_cell, MALFORMED),
    "dropped row": (_drop_row, MALFORMED),
    "1-element cell": (_resize_cell(1), MALFORMED),
    "3-element cell": (_resize_cell(3), MALFORMED),
    "true": (_replace_number(True), MALFORMED),
    "null": (_replace_number(None), MALFORMED),
    "string": (_replace_number("1.5"), MALFORMED),
    "object": (_replace_number({}), MALFORMED),
    "10**400": (_replace_number(10**400), r"^malformed matrix entry: int too large"),
    "NaN": (_replace_number(float("nan")), r"^matrix entries must be finite$"),
    "Infinity": (_replace_number(float("inf")), r"^matrix entries must be finite$"),
    "-Infinity": (_replace_number(float("-inf")), r"^matrix entries must be finite$"),
    "scaled 1e300": (_scale_generator(1e300), None),
    "scaled 1e-300": (_scale_generator(1e-300), None),
    "m off by one": (_shift_header("m"), SHAPES),
    "dim off by one": (_shift_header("dim"), SHAPES),
    "nested deeper": (_nest_deeper, SHAPES),
    "nested shallower": (_nest_shallower, f"{SHAPES}|{MALFORMED}"),
    "m = 1": (_first_generator_alone, None),
    "dim = 0": (_empty, r": need 'm' and 'dim' of at least 1, got m=2, dim=0$"),
}


@pytest.fixture(scope="module")
def valid_doc(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "valid.json"
    save_tuple(str(path), gen_decomposable(3, 2, 2, seed=1)[0])
    return json.loads(path.read_text())


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("label", list(MUTATIONS))
def test_mutated_tuple_file(valid_doc, tmp_path, capsys, label, seed):
    mutate, cause = MUTATIONS[label]
    doc = json.loads(json.dumps(valid_doc))
    mutate(doc, np.random.default_rng(seed))
    path, out = tmp_path / "t.json", tmp_path / "rep.json"
    path.write_text(json.dumps(doc))
    for command in COMMANDS:
        code = main([command, str(path), "--k", "2", "--out", str(out)])
        err = capsys.readouterr().err
        if cause is None:
            assert code == EXIT_PASS, (command, err)
        else:
            assert code == EXIT_ERROR, command
        if code == EXIT_ERROR:
            assert not out.exists(), command
            (line,) = err.splitlines()
            assert line.startswith("error: ") and re.search(cause, line[len("error: "):]), line
        out.unlink(missing_ok=True)


def _nested(valid_doc, key, depth):
    """The valid file's text with ``key`` set to ``depth`` nested empty lists."""
    return json.dumps({**valid_doc, key: None}).replace(
        f'"{key}": null', f'"{key}": ' + "[" * depth + "]" * depth)


def _answers(path, out, capsys):
    """Each command's exit code and stderr lines on the file at ``path``,
    after checking that an exit 3 wrote no report."""
    results = []
    for command in COMMANDS:
        code = main([command, str(path), "--k", "2", "--out", str(out)])
        if code == EXIT_ERROR:
            assert not out.exists(), command
        out.unlink(missing_ok=True)
        results.append((code, capsys.readouterr().err.splitlines()))
    return results


@pytest.mark.parametrize("key", ["matrices", "metadata"])
def test_nested_past_the_decoder_limit(valid_doc, tmp_path, capsys, key):
    # past the JSON decoder's nesting limit of every interpreter (about
    # 1,000 levels on Python 3.10 and 3.11, 1,500 on 3.12, 10,000 on 3.13)
    path, out = tmp_path / "t.json", tmp_path / "rep.json"
    path.write_text(_nested(valid_doc, key, 100_000))
    for code, err in _answers(path, out, capsys):
        assert code == EXIT_ERROR
        assert err == [f"error: {path}: JSON nested too deeply to decode"]


@pytest.mark.parametrize("key", ["matrices", "metadata"])
def test_nested_near_the_decoder_limit(valid_doc, tmp_path, capsys, key):
    # just under the limit the file decodes; its metadata, echoed in the
    # report, may then not encode: either way a command answers with a
    # report or refuses the file with one line and no report, a line that
    # names the file when the metadata is at fault
    def decodes(depth):
        try:
            json.loads(_nested(valid_doc, key, depth))
        except RecursionError:
            return False
        return True

    low, high = 1, 100_000  # the deepest decodable nesting here is in [low, high)
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (mid, high) if decodes(mid) else (low, mid)
    path, out = tmp_path / "t.json", tmp_path / "rep.json"
    for depth in range(low - 12, low + 3):
        path.write_text(_nested(valid_doc, key, depth))
        for code, err in _answers(path, out, capsys):
            if code == EXIT_ERROR:
                (line,) = err
                assert line.startswith("error: "), (depth, line)
                if key == "metadata":
                    assert line in (f"error: {path}: JSON nested too deeply to decode",
                                    f"error: {path}: metadata nested too deeply to encode"), depth
            else:
                assert code == EXIT_PASS and key == "metadata" and not err, depth
