"""Seeded fuzz of the CLI's exit-code contract: 0, 2 or 3, never a traceback.

The CLI runs in process, so an exception escaping ``main`` fails the test
the way a traceback would fail a shell user. Values stay small so every
run is cheap: counts are tiny and the local dimension is at most 4.
"""

import contextlib
import io
import json
import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from qembezzle.cli import main  # noqa: E402
from qembezzle.experiments import EXPERIMENTS  # noqa: E402

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)

SMALL_INTS = st.integers(min_value=-2, max_value=4)
FLOATS = st.sampled_from([-1.0, 0.0, 0.05, 0.1, 0.3, 0.9, 1.0, 2.0, math.nan, math.inf])
STATE_SOURCES = st.sampled_from(
    ["random", "fixture:I", "fixture:I:0", "fixture:III:1", "fixture:reference:0",
     "fixture:reference:9", "fixture:x", "fixture", "file:missing.json", "", "bogus"]
)
TOKENS = st.one_of(
    SMALL_INTS.map(str),
    FLOATS.map(str),
    st.sampled_from(["", "x", "-", "1e309", "0x10", "--", "fixture:I"]),
)
FLAGS = {
    "--seed": st.one_of(SMALL_INTS.map(str), st.sampled_from(["-1", str(2**64), "7"])),
    "--threads": SMALL_INTS.map(str),
    "--d": SMALL_INTS.map(str),
    "--epsilon": FLOATS.map(str),
    "--candidates": SMALL_INTS.map(str),
    "--samples": SMALL_INTS.map(str),
    "--state-source": STATE_SOURCES,
    "--resolution": st.sampled_from(["-1", "10", "50", "64"]),
    "--threshold": FLOATS.map(str),
    "--bogus": TOKENS,
}

JSON_VALUES = st.one_of(
    SMALL_INTS,
    FLOATS,
    st.booleans(),
    st.none(),
    st.sampled_from(["", "5", "fidelity", "random", "fixture:I"]),
    st.lists(st.one_of(SMALL_INTS, FLOATS), max_size=3),
)
CONFIG_KEYS = st.sampled_from(
    ["experiment", "d", "epsilon", "epsilon_grid", "candidates", "samples", "seed",
     "state_source", "resolution", "threshold", "margin", "m_values", "threads", "bogus"]
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _exit_code(argv):
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects malformed argv with exit 2
            code = exc.code
    assert "Traceback" not in stderr.getvalue()
    return code


@SETTINGS
@given(
    command=st.sampled_from(EXPERIMENTS),
    flags=st.lists(st.sampled_from(sorted(FLAGS)), max_size=4).flatmap(
        lambda names: st.tuples(*(st.tuples(st.just(n), FLAGS[n]) for n in names))
    ),
)
def test_fuzzed_argv_keeps_exit_contract(workdir, command, flags):
    argv = [command, "--samples", "1", "--candidates", "2", "--out", str(workdir / "a.csv")]
    for name, value in flags:
        argv += [name, value]
    assert _exit_code(argv) in (0, 2, 3)


@SETTINGS
@given(
    command=st.sampled_from(EXPERIMENTS),
    doc=st.one_of(
        st.dictionaries(CONFIG_KEYS, JSON_VALUES, max_size=5),
        JSON_VALUES,
    ),
)
def test_fuzzed_config_document_keeps_exit_contract(workdir, command, doc):
    if isinstance(doc, dict):
        # Absent counts would fall back to the full-size defaults.
        doc.setdefault("samples", 1)
        doc.setdefault("candidates", 2)
    path = workdir / "cfg.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    argv = [command, "--config", str(path), "--out", str(workdir / "c.csv")]
    assert _exit_code(argv) in (0, 2, 3)
