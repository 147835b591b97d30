"""Property tests of the CLI's failure contract, run in-process on `cli.main`.

Whatever the input, a run exits 0, 2 or 3, and a nonzero exit prints exactly
one JSON line on stderr: nothing else, not even a numpy warning. A gradcheck
that exits 0 has compared at least one coordinate at a positive, finite step.
Sizes are bounded so every case runs in milliseconds.
"""
import io
import json
import math
import sys
import warnings

from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from distillab.cli import main

FUZZ = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)

_FLOATS = st.one_of(
    st.floats(1e-6, 10.0), st.floats(), st.sampled_from([0.0, -0.0, 1e-300, 1e-5, 1.0, 1e300])
)
_JUNK = st.text(alphabet="naifxyz.,:+e ", max_size=6)  # no digits: no unbounded sizes

GRADCHECK = {
    "batches": st.integers(0, 2),
    "batch-size": st.integers(0, 4),
    "vocab": st.integers(1, 16),
    "max-len": st.integers(0, 8),
    "seed": st.integers(-1, 3),
    "step": _FLOATS,
    "temperature": _FLOATS,
    "clip": _FLOATS,
    "weighting": st.one_of(
        st.sampled_from(["uniform", "moderate", "aggressive", "entropy_gate", "bogus"]),
        _FLOATS.map(lambda x: f"entropy_gate:{x!r}"),
    ),
    "reduction": st.sampled_from(["global_token_mean", "per_sequence_mean", "mean"]),
    "threads": st.integers(0, 2),
}
IDENTITIES = {
    "trials": st.integers(0, 2),
    "depth": st.integers(-1, 6),
    "alphabet": st.integers(-1, 9),
    "seed": st.integers(-1, 3),
    "threads": st.integers(0, 2),
}
COMMANDS = {"gradcheck": GRADCHECK, "identities": IDENTITIES}

_DEEP = "[" * 100_000 + "]" * 100_000  # nested past the JSON decoder's recursion limit
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=12,
)


def _run(capsys, argv):
    """Exit code and stdout of one in-process run, with the contract checked."""
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for hidden in (DeprecationWarning, PendingDeprecationWarning, ImportWarning, ResourceWarning):
            warnings.simplefilter("ignore", hidden)  # as Python hides them outside __main__
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own refusals
            code = exc.code
    captured = capsys.readouterr()
    event(f"{argv[0]} exit {code}")
    assert code in (0, 2, 3), (argv, code, captured.err)
    if code != 0:
        lines = captured.err.splitlines() + [str(w.message) for w in caught]
        assert len(lines) == 1, (argv, lines)
        assert "error" in json.loads(lines[0])
    return code, captured.out


def _check_gradcheck_success(out, step):
    assert math.isfinite(step) and step > 0.0, step
    assert json.loads(out)["compared"] > 0


def _with_stdin(monkeypatch, text):
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    flags = COMMANDS[command]
    argv = [command]
    for _ in range(draw(st.integers(0, 5))):
        name = draw(st.sampled_from(sorted(flags)))
        value = str(draw(_JUNK if draw(st.integers(0, 4)) == 0 else flags[name]))
        form = draw(st.integers(0, 8))  # rarely, the value is left out
        argv += [f"--{name}={value}"] if form < 4 else [f"--{name}", value] if form < 8 else [f"--{name}"]
    if draw(st.integers(0, 4)) == 0:
        argv.insert(draw(st.integers(1, len(argv))), draw(_JUNK))
    return argv


def _last_step(argv):
    steps = [a.split("=", 1)[1] for a in argv if a.startswith("--step=")]
    steps += [b for a, b in zip(argv, argv[1:]) if a == "--step"]
    return float(steps[-1]) if steps else 1e-5


@FUZZ
@given(argv=_argv())
@example(argv=["gradcheck", "--step", "nan"])
@example(argv=["gradcheck", "--step=inf"])
@example(argv=["gradcheck", "--step", "1e300", "--batches", "1"])
@example(argv=["identities", "--alphabet=-1", "--trials", "1"])
def test_identities_and_gradcheck_argv_keep_the_contract(capsys, argv):
    code, out = _run(capsys, argv)
    if argv[0] == "gradcheck" and code == 0:
        _check_gradcheck_success(out, _last_step(argv))


@st.composite
def _config(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    flags = COMMANDS[command]
    keys = st.one_of(st.sampled_from(sorted(flags)), st.sampled_from(["help", "config", "bogus"]))
    values = {}
    for _ in range(draw(st.integers(0, 4))):
        key = draw(keys)
        values[key.replace("-", "_") if draw(st.booleans()) else key] = draw(
            st.one_of(flags[key], _JSON) if key in flags else _JSON
        )
    return command, values


@FUZZ
@given(case=_config())
@example(case=("gradcheck", {"step": math.nan}))
@example(case=("gradcheck", {"step": 1e300, "batches": 1}))
def test_config_objects_keep_the_contract(capsys, tmp_path, monkeypatch, case):
    command, values = case
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(values), encoding="utf-8")  # NaN and Infinity included
    code, out = _run(capsys, [command, "--config", str(path)])
    if command == "gradcheck" and code == 0:
        _check_gradcheck_success(out, float(values.get("step", 1e-5)))


_ROWS = st.integers(1, 5).flatmap(  # distributions, rows of one width
    lambda v: st.lists(st.lists(st.floats(0.0, 1e3), min_size=v, max_size=v), min_size=2, max_size=4)
).map(lambda rows: [[x / sum(row) for x in row] if sum(row) > 0 else row for row in rows])
_MEMBERS = st.one_of(
    _ROWS,
    _JSON,
    st.lists(st.lists(st.one_of(_FLOATS, st.integers(-1, 2), st.text(max_size=2)), max_size=4), max_size=4),
)


@FUZZ
@given(
    payload=st.one_of(
        st.fixed_dictionaries({"members": _ROWS}).map(json.dumps),
        st.fixed_dictionaries(
            {"members": _MEMBERS},
            optional={"valid_mask": st.one_of(st.lists(st.booleans(), max_size=5), _JSON)},
        ).map(json.dumps),
        _JSON.map(json.dumps),
        st.text(max_size=20),
    )
)
@example(payload='{"members": [[0.5, "x"], [0.5, 0.5]]}')
@example(payload='{"members": {"a": 1}}')
@example(payload='{"members": [[0.5, 0.5], [0.5]]}')
@example(payload='{"members": [[1e308, 1e308], [0.5, 0.5]]}')
@example(payload='{"members": [[0, 0], [0, 0]]}')
@example(payload=_DEEP)
def test_score_stdin_keeps_the_contract(capsys, monkeypatch, payload):
    _with_stdin(monkeypatch, payload)
    _run(capsys, ["score", "--in", "-"])


_SAMPLE = st.one_of(st.text(max_size=8), st.text(max_size=4).map(lambda s: f"\\boxed{{{s}}}"))
_PROBLEM = st.fixed_dictionaries(
    {"gold": _JSON, "samples": st.one_of(st.lists(_SAMPLE, min_size=1, max_size=4), _JSON)},
    optional={"problem_id": _JSON},
)
_LINE = st.one_of(_PROBLEM.map(json.dumps), _JSON.map(json.dumps), st.text(max_size=10))


@FUZZ
@given(lines=st.one_of(st.lists(_PROBLEM.map(json.dumps), max_size=3), st.lists(_LINE, max_size=3)))
@example(lines=['{"gold": "1", "samples": ["a"], "problem_id": "\\ud800"}'])
@example(lines=[_DEEP])
def test_metrics_stdin_keeps_the_contract(capsys, monkeypatch, lines):
    _with_stdin(monkeypatch, "\n".join(lines))
    _run(capsys, ["metrics", "--in", "-"])
