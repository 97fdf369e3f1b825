"""One boundary contract: a number that enters the library is checked once,
by `model._require`, and a value it cannot use raises a ValueError that
names the field or argument.

Every public dataclass is found the way `test_api.py` finds exported names,
and each of its numeric fields is built with NaN, +inf and -inf, with 0
where it must be positive, -1 where it must be non-negative, and 2.5 and
True where it must be an integer; each field that takes a sequence is also
built with a list or tuple that holds a bool among its numbers.  A new
dataclass is covered without a new test: it needs an entry in EXAMPLES, or
in RESULT_RECORDS with a reason.
"""

import dataclasses
import importlib
import math
import re
from pathlib import Path

import numpy as np
import pytest

from accwave.dataio import ParamSample, ScenarioConfig, config_from_dict, load_draws, sample_params
from accwave.fourier import fourier_decompose, periodic_reconstruct
from accwave.metrics import summary_stats
from accwave.microsim import (
    ConstAccel,
    Cruise,
    CutIn,
    LeaderProfile,
    Oscillate,
    OscillationSpec,
    Scenario,
    Trajectory,
    gap_reach,
    ring_setup,
)
from accwave.model import ControlParams, TrafficState, _require
from accwave.pde import Grid
from accwave.scenarios import ring_scenario, run_ring_validation, solve_ring
from accwave.tracker import constant_speed_path, trace_phase_transition
from accwave.waves import wave_speed_closed_form

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "accwave"


def _public_dataclasses():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"accwave.{path.stem}")
        for name in getattr(module, "__all__", []):
            obj = getattr(module, name)
            if isinstance(obj, type) and dataclasses.is_dataclass(obj):
                found[name] = obj
    return found


PUBLIC = _public_dataclasses()

# a field is numeric when its annotation is a number, an optional number or an array
_NUMERIC = re.compile(r"(Optional\[)?(float|int|ArrayLike|np\.ndarray|Union\[float)\b")
_INTEGER = ("int", "Optional[int]")


def _numeric_fields(cls):
    return [f for f in dataclasses.fields(cls) if _NUMERIC.match(f.type)]


# a field takes a sequence when its annotation is an array, a sequence of numbers or modes
_SEQUENCE = re.compile(r"(Optional\[)?(ArrayLike|np\.ndarray|Union\[float, Sequence|Tuple\[Tuple\[float)\b")


def _sequence_fields(cls):
    return [f for f in dataclasses.fields(cls) if _SEQUENCE.match(f.type)]


_T = np.arange(5) * 0.1
_MODE = ((1.0, 0.5, 0.0),)

# a valid instance of every public dataclass that takes input from a caller
EXAMPLES = {
    "ControlParams": ControlParams(),
    "TrafficState": TrafficState(rho=0.05, v=10.0),
    "OscillationSpec": OscillationSpec(10.0, _MODE),
    "Trajectory": Trajectory(0, _T, 10.0 * _T, np.full(5, 10.0), np.zeros(5), 0.1),
    "CutIn": CutIn(time=10.0, gap=10.0, ahead_of=2),
    "Cruise": Cruise(5.0),
    "ConstAccel": ConstAccel(4.0, -0.5),
    "Oscillate": Oscillate(5.0, _MODE),
    "LeaderProfile": LeaderProfile(12.0, (Cruise(None),)),
    "Scenario": Scenario(ControlParams(), 2, OscillationSpec(10.0), 10.0,
                         initial_speeds=10.0, initial_gaps=17.0),
    "Grid": Grid(100.0, 10),
    "ParamSample": ParamSample(1.2, 5.0, 0.8, 1.4),
    "ScenarioConfig": ScenarioConfig(**{f.name: 1 if f.type in _INTEGER else 1.0
                                        for f in _numeric_fields(ScenarioConfig)}, modes=_MODE),
}

# fields that also refuse 0, and fields that also refuse -1
POSITIVE = {
    "ControlParams.tau", "ControlParams.L", "ControlParams.v_f", "TrafficState.rho",
    "Trajectory.dt", "CutIn.gap", "Cruise.duration", "ConstAccel.duration",
    "Oscillate.duration", "Scenario.duration", "Scenario.dt", "Scenario.initial_gaps",
    "Grid.L_x", "ParamSample.tau", "ParamSample.L", "ParamSample.k_s", "ParamSample.k_v",
}
NON_NEGATIVE = {"ControlParams.k_s", "ControlParams.k_v", "ControlParams.eps_v"}

# values a field takes although the rule above would refuse them
ACCEPTED = {
    ("ControlParams.eps_v", math.inf):
        "an infinite cruise band is meaningful: the controller then engages on spacing alone",
}

# results that only the library builds, from inputs it has already checked;
# checking them again would cost time on every run (a traced path, a field)
RESULT_RECORDS = {
    "EigenStructure": "`eigenstructure` of a checked TrafficState",
    "PlatoonResult": "`simulate_platoon` output; each of its trajectories is checked as it is built",
    "EulerianField": "`solve` and ring validation output; its own array checks "
                     "(shape, positive density) stay",
    "WavePath": "a traced path: a check per path would charge the tracer on every origin",
    "PhaseTransition": "`trace_phase_transition` output",
    "DeviationStats": "`summary_stats` output, whose deviations are checked",
    "Histogram": "`histogram` output, binned at its fixed width",
    "Comparison": "pooled paths and deviations of the tracer",
    "CaseRun": "`run_case` output",
    "RingValidation": "`run_ring_validation` output",
    "EmpiricalRun": "`run_empirical` output",
    "TransferEval": "`transfer_function` output",
    "StabilityResult": "`string_stability_class` output",
    "WaveSpeedClosedForm": "`wave_speed_closed_form` output",
}


def _bad_values(key, f):
    values = [math.nan, math.inf, -math.inf]
    values += [0.0] * (key in POSITIVE) + [-1.0] * (key in NON_NEGATIVE)
    values += [2.5, True] * (f.type in _INTEGER)
    return [v for v in values if (key, v) not in ACCEPTED]


def _cases():
    for name, cls in sorted(PUBLIC.items()):
        if name in RESULT_RECORDS:
            continue
        for f in _numeric_fields(cls):
            key = f"{name}.{f.name}"
            for value in _bad_values(key, f):
                yield pytest.param(name, f.name, value, id=f"{key}={value}")


def _with(current, value):
    """`value` in place of a scalar field, or of one sample of an array field."""
    if isinstance(current, np.ndarray):
        current = current.astype(float)
        current[len(current) // 2] = value
        return current
    return value


@pytest.mark.parametrize("name, field, value", list(_cases()))
def test_every_public_dataclass_refuses_a_number_it_cannot_take(name, field, value):
    assert name in EXAMPLES, f"give {name} a valid example, or put it on RESULT_RECORDS"
    example = EXAMPLES[name]
    with pytest.raises(ValueError, match=rf"(^|\s){re.escape(field)} must be "):
        dataclasses.replace(example, **{field: _with(getattr(example, field), value)})


def _holding_a_bool(current):
    """`current` as a list, or as modes, with True in place of one number:
    numpy would read it as 1.0."""
    if isinstance(current, tuple):                   # modes: the first amplitude
        return ((True, *current[0][1:]), *current[1:])
    seq = np.ravel(current).tolist() if np.ndim(current) else [current, current]
    seq[len(seq) // 2] = True
    return seq


@pytest.mark.parametrize("name, field", [
    pytest.param(name, f.name, id=f"{name}.{f.name}")
    for name, cls in sorted(PUBLIC.items()) if name not in RESULT_RECORDS for f in _sequence_fields(cls)])
def test_every_sequence_field_refuses_a_bool_among_its_numbers(name, field):
    example = EXAMPLES[name]
    value = _holding_a_bool(getattr(example, field))
    with pytest.raises(ValueError, match=rf"^{re.escape(field)} must be a number, got {re.escape(repr(value))}$"):
        dataclasses.replace(example, **{field: value})


@pytest.mark.parametrize("key, value", sorted(ACCEPTED))
def test_an_allowed_value_is_taken(key, value):
    name, field = key.split(".")
    built = dataclasses.replace(EXAMPLES[name], **{field: value})
    assert getattr(built, field) == value


def test_the_lists_name_public_dataclasses_and_their_fields():
    listed = set(EXAMPLES) | set(RESULT_RECORDS)
    assert listed <= set(PUBLIC) and not set(EXAMPLES) & set(RESULT_RECORDS)
    for key in POSITIVE | NON_NEGATIVE | {k for k, _ in ACCEPTED}:
        name, field = key.split(".")
        assert field in {f.name for f in _numeric_fields(PUBLIC[name])}, key


# ---------------------------------------------------------------------------
# inputs that used to get through (NaN output, CollisionError or TypeError)
# ---------------------------------------------------------------------------

def _scenario(**changes):
    return dataclasses.replace(EXAMPLES["Scenario"], **changes)


def _trajectory(**changes):
    return dataclasses.replace(EXAMPLES["Trajectory"], **changes)


_DRAWS = [ParamSample(1.2, 5.0, 0.8, 1.4)]
_SPEEDS = np.sin(0.5 * np.arange(64.0))


# The dataclass fields among them (Scenario.initial_gaps = NaN, CutIn.gap =
# inf, Trajectory.dt = NaN, TrafficState.rho = NaN, ...) are cases of the
# walk above; these are the inputs it does not build.
@pytest.mark.parametrize("build, message", [
    (lambda: _scenario(initial_speeds=[10.0, math.nan]), "initial_speeds must be None or finite, got nan"),
    (lambda: _trajectory(x=np.zeros(3)), "x must have the shape (5,) of t, got (3,)"),
    (lambda: fourier_decompose(_SPEEDS, math.nan), "dt must be positive and finite, got nan"),
    (lambda: sample_params(_DRAWS, count=2.5), "count must be an integer, got 2.5"),
    (lambda: summary_stats(np.array([math.nan, 1.0])), "deviations must be finite, got nan"),
    # each used to be accepted, and then refused late by `simulate_platoon`,
    # failed there in numpy's broadcasting, or was ignored (a ring's gaps)
    (lambda: _scenario(cut_ins=(CutIn(time=10.0, gap=10.0, ahead_of=1),)),
     "cut-in time 10.0 outside the scenario window"),
    (lambda: _scenario(cut_ins=(CutIn(time=1e308, gap=10.0, ahead_of=1),)),
     "cut-in time 1e+308 outside the scenario window"),
    (lambda: _scenario(cut_ins=(CutIn(time=5.0, gap=10.0, ahead_of=3),)),
     "cut-in ahead_of must name a follower 1..2"),
    (lambda: _scenario(initial_speeds=[10.0, 10.0, 10.0]),
     "initial_speeds must be one value or one per follower (2), got shape (3,)"),
    (lambda: _scenario(initial_gaps=[17.0]),
     "initial_gaps must be one value or one per follower (2), got shape (1,)"),
    (lambda: _scenario(leader=None, initial_speeds=[10.0, 10.0], initial_gaps=5.0),
     "a ring takes no initial_gaps: its initial_speeds set its gaps"),
    # each writer then failed on the unchecked None with a KeyError
    (lambda: ScenarioConfig(full_precision=None), "full_precision must be true or false, got None"),
    # numpy read each bool as 1.0
    (lambda: _scenario(initial_speeds=[True, 10.0]), "initial_speeds must be a number, got [True, 10.0]"),
    (lambda: OscillationSpec(10.0, ((True, 0.5, 0.0),)), "modes must be a number, got ((True, 0.5, 0.0),)"),
    (lambda: ScenarioConfig(modes=((1.0, np.True_, 0.0),)), "modes must be a number, got ((1.0, np.True_, 0.0),)"),
    # numpy refused each ragged sequence with an "inhomogeneous shape" that named no field
    (lambda: _scenario(initial_speeds=[[10.0, 10.0], [10.0]]),
     "initial_speeds must be a number, got [[10.0, 10.0], [10.0]]"),
    (lambda: OscillationSpec(10.0, ((1.0, 0.5), (1.0, 0.5, 0.0))),
     "modes must be a number, got ((1.0, 0.5), (1.0, 0.5, 0.0))"),
], ids=lambda x: x if isinstance(x, str) else "")
def test_an_input_that_used_to_get_through_is_refused_by_name(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


@pytest.mark.parametrize("call, message", [
    (lambda: fourier_decompose(_SPEEDS, 0.1, K=2.5), "K must be an integer, got 2.5"),
    (lambda: periodic_reconstruct(_SPEEDS, math.nan, OscillationSpec(0.0)),
     "dt must be positive and finite, got nan"),
    (lambda: sample_params(_DRAWS, count=0), "count must be positive, got 0"),
    (lambda: gap_reach(_trajectory(x=_T + 30.0), _trajectory(), math.nan), "level must be finite, got nan"),
    (lambda: trace_phase_transition([_trajectory(x=_T + 30.0), _trajectory()], ControlParams(), math.nan),
     "v_e must be finite, got nan"),
    (lambda: wave_speed_closed_form(0, OscillationSpec(10.0), ControlParams()),
     "pair index n (the wave from vehicle n-1 to n) must be positive, got 0"),
    (lambda: constant_speed_path(0.1, [_trajectory(x=_T + 30.0), _trajectory()], math.nan),
     "w_const must be finite, got nan"),
    (lambda: solve_ring(1, n_vehicles=math.nan), "n_vehicles must be an integer, got nan"),
    (lambda: ring_scenario(2, n_vehicles=2.5), "n_vehicles must be an integer, got 2.5"),
    (lambda: run_ring_validation(3, n_vehicles=True), "n_vehicles must be an integer, got True"),
    # the bool used to be read as 1.0, the NaN to give a NaN ring length
    (lambda: ring_setup(ControlParams(), [True, 3.0]), "initial_speeds must be a number, got [True, 3.0]"),
    (lambda: ring_setup(ControlParams(), [10.0, math.nan]), "initial_speeds must be finite, got nan"),
], ids=lambda x: x if isinstance(x, str) else "")
def test_a_public_function_refuses_a_setting_it_cannot_use_by_name(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


# ---------------------------------------------------------------------------
# the helper's rule and message forms
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("rule, value, message", [
    ({}, math.nan, "w must be finite, got nan"),
    ({"positive": True}, 0.0, "w must be positive and finite, got 0.0"),
    ({"positive": True}, math.inf, "w must be positive and finite, got inf"),
    ({"nonnegative": True}, -1.0, "w must be non-negative and finite, got -1.0"),
    ({"nonnegative": True, "finite": False}, math.nan, "w must be non-negative, got nan"),
    ({"integer": True}, 2.5, "w must be an integer, got 2.5"),
    ({"integer": True}, True, "w must be an integer, got True"),
    ({"integer": True, "positive": True}, 0, "w must be positive, got 0"),
    ({"optional": True, "positive": True}, -1.0, "w must be None or positive and finite, got -1.0"),
    ({}, None, "w must be a number, got None"),
    ({}, "1.0", "w must be a number, got '1.0'"),
    ({}, True, "w must be a number, got True"),
    ({}, [1.0, math.inf, math.nan], "w must be finite, got inf"),
    ({}, [True, 3.0], "w must be a number, got [True, 3.0]"),
    ({}, ((1.0, 2.0), (np.False_, 3.0)), "w must be a number, got ((1.0, 2.0), (np.False_, 3.0))"),
    ({}, np.array([True, False]), "w must be a number, got array([ True, False])"),
    ({"positive": True}, np.array([[1.0, 2.0], [0.0, -1.0]]), "w must be positive and finite, got 0.0"),
])
def test_require_names_the_value_and_its_rule(rule, value, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _require(value, "w", **rule)


@pytest.mark.parametrize("rule, value", [
    ({"nonnegative": True, "finite": False}, math.inf),
    ({"optional": True}, None),
    ({"integer": True, "positive": True}, np.int64(3)),
    ({}, np.float64(-2.0)),
    ({"positive": True}, [1.0, 2.0]),
    ({}, np.array(7.3)),
    ({"nonnegative": True}, np.arange(4)),
    ({}, ((1, 2.5), (np.float64(3.0), -4))),
])
def test_require_takes_what_its_rule_allows(rule, value):
    _require(value, "w", **rule)


# ---------------------------------------------------------------------------
# README's "Invalid input" examples
# ---------------------------------------------------------------------------

# each message README shows, and an input that gives it
README_MESSAGES = {
    "duration must be positive and finite, got nan": lambda: _scenario(duration=math.nan),
    "v0 must be finite, got inf": lambda: LeaderProfile(math.inf, (Cruise(None),)),
    "eps_v must be non-negative, got -1.0": lambda: ControlParams(eps_v=-1.0),
    "n_followers must be an integer, got 2.5": lambda: _scenario(n_followers=2.5),
    "initial_gaps must be None or positive and finite, got nan":
        lambda: _scenario(initial_gaps=math.nan),
    "initial_speeds must be a number, got [True, 10.0]": lambda: _scenario(initial_speeds=[True, 10.0]),
    "initial_speeds must be a number, got [[10.0, 10.0], [10.0]]":
        lambda: _scenario(initial_speeds=[[10.0, 10.0], [10.0]]),
    "a scenario without a leader is a ring; its initial_speeds must list its 40 vehicles, "
    "got shape ()": lambda: _scenario(leader=None, n_followers=40, initial_gaps=None),
    "initial_gaps must be one value or one per follower (4), got shape (3,)":
        lambda: _scenario(n_followers=4, initial_gaps=[17.0, 17.0, 17.0]),
    "cut-in time 60.0 outside the scenario window":
        lambda: _scenario(duration=60.0, cut_ins=(CutIn(time=60.0, gap=10.0, ahead_of=1),)),
    "each initial gap tau*v + L of initial_speeds must be positive and finite, got -19.0":
        lambda: ring_setup(ControlParams(), [10.0, -20.0]),
    "modes must be a list of [amplitude, omega, phase], got 5": lambda: config_from_dict({"modes": 5}),
    "d.csv: malformed draw at row 2: ['-1', '5', '0.8', '1.4']: tau must be positive and finite, got -1.0":
        lambda: Path("d.csv").write_text("tau,L,k_s,k_v\n-1,5,0.8,1.4\n") and load_draws("d.csv"),
}


def test_readme_invalid_input_messages_are_the_library_messages(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)          # where the draws example writes d.csv
    text = (PACKAGE.parent.parent / "README.md").read_text()
    section = text.split("## Invalid input", 1)[1].split("\n## ", 1)[0]
    shown = [line for block in re.findall(r"```text\n(.*?)```", section, re.S)
             for line in block.splitlines()]
    assert shown == list(README_MESSAGES)
    for message, build in README_MESSAGES.items():
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()
