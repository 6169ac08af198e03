"""The scenario-spec grammar, pinned as a golden table.

Every production of the spec grammar (``a+b``, ``a@N``, ``a~jNus``,
parens, chaos/v1 file components) and every parse error has a row: the
resolved scenario name (or the error class and message up to its first
``;``), :func:`canonical_scenario_name`, ``sized_spec(spec, 20)`` and a
digest of the topology edges and external events the spec builds at
seeds 1 and 2 -- no simulation.  The canonical
name keys every schedule stream (``seed_split``), so a moved digest is a
moved workload.

Regenerate the table after an intended change with::

    PYTHONPATH=src python tests/test_scenario_grammar.py

and say in the change log which rows moved and why.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.sweep import (
    canonical_scenario_name,
    get_scenario,
    sized_spec,
)

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(autouse=True)
def _from_repo_root(monkeypatch):
    monkeypatch.chdir(REPO_ROOT)


def _outcome(fn, *args) -> str:
    try:
        return str(fn(*args))
    except (KeyError, ValueError) as exc:
        return f"{type(exc).__name__}: {str(exc.args[0]).split(';')[0]}"


def _digest(scenario) -> str:
    h = hashlib.sha256()
    for seed in (1, 2):
        graph = scenario.topology(seed)
        h.update(repr((graph.nodes, graph.edges)).encode())
        for event in scenario.schedule(graph, seed).sorted():
            h.update(repr(
                (event.time_us, event.kind, event.target, event.data)
            ).encode())
    return h.hexdigest()[:16]


def _row(spec: str):
    try:
        digest = _digest(get_scenario(spec))
    except (KeyError, ValueError):
        digest = None
    return (
        _outcome(lambda: get_scenario(spec).name),
        _outcome(canonical_scenario_name, spec),
        _outcome(sized_spec, spec, 20),
        digest,
    )


# spec -> (resolved .name | error, canonical_scenario_name,
#          sized_spec(spec, 20), schedule digest)
GOLDEN = {
    'flap-storm': (
        'flap-storm',
        'flap-storm',
        'flap-storm@20',
        '132999bfb5457888',
    ),
    'flap_storm': (
        'flap-storm',
        'flap-storm',
        'flap-storm@20',
        '132999bfb5457888',
    ),
    'partition': (
        'partition',
        'partition',
        'partition@20',
        '71baf894c06909ae',
    ),
    'xorp-bgp-med': (
        'xorp-bgp-med',
        'xorp-bgp-med',
        'xorp-bgp-med@20',
        '1d545c669b67f01c',
    ),
    'heat-death': (
        "KeyError: unknown scenario 'heat-death'",
        'heat-death',
        'heat-death@20',
        None,
    ),
    'flap-storm@20': (
        'flap-storm@20',
        'flap-storm@20',
        "ValueError: component 'flap-storm@20' already carries a size",
        '32846563b83b5d44',
    ),
    'flap_storm@40': (
        'flap-storm@40',
        'flap-storm@40',
        "ValueError: component 'flap-storm@40' already carries a size",
        '3df2b7ccd6ecff9f',
    ),
    'crash-restart@12': (
        'crash-restart@12',
        'crash-restart@12',
        "ValueError: component 'crash-restart@12' already carries a size",
        '342cb0c66e60fbbf',
    ),
    'flap-storm~j1us': (
        'flap-storm~j1us',
        'flap-storm~j1us',
        'flap-storm@20~j1us',
        '48c50d64208a9e8d',
    ),
    'latency-jitter~j2us': (
        'latency-jitter~j2us',
        'latency-jitter~j2us',
        'latency-jitter@20~j2us',
        '03177c19880d09e1',
    ),
    'flap-storm@20~j1us': (
        'flap-storm@20~j1us',
        'flap-storm@20~j1us',
        "ValueError: component 'flap-storm@20' already carries a size",
        '0d1fcc7802143fdb',
    ),
    'partition@12~j3us': (
        'partition@12~j3us',
        'partition@12~j3us',
        "ValueError: component 'partition@12' already carries a size",
        '4a5ed2bdab727628',
    ),
    'flap-storm+partition': (
        'flap-storm+partition',
        'flap-storm+partition',
        'flap-storm@20+partition@20',
        '241af10d93dd0326',
    ),
    'crash_restart+partition': (
        'crash-restart+partition',
        'crash-restart+partition',
        'crash-restart@20+partition@20',
        'f0f89bb640b87733',
    ),
    'flap-storm+partition~j2us': (
        'flap-storm+partition~j2us',
        'flap-storm+partition~j2us',
        'flap-storm@20+partition@20~j2us',
        '85c25e93657dffd0',
    ),
    'crash-restart+ddos-overload~j1us': (
        'crash-restart+ddos-overload~j1us',
        'crash-restart+ddos-overload~j1us',
        'crash-restart@20+ddos-overload@20~j1us',
        '6c251160d603f3f0',
    ),
    'flap-storm@20+partition@20~j2us': (
        'flap-storm@20+partition@20~j2us',
        'flap-storm@20+partition@20~j2us',
        "ValueError: component 'flap-storm@20' already carries a size",
        '93a86545d0da442b',
    ),
    'flap-storm~j1us+partition': (
        'flap-storm~j1us+partition',
        'flap-storm~j1us+partition',
        'flap-storm@20~j1us+partition@20',
        'bfbb6c456cba88e3',
    ),
    'flap-storm~j1us+partition~j5us': (
        'flap-storm~j1us+partition~j5us',
        'flap-storm~j1us+partition~j5us',
        'flap-storm@20~j1us+partition@20~j5us',
        '1badccac8add9299',
    ),
    'latency-jitter~j1us+partition~j3us': (
        'latency-jitter~j1us+partition~j3us',
        'latency-jitter~j1us+partition~j3us',
        'latency-jitter@20~j1us+partition@20~j3us',
        '5b5a6c65b3a84506',
    ),
    '(flap-storm~j1us+partition)~j5us': (
        '(flap-storm~j1us+partition)~j5us',
        '(flap-storm~j1us+partition)~j5us',
        '(flap-storm@20~j1us+partition@20)~j5us',
        'c63a263a733dbe2c',
    ),
    '(flap-storm+partition)~j2us': (
        'flap-storm+partition~j2us',
        'flap-storm+partition~j2us',
        'flap-storm@20+partition@20~j2us',
        '85c25e93657dffd0',
    ),
    '(flap-storm+partition)@20': (
        'flap-storm@20+partition@20',
        'flap-storm@20+partition@20',
        "ValueError: component 'flap-storm@20' already carries a size",
        '0cb2e6b0e48ca12b',
    ),
    '(flap-storm~j1us+partition)@20': (
        'flap-storm@20~j1us+partition@20',
        'flap-storm@20~j1us+partition@20',
        "ValueError: component 'flap-storm@20~j1us' already carries a size",
        '846ddb1d78874f9a',
    ),
    '(flap-storm~j1us+partition)@20~j5us': (
        '(flap-storm@20~j1us+partition@20)~j5us',
        '(flap-storm@20~j1us+partition@20)~j5us',
        "ValueError: component 'flap-storm@20~j1us' already carries a size",
        '3692b51c347dc7a3',
    ),
    '(flap-storm)': (
        'flap-storm',
        'flap-storm',
        'flap-storm@20',
        '132999bfb5457888',
    ),
    '(flap-storm~j1us)@20': (
        'flap-storm@20~j1us',
        'flap-storm@20~j1us',
        "ValueError: component 'flap-storm@20' already carries a size",
        '0d1fcc7802143fdb',
    ),
    '(flap-storm~j1us)~j2us': (
        "ValueError: '(flap-storm~j1us)~j2us' stacks more than one ~j<N>us jitter suffix on the same target",
        "ValueError: '(flap-storm~j1us)~j2us' stacks more than one ~j<N>us jitter suffix on the same target",
        "ValueError: '(flap-storm~j1us)~j2us' stacks more than one ~j<N>us jitter suffix on the same target",
        None,
    ),
    '(flap-storm+partition~j1us)': (
        '(flap-storm+partition~j1us)',
        '(flap-storm+partition~j1us)',
        '(flap-storm@20+partition@20~j1us)',
        '3c08c3d9cd817a51',
    ),
    '(flap-storm+partition~j1us)~j2us': (
        '(flap-storm+partition~j1us)~j2us',
        '(flap-storm+partition~j1us)~j2us',
        '(flap-storm@20+partition@20~j1us)~j2us',
        'c6a2729a40953b9a',
    ),
    'examples/clock_skew_storm.yaml': (
        'skew-storm',
        'examples/clock_skew_storm.yaml',
        'examples/clock_skew_storm.yaml@20',
        '13ec7b00271f0c92',
    ),
    'examples/clock_skew_storm.yaml@20': (
        'skew-storm@20',
        'examples/clock_skew_storm.yaml@20',
        "ValueError: component 'examples/clock_skew_storm.yaml@20' already carries a size",
        '46ecfd3bf3486b58',
    ),
    'examples/clock_skew_storm.yaml~j1us': (
        'skew-storm~j1us',
        'examples/clock_skew_storm.yaml~j1us',
        'examples/clock_skew_storm.yaml@20~j1us',
        '1e35a20df09fb9e5',
    ),
    'examples/clock_skew_storm.yaml@20~j1us': (
        'skew-storm@20~j1us',
        'examples/clock_skew_storm.yaml@20~j1us',
        "ValueError: component 'examples/clock_skew_storm.yaml@20' already carries a size",
        'de9ea2732bb99abf',
    ),
    'examples/dup_reorder_soak.yaml+partition': (
        'dup-reorder-soak+partition',
        'examples/dup_reorder_soak.yaml+partition',
        'examples/dup_reorder_soak.yaml@20+partition@20',
        '6aabf9ef967206ab',
    ),
    'partition+examples/gray_failure.yaml~j2us': (
        'partition+gray-failure~j2us',
        'partition+examples/gray_failure.yaml~j2us',
        'partition@20+examples/gray_failure.yaml@20~j2us',
        'f69ec1450145bf61',
    ),
    'flap-storm~j1us~j2us': (
        "ValueError: 'flap-storm~j1us~j2us' stacks more than one ~j<N>us jitter suffix on the same target",
        "ValueError: 'flap-storm~j1us~j2us' stacks more than one ~j<N>us jitter suffix on the same target",
        "ValueError: 'flap-storm~j1us~j2us' stacks more than one ~j<N>us jitter suffix on the same target",
        None,
    ),
    'flap-storm+partition~j1us~j2us': (
        "ValueError: 'flap-storm+partition~j1us~j2us' stacks more than one ~j<N>us jitter suffix on the same target",
        "ValueError: 'flap-storm+partition~j1us~j2us' stacks more than one ~j<N>us jitter suffix on the same target",
        "ValueError: 'flap-storm+partition~j1us~j2us' stacks more than one ~j<N>us jitter suffix on the same target",
        None,
    ),
    '(flap-storm+partition)~j1us~j2us': (
        "ValueError: '(flap-storm+partition)~j1us~j2us' stacks more than one ~j<N>us jitter suffix on the same target",
        "ValueError: '(flap-storm+partition)~j1us~j2us' stacks more than one ~j<N>us jitter suffix on the same target",
        "ValueError: '(flap-storm+partition)~j1us~j2us' stacks more than one ~j<N>us jitter suffix on the same target",
        None,
    ),
    'flap-storm~j1us~j2us+partition': (
        "ValueError: 'flap-storm~j1us~j2us' stacks more than one ~j<N>us jitter suffix on the same target",
        "ValueError: 'flap-storm~j1us~j2us' stacks more than one ~j<N>us jitter suffix on the same target",
        "ValueError: 'flap-storm~j1us~j2us' stacks more than one ~j<N>us jitter suffix on the same target",
        None,
    ),
    'flap-storm~j1us@20': (
        "ValueError: component 'flap-storm~j1us@20': the size binds inside the jitter suffix -- write 'name@N~jJus', not 'name~jJus@N'",
        "ValueError: component 'flap-storm~j1us@20': the size binds inside the jitter suffix -- write 'name@N~jJus', not 'name~jJus@N'",
        "ValueError: component 'flap-storm~j1us@20': the size binds inside the jitter suffix -- write 'name@N~jJus', not 'name~jJus@N'",
        None,
    ),
    'flap-storm@20@40': (
        "ValueError: component 'flap-storm@20@40' already carries a size",
        "ValueError: component 'flap-storm@20@40' already carries a size",
        "ValueError: component 'flap-storm@20@40' already carries a size",
        None,
    ),
    '(flap-storm@20+partition)@40': (
        "ValueError: component 'flap-storm@20' already carries a size",
        "ValueError: component 'flap-storm@20' already carries a size",
        "ValueError: component 'flap-storm@20' already carries a size",
        None,
    ),
    'flap-storm+heat-death': (
        "KeyError: unknown scenario 'flap-storm+heat-death'",
        'flap-storm+heat-death',
        'flap-storm@20+heat-death@20',
        None,
    ),
    'xorp-bgp-med@20': (
        "ValueError: scenario 'xorp-bgp-med' is not size-parameterized: it is bound to a fixed topology (no sizer hook)",
        'xorp-bgp-med@20',
        "ValueError: component 'xorp-bgp-med@20' already carries a size",
        None,
    ),
    'quagga_rip_blackhole@20': (
        "ValueError: scenario 'quagga-rip-blackhole' is not size-parameterized: it is bound to a fixed topology (no sizer hook)",
        'quagga-rip-blackhole@20',
        "ValueError: component 'quagga-rip-blackhole@20' already carries a size",
        None,
    ),
    'xorp-bgp-med+flap-storm': (
        "ValueError: scenario 'xorp-bgp-med' declares a custom daemon bound to its own topology and cannot be composed",
        'xorp-bgp-med+flap-storm',
        'xorp-bgp-med@20+flap-storm@20',
        None,
    ),
}


@pytest.mark.parametrize("spec", sorted(GOLDEN))
def test_golden_row(spec):
    assert _row(spec) == GOLDEN[spec]


def test_parenthesised_component_cannot_stack_jitter():
    """``(a~j1us)~j2us`` is ``a~j1us~j2us`` in parens: one target, two
    jitters, the same parse error."""
    for spec in ("(flap-storm~j1us)~j2us", "(flap-storm@20~j1us)~j2us"):
        with pytest.raises(ValueError, match="stacks more than one"):
            get_scenario(spec)


# ----------------------------------------------------------------------
# boundary jitter: J over the whole spec, replacing whole-spec jitter
# ----------------------------------------------------------------------

#: spec -> the spec under 2 us of boundary jitter
REJITTERED = {
    "flap-storm": "flap-storm~j2us",
    "flap-storm~j1us": "flap-storm~j2us",
    "flap-storm+partition~j1us": "flap-storm+partition~j2us",
    "flap-storm~j1us+partition": "(flap-storm~j1us+partition)~j2us",
    "flap-storm~j1us+partition~j5us": "(flap-storm~j1us+partition~j5us)~j2us",
    "(flap-storm~j1us+partition)~j5us": "(flap-storm~j1us+partition)~j2us",
}


def test_sweep_boundary_jitter_covers_the_whole_spec(monkeypatch):
    import repro.cli as cli_mod
    import repro.sweep as sweep_mod

    captured = {}

    class FakeRunner:
        def __init__(self, scenarios=None, **kwargs):
            captured["names"] = scenarios
            raise SystemExit(0)

    monkeypatch.setattr(sweep_mod, "SweepRunner", FakeRunner)
    args = cli_mod.build_parser().parse_args([
        "sweep", "--scenarios", ",".join(REJITTERED),
        "--boundary-jitter-us", "2", "--seeds", "1",
    ])
    with pytest.raises(SystemExit):
        cli_mod.cmd_sweep(args)
    assert captured["names"] == list(dict.fromkeys(REJITTERED.values()))
    for name in captured["names"]:
        assert get_scenario(name).name == name


def test_envelope_boundary_jitter_covers_the_whole_spec():
    from repro.envelope import EnvelopeRunner

    runner = EnvelopeRunner(
        scenarios=list(REJITTERED), jitters_us=(0,),
        windows_us=(1_000_000,), boundary_jitter_us=2,
    )
    assert runner.scenarios == tuple(dict.fromkeys(REJITTERED.values()))


def test_fuzz_jitter_axis_covers_the_whole_spec(monkeypatch, capsys):
    import repro.sweep as sweep_mod
    from repro.cli import main
    from repro.sweep import CellResult, fuzz_grid

    def fake_run_cell(cell):
        # fails from 2 us of whole-spec jitter up
        failing = sweep_mod._Spec.parse(cell.scenario).jitter >= 2
        return CellResult(
            scenario=cell.scenario, seed=cell.seed, mode=cell.mode,
            fingerprint="fp", invariant_ok=not failing,
        )

    monkeypatch.setattr(sweep_mod, "run_cell", fake_run_cell)
    base = "flap-storm~j1us+partition"
    assert fuzz_grid([base], jitters_us=(0, 3)) == [
        "(flap-storm~j1us+partition)~j0us",
        "(flap-storm~j1us+partition)~j3us",
    ]
    rc = main(["fuzz", "--scenarios", base, "--seeds", "1",
               "--jitters-us", "0,3"])
    assert rc == 1
    out = capsys.readouterr().out
    assert f"minimized: scenario='{base}' seed=1 jitter_us=2" in out
    assert "SweepCell('(flap-storm~j1us+partition)~j2us', 1," in out


# ----------------------------------------------------------------------
# properties over builtin bases
# ----------------------------------------------------------------------

_BASES = ("flap-storm", "crash-restart", "partition", "latency-jitter",
          "ddos-overload")


@st.composite
def _specs(draw):
    """Valid specs over builtin bases: 1-3 components, each
    optionally aliased, sized and jittered, written plain or in parens
    (sized when no component is), with an optional trailing suffix
    wherever it would not stack on a component's own jitter."""
    comps = []
    for _ in range(draw(st.integers(1, 3))):
        base = draw(st.sampled_from(_BASES))
        if draw(st.booleans()):
            base = base.replace("-", "_")
        size = draw(st.sampled_from([None, None, 12, 20]))
        jitter = draw(st.sampled_from([None, None, 0, 1, 3]))
        spec = base + (f"@{size}" if size else "")
        comps.append(spec + (f"~j{jitter}us" if jitter is not None else ""))
    jittered = ["~j" in comp for comp in comps]
    spec = "+".join(comps)
    paren = draw(st.booleans())
    if paren:
        n = draw(st.sampled_from([None, 12, 20]))
        spec = f"({spec})" + (f"@{n}" if n and "@" not in spec else "")
        stacks = len(comps) == 1 and jittered[0]
    else:
        # a trailing suffix binds to the last component once another
        # component carries jitter, so it stacks if that one does too
        stacks = jittered[-1]
    if not stacks and draw(st.booleans()):
        spec += f"~j{draw(st.integers(0, 5))}us"
    return spec


@settings(max_examples=80, deadline=None)
@given(_specs())
def test_resolved_name_is_the_canonical_name(spec):
    scenario = get_scenario(spec)
    canonical = canonical_scenario_name(spec)
    assert scenario.name == canonical
    assert canonical_scenario_name(canonical) == canonical
    assert _digest(get_scenario(canonical)) == _digest(scenario)


@settings(max_examples=40, deadline=None)
@given(_specs().filter(lambda spec: "@" not in spec),
       st.sampled_from([12, 20]))
def test_sized_spec_resolves(spec, n):
    assert get_scenario(sized_spec(spec, n)).name == sized_spec(spec, n)


if __name__ == "__main__":  # regenerate the table
    os.chdir(REPO_ROOT)
    SPECS = [
        # plain names, underscore alias, case study, unknown
        "flap-storm", "flap_storm", "partition", "xorp-bgp-med",
        "heat-death",
        # @N: registered, aliased, dynamic-only
        "flap-storm@20", "flap_storm@40", "crash-restart@12",
        # ~jNus: registered, dynamic, sized
        "flap-storm~j1us", "latency-jitter~j2us", "flap-storm@20~j1us",
        "partition@12~j3us",
        # a+b, a+b~jN (whole composition)
        "flap-storm+partition", "crash_restart+partition",
        "flap-storm+partition~j2us", "crash-restart+ddos-overload~j1us",
        "flap-storm@20+partition@20~j2us",
        # per-component and mixed jitter
        "flap-storm~j1us+partition", "flap-storm~j1us+partition~j5us",
        "latency-jitter~j1us+partition~j3us",
        # parens
        "(flap-storm~j1us+partition)~j5us", "(flap-storm+partition)~j2us",
        "(flap-storm+partition)@20", "(flap-storm~j1us+partition)@20",
        "(flap-storm~j1us+partition)@20~j5us", "(flap-storm)",
        "(flap-storm~j1us)@20", "(flap-storm~j1us)~j2us",
        "(flap-storm+partition~j1us)", "(flap-storm+partition~j1us)~j2us",
        # chaos/v1 file components
        "examples/clock_skew_storm.yaml", "examples/clock_skew_storm.yaml@20",
        "examples/clock_skew_storm.yaml~j1us",
        "examples/clock_skew_storm.yaml@20~j1us",
        "examples/dup_reorder_soak.yaml+partition",
        "partition+examples/gray_failure.yaml~j2us",
        # errors: stacked jitter
        "flap-storm~j1us~j2us", "flap-storm+partition~j1us~j2us",
        "(flap-storm+partition)~j1us~j2us", "flap-storm~j1us~j2us+partition",
        # size after jitter, re-size
        "flap-storm~j1us@20", "flap-storm@20@40",
        "(flap-storm@20+partition)@40",
        # unknown component, case study refusing @N, not composable
        "flap-storm+heat-death", "xorp-bgp-med@20", "quagga_rip_blackhole@20",
        "xorp-bgp-med+flap-storm",
    ]
    print("GOLDEN = {")
    for spec in SPECS:
        print(f"    {spec!r}: (")
        for value in _row(spec):
            print(f"        {value!r},")
        print("    ),")
    print("}")
