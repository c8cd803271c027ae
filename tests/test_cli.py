import csv
import dataclasses
import io
import json
import re
import time

import numpy as np
import pytest

from oneshot_qcap import bounds, channels, cli, coding, divergences, verification
from oneshot_qcap.cli import SpecError, parse_spec, run
from oneshot_qcap.coding import simulate_broadcast_ea
from oneshot_qcap.linalg import (DimensionCapError, SystemLayout, dimension_cap,
                                 maximally_mixed, tensor)

from helpers import (
    BOUND_SCENARIOS,
    REJECTED_BOUND_SCENARIOS,
    bell_density,
    classically_correlated,
    copy_broadcast_channel,
    gp_discard_channel,
    xor_mac_channel,
)


def write_spec(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


IDENTITY_CHANNEL = {"schema": "1", "type": "channel", "name": "identity",
                    "dims": 2, "labels": {"in": "A", "out": "B"}}
BELL_STATE = {"schema": "1", "type": "state", "name": "bell",
              "dims": [["A", 2], ["B'", 2]]}
CORR_STATE = {"schema": "1", "type": "state", "name": "classically_correlated",
              "dims": [["A", 2], ["U", 2]], "classical": ["U"]}


# ---------------------------------------------------------------------------
# spec parsing


def test_parse_builtin_channel(tmp_path):
    ch = parse_spec(IDENTITY_CHANNEL)
    assert ch.in_layout.labels == ("A",)
    assert ch.out_layout.labels == ("B",)


def test_parse_state_spec():
    rho = parse_spec(BELL_STATE)
    assert rho.layout.labels == ("A", "B'")


def test_parse_rejects_wrong_schema():
    with pytest.raises(SpecError):
        parse_spec(dict(IDENTITY_CHANNEL, schema="2"))


def test_invalid_json_file_is_exit_one(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code = run(["divergence", "dmax", "--rho", str(path),
                "--sigma", str(path)])
    capsys.readouterr()
    assert code == 1


def test_parse_rejects_non_cptp_kraus():
    bad = {"schema": "1", "type": "channel",
           "kraus": [[[0.9, 0.0], [0.0, 0.9]]],
           "in_dims": [["A", 2]], "out_dims": [["B", 2]]}
    with pytest.raises(SpecError):
        parse_spec(bad)


def test_parse_rejects_unnormalized_ket():
    bad = {"schema": "1", "type": "state", "ket": [1.0, 1.0],
           "dims": [["A", 2]]}
    with pytest.raises(SpecError):
        parse_spec(bad)


def test_ket_inside_the_norm_tolerance_is_renormalized(tmp_path, capsys):
    # Norm 1 + 5e-10 is inside the 1e-9 the spec allows; the state is built
    # from the renormalized amplitudes, not with trace 1 + 1e-9.
    scale = (1.0 + 5e-10) / 2 ** 0.5
    ket = {"schema": "1", "type": "state", "ket": [scale, 0.0, 0.0, scale],
           "dims": [["A", 2], ["B'", 2]]}
    rho = parse_spec(ket)
    assert abs(rho.trace - 1.0) <= 1e-15
    assert abs(rho.matrix - parse_spec(BELL_STATE).matrix).max() <= 1e-15
    path = write_spec(tmp_path, "ket.json", ket)
    assert run(["divergence", "dmax", "--rho", path, "--sigma", path]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["value"] == \
        pytest.approx(0.0, abs=1e-9)


def test_parse_rejects_nonclassical_label():
    bad = dict(BELL_STATE, classical=["B'"])
    with pytest.raises(SpecError):
        parse_spec(bad)


BASIS_STATE = {"schema": "1", "type": "state", "name": "basis",
               "dims": [["A", 2]]}
CQ_CHANNEL = {"schema": "1", "type": "channel", "name": "cq"}


@pytest.mark.parametrize("doc, field", [
    (dict(IDENTITY_CHANNEL, name="depolarizing", p=[0.1]), "p"),
    (dict(IDENTITY_CHANNEL, dims="x"), "dims"),
    (dict(BASIS_STATE, index=7), "index"),
    (dict(BASIS_STATE, index=-1), "index"),
    (dict(IDENTITY_CHANNEL, labels=["A"]), "labels"),
    (dict(CQ_CHANNEL, outputs=5), "outputs"),
    (dict(CQ_CHANNEL, outputs=[5]), "outputs[0]"),
    ({"schema": "1", "type": "state", "ket": 5, "dims": [["A", 2]]}, "ket"),
    (dict(BELL_STATE, product=5), "product"),
    (dict(BELL_STATE, product=[5]), "product[0]"),
    (dict(BELL_STATE, classical=5), "classical"),
    (dict(BELL_STATE, classical=[["A"]]), "classical[0]"),
    (dict(IDENTITY_CHANNEL, name="depolarizing", p=1.5), "p"),
    (dict(CQ_CHANNEL, name="amplitude_damping", gamma=-0.1), "gamma"),
    (dict(CQ_CHANNEL, outputs=[]), "outputs"),
])
def test_malformed_spec_field_is_named(tmp_path, capsys, doc, field):
    with pytest.raises(SpecError) as info:
        parse_spec(doc)
    assert info.value.path == field
    if field == "index":
        path = write_spec(tmp_path, "bad.json", doc)
        assert run(["divergence", "dmax", "--rho", path, "--sigma", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: index: ") and "Traceback" not in err


MIXED_QUBIT = {"schema": "1", "type": "state", "name": "maximally_mixed",
               "dims": [["A", 2]]}
MATRIX_STATE = {"schema": "1", "type": "state", "dims": [["A", 2]]}
BAD_SECOND_OUTPUT = dict(CQ_CHANNEL, outputs=[MIXED_QUBIT, dict(MIXED_QUBIT, dims="x")])


@pytest.mark.parametrize("doc, field", [
    (dict(MIXED_QUBIT, dims=[["A", True]]), "dims[0]"),
    (dict(MATRIX_STATE, ket=[True, False]), "ket[0]"),
    (dict(MATRIX_STATE, matrix=[[True, False], [False, False]]), "matrix[0][0]"),
    (BAD_SECOND_OUTPUT, "outputs[1].dims"),
    (dict(IDENTITY_CHANNEL, in_dims=[["A", 3]]), "in_dims"),
    (dict(IDENTITY_CHANNEL, out_dims=[["B", 3]]), "out_dims"),
    (dict(MATRIX_STATE, ket=[1, 0, 0]), "ket"),
    (dict(MIXED_QUBIT, dims=[["A", 2], ["A", 2]]), "dims"),
    (dict(MIXED_QUBIT, dims=[["A", 0]]), "dims"),
    (dict(MATRIX_STATE, matrix=[[0.5, 0.0], [0.5]]), "matrix"),
    (dict(IDENTITY_CHANNEL, dims=True), "dims"),
    (dict(BELL_STATE, product=[[["A"], ["B'", 5]]]), "product[0][1][1]"),
])
def test_every_bad_value_is_a_field_error(doc, field):
    with pytest.raises(SpecError) as info:
        parse_spec(doc)
    assert info.value.path == field
    assert str(info.value) == f"{field}: {info.value.message}"


STATE = {"schema": "1", "type": "state"}


@pytest.mark.parametrize("doc,line", [
    ({"schema": "1", "type": "channel", "kraus": [[[1, 0], [0, 1]]]},
     "in_dims: required alongside 'kraus'"),
    ({"schema": "1", "type": "channel"}, "name: channel spec needs 'name' or 'kraus'"),
    (dict(STATE, name="ghz", dims=[["A", 2]]),
     "name: unknown state 'ghz'; choose from ('max_entangled', 'bell', "
     "'maximally_mixed', 'basis', 'classically_correlated')"),
    (dict(STATE, name="bell"), "dims: named states need explicit 'dims'"),
    (dict(STATE, name="bell", dims=[["A", 2], ["B", 3]]),
     "dims: needs two registers of equal dimension"),
    (dict(STATE, ket=[1, 0]), "dims: 'ket' states need explicit 'dims'"),
    (dict(STATE, matrix=[[1]]), "dims: 'matrix' states need explicit 'dims'"),
    (STATE, "state: needs one of 'name', 'ket', 'matrix'"),
    ([STATE], "$: spec must be a JSON object"),
    (dict(STATE, name="maximally_mixed", dims=[["A"]]),
     "dims[0]: expected [label, dim], got ['A']"),
    (dict(STATE, matrix=[], dims=[["A", 2]]), "matrix: expected a non-empty list of rows"),
])
def test_spec_schema_errors_exit_one_with_their_line(tmp_path, capsys, doc, line):
    path = write_spec(tmp_path, "bad.json", doc)
    assert run(["divergence", "dmax", "--rho", path, "--sigma", path]) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err == f"error: {line}\n"


CHANNEL = {"schema": "1", "type": "channel", "labels": {"in": "A", "out": "B"}}
ZERO_STATE = {"schema": "1", "type": "state", "name": "basis", "dims": [["B", 2]]}
ONE_STATE = dict(ZERO_STATE, index=1)


@pytest.mark.parametrize("params, factory", [
    ({"name": "identity"}, lambda: channels.identity_channel(2)),
    ({"name": "identity", "dims": 3}, lambda: channels.identity_channel(3)),
    ({"name": "depolarizing", "p": 0.3}, lambda: channels.depolarizing(0.3)),
    ({"name": "depolarizing", "p": 0.3, "dims": 3},
     lambda: channels.depolarizing(0.3, 3)),
    ({"name": "dephasing", "p": 0.2}, lambda: channels.dephasing(0.2)),
    ({"name": "amplitude_damping", "gamma": 0.4},
     lambda: channels.amplitude_damping(0.4)),
    ({"name": "erasure", "p": 0.25}, lambda: channels.erasure(0.25)),
    ({"name": "erasure", "p": 0.25, "dims": 3}, lambda: channels.erasure(0.25, 3)),
    ({"name": "cq", "outputs": [ONE_STATE, ZERO_STATE]},
     lambda: channels.cq_channel([parse_spec(ONE_STATE), parse_spec(ZERO_STATE)])),
])
def test_builtin_channel_spec_builds_its_factory(params, factory):
    got, want = parse_spec(dict(CHANNEL, **params)), factory()
    assert (got.in_layout, got.out_layout) == (want.in_layout, want.out_layout)
    assert len(got.kraus) == len(want.kraus)
    for a, b in zip(got.kraus, want.kraus):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("params, field", [
    ({"name": "depolarizing"}, "p"),
    ({"name": "dephasing"}, "p"),
    ({"name": "erasure", "dims": 3}, "p"),
    ({"name": "amplitude_damping"}, "gamma"),
    ({"name": "cq"}, "outputs"),
    ({"name": "depolarizing", "p": 0.1, "gamma": 0.3}, "gamma"),
    ({"name": "identity", "p": 0.1}, "p"),
    ({"name": "amplitude_damping", "gamma": 0.3, "p": 0.1}, "p"),
    ({"name": "amplitude_damping", "gamma": 0.3, "dims": 2}, "dims"),
    ({"name": "dephasing", "p": 0.1, "dims": 2}, "dims"),
    ({"name": "identity", "outputs": [ZERO_STATE]}, "outputs"),
    ({"name": "cq", "outputs": [ZERO_STATE], "dims": 2}, "dims"),
    # Out of range.
    ({"name": "depolarizing", "p": 1.5}, "p"),
    ({"name": "dephasing", "p": -0.5}, "p"),
    ({"name": "erasure", "p": 2.0}, "p"),
    ({"name": "amplitude_damping", "gamma": 1.5}, "gamma"),
    ({"name": "cq", "outputs": []}, "outputs"),
    ({"name": "cq", "outputs": [ZERO_STATE, dict(ZERO_STATE, dims=[["B", 3]])]},
     "outputs"),
])
def test_builtin_channel_parameter_missing_or_stray_is_named(tmp_path, capsys,
                                                             params, field):
    doc = dict(CHANNEL, **params)
    with pytest.raises(SpecError) as info:
        parse_spec(doc)
    assert info.value.path == field
    with pytest.raises(channels.ParameterError) as lib:
        channels.builtin(**{k: [parse_spec(x) for x in v] if k == "outputs" else v
                            for k, v in params.items()})
    assert lib.value.parameter == field
    ch = write_spec(tmp_path, "ch.json", doc)
    st = write_spec(tmp_path, "st.json", BELL_STATE)
    assert run(["bound", "converse", "--channel", ch, "--state", st]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}: ") and "Traceback" not in err


def test_bad_cq_output_exits_one_naming_its_field(tmp_path, capsys):
    ch = write_spec(tmp_path, "ch.json", BAD_SECOND_OUTPUT)
    st = write_spec(tmp_path, "st.json", BELL_STATE)
    assert run(["simulate", "p2p_ea", "--channel", ch, "--state", st,
                "--R", "1", "--eps", "0.1", "--delta", "0.05"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: outputs[1].dims: ") and "Traceback" not in err


@pytest.mark.parametrize("doc", [dict(MIXED_QUBIT, dims=[["A", 5000]]),
                                 dict(IDENTITY_CHANNEL, dims=5000)])
def test_dims_past_the_cap_raise_the_cap_error(tmp_path, capsys, doc):
    with pytest.raises(DimensionCapError):
        parse_spec(doc)
    path = write_spec(tmp_path, "big.json", doc)
    assert run(["divergence", "dmax", "--rho", path, "--sigma", path]) == 1
    assert capsys.readouterr().err.startswith("error: total dimension 5000 exceeds cap")


def test_sweep_parses_each_spec_file_once(tmp_path, capsys, monkeypatch):
    calls = []
    parse = cli.parse_spec
    monkeypatch.setattr(cli, "parse_spec", lambda doc: calls.append(doc) or parse(doc))
    ch = write_spec(tmp_path, "ch.json", IDENTITY_CHANNEL)
    st = write_spec(tmp_path, "st.json", BELL_STATE)
    assert run(["sweep", "p2p_ea", "--channel", ch, "--state", st, "--R", "1;2",
                "--eps", "0.1", "--delta", "0.05", "--floor-sigmas", "1"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 3
    assert calls == [IDENTITY_CHANNEL, BELL_STATE]


def test_run_builds_its_parser_once_per_process(tmp_path, capsys, monkeypatch):
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    bell = write_spec(tmp_path, "bell.json", BELL_STATE)
    argv = ["divergence", "dmax", "--rho", bell, "--sigma", bell]
    assert run(argv) == 0
    first = capsys.readouterr().out
    # A usage error in between leaves the parser as it was.
    assert run(["divergence", "nope", "--rho", bell, "--sigma", bell]) == 1
    assert run(argv) == 0
    assert capsys.readouterr().out == first
    assert len(built) == 1


# ---------------------------------------------------------------------------
# subcommands and exit codes


def test_divergence_command(tmp_path, capsys):
    bell = write_spec(tmp_path, "bell.json", BELL_STATE)
    mixed = write_spec(tmp_path, "mixed.json", {
        "schema": "1", "type": "state", "name": "maximally_mixed",
        "dims": [["A", 2], ["B'", 2]]})
    code = run(["divergence", "dmax", "--rho", bell, "--sigma", mixed])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["result"]["value"] == pytest.approx(2.0, abs=1e-10)


MIXED_PAIR = {"schema": "1", "type": "state", "name": "maximally_mixed",
              "dims": [["A", 2], ["B'", 2]]}
ZERO_QUBIT = {"schema": "1", "type": "state", "name": "basis", "index": 0,
              "dims": [["A", 2]]}
ONE_QUBIT = dict(ZERO_QUBIT, index=1)
NOISY_PAIR = {"schema": "1", "type": "state", "dims": [["A", 2], ["B'", 2]],
              "matrix": [[0.4, 0, 0, 0.3], [0, 0.1, 0, 0],
                         [0, 0, 0.1, 0], [0.3, 0, 0, 0.4]]}


def _divergence(tmp_path, capsys, kind, rho, sigma, eps):
    """The report of ``divergence kind`` on the specs rho and sigma."""
    paths = [write_spec(tmp_path, f"{name}.json", doc)
             for name, doc in (("rho", rho), ("sigma", sigma))]
    assert run(["divergence", kind, "--rho", paths[0], "--sigma", paths[1],
                "--eps", repr(eps)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"command": "divergence", "kind": kind, "eps": eps,
                   "inputs": {"rho": paths[0], "sigma": paths[1]},
                   "result": out["result"]}
    return out["result"]


@pytest.mark.parametrize("rho, sigma, eps", [
    (BELL_STATE, MIXED_PAIR, 0.1), (NOISY_PAIR, MIXED_PAIR, 0.0),
    (NOISY_PAIR, BELL_STATE, 0.2),
    (ZERO_QUBIT, ONE_QUBIT, 0.1), (ZERO_QUBIT, ONE_QUBIT, 0.0)])
def test_divergence_dh_reports_the_solver_result(tmp_path, capsys, rho, sigma, eps):
    got = _divergence(tmp_path, capsys, "dh", rho, sigma, eps)
    want = divergences.dh_eps(parse_spec(rho), parse_spec(sigma), eps)
    assert set(got) == {"dual_bound", "unbounded", "value", "witness"}
    assert set(got["witness"]) == {"operator", "type1", "type2"}
    assert got["unbounded"] is want.unbounded
    for key in ("value", "dual_bound"):  # inf is written as the string 'inf'
        assert float(got[key]) == pytest.approx(getattr(want, key), abs=1e-12)
    for key in ("type1", "type2"):
        assert got["witness"][key] == pytest.approx(
            getattr(want.witness, key), abs=1e-12)
    operator = np.array(got["witness"]["operator"])
    assert np.allclose(operator[..., 0] + 1j * operator[..., 1],
                       want.witness.operator, atol=1e-12)


@pytest.mark.parametrize("kind, solver", [
    ("relative-entropy", divergences.relative_entropy),
    ("dmax", divergences.dmax)])
def test_divergence_value_reports_match_the_library(tmp_path, capsys, kind, solver):
    got = _divergence(tmp_path, capsys, kind, NOISY_PAIR, MIXED_PAIR, 0.0)
    assert set(got) == {"value"}
    assert got["value"] == pytest.approx(
        solver(parse_spec(NOISY_PAIR), parse_spec(MIXED_PAIR)), abs=1e-12)


@pytest.mark.parametrize("scenario", ["gp", "broadcast"])
@pytest.mark.parametrize("optimize", [False, True])
def test_bound_relaxation_reports_the_corollary(tmp_path, capsys, scenario,
                                                optimize):
    argv = scenario_specs(tmp_path)[f"{scenario}_ea"]
    base = argv[:argv.index("--R")]
    eps = argv[argv.index("--eps") + 1]
    assert run(["bound", "relaxation", "--scenario", scenario, "--eps", eps]
               + base + (["--optimize"] if optimize else [])) == 0
    out = json.loads(capsys.readouterr().out)
    assert set(out) == {"command", "kind", "result", "scenario", "seed"}
    assert (out["command"], out["kind"], out["scenario"]) == (
        "bound", "relaxation", scenario)
    got = out["result"]
    files = dict(zip(base[::2], base[1::2]))
    ch, psi = (cli._load_spec(files[flag]) for flag in ("--channel", "--state"))
    want = bounds.corollary_relaxations(scenario, ch, psi, [float(e) for e in
                                                             eps.split(",")],
                                        optimize=optimize)
    assert set(got) == {f.name for f in dataclasses.fields(want)}
    assert (got["scenario"], got["kind"], got["evaluated_at"], got["infeasible"]) \
        == (f"{scenario}_relaxed", "converse", want.evaluated_at, False)
    assert got["per_sender"] == pytest.approx(list(want.per_sender), abs=1e-12)
    assert got["value"] == pytest.approx(want.value, abs=1e-12)
    assert [desc for desc, _ in got["optimizer_trace"]] == \
        [desc for desc, _ in want.optimizer_trace]
    if optimize:
        assert got["certificate"] == pytest.approx(list(want.certificate), abs=1e-12)
    else:
        assert got["certificate"] is None


def test_bound_identity_corollary(capsys):
    code = run(["bound", "identity-corollary", "--dimA", "2", "--eps", "0.0"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["result"]["ceiling"] == pytest.approx(2.0, abs=1e-12)


def test_simulate_exit_zero_and_report(tmp_path, capsys):
    ch = write_spec(tmp_path, "ch.json", IDENTITY_CHANNEL)
    st = write_spec(tmp_path, "st.json", BELL_STATE)
    code = run(["simulate", "p2p_ea", "--channel", ch, "--state", st,
                "--R", "1", "--eps", "0.1", "--delta", "0.05",
                "--floor-sigmas", "2"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["report"]["bound_satisfied"] is True
    assert all(f["holds"] for f in out["report"]["floors"])
    assert out["report"]["worst_error"] == pytest.approx(0.06698729810778126, abs=1e-9)


def test_simulate_writes_output_file(tmp_path, capsys):
    ch = write_spec(tmp_path, "ch.json", IDENTITY_CHANNEL)
    st = write_spec(tmp_path, "st.json", BELL_STATE)
    out_path = tmp_path / "report.json"
    code = run(["simulate", "p2p_ea", "--channel", ch, "--state", st,
                "--R", "1", "--eps", "0.1", "--delta", "0.05",
                "--floor-sigmas", "2", "--output", str(out_path)])
    capsys.readouterr()
    assert code == 0
    assert json.loads(out_path.read_text())["scenario"] == "p2p_ea"


def test_missing_spec_file_is_exit_one(capsys):
    code = run(["divergence", "dmax", "--rho", "/nonexistent.json",
                "--sigma", "/nonexistent.json"])
    capsys.readouterr()
    assert code == 1


def test_bad_spec_is_exit_one(tmp_path, capsys):
    bad = write_spec(tmp_path, "bad.json", {"schema": "1", "type": "soup"})
    ch = write_spec(tmp_path, "ch.json", IDENTITY_CHANNEL)
    code = run(["simulate", "p2p_ea", "--channel", ch, "--state", bad,
                "--R", "1", "--eps", "0.1", "--delta", "0.05"])
    capsys.readouterr()
    assert code == 1


def test_verify_exit_codes(capsys):
    code = run(["verify", "--facts", "triangle,neumark", "--trials", "2",
                "--dims", "2"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["result"]["holds"] is True

    code = run(["verify", "--facts", "not_a_check", "--trials", "1"])
    capsys.readouterr()
    assert code == 1


def test_verify_exits_two_listing_the_failing_trials(capsys, monkeypatch):
    # At a tolerance of -1 the triangle inequality needs a margin of 1, which
    # some trials have and others lack.
    monkeypatch.setattr(verification, "ALG_TOL", -1.0)
    code = run(["verify", "--facts", "triangle", "--trials", "4", "--dims", "2,3"])
    out = json.loads(capsys.readouterr().out)["result"]
    assert code == 2
    assert out["holds"] is False
    (check,) = out["checks"]
    failures = check["failures"]
    assert check["holds"] is False
    assert 0 < len(failures) < 4
    assert check["passes"] == 4 - len(failures)
    for failure in failures:
        assert failure["holds"] is False and failure["margin"] < 1
        assert failure["dim"] == (2, 3)[failure["trial"] % 2]
    assert check["worst_margin"] == min(f["margin"] for f in failures)


@pytest.mark.parametrize("trials", [0, -3])
def test_verify_needs_at_least_one_trial(capsys, trials):
    with pytest.raises(ValueError, match="trials"):
        verification.run_check("triangle", trials)
    assert run(["verify", "--facts", "triangle", "--trials", str(trials)]) == 1
    out = capsys.readouterr()
    assert out.out == "" and "trials" in out.err


@pytest.mark.parametrize("dims", ["0", "2,0", "-1"])
def test_verify_dims_below_one_are_named(capsys, dims):
    assert run(["verify", "--facts", "triangle", "--trials", "1", "--dims", dims]) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith(
        f"error: dims: each dimension must be at least 1, got {dims}"), out.err


def test_verify_pure_rank_one_where_the_search_fell_short(capsys):
    # A local search for the rank-one optimum fell short of it here and made
    # this run exit 2 although dh_eps was right.
    code = run(["verify", "--facts", "pure_rank_one", "--trials", "10",
                "--seed", "17"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0, out


def test_sweep_writes_csv(tmp_path, capsys):
    ch = write_spec(tmp_path, "ch.json", IDENTITY_CHANNEL)
    st = write_spec(tmp_path, "st.json", BELL_STATE)
    csv_path = tmp_path / "sweep.csv"
    code = run(["sweep", "p2p_ea", "--channel", ch, "--state", st,
                "--R", "1;2", "--eps", "0.1", "--delta", "0.05",
                "--floor-sigmas", "2", "--output", str(csv_path)])
    capsys.readouterr()
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 3  # header + two grid points
    header = lines[0].split(",")
    assert "worst_error" in header and "bound_satisfied" in header


def test_sweep_exits_two_when_a_bound_fails(tmp_path, capsys, monkeypatch):
    # A slack of -2 puts every error past its bound.
    monkeypatch.setattr(coding, "BOUND_SLACK", -2.0)
    ch = write_spec(tmp_path, "ch.json", IDENTITY_CHANNEL)
    st = write_spec(tmp_path, "st.json", BELL_STATE)
    code = run(["sweep", "p2p_ea", "--channel", ch, "--state", st,
                "--R", "1;2", "--eps", "0.1", "--delta", "0.05",
                "--floor-sigmas", "2"])
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert code == 2
    assert [row["bound_satisfied"] for row in rows] == ["False", "False"]


def test_a_report_value_without_a_json_form_is_a_type_error():
    # numpy's bool is no Python bool; np.float64 is a float.
    assert cli._jsonable({"x": (np.float64(0.5), True)}) == {"x": [0.5, True]}
    with pytest.raises(TypeError, match="numpy.bool"):
        cli._jsonable({"holds": [np.bool_(True)]})


def test_cli_output_is_deterministic(tmp_path, capsys):
    ch = write_spec(tmp_path, "ch.json", IDENTITY_CHANNEL)
    st = write_spec(tmp_path, "st.json", BELL_STATE)
    args = ["simulate", "p2p_ea", "--channel", ch, "--state", st,
            "--R", "1", "--eps", "0.1", "--delta", "0.05",
            "--floor-sigmas", "2"]
    assert run(args) == 0
    first = capsys.readouterr().out
    assert run(args) == 0
    second = capsys.readouterr().out
    assert first == second


# ---------------------------------------------------------------------------
# usage errors are input errors


def test_usage_errors_exit_one(tmp_path, capsys):
    ch = write_spec(tmp_path, "ch.json", IDENTITY_CHANNEL)
    st = write_spec(tmp_path, "st.json", BELL_STATE)
    sim = ["--channel", ch, "--state", st, "--R", "1", "--eps", "0.1",
           "--delta", "0.05"]
    assert run(["simulate", "bogus"] + sim) == 1
    assert "invalid choice" in capsys.readouterr().err
    assert run(["bound", "converse", "--eps", "0.1"]) == 1
    assert "--channel" in capsys.readouterr().err
    assert run(["bound", "achievable", "--scenario", "mac_ea", "--strategy",
                "joint", "--channel", ch, "--state", st]) == 1
    assert "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize("argv,name", [
    (["simulate", "p2p_ea", "--R", "1", "--delta", "0"], "delta"),
    (["bound", "achievable", "--delta", "0"], "delta"),
    (["simulate", "p2p_ea", "--R", "1", "--delta", "-0.1"], "delta"),
    (["simulate", "p2p_ea", "--R", "-1", "--delta", "0.05"], "rates"),
    (["simulate", "p2p_ea", "--R", "1", "--delta", "0.05",
      "--floor-sigmas", "0"], "sigmas"),
], ids=["simulate-delta-0", "achievable-delta-0", "delta-negative",
        "rate-negative", "floor-sigmas-0"])
def test_bad_scenario_parameters_exit_one_naming_them(tmp_path, capsys, argv,
                                                      name):
    ch = write_spec(tmp_path, "ch.json", IDENTITY_CHANNEL)
    st = write_spec(tmp_path, "st.json", BELL_STATE)
    assert run(argv + ["--channel", ch, "--state", st, "--eps", "0.1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and name in err
    assert "Traceback" not in err


@pytest.mark.parametrize("eps,delta,name", [
    ("-0.01", "0.05", "eps"), ("0.97", "0.05", "the smoothing"),
    ("0.1", "2", "the smoothing"),
], ids=["eps-negative", "smoothing-past-one", "delta-past-one"])
@pytest.mark.parametrize("argv", [
    ["simulate", "p2p_ea", "--R", "1"], ["sweep", "p2p_ea", "--R", "1"],
    ["bound", "achievable", "--scenario", "p2p_ea"],
], ids=["simulate", "sweep", "achievable"])
def test_error_budgets_and_smoothings_out_of_range_exit_one_naming_them(
        tmp_path, capsys, argv, eps, delta, name):
    # p2p_ea tests at eps + delta, which is 0.04 at eps -0.01.
    ch = write_spec(tmp_path, "ch.json", IDENTITY_CHANNEL)
    st = write_spec(tmp_path, "st.json", BELL_STATE)
    assert run(argv + ["--channel", ch, "--state", st, "--eps", eps,
                       "--delta", delta]) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith(
        f"error: {name} must lie in [0, 1), got eps {float(eps)}, "
        f"delta {float(delta)}, smoothing "), out.err


@pytest.mark.parametrize("eps", ["1.0", "1.5", "nan", "inf"])
@pytest.mark.parametrize("kind, scenario", [("converse", "p2p_ea"),
                                            ("relaxation", "gp")])
def test_an_error_budget_out_of_range_exits_one_before_the_sdp(
        tmp_path, capsys, monkeypatch, kind, scenario, eps):
    # Without the check the SDP over sigma runs on it and stalls (exit 3).
    monkeypatch.setattr(bounds, "_sdp_sigma", None)
    argv = scenario_specs(tmp_path)["gp_ea" if scenario == "gp" else scenario]
    assert run(["bound", kind, "--scenario", scenario, "--eps", eps, "--optimize"]
               + argv[:argv.index("--R")]) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith(
        f"error: eps must lie in [0, 1), got eps {float(eps)}"), out.err


def test_mac_hdw_converse_without_second_sender_exits_one(tmp_path, capsys):
    ch = write_spec(tmp_path, "mac_ch.json", channel_spec(xor_mac_channel()))
    st = write_spec(tmp_path, "bell.json",
                    state_spec(bell_density("A", "RA")))
    assert run(["bound", "converse", "--scenario", "mac_ea_hdw", "--channel",
                ch, "--state", st, "--eps", "0.1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "both sender" in err
    assert "Traceback" not in err


def optimize_args(tmp_path):
    return ["bound", "converse", "--channel",
            write_spec(tmp_path, "id.json", IDENTITY_CHANNEL), "--state",
            write_spec(tmp_path, "bell.json", BELL_STATE), "--eps", "0.1",
            "--optimize"]


def test_bound_optimize_reports_certificates_and_ignores_restarts(tmp_path, capsys):
    reports = []
    for restarts in ("0", "7"):
        assert run(optimize_args(tmp_path) + ["--restarts", restarts,
                                              "--seed", "3"]) == 0
        reports.append(json.loads(capsys.readouterr().out))
    assert reports[0] == reports[1]
    assert reports[0]["seed"] == 3
    result = reports[0]["result"]
    assert len(result["certificate"]) == 1
    assert result["certificate"][0] <= result["value"]
    assert result["optimizer_trace"][-1][0] == "sdp"
    assert run(optimize_args(tmp_path)[:-1]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["certificate"] is None


def test_bound_numerical_failure_exits_three(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(bounds, "_SDP_ITERS", 2)
    assert run(optimize_args(tmp_path)) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: numerical: SDP over sigma stalled")
    assert "Traceback" not in err


def test_dh_search_that_reaches_the_cap_exits_three(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(divergences, "BISECT_ITERS", 8)
    assert run(optimize_args(tmp_path)[:-1]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: numerical: D_H threshold search")
    assert "Traceback" not in err


def test_bound_sdp_past_the_dimension_cap_exits_one(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("ONESHOT_QCAP_DIM_CAP", "15")
    assert run(optimize_args(tmp_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "n = 4" in err


@pytest.mark.parametrize("rate", [12, 18])
@pytest.mark.parametrize("scenario,strategy", [
    ("p2p_ea", None), ("p2p_ua", None), ("mac_ea", "sequential"),
    ("mac_ea", "pgm_a_first")])
def test_simulate_past_the_cap_exits_one_from_the_rate_alone(tmp_path, capsys,
                                                             scenario, strategy, rate):
    argv = scenario_specs(tmp_path)[scenario]
    argv[argv.index("--R") + 1] = f"{rate},1" if scenario == "mac_ea" else str(rate)
    argv += ["--strategy", strategy] if strategy else []
    start = time.perf_counter()
    assert run(["simulate", scenario] + argv) == 1
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"R = {rate}" in err, err
    assert f"cap {dimension_cap()}" in err and not re.search(r"[0-9]{21}", err), err


def test_strategy_needs_a_scenario_that_takes_it(tmp_path, capsys):
    specs = scenario_specs(tmp_path)
    for command in ("simulate", "sweep"):
        for strategy in ("pgm_a_first", "pgm_b_first"):
            assert run([command, "mac_ua", "--strategy", strategy]
                       + specs["mac_ua"]) == 1
            assert "applies only to mac_ea" in capsys.readouterr().err
    assert run(["simulate", "mac_ua", "--floor-sigmas", "2", "--strategy",
                "sequential"] + specs["mac_ua"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("scenario,donor,want", [
    ("p2p_ea", "gp_ea",
     "point-to-point needs a one-register channel input (A), got ['A', 'S']"),
    ("broadcast_ea", "p2p_ea",
     "broadcast needs a two-register channel output (B, C), got ['B']"),
    ("mac_ea", "p2p_ea",
     "multiple-access needs a two-register channel input (A, B), got ['A']"),
])
def test_channel_with_the_wrong_register_count_is_named(tmp_path, capsys, scenario,
                                                        donor, want):
    specs = scenario_specs(tmp_path)
    argv, other = specs[scenario], specs[donor]
    at = argv.index("--channel") + 1
    argv[at] = other[other.index("--channel") + 1]
    assert run(["simulate", scenario] + argv) == 1
    assert capsys.readouterr().err == f"error: {want}\n"


@pytest.mark.parametrize("case", ["simulate-tau", "simulate-state-b",
                                  "identity-corollary-channel"])
def test_spec_files_a_command_does_not_read_are_rejected(tmp_path, capsys, case):
    specs = scenario_specs(tmp_path)
    p2p, gp = specs["p2p_ea"], specs["gp_ea"]
    ch, st, tau = p2p[1], p2p[3], gp[gp.index("--tau") + 1]
    flag, argv = {
        "simulate-tau": ("tau", ["simulate", "p2p_ea", "--tau", tau] + p2p),
        "simulate-state-b": ("state-b", ["simulate", "p2p_ea", "--state-b", st] + p2p),
        "identity-corollary-channel": (
            "channel", ["bound", "identity-corollary", "--channel", ch]),
    }[case]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag}: ") and \
        f"does not read the spec --{flag}" in err, err


def test_sigma_is_read_only_where_a_bound_minimizes_over_sigma(tmp_path, capsys):
    specs = scenario_specs(tmp_path)
    p2p, mac = specs["p2p_ea"], specs["mac_ea"]
    sigma = ["--sigma", write_spec(tmp_path, "mixed_b.json", state_spec(
        maximally_mixed(SystemLayout([("B", 2)]))))]
    assert run(["bound", "converse", "--eps", "0.1"] + sigma
               + p2p[:p2p.index("--R")]) == 0
    trace = json.loads(capsys.readouterr().out)["result"]["optimizer_trace"]
    assert len(trace) == 3  # the output marginal, I/d and the candidate
    # Achievable rates take no minimum; the multiple-access converse's
    # alternatives are the state's own marginals.
    for argv in (["bound", "achievable", "--eps", "0.1"] + p2p[:p2p.index("--R")],
                 ["bound", "converse", "--scenario", "mac_ea", "--eps", "0.1,0.1"]
                 + mac[:mac.index("--R")]):
        assert run(argv + sigma) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error: sigma: ") and \
            "does not read the spec --sigma" in err, err


@pytest.mark.parametrize("kind,scenario", REJECTED_BOUND_SCENARIOS
                         + [("relaxation", None)])
def test_bound_rejects_a_scenario_its_kind_does_not_take(tmp_path, capsys, kind,
                                                         scenario):
    # The spec files do not exist: the scenario is checked before any opens.
    argv = ["bound", kind, "--channel", str(tmp_path / "no-channel.json"),
            "--state", str(tmp_path / "no-state.json")]
    assert run(argv + (["--scenario", scenario] if scenario else [])) == 1
    given = f"not {scenario!r}" if scenario else "none was given"
    assert capsys.readouterr().err == (
        f"error: scenario: the {kind} bound takes the scenarios "
        f"{', '.join(BOUND_SCENARIOS[kind])}; {given}\n")


@pytest.mark.parametrize("kind,option", [
    ("converse", ["--delta", "0.3"]), ("converse", ["--dimA", "5"]),
    ("converse", ["--strategy", "pgm_a_first"]),
    ("achievable", ["--optimize"]), ("achievable", ["--dimA", "2"]),
    ("achievable", ["--restarts", "0"]),
    ("relaxation", ["--delta", "0.1"]), ("relaxation", ["--dimA", "5"]),
    ("relaxation", ["--strategy", "sequential"]),
    ("identity-corollary", ["--delta", "0.3"]), ("identity-corollary", ["--optimize"]),
    ("identity-corollary", ["--strategy", "sequential"]),
    ("identity-corollary", ["--restarts", "4"]), ("identity-corollary", ["--seed", "4"]),
], ids=lambda v: v if isinstance(v, str) else v[0][2:])
def test_bound_rejects_an_option_its_kind_does_not_read(tmp_path, capsys, kind,
                                                        option):
    # The spec files do not exist: the option is rejected before any opens,
    # even at the value it takes where it is read.
    argv = ["bound", kind, "--scenario", "gp" if kind == "relaxation" else "p2p_ea",
            "--channel", str(tmp_path / "no-channel.json"),
            "--state", str(tmp_path / "no-state.json"), "--eps", "0.1"]
    assert run(argv + option) == 1
    flag = option[0][2:]
    assert capsys.readouterr().err == \
        f"error: {flag}: bound {kind} does not read --{flag}\n"


@pytest.mark.parametrize("scenario,eps,want", [
    ("gp", "0.1,0.2", "gp needs 1 value(s) of eps, got (0.1, 0.2)"),
    ("mac_ea_hdw", "0.1,0.1,0.1",
     "mac_ea_hdw needs 2 value(s) of eps, got (0.1, 0.1, 0.1)"),
    ("mac_ea_hdw", "0.5,0.6", "mac_ea_hdw tests its sum rate at eps_A + eps_B, "
                              "which must lie below 1; got 0.5 + 0.6 = 1.1"),
], ids=["relaxation-gp", "mac_ea_hdw-three", "mac_ea_hdw-sum"])
def test_a_bound_names_its_own_scenario_in_a_budget_error(tmp_path, capsys,
                                                          scenario, eps, want):
    if scenario == "gp":
        argv = scenario_specs(tmp_path)["gp_ea"]
        argv = ["bound", "relaxation"] + argv[:argv.index("--R")]
    else:
        argv = ["bound", "converse", "--channel", write_spec(
            tmp_path, "mac_ch.json", channel_spec(xor_mac_channel()))]
        for flag, a, r in (("--state", "A", "RA"), ("--state-b", "B", "RB")):
            argv += [flag, write_spec(tmp_path, f"{a}.json",
                                      state_spec(bell_density(a, r)))]
    assert run(argv + ["--scenario", scenario, "--eps", eps]) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err == f"error: {want}\n"


@pytest.mark.parametrize("kind", ["converse", "achievable"])
def test_bound_without_a_scenario_is_point_to_point(tmp_path, capsys, kind):
    assert bounds.BOUND_KINDS[kind].default == "p2p_ea"
    argv = ["bound", kind, "--eps", "0.1",
            "--channel", write_spec(tmp_path, "ch.json", IDENTITY_CHANNEL),
            "--state", write_spec(tmp_path, "st.json", BELL_STATE)]
    assert run(argv) == 0
    default = capsys.readouterr().out
    assert run(argv + ["--scenario", "p2p_ea"]) == 0
    assert capsys.readouterr().out == default
    assert json.loads(default)["scenario"] == "p2p_ea"


def test_identity_corollary_takes_only_a_bound_scenario(capsys):
    # identity-corollary reads no scenario, so it takes none: not even one
    # that another bound takes.
    argv = ["bound", "identity-corollary", "--dimA", "2"]
    assert run(argv) == 0
    for scenario in ("gp", "teleport"):
        assert run(argv + ["--scenario", scenario]) == 1
        assert capsys.readouterr().err == \
            "error: scenario: bound identity-corollary does not read --scenario\n"


def test_bound_relaxation_checks_tau(tmp_path, capsys):
    three = write_spec(tmp_path, "three.json", state_spec(maximally_mixed(
        SystemLayout([("S", 2), ("T", 2), ("U", 2)]))))
    argv = scenario_specs(tmp_path)["gp_ea"]
    argv[argv.index("--tau") + 1] = three
    assert run(["bound", "relaxation", "--scenario", "gp"]
               + argv[:argv.index("--R")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: tau must live on the channel state register "
                          "('S', 2)"), err


@pytest.mark.parametrize("argv,option", [
    (["simulate", "p2p_ea", "--R", "x", "--eps", "0.1", "--delta", "0.05"], "R"),
    (["simulate", "p2p_ea", "--R", "1", "--eps", "0.1x", "--delta", "0.05"], "eps"),
    (["sweep", "p2p_ea", "--R", "1", "--eps", "0.1", "--delta", "0.05;y"], "delta"),
    (["bound", "converse", "--eps", "x"], "eps"),
    (["bound", "identity-corollary", "--eps", "x"], "eps"),
    (["verify", "--dims", "2,x"], "dims"),
], ids=["simulate-R", "simulate-eps", "sweep-delta", "bound-eps",
        "identity-corollary-eps", "verify-dims"])
def test_unparseable_option_values_are_named(tmp_path, capsys, argv, option):
    specs = ["--channel", write_spec(tmp_path, "ch.json", IDENTITY_CHANNEL),
             "--state", write_spec(tmp_path, "st.json", BELL_STATE)]
    reads_specs = argv[0] != "verify" and "identity-corollary" not in argv
    assert run(argv + (specs if reads_specs else [])) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {option}: ") and "Traceback" not in err, err


def test_channel_with_state_needs_tau(tmp_path, capsys):
    specs = scenario_specs(tmp_path)
    for name in ("gp_ea", "gp_ua"):
        argv = specs[name]
        at = argv.index("--tau")
        assert run(["simulate", name] + argv[:at] + argv[at + 2:]) == 1
        assert "--tau" in capsys.readouterr().err


def test_channel_state_must_match_the_channel_register(tmp_path, capsys):
    specs = scenario_specs(tmp_path)
    wrong = {"on_t": maximally_mixed(SystemLayout([("T", 2)])),
             "qutrit": maximally_mixed(SystemLayout([("S", 3)]))}
    for name, tau in wrong.items():
        path = write_spec(tmp_path, f"tau_{name}.json", state_spec(tau))
        for scenario in ("gp_ea", "gp_ua"):
            argv = specs[scenario]
            at = argv.index("--tau")
            argv = argv[:at + 1] + [path] + argv[at + 2:]
            assert run(["simulate", scenario] + argv) == 1, (name, scenario)
            err = capsys.readouterr().err
            assert err.startswith("error: tau must live on the channel state "
                                  "register ('S', 2)"), err
            assert "Traceback" not in err


def test_unassisted_ceiling_is_vacuous_without_error_budget(tmp_path, capsys):
    specs = scenario_specs(tmp_path)
    # The copy channel has four outputs, the XOR channel two.
    for scenario, log_b in (("broadcast_ua", 2.0), ("mac_ua", 1.0)):
        argv = specs[scenario]
        base = argv[:argv.index("--R")]
        for eps, ceiling in (("0.5,0.5", "inf"), ("0.6,0.6", "inf"),
                             ("0.1,0.1", log_b / 0.8)):
            assert run(["bound", "converse", "--scenario", scenario,
                        "--eps", eps] + base) == 0, (scenario, eps)
            got = json.loads(capsys.readouterr().out)["result"]["ceiling"]
            if ceiling == "inf":
                assert got == "inf", (scenario, eps)
            else:
                assert got == pytest.approx(ceiling, abs=1e-12), (scenario, eps)


def test_every_scenario_optimizes_through_the_sdp(tmp_path, capsys):
    specs = scenario_specs(tmp_path)
    for scenario, argv in specs.items():
        base = argv[:argv.index("--R")]
        eps = argv[argv.index("--eps") + 1]
        assert run(["bound", "converse", "--scenario", scenario, "--eps", eps,
                    "--optimize"] + base) == 0, scenario
        result = json.loads(capsys.readouterr().out)["result"]
        if scenario == "mac_ea":  # alternatives fixed at the state's marginals
            assert result["certificate"] is None
            continue
        assert len(result["certificate"]) == len(result["per_sender"]), scenario
        for cert, value in zip(result["certificate"], result["per_sender"]):
            assert cert <= value, scenario
            assert value - cert <= 1e-8, scenario


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--help"])
    assert exc.value.code == 0
    assert "simulate" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# simulate reports for every scenario


def channel_spec(ch):
    return {"schema": "1", "type": "channel",
            "kraus": [[[[z.real, z.imag] for z in row] for row in k]
                      for k in ch.kraus],
            "in_dims": [list(r) for r in ch.in_layout.registers],
            "out_dims": [list(r) for r in ch.out_layout.registers]}


def state_spec(rho):
    return {"schema": "1", "type": "state",
            "matrix": [[[z.real, z.imag] for z in row] for row in rho.matrix],
            "dims": [list(r) for r in rho.layout.registers]}


def scenario_specs(tmp_path):
    """CLI arguments of one small instance per scenario."""
    def spec(name, obj, kind):
        return write_spec(tmp_path, name, kind(obj))

    tau = maximally_mixed(SystemLayout([("S", 2)]))
    mixed_c = maximally_mixed(SystemLayout([("RC", 2)]))
    corr = classically_correlated("A", "U")
    files = {
        "id": write_spec(tmp_path, "id.json", IDENTITY_CHANNEL),
        "bell": write_spec(tmp_path, "bell.json", BELL_STATE),
        "corr": write_spec(tmp_path, "corr.json", CORR_STATE),
        "gp_ch": spec("gp_ch.json", gp_discard_channel(), channel_spec),
        "tau": spec("tau.json", tau, state_spec),
        "gp_ea": spec("gp_ea.json", tensor(bell_density("A", "B'"), tau)
                      .permuted(["A", "S", "B'"]), state_spec),
        "gp_ua": spec("gp_ua.json", tensor(corr, tau).permuted(["A", "S", "U"]),
                      state_spec),
        "bc_ch": spec("bc_ch.json", copy_broadcast_channel(), channel_spec),
        "bc_ea": spec("bc_ea.json", tensor(bell_density("A", "RB"), mixed_c),
                      state_spec),
        "bc_ua": spec("bc_ua.json", tensor(corr, maximally_mixed(
            SystemLayout([("V", 2)]))), state_spec),
        "mac_ch": spec("mac_ch.json", xor_mac_channel(), channel_spec),
        "ra": spec("ra.json", classically_correlated("A", "RA"), state_spec),
        "rb": spec("rb.json", classically_correlated("B", "RB"), state_spec),
    }
    one = ["--R", "1", "--eps", "0.1", "--delta", "0.05"]
    two = ["--R", "1,1", "--eps", "0.1,0.1", "--delta", "0.05"]
    return {
        "p2p_ea": ["--channel", files["id"], "--state", files["bell"]] + one,
        "gp_ea": ["--channel", files["gp_ch"], "--state", files["gp_ea"],
                  "--tau", files["tau"]] + one,
        "broadcast_ea": ["--channel", files["bc_ch"], "--state",
                         files["bc_ea"]] + two,
        "mac_ea": ["--channel", files["mac_ch"], "--state", files["ra"],
                   "--state-b", files["rb"]] + two,
        "p2p_ua": ["--channel", files["id"], "--state", files["corr"]] + one,
        "gp_ua": ["--channel", files["gp_ch"], "--state", files["gp_ua"],
                  "--tau", files["tau"]] + one,
        "broadcast_ua": ["--channel", files["bc_ch"], "--state",
                         files["bc_ua"]] + two,
        "mac_ua": ["--channel", files["mac_ch"], "--state", files["ra"],
                   "--state-b", files["rb"]] + two,
    }


SEQUENTIAL_DETAILS = {"outcome_dist", "seq_rhs", "strategy"}
DETAIL_KEYS = {
    "p2p_ea": {"receivers", "headline_bound"},
    "gp_ea": {"receivers"},
    "broadcast_ea": {"receivers"},
    "mac_ea": SEQUENTIAL_DETAILS,
    "p2p_ua": {"receivers"},
    "gp_ua": {"receivers"},
    "broadcast_ua": {"receivers"},
    "mac_ua": SEQUENTIAL_DETAILS,
}
RECEIVER_KEYS = {"bound", "c", "dual_bound", "error", "outcome_dist", "type1",
                 "type2"}
REPORT_KEYS = {"analytic_bound", "avg_error", "bound_satisfied", "details",
               "dh_values", "floors", "hn_bound", "per_message_success",
               "rate_feasible", "rates", "reported_error", "scenario",
               "worst_error"}


def test_simulate_report_shape_for_every_scenario(tmp_path, capsys):
    specs = scenario_specs(tmp_path)
    cases = [(name, args, DETAIL_KEYS[name]) for name, args in specs.items()]
    cases.append(("mac_ea", specs["mac_ea"] + ["--strategy", "pgm_a_first"],
                  {"disturbance", "outcome_dist", "stage1_err", "stage2_err",
                   "stage_bounds", "stage_hn", "strategy"}))
    for name, args, details in cases:
        assert run(["simulate", name, "--floor-sigmas", "2"] + args) == 0, name
        out = json.loads(capsys.readouterr().out)
        assert set(out) == {"command", "holds", "inputs", "report", "scenario",
                            "seed"}, name
        assert set(out["report"]) == REPORT_KEYS, name
        assert set(out["report"]["details"]) == details, name
        receivers = out["report"]["details"].get("receivers", [])
        assert len(receivers) == (len(out["report"]["rates"])
                                  if "receivers" in details else 0), name
        for rec in receivers:
            assert set(rec) == RECEIVER_KEYS, name


def test_simulate_exits_two_when_a_bound_fails(tmp_path, capsys, monkeypatch):
    # A slack of -2 puts every error past its bound, in every scenario and
    # with every decoder.
    monkeypatch.setattr(coding, "BOUND_SLACK", -2.0)
    specs = scenario_specs(tmp_path)
    cases = list(specs.items()) + [
        ("mac_ea", specs["mac_ea"] + ["--strategy", strategy])
        for strategy in ("pgm_a_first", "pgm_b_first")]
    for name, args in cases:
        assert run(["simulate", name, "--floor-sigmas", "2"] + args) == 2, name
        out = json.loads(capsys.readouterr().out)
        assert out["holds"] is False, name
        assert out["report"]["bound_satisfied"] is False, name


def test_simulate_broadcast_ea_uses_c(tmp_path, capsys):
    args = ["simulate", "broadcast_ea", "--floor-sigmas", "2"] + \
        scenario_specs(tmp_path)["broadcast_ea"]
    hn = []
    for extra in ([], ["--c", "0.3"]):
        run(args + extra)
        hn.append(json.loads(capsys.readouterr().out)["report"]["hn_bound"])
    psi = tensor(bell_density("A", "RB"),
                 maximally_mixed(SystemLayout([("RC", 2)])))
    want = simulate_broadcast_ea(copy_broadcast_channel(), psi, (1, 1),
                                 (0.1, 0.1), 0.05, c=(0.3, 0.3)).hn_bound
    assert hn[1] != pytest.approx(hn[0], abs=1e-6)
    assert hn[1] == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("name,c", [("mac_ua", "0.3"), ("mac_ea", "0.3"),
                                    ("mac_ea", "-1")])
@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_sequential_mac_decoding_with_c_exits_one(tmp_path, capsys, command, name, c):
    specs = scenario_specs(tmp_path)[name]
    assert run([command, name, "--floor-sigmas", "2", "--c", c] + specs) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith(
        "error: the sequential decoder takes no c"), out.err


@pytest.mark.parametrize("c", ["nan", "inf"])
@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_a_non_finite_c_exits_one(tmp_path, capsys, command, c):
    specs = scenario_specs(tmp_path)["p2p_ea"]
    assert run([command, "p2p_ea", "--floor-sigmas", "2", "--c", c] + specs) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err == f"error: c must be positive and finite, got {c}\n"


@pytest.mark.parametrize("strategy", ["pgm_a_first", "pgm_b_first"])
def test_square_root_mac_decoding_reads_c(tmp_path, capsys, strategy):
    args = ["simulate", "mac_ea", "--floor-sigmas", "2", "--strategy", strategy]
    args += scenario_specs(tmp_path)["mac_ea"]
    hn = []
    for extra in ([], ["--c", "0.3"]):
        assert run(args + extra) == 0
        hn.append(json.loads(capsys.readouterr().out)["report"]["hn_bound"])
    assert hn[1] != pytest.approx(hn[0], abs=1e-6)
