import json

import pytest

from oneshot_qcap.cli import SpecError, parse_spec, run
from oneshot_qcap.coding import simulate_broadcast_ea
from oneshot_qcap.linalg import SystemLayout, maximally_mixed, tensor

from helpers import (
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


def test_channel_with_state_needs_tau(tmp_path, capsys):
    specs = scenario_specs(tmp_path)
    for name in ("gp_ea", "gp_ua"):
        argv = specs[name]
        at = argv.index("--tau")
        assert run(["simulate", name] + argv[:at] + argv[at + 2:]) == 1
        assert "--tau" in capsys.readouterr().err


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


SINGLE_DETAILS = {"c", "dh", "outcome_dist", "type1", "type2"}
SEQUENTIAL_DETAILS = {"outcome_dist", "seq_rhs", "strategy"}
DETAIL_KEYS = {
    "p2p_ea": SINGLE_DETAILS | {"headline_bound"},
    "gp_ea": SINGLE_DETAILS,
    "broadcast_ea": {"per_receiver_bounds", "per_receiver_worst_error"},
    "mac_ea": SEQUENTIAL_DETAILS,
    "p2p_ua": SINGLE_DETAILS,
    "gp_ua": SINGLE_DETAILS,
    "broadcast_ua": {"per_receiver_avg_error", "per_receiver_bounds"},
    "mac_ua": SEQUENTIAL_DETAILS,
}
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
