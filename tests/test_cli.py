import contextlib
import csv
import dataclasses
import io
import json
import math
import sys
import warnings

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from cogarq import cli, experiments
from cogarq.cli import main
from cogarq.mdp import policy_to_json_obj, enumerate_states

from support import k_active_policy

CONFIG = {
    "mean_snr_s": 5.0, "mean_snr_p": 10.0, "mean_snr_sp": 2.0,
    "mean_snr_ps": 5.0, "rate_p": 2.52, "rate_su": 1.12, "rate_sk": 1.91,
    "deadline_D": 3, "buffer_B": 2, "eps_pu": 0.2, "power_ratio": 1.0,
    "rate_policy": "EXPLICIT",
}


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(CONFIG))
    return str(path)


def test_derive_params(config_file, tmp_path, capsys):
    out = tmp_path / "params.json"
    rc = main(["derive-params", "--config", config_file, "--mc-samples",
               "200000", "--out", str(out)])
    assert rc == 0
    obj = json.loads(out.read_text())
    assert obj["params"]["rate_p"] == 2.52
    assert 0 < obj["stats"]["p_buf"] < 1
    assert 0 < obj["eps_w"] <= 1


def test_derived_rates_ignore_the_seed(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(dict(CONFIG, rate_policy="RSU_STAR")))
    rates, stats = [], []
    for seed in ("1", "2"):
        out = tmp_path / f"params_{seed}.json"
        assert main(["derive-params", "--config", str(path), "--seed", seed,
                     "--mc-samples", "100000", "--out", str(out)]) == 0
        obj = json.loads(out.read_text())
        rates.append(obj["params"]["rate_su"])
        stats.append(obj["stats"])
    assert rates[0] == rates[1]
    # t_su is exact; p_buf is the Monte-Carlo estimate the seed drives
    assert stats[0]["t_su"] == stats[1]["t_su"]
    assert stats[0]["p_buf"] != stats[1]["p_buf"]
    assert "stderr_t_su" not in stats[0]


ABSENT = object()   # marks a config key to leave out


@pytest.mark.parametrize("change", [
    {"mean_snr_ps": float("nan")},
    {"mean_snr_s": float("inf")},
    {"rate_p": float("-inf")},
    {"rate_su": float("nan")},
    {"deadline_D": 5.5},
    {"buffer_B": 1.5},
    {"power_ratoi": 0.5},
    {"mean_snr_s": True, "rate_policy": "RSU_STAR"},
    {"rate_su": True},
    {"mean_snr_s": "5.0"},
    {"mean_snr_ps": None},
    {"rate_p": [2.52]},
    {"eps_pu": False},
    # the default buffer_B = deadline_D - 1 must not run on a bad deadline
    {"deadline_D": "5", "buffer_B": ABSENT},
    {"deadline_D": None, "buffer_B": ABSENT},
    {"deadline_D": [5], "buffer_B": ABSENT},
    # a positive SNR whose reciprocal overflows a double
    {"mean_snr_ps": 5e-324},
    {"mean_snr_s": 5e-324, "rate_su": 1000},
    # a decode threshold 2^r - 1 beyond the double range
    {"rate_sk": 2000},
    {"rate_su": 600, "rate_p": 600},
    {"rate_p": "2.0"},
    # an integer past the double range
    {"mean_snr_s": 2 ** 1100},
    {"rate_p": -2 ** 1100},
    {"eps_pu": 2 ** 1100},
    {"power_ratio": 2 ** 1100},
])
def test_invalid_config_rejected(tmp_path, capsys, change):
    path = tmp_path / "scenario.json"
    config = {k: v for k, v in dict(CONFIG, **change).items()
              if v is not ABSENT}
    path.write_text(json.dumps(config))
    rc = main(["solve", "--config", str(path), "--mc-samples", "100000"])
    assert rc != 0
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    obj = json.loads(err)
    assert obj["error"] == "ValueError"
    assert next(iter(change)) in obj["message"]


def _one_line_error(capsys) -> dict:
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    return json.loads(err)


# The longest error line a refused value or key may give: a refusal names
# the field and a short form of what it got, never the whole input.
SHORT_LINE = 120


@pytest.mark.parametrize("command, config, row, field", [
    ("solve", {"mean_snr_s": 2 ** 1100}, {}, "mean_snr_s"),
    ("solve", {"eps_pu": 2 ** 1100}, {}, "eps_pu"),
    ("simulate", {}, {"prob": 2 ** 1100}, "prob"),
    ("solve", {"x" * 5000: 1.0}, {}, "unknown config keys: xxx"),
], ids=["mean_snr_s", "eps_pu", "prob", "config-key"])
def test_refusal_is_short(tmp_path, capsys, command, config, row, field):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(dict(CONFIG, **config)))
    policy_file = tmp_path / "policy.json"
    rows = policy_to_json_obj(k_active_policy(enumerate_states(3, 2)))
    policy_file.write_text(json.dumps([dict(rows[0], **row)] + rows[1:]))
    extra = (["--policy-file", str(policy_file)] if command == "simulate"
             else [])
    assert main([command, "--config", str(path), *extra,
                 "--mc-samples", "100000"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and len(err.rstrip("\n")) < SHORT_LINE
    obj = json.loads(err)
    assert obj["error"] == "ValueError"
    assert field in obj["message"]


@pytest.mark.parametrize("missing", ["rate_p", "rate_su", "rate_sk"])
def test_explicit_config_needs_every_rate(tmp_path, capsys, missing):
    config = {k: v for k, v in CONFIG.items() if k != missing}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(config))
    rc = main(["derive-params", "--config", str(path), "--mc-samples",
               "100000"])
    assert rc == 1
    obj = _one_line_error(capsys)
    assert obj["error"] == "ValueError"
    assert missing in obj["message"]


@pytest.mark.parametrize("argv", [
    ["derive-params"],
    ["solve"],
    ["oracle", "--D", "2", "--B", "1"],
    ["simulate", "--policy-file", "unread.json"],
    ["sweep", "--kind", "TS_VS_TP", "--grid", "0.2"],
])
def test_unknown_rate_policy_rejected(tmp_path, capsys, argv):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(dict(CONFIG, rate_policy="BOGUS")))
    out = tmp_path / "out"
    rc = main([argv[0], "--config", str(path), *argv[1:], "--mc-samples",
               "100000", "--out", str(out)])
    assert rc == 1
    obj = _one_line_error(capsys)
    assert obj == {"error": "ValueError",
                   "message": "unknown rate policy 'BOGUS'"}
    assert not out.exists()


def test_derived_rates_need_no_rates_in_config(tmp_path, capsys):
    config = {k: v for k, v in CONFIG.items()
              if k not in ("rate_p", "rate_su", "rate_sk")}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(dict(config, rate_policy="RSU_EQ_RSK")))
    rc = main(["derive-params", "--config", str(path), "--mc-samples",
               "100000"])
    assert rc == 0
    params = json.loads(capsys.readouterr().out)["params"]
    assert params["rate_su"] == params["rate_sk"] != 1.0


@pytest.mark.parametrize("argv", [
    ["derive-params"],
    ["sweep", "--kind", "TS_VS_TP", "--grid", "0.2,0.6"],
])
def test_sample_count_below_floor_rejected(config_file, tmp_path, capsys,
                                           argv):
    out = tmp_path / "out"
    rc = main([argv[0], "--config", config_file, *argv[1:],
               "--mc-samples", "99999", "--out", str(out)])
    assert rc == 1
    obj = _one_line_error(capsys)
    assert obj == {"error": "ValueError",
                   "message": "mc_samples must be at least 1e5"}
    assert not out.exists()


@pytest.mark.parametrize("eps_w", ["nan", "inf", "-inf"])
def test_non_finite_budget_rejected(config_file, capsys, eps_w):
    rc = main(["solve", "--config", config_file, "--mc-samples", "100000",
               f"--eps-w={eps_w}"])
    assert rc == 1
    obj = _one_line_error(capsys)
    assert obj == {"error": "ValueError",
                   "message": "eps_w must be finite and nonnegative"}


@pytest.mark.parametrize("grid", ["0.5,nan,0.1", "0.1,inf", "-inf,0.5"])
def test_non_finite_sweep_grid_rejected(config_file, capsys, grid):
    rc = main(["sweep", "--config", config_file, "--kind", "TS_VS_TP",
               f"--grid={grid}", "--mc-samples", "100000"])
    assert rc == 1
    obj = _one_line_error(capsys)
    assert obj == {"error": "ValueError",
                   "message": "grid values must be finite"}


def test_empty_sweep_grid_rejected(config_file, capsys):
    # An empty grid is an error, not a request for the default grid.
    rc = main(["sweep", "--config", config_file, "--kind", "TS_VS_TP",
               "--grid", "", "--mc-samples", "100000"])
    assert rc == 1
    assert _one_line_error(capsys)["error"] == "ValueError"


@pytest.mark.parametrize("argv", [
    ["solve", "--eps-w", "-inf"],
    ["sweep", "--kind", "TS_VS_TP", "--grid", "-inf,0.5"],
])
def test_negative_value_as_separate_argument_rejected(config_file, capsys,
                                                      argv):
    # argparse reads "-inf" as an option, so the value never arrives; the
    # rejection still takes the one error path.
    rc = main([argv[0], "--config", config_file, *argv[1:]])
    assert rc == 1
    obj = _one_line_error(capsys)
    assert obj["error"] == "UsageError"
    assert "expected one argument" in obj["message"]


def test_missing_config_rejected(capsys):
    rc = main(["solve", "--eps-w", "0.1"])
    assert rc == 1
    obj = _one_line_error(capsys)
    assert obj == {"error": "UsageError",
                   "message": "the following arguments are required: "
                              "--config"}


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--help"])
    assert exc.value.code == 0
    assert "--eps-w" in capsys.readouterr().out


def test_solve_and_simulate(config_file, tmp_path):
    solved = tmp_path / "solved.json"
    rc = main(["solve", "--config", config_file, "--mc-samples", "200000",
               "--eps-w", "0.4", "--out", str(solved)])
    assert rc == 0
    obj = json.loads(solved.read_text())
    assert obj["eps_w"] == 0.4
    assert abs(obj["metrics"]["w_s_bar"] - 0.4) <= 1e-9
    probs = {(r["t"], r["b"], r["phi"]): r["prob"] for r in obj["policy"]}
    assert len(probs) == len(enumerate_states(3, 2))

    policy_file = tmp_path / "policy.json"
    policy_file.write_text(json.dumps(obj["policy"]))
    sim_out = tmp_path / "sim.json"
    rc = main(["simulate", "--config", config_file, "--policy-file",
               str(policy_file), "--slots", "50000", "--seed", "3",
               "--out", str(sim_out)])
    assert rc == 0
    sim = json.loads(sim_out.read_text())
    assert abs(sim["w_s_emp"] - 0.4) < 0.05
    assert all(type(sim[k]) is int
               for k in ("k_access_slots", "buffered_events")), sim


def test_simulate_too_short_for_errors_is_strict_json(config_file, tmp_path,
                                                      capsys):
    # one slot completes at most one cycle, so no standard error exists
    policy_file = tmp_path / "policy.json"
    policy_file.write_text(json.dumps(
        policy_to_json_obj(k_active_policy(enumerate_states(3, 2)))))
    rc = main(["simulate", "--config", config_file, "--policy-file",
               str(policy_file), "--slots", "1"])
    assert rc == 0

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    sim = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert sim["stderr_t_s"] is sim["stderr_w_s"] is sim["stderr_t_p"] is None


def test_oracle_csv(config_file, tmp_path):
    # up to the 16-state cap, the frontier starts at the idle policy and
    # its slopes fall strictly
    out = tmp_path / "frontier.csv"
    for deadline, cap in (("2", "1"), ("4", "3"), ("5", "2")):
        rc = main(["oracle", "--config", config_file, "--mc-samples",
                   "200000", "--D", deadline, "--B", cap, "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "w_s_bar,t_s_bar,policy_bitmask"
        assert len(lines) >= 3
        first = lines[1].split(",")
        assert float(first[0]) == 0.0 and first[2] == "0"
        w, t = zip(*(map(float, line.split(",")[:2]) for line in lines[1:]))
        slopes = [(t[i + 1] - t[i]) / (w[i + 1] - w[i])
                  for i in range(len(w) - 1)]
        assert all(b < a for a, b in zip(slopes, slopes[1:])), slopes


def test_oracle_refuses_oversized_space_before_channel_work(
        config_file, capsys, monkeypatch):
    def forbidden(*args):
        raise AssertionError("channel work before the size check")

    for name in ("link_stats", "derive_rates"):
        monkeypatch.setattr(cli, name, forbidden)
    for deadline, n_states in ((10 ** 3, 501499), (10 ** 6, 500001499999)):
        assert main(["oracle", "--config", config_file, "--D", str(deadline),
                     "--B", str(deadline - 1)]) == 1
        assert _one_line_error(capsys) == {
            "error": "ValueError",
            "message": f"state space too large to enumerate "
                       f"({n_states} > 16)"}


def test_oversized_space_refused(config_file, tmp_path, capsys):
    # past mdp.MAX_STATES states, solve and simulate exit with one
    # ValueError line and a sweep point becomes a row error, before any
    # state is built; the refusal is one short line for any deadline
    big = tmp_path / "big.json"
    big.write_text(json.dumps(dict(CONFIG, deadline_D=10 ** 6,
                                   buffer_B=10 ** 6 - 1)))
    policy_file = tmp_path / "policy.json"
    policy_file.write_text(json.dumps(
        policy_to_json_obj(k_active_policy(enumerate_states(3, 2)))))
    too_large = "state space too large (500001499999 > 32768 states)"
    for extra in (["solve"],
                  ["simulate", "--policy-file", str(policy_file),
                   "--slots", "1000"]):
        assert main([*extra, "--config", str(big),
                     "--mc-samples", "100000"]) == 1
        assert _one_line_error(capsys) == {"error": "ValueError",
                                           "message": too_large}
    assert main(["sweep", "--config", config_file, "--kind", "DEADLINE",
                 "--grid", "3,1e4,1e308", "--mc-samples", "100000"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert [r["error"] for r in rows[:4]] == [""] * 4
    assert all(r["error"].startswith("ValueError: state space too large (")
               and r["error"].endswith(" > 32768 states)") for r in rows[4:])
    assert all(len(r["error"]) < 100 for r in rows[4:])
    assert [r["x"] for r in rows[4:]] == ["10000.0"] * 4 + ["1e+308"] * 4
    # under the cap, D = 200 with B = 199 (20 299 states) simulates
    d200 = tmp_path / "d200.json"
    d200.write_text(json.dumps(dict(CONFIG, deadline_D=200, buffer_B=199)))
    policy_file.write_text(json.dumps(
        policy_to_json_obj(k_active_policy(enumerate_states(200, 199)))))
    assert main(["simulate", "--config", str(d200), "--policy-file",
                 str(policy_file), "--with-analytic", "--slots", "20000",
                 "--seed", "1", "--mc-samples", "100000"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    sim = _strict_json(captured.out)
    assert sim["num_slots"] == 20000 and sim["k_access_slots"] > 0


@pytest.mark.parametrize("argv", [
    ["derive-params"],
    ["solve"],
    ["oracle", "--D", "2", "--B", "1"],
    ["simulate", "--policy-file", "unread.json"],
    ["sweep", "--kind", "TS_VS_TP", "--grid", "0.2"],
])
def test_negative_seed_refused_before_rate_derivation(
        config_file, capsys, monkeypatch, argv):
    def forbidden(*args):
        raise AssertionError("rate derivation before the seed check")

    monkeypatch.setattr(cli, "derive_rates", forbidden)
    monkeypatch.setattr(experiments, "derive_rates", forbidden)
    rc = main([argv[0], "--config", config_file, *argv[1:], "--seed", "-1",
               "--mc-samples", "100000"])
    assert rc == 1
    assert _one_line_error(capsys) == {"error": "ValueError",
                                       "message": "seed must be >= 0"}


def test_solve_matches_oracle_when_clean_access_is_poor(tmp_path):
    # With r_sk = 0.3 a known-message access earns less than an
    # interfered access plus its buffered top-up, so the optimum at this
    # budget is not known-message-only; `solve` must reach the
    # brute-force chord.
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(dict(CONFIG, rate_p=2.0, rate_su=1.2,
                                    rate_sk=0.3, deadline_D=4, buffer_B=3)))
    common = ["--config", str(path), "--seed", "1"]
    solved, frontier = tmp_path / "solved.json", tmp_path / "frontier.csv"
    assert main(["solve", *common, "--eps-w", "0.2",
                 "--out", str(solved)]) == 0
    assert main(["oracle", *common, "--D", "4", "--B", "3",
                 "--out", str(frontier)]) == 0
    vertices = [tuple(map(float, line.split(",")[:2]))
                for line in frontier.read_text().splitlines()[1:]]
    (w_a, t_a), (w_b, t_b) = next(
        (a, b) for a, b in zip(vertices, vertices[1:]) if a[0] <= 0.2 <= b[0])
    chord = t_a + (t_b - t_a) * (0.2 - w_a) / (w_b - w_a)
    t_s = json.loads(solved.read_text())["metrics"]["t_s_bar"]
    assert abs(t_s - chord) <= 1e-9


def test_sweep_csv(config_file, tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--config", config_file, "--kind", "TS_VS_TP",
               "--grid", "0.2,0.6", "--mc-samples", "200000",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "x,scheme,t_s_bar,w_s_bar,t_p_bar,error"
    assert len(lines) == 1 + 2 * 4


def test_error_is_machine_readable(tmp_path, capsys):
    rc = main(["solve", "--config", str(tmp_path / "missing.json")])
    assert rc != 0
    err = capsys.readouterr().err.strip()
    obj = json.loads(err)
    assert "error" in obj and "message" in obj


def test_policy_file_round_trip(tmp_path):
    states = enumerate_states(3, 2)
    obj = policy_to_json_obj(k_active_policy(states))
    text = json.dumps(obj)
    assert json.loads(text) == obj


def test_simulate_rejects_repeated_state(tmp_path, capsys):
    # A state given twice would let the later row silently override the
    # earlier one. A row's JSON true would read as the integer 1, 1.0 as a
    # buffer level, and "0.5" would parse as a float, so those are rejected
    # as well, and so is a phi other than "U" or "K" (a list would not
    # hash).
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(dict(CONFIG, deadline_D=4, buffer_B=3)))
    rows = policy_to_json_obj(k_active_policy(enumerate_states(4, 3)))
    cases = [(rows + [{"t": 4, "b": 0, "phi": "K", "prob": 0.0}],
              "appears twice")]
    # rows 0, 1 and 2 are (1, 0, U), (2, 0, U) and (2, 1, U)
    for i, key, value in ((0, "t", True), (2, "b", 1.0), (1, "prob", "0.5"),
                          (1, "prob", True)):
        bad = [dict(r) for r in rows]
        bad[i][key] = value
        cases.append((bad, f"{key} must be"))
    for i, value in ((0, ["U"]), (1, {}), (2, 0)):
        bad = [dict(r) for r in rows]
        bad[i]["phi"] = value
        cases.append((bad, f"policy row {i}: phi must be"))
    policy_file = tmp_path / "policy.json"
    for obj, message in cases:
        policy_file.write_text(json.dumps(obj))
        rc = main(["simulate", "--config", str(path), "--policy-file",
                   str(policy_file), "--slots", "1000"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        diag = json.loads(lines[0])
        assert diag["error"] == "ValueError"
        assert message in diag["message"]


@pytest.mark.parametrize("config, missing", [
    ({"mean_snr_s": 5.0},
     "mean_snr_p, mean_snr_sp, mean_snr_ps, deadline_D"),
    ({k: v for k, v in CONFIG.items() if k != "deadline_D"}, "deadline_D"),
    ({}, "mean_snr_s, mean_snr_p, mean_snr_sp, mean_snr_ps, deadline_D"),
])
def test_missing_required_keys_listed(tmp_path, capsys, config, missing):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(config))
    rc = main(["derive-params", "--config", str(path), "--mc-samples",
               "100000"])
    assert rc == 1
    assert _one_line_error(capsys) == {
        "error": "ValueError", "message": f"missing config keys: {missing}"}


@pytest.mark.parametrize("snr", [1e8, 1e-4])
def test_rate_at_bracket_edge_rejected(tmp_path, capsys, snr):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(dict(CONFIG, rate_policy="RSU_STAR",
                                    mean_snr_s=snr)))
    rc = main(["derive-params", "--config", str(path), "--mc-samples",
               "100000"])
    assert rc == 1
    obj = _one_line_error(capsys)
    assert obj["error"] == "ValueError"
    assert "SU_CLEAN_THROUGHPUT" in obj["message"]
    assert "rate bracket" in obj["message"]


def test_simulate_rejects_policy_object(config_file, tmp_path, capsys):
    policy_file = tmp_path / "policy.json"
    rows = policy_to_json_obj(k_active_policy(enumerate_states(3, 2)))
    for obj, message in (({"rows": rows}, "list of rows"),
                         (rows[:1] + [[3, 0, "K", 1.0]], "policy row 1"),
                         ([dict(rows[0], prob=None)] + rows[1:],
                          "prob must be"),
                         # past the double range: float() would overflow
                         ([dict(rows[0], prob=2 ** 1100)] + rows[1:],
                          "prob must be a number in [0, 1]"),
                         ([{"t": 1, "b": 0, "phi": "U"}] + rows[1:],
                          "policy row 0 lacks prob"),
                         ([dict(rows[0], porb=0.9)] + rows[1:],
                          "policy row 0 has unknown keys: porb")):
        policy_file.write_text(json.dumps(obj))
        rc = main(["simulate", "--config", config_file, "--policy-file",
                   str(policy_file), "--slots", "1000"])
        assert rc == 1
        diag = _one_line_error(capsys)
        assert diag["error"] == "ValueError"
        assert message in diag["message"]


def test_subnormal_snr_sweep_rejected(tmp_path, capsys):
    # 1 / 5e-324 overflows; the sweep must not write nan rows
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(dict(CONFIG, mean_snr_s=5e-324,
                                    rate_su=1000)))
    rc = main(["sweep", "--config", str(path), "--kind", "GPS_RATIO",
               "--grid", "0.5,1", "--mc-samples", "100000"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    diag = json.loads(captured.err)
    assert diag["error"] == "ValueError"
    assert "mean_snr_s" in diag["message"]


def _strict_json(text: str):
    def reject(constant):
        raise ValueError(f"non-finite JSON constant {constant}")
    return json.loads(text, parse_constant=reject)


def _finite_csv(text: str):
    """Assert that the CSV has rows and every numeric cell is finite; a
    row's error text (which may name inf) and its scheme are not numbers."""
    rows = list(csv.DictReader(io.StringIO(text)))
    assert rows
    for row in rows:
        for key, cell in row.items():
            if key not in ("scheme", "error") and cell != "":
                assert math.isfinite(float(cell)), (key, row)


@pytest.mark.parametrize("snr", [1e-300, 1e-308])
def test_vanishing_cross_link_derives_clean_rate(tmp_path, capsys, snr):
    # with no usable primary signal at the secondary receiver, the
    # interfered rate is the clean-channel rate
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(dict(CONFIG, rate_policy="RSU_STAR",
                                    mean_snr_ps=snr)))
    rc = main(["derive-params", "--config", str(path), "--mc-samples",
               "100000"])
    assert rc == 0
    params = _strict_json(capsys.readouterr().out)["params"]
    assert params["rate_su"] == pytest.approx(params["rate_sk"], abs=1e-9)


# Mean SNRs and rates at the edges of the double range and integers past
# it, and log-uniform between.
EDGE_SNRS = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-308, 1e-300, 1e300, sys.float_info.max,
                     2 ** 1100, -2 ** 1100]),
    st.floats(-3.0, 4.0).map(lambda e: 10.0 ** e))
EDGE_RATES = st.one_of(
    st.sampled_from([5e-324, 1e-300, 2000.0, 2 ** 1100, -2 ** 1100]),
    st.floats(-3.0, math.log10(2000.0)).map(lambda e: 10.0 ** e))


@st.composite
def edge_configs(draw):
    config = {k: draw(EDGE_SNRS) for k in ("mean_snr_s", "mean_snr_p",
                                           "mean_snr_sp", "mean_snr_ps")}
    deadline = draw(st.integers(1, 3))
    config.update(deadline_D=deadline,
                  buffer_B=draw(st.integers(0, deadline - 1)))
    if draw(st.booleans()):
        config["rate_policy"] = "RSU_STAR"
    else:
        config["rate_policy"] = "EXPLICIT"
        for k in ("rate_p", "rate_su", "rate_sk"):
            config[k] = draw(EDGE_RATES)
    return config


@settings(max_examples=100, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edge_configs())
def test_edge_configs_give_strict_json_or_value_error(tmp_path, config):
    # every finite config makes every subcommand either succeed with strict
    # JSON or finite CSV, or fail with exactly one ValueError line, never
    # NaN or another exception; a warning would be one more stderr line
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(config))
    policy = tmp_path / "policy.json"
    policy.write_text(json.dumps(policy_to_json_obj(k_active_policy(
        enumerate_states(config["deadline_D"], config["buffer_B"])))))
    commands = {
        "derive-params": [], "solve": [], "oracle": [],
        "simulate": ["--policy-file", str(policy), "--slots", "1000",
                     "--with-analytic"],
        "sweep": ["--kind", "GPS_RATIO", "--grid", "0.5,2"],
    }
    for command, extra in commands.items():
        _assert_clean_outcome(
            [command, "--config", str(path), "--mc-samples", "100000",
             *extra], ("ValueError",), max_len=SHORT_LINE)


# Every JSON type, integers past the double range among them, and the
# probabilities at the edges of [0, 1].
JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(),
              st.sampled_from([2 ** 1100, -2 ** 1100]), st.floats(),
              st.text(max_size=3)),
    lambda inner: st.one_of(st.lists(inner, max_size=2),
                            st.dictionaries(st.text(max_size=2), inner,
                                            max_size=2)),
    max_leaves=4)
EDGE_PROBS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 1.0, 1, math.nextafter(1.0, 2.0)]),
    st.floats(0.0, 1.0))


@st.composite
def policy_rows(draw, deadline, cap):
    """A policy file's rows for (deadline, cap): every state at an edge
    probability, then up to three edits, each replacing a row field by any
    JSON value, adding an unknown key, repeating a row or dropping one."""
    rows = [dict(r, prob=draw(EDGE_PROBS)) for r in policy_to_json_obj(
        k_active_policy(enumerate_states(deadline, cap)))]
    for _ in range(draw(st.integers(0, 3))):
        if not rows:
            break
        i = draw(st.integers(0, len(rows) - 1))
        edit = draw(st.sampled_from(["field", "unknown key", "repeat",
                                     "drop"]))
        if edit == "field":
            key = draw(st.sampled_from(["t", "b", "phi", "prob"]))
            rows[i] = dict(rows[i], **{key: draw(JSON_VALUES)})
        elif edit == "unknown key":
            rows[i] = dict(rows[i], **{draw(st.text(max_size=4)):
                                       draw(JSON_VALUES)})
        elif edit == "repeat":
            rows.insert(draw(st.integers(0, len(rows))), dict(rows[i]))
        else:
            del rows[i]
    return rows


@settings(max_examples=100, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_edge_policy_files_give_strict_json_or_value_error(tmp_path, data):
    # every policy file either simulates to strict JSON or fails with
    # exactly one ValueError line, never another exception
    deadline = data.draw(st.integers(1, 3))
    cap = data.draw(st.integers(0, deadline - 1))
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(dict(CONFIG, deadline_D=deadline,
                                    buffer_B=cap)))
    policy = tmp_path / "policy.json"
    policy.write_text(json.dumps(data.draw(policy_rows(deadline, cap))))
    argv = ["simulate", "--config", str(path), "--policy-file", str(policy),
            "--slots", str(data.draw(st.integers(1, 10 ** 4))),
            "--mc-samples", "100000"]
    if data.draw(st.booleans()):
        argv.append("--with-analytic")
    _assert_clean_outcome(argv, ("ValueError",), max_len=SHORT_LINE)


def _assert_clean_outcome(argv, errors, max_len=None):
    """Run ``main(argv)`` and assert exit 0 with strict JSON (finite CSV
    from oracle and sweep) and an empty stderr, or exit 1 with an empty
    stdout and one JSON line naming one of ``errors``, shorter than
    ``max_len`` characters if given, and no warning."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(argv)
    assert not caught, (argv, [str(w.message) for w in caught])
    if rc == 0:
        assert err.getvalue() == ""
        if argv[0] in ("oracle", "sweep"):
            _finite_csv(out.getvalue())
        else:
            _strict_json(out.getvalue())
    else:
        assert rc == 1 and out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] in errors, (argv, lines)
        assert max_len is None or len(lines[0]) < max_len, (argv, lines)


def _texts(numbers):
    """An option's argv text: a number drawn from ``numbers`` or a malformed
    or non-finite one."""
    return st.one_of(
        numbers.map(str),
        st.sampled_from(["", " ", "nan", "inf", "-inf", "+7", "1e3", "2.5",
                         "-0", "1_0", "0x1f", "abc", "-"]))


# Magnitudes keep every command short: at most 1e4 simulated slots, and a
# DEADLINE grid value either small or past the state-space cap.
SEEDS = st.one_of(st.integers(-3, 3), st.integers(-2 ** 70, 2 ** 70))
SLOTS = st.integers(-3, 10 ** 4)
SIZES = st.one_of(st.integers(-2, 6), st.integers(-10 ** 6, 10 ** 6))
BUDGETS = st.floats(allow_nan=True, allow_infinity=True)
DEADLINES = st.one_of(st.floats(-3.0, 6.0), st.floats(300.0, 1e308))


@st.composite
def _grids(draw, values):
    if draw(st.booleans()):     # a monotone grid of numbers
        return ",".join(map(repr, sorted(draw(st.lists(values, min_size=1,
                                                       max_size=3)))))
    return ",".join(draw(st.lists(_texts(values), max_size=3)))


@st.composite
def cli_argvs(draw, config, policy):
    """A subcommand's argv with drawn texts for its numeric options, each
    given as ``--opt=text``, as ``--opt text`` or not at all."""
    command = draw(st.sampled_from(["derive-params", "solve", "simulate",
                                    "oracle", "sweep"]))
    argv = [command, "--config", config, "--mc-samples", "100000"]
    options = {"--seed": _texts(SEEDS)}
    if command == "solve":
        options["--eps-w"] = _texts(BUDGETS)
    elif command == "simulate":
        argv += ["--policy-file", policy, "--with-analytic"]
        options["--slots"] = _texts(SLOTS)
    elif command == "oracle":
        options.update({"--D": _texts(SIZES), "--B": _texts(SIZES)})
    elif command == "sweep":
        kind = draw(st.sampled_from(["TS_VS_TP", "DEADLINE"]))
        argv += ["--kind", kind]
        options["--grid"] = _grids(BUDGETS if kind == "TS_VS_TP"
                                   else DEADLINES)
    for option, texts in options.items():
        form = draw(st.sampled_from(["joined", "separate", "absent"]))
        if form == "joined":
            argv.append(f"{option}={draw(texts)}")
        elif form == "separate":
            argv += [option, draw(texts)]
    return argv


@settings(max_examples=120, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_edge_argvs_give_strict_json_or_one_error_line(config_file, tmp_path,
                                                        data):
    # every drawn command line either succeeds with strict JSON or finite
    # CSV, or fails with exactly one ValueError or UsageError line
    policy = tmp_path / "policy.json"
    policy.write_text(json.dumps(
        policy_to_json_obj(k_active_policy(enumerate_states(3, 2)))))
    argv = data.draw(cli_argvs(config_file, str(policy)))
    _assert_clean_outcome(argv, ("ValueError", "UsageError"))


def _with_nan(obj, field):
    return dataclasses.replace(obj, **{field: math.nan})


def _nan_budget(access_rate_budget):
    return lambda *args: math.nan


def _nan_solution(optimal_policy):
    def patched(*args):
        policy, metrics = optimal_policy(*args)
        return policy, _with_nan(metrics, "t_p_bar")
    return patched


def _nan_field(field):
    return lambda f: lambda *args: _with_nan(f(*args), field)


def _nan_frontier(enumerate_frontier):
    return lambda *args: [_with_nan(p, "t_s_bar")
                          for p in enumerate_frontier(*args)]


@pytest.mark.parametrize("command, target, patch", [
    ("derive-params", "access_rate_budget", _nan_budget),
    ("solve", "optimal_policy", _nan_solution),
    ("simulate", "run", _nan_field("u_bits")),
    ("simulate", "long_term_metrics", _nan_field("t_s_bar")),
    ("oracle", "enumerate_frontier", _nan_frontier),
], ids=["derive-params", "solve", "simulate", "simulate-analytic", "oracle"])
def test_non_finite_output_is_a_value_error(config_file, tmp_path, capsys,
                                            monkeypatch, command, target,
                                            patch):
    # a NaN that reaches the output exits 1 with one ValueError line and
    # prints nothing
    monkeypatch.setattr(cli, target, patch(getattr(cli, target)))
    policy_file = tmp_path / "policy.json"
    policy_file.write_text(json.dumps(
        policy_to_json_obj(k_active_policy(enumerate_states(3, 2)))))
    extra = {"simulate": ["--policy-file", str(policy_file), "--slots",
                          "100", "--with-analytic"],
             "oracle": ["--D", "2", "--B", "1"]}.get(command, [])
    rc = main([command, "--config", config_file, "--mc-samples", "100000",
               *extra])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert json.loads(captured.err)["error"] == "ValueError"


def test_non_finite_sweep_metric_is_a_row_error(config_file, monkeypatch,
                                                capsys):
    # a NaN metric at one grid point turns that point's four rows into
    # errors; the other points are unchanged
    evaluate = experiments.evaluate_scheme

    def nan_at_half(scheme, eps_w, stats, path=None):
        m = evaluate(scheme, eps_w, stats, path)
        if eps_w == 0.5 and scheme == experiments.FIC_ONLY:
            return _with_nan(m, "w_s_bar")
        return m

    monkeypatch.setattr(experiments, "evaluate_scheme", nan_at_half)
    rc = main(["sweep", "--config", config_file, "--kind", "TS_VS_TP",
               "--grid", "0.2,0.5,0.8", "--mc-samples", "100000"])
    assert rc == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert [r["x"] for r in rows] == ["0.2"] * 4 + ["0.5"] * 4 + ["0.8"] * 4
    for r in rows:
        if r["x"] == "0.5":
            assert r["error"] == "ValueError: non-finite FIC_ONLY metric"
            assert r["t_s_bar"] == r["w_s_bar"] == r["t_p_bar"] == ""
        else:
            assert r["error"] == ""
            assert math.isfinite(float(r["w_s_bar"]))
