"""Command-line contract tests: exit codes, config validation, output
round-trips, and the transcript dump."""

import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qpcsim.cli
import qpcsim.harness
from qpcsim.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, main
from qpcsim.harness import MAX_JOBS, TrialStats, scenario_from_config
from test_harness import forbid_workers
from worker_faults import FailingScenario, boom


def write_config(tmp_path, name="cfg.json", **overrides):
    doc = {
        "schema_version": 1,
        "protocol": "proposed",
        "n": 2,
        "m": 2,
        "trials": 40,
        "seed": 11,
    }
    doc.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def test_run_writes_json_and_round_trips(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "stats.json"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    stats = TrialStats.from_json(out.read_text())
    assert stats.counters["trials"] == 40
    assert stats.to_json() == out.read_text().rstrip("\n") or stats.to_json() == out.read_text()


def test_run_csv_output(tmp_path):
    cfg = write_config(tmp_path, adversary={"kind": "eve_intercept_resend", "params": {"links": [1]}})
    out = tmp_path / "stats.csv"
    assert main(["run", "--config", str(cfg), "--format", "csv", "--out", str(out)]) == EXIT_OK
    rows = TrialStats.rows_from_csv(out.read_text())
    names = [r.name for r in rows]
    assert "detected_step2_rate" in names


def test_run_overrides_trials_and_seed(tmp_path):
    cfg = write_config(tmp_path)
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert main(["run", "--config", str(cfg), "--trials", "10", "--seed", "3", "--out", str(out_a)]) == EXIT_OK
    assert main(["run", "--config", str(cfg), "--trials", "10", "--seed", "3", "--out", str(out_b)]) == EXIT_OK
    assert out_a.read_text() == out_b.read_text()
    stats = TrialStats.from_json(out_a.read_text())
    assert stats.counters["trials"] == 10
    assert stats.scenario["seed"] == 3


def test_run_uses_config_output_section(tmp_path):
    out = tmp_path / "via_config.csv"
    cfg = write_config(tmp_path, output={"path": str(out), "format": "csv"})
    assert main(["run", "--config", str(cfg)]) == EXIT_OK
    assert out.exists()
    assert out.read_text().startswith("name,estimate")


def test_missing_seed_is_drawn_and_announced(tmp_path, capsys):
    cfg = write_config(tmp_path)
    doc = json.loads(cfg.read_text())
    del doc["seed"]
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "stats.json"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    err = capsys.readouterr().err
    assert "seed:" in err and "--seed" in err


def test_bad_config_exits_one_and_names_field(tmp_path, capsys):
    cfg = write_config(tmp_path, m=-3)
    assert main(["run", "--config", str(cfg)]) == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["category"] == "config"
    assert "`m`" in err["message"]


@pytest.mark.parametrize(
    "field, value",
    [
        ("m", qpcsim.harness.MAX_M + 1),
        ("decoy_count", qpcsim.harness.MAX_DECOY_COUNT + 1),
        ("check_rounds", qpcsim.harness.MAX_CHECK_ROUNDS + 1),
        ("trials", qpcsim.harness.MAX_TRIALS + 1),
    ],
)
def test_oversized_field_exits_one_and_names_it(tmp_path, capsys, field, value):
    cfg = write_config(tmp_path, protocol="zhang_baseline", **{field: value})
    assert main(["run", "--config", str(cfg)]) == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["category"] == "config"
    assert f"`{field}`" in err["message"]


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, warp_drive=True)
    assert main(["run", "--config", str(cfg)]) == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert "warp_drive" in err["message"]


def test_missing_config_file(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.json")]) == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["category"] == "config"


def test_invalid_json_config(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["run", "--config", str(path)]) == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert "not valid JSON" in err["message"]


def _no_run(*args, **kwargs):
    raise AssertionError("a trial ran")


def _forbid_runs(monkeypatch):
    """Make running any trial, through any command, fail the test."""
    for name in ("run_scenario", "run_trial", "run_suite"):
        monkeypatch.setattr(qpcsim.cli, name, _no_run)


def _commands(tmp_path):
    cfg = str(write_config(tmp_path, trials=1))
    return (["run", "--config", cfg], ["suite", "paper_tables"], ["transcript", "--config", cfg])


@pytest.mark.parametrize("where", ["missing_directory", "directory"])
def test_an_output_path_that_cannot_be_written_is_rejected_before_any_trial_runs(tmp_path, capsys, monkeypatch,
                                                                                  where):
    _forbid_runs(monkeypatch)
    out = str(tmp_path / "missing" / "out.json") if where == "missing_directory" else str(tmp_path)
    cases = [(argv + ["--out", out], "usage", "--out") for argv in _commands(tmp_path)]
    output_path = write_config(tmp_path, "output.json", output={"path": out})
    cases.append((["run", "--config", str(output_path)], "config", "`output.path`"))
    for argv, category, name in cases:
        assert main(argv) == EXIT_CONFIG, argv
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["category"] == category and name in err["message"], (argv, err)


def test_a_negative_seed_is_a_usage_error(tmp_path, capsys, monkeypatch):
    # Not a config error naming a seed derived from it, as a suite's rows are.
    _forbid_runs(monkeypatch)
    for argv in _commands(tmp_path):
        for seed in ("-1", "seven"):
            assert main(argv + ["--seed", seed]) == EXIT_CONFIG, argv
            err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
            assert err["category"] == "usage" and "--seed" in err["message"], (argv, err)


def test_transcript_requires_single_trial(tmp_path, capsys):
    cfg = write_config(tmp_path, trials=5)
    assert main(["transcript", "--config", str(cfg)]) == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["category"] == "usage"


def test_transcript_of_trial_k_is_that_trial_of_the_run(tmp_path):
    cfg = write_config(tmp_path, trials=12, adversary={"kind": "eve_intercept_resend", "params": {"links": [1]}})
    scenario = qpcsim.harness.scenario_from_config(json.loads(cfg.read_text()))
    for k in (0, 7, 11):
        out = tmp_path / f"trial{k}.json"
        assert main(["transcript", "--config", str(cfg), "--trial", str(k), "--out", str(out)]) == EXIT_OK
        assert out.read_text() == qpcsim.harness.run_trial(scenario, scenario.strategy(), k, True).to_json()


@pytest.mark.parametrize("trial", ["-1", "12", "13", "seven"])
def test_transcript_trial_out_of_range_exits_one_and_names_it(tmp_path, capsys, trial):
    cfg = write_config(tmp_path, trials=12)
    assert main(["transcript", "--config", str(cfg), "--trial", trial]) == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["category"] == "usage" and "--trial" in err["message"]


def test_transcript_writes_full_run(tmp_path):
    cfg = write_config(tmp_path, trials=1)
    out = tmp_path / "transcript.json"
    assert main(["transcript", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["schema_version"] == 1
    assert doc["events"]
    assert doc["result"]["aborted"] is False


def test_unknown_suite_lists_available(capsys):
    assert main(["suite", "imaginary"]) == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert "paper_tables" in err["message"]


def test_usage_errors_exit_one(tmp_path, capsys):
    assert main(["run"]) == EXIT_CONFIG  # missing --config
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["category"] == "usage"
    assert main([]) == EXIT_CONFIG
    # --jobs is bounded by the CPU count.  A missing config and an unknown
    # suite make sure no pool or battery starts even if the bound is not
    # checked; the error must then still name --jobs.
    missing = str(tmp_path / "never_read.json")
    for jobs in ("0", "-2", str((os.cpu_count() or 1) + 1), "many"):
        for argv in (["run", "--config", missing], ["suite", "imaginary"]):
            assert main(argv + ["--jobs", jobs]) == EXIT_CONFIG
            err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
            assert err["category"] == "usage" and "--jobs" in err["message"]
    # A document that is not a JSON object is a config error, not a crash.
    cfg = tmp_path / "list.json"
    cfg.write_text("[1]")
    for argv in (["run", "--config", str(cfg)], ["transcript", "--config", str(cfg)]):
        assert main(argv) == EXIT_CONFIG
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["category"] == "config" and "JSON object" in err["message"]


def test_jobs_is_bounded_by_max_jobs_on_a_large_machine(capsys, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 4 * MAX_JOBS)
    assert main(["suite", "imaginary", "--jobs", str(MAX_JOBS + 1)]) == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["category"] == "usage" and "--jobs" in err["message"]


def test_adversary_state_size_rejected_before_pool_starts(tmp_path, capsys, monkeypatch):
    # A state with the wrong particle count, or an adversary the baseline
    # does not support, fails validation, so the CLI exits 1 before it
    # sends any share to a worker, new or left idle by an earlier call.
    forbid_workers(monkeypatch)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # lets --jobs 2 through on any machine
    zeros = {"q": "000", "delta": 0}
    three = {"n": 3}
    cases = [
        (three, {"kind": "tp1_fake_initial_state", "params": {"true_state": {"q": "00", "delta": 0}}}, "true_state"),
        (three, {"kind": "tp1_fake_initial_state", "params": {"claimed": {"q": "0000", "delta": 0}}}, "claimed"),
        (three, {"kind": "classical_position_tamper", "params": {"pair": [zeros, {"q": "0110", "delta": 0}]}}, "pair[1]"),
        ({"protocol": "zhang_baseline"}, {"kind": "classical_position_tamper"}, "adversary.kind"),
        ({"protocol": "zhang_baseline"}, {"kind": "tp2_fake_result"}, "adversary.kind"),
        ({"protocol": "zhang_baseline"}, {"kind": "tp2_intercept"}, "adversary.kind"),
    ]
    for overrides, adversary, field in cases:
        cfg = write_config(tmp_path, adversary=adversary, **overrides)
        assert main(["run", "--config", str(cfg), "--jobs", "2"]) == EXIT_CONFIG
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["category"] == "config" and f"`{field}`" in err["message"]


def test_worker_error_exits_two(tmp_path, capsys, monkeypatch):
    def failing_in_worker(doc):
        return FailingScenario(**vars(scenario_from_config(doc)), in_worker=boom)

    monkeypatch.setattr(qpcsim.cli, "scenario_from_config", failing_in_worker)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # lets --jobs 2 through on any machine
    assert main(["run", "--config", str(write_config(tmp_path)), "--jobs", "2"]) == EXIT_RUNTIME
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err == {"category": "runtime", "message": "ValueError: boom"}
    assert multiprocessing.active_children() == []


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="--jobs 2 needs two CPUs")
def test_jobs_two_matches_jobs_one_in_a_subprocess(tmp_path):
    # Seven trials split 4 + 3 (uneven shares); one trial starts no worker.
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    cfg = write_config(tmp_path, n=3, adversary={"kind": "eve_intercept_resend", "params": {"links": [2]}})
    for trials in ("7", "1"):
        outputs = [
            subprocess.run(
                [sys.executable, "-m", "qpcsim.cli", "run", "--config", str(cfg), "--trials", trials, "--jobs", jobs],
                env=env, capture_output=True, check=True,
            ).stdout
            for jobs in ("2", "1")
        ]
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])["counters"]["trials"] == int(trials)


def test_help_exits_zero(capsys):
    assert main(["--help"]) == EXIT_OK
    assert "qpcsim" in capsys.readouterr().out


def test_zhang_config_runs(tmp_path):
    cfg = write_config(
        tmp_path,
        protocol="zhang_baseline",
        n=2,
        adversary={"kind": "tp1_fake_result", "params": {}},
    )
    out = tmp_path / "z.json"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    stats = TrialStats.from_json(out.read_text())
    assert stats.row("abort_rate").estimate == 0.0
    assert stats.row("verdict_correct_rate").estimate == 0.0
