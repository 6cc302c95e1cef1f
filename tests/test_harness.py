"""Harness tests: scenario validation, determinism, aggregation, and
result emission round-trips."""

import contextlib
import dataclasses
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest
from scipy import stats as scipy_stats

import qpcsim.harness
from qpcsim import suites
from qpcsim.errors import ConfigError
from qpcsim.harness import (
    MAX_CHECK_ROUNDS,
    MAX_DECOY_COUNT,
    MAX_JOBS,
    MAX_M,
    MAX_TRIALS,
    AdversarySpec,
    Scenario,
    SecretsSpec,
    TrialStats,
    closed_form,
    run_scenario,
    run_trial,
    scenario_from_config,
    wilson_interval,
)
from worker_faults import FailingScenario, boom, caller_fails, exit_3, sleep_60


FAKE_STATE = "tp1_fake_initial_state"
TAMPER = "classical_position_tamper"
ZEROS3 = {"q": "000", "delta": 0}


def small_scenario(**overrides):
    base = dict(protocol="proposed", n=2, m=2, trials=60, seed=7)
    base.update(overrides)
    return Scenario(**base)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def test_validation_names_offending_fields():
    cases = [
        (dict(protocol="bogus"), "protocol"),
        (dict(n=1), "`n`"),
        (dict(n=21), "`n`"),
        (dict(m=0), "`m`"),
        (dict(check_rounds=-1), "check_rounds"),
        (dict(m=2, check_rounds=3), "check_rounds"),
        (dict(decoy_count=-2), "decoy_count"),
        (dict(variant="smoke_signals"), "variant"),
        (dict(trials=0), "trials"),
        (dict(seed=-1), "seed"),
        (dict(decoy_tolerance=-1), "decoy_tolerance"),
        (dict(secrets=SecretsSpec(policy="telepathy")), "secrets.policy"),
        (dict(secrets=SecretsSpec(policy="explicit", values=[[0, 1]])), "secrets.values"),
        (dict(secrets=SecretsSpec(policy="explicit", values=[[0], [1]])), "secrets.values"),
        (dict(m=4, secrets=SecretsSpec(policy="explicit", values=[[0, 1], [1, 1]])), r"secrets.values\[0\]"),
        (dict(secrets=SecretsSpec(policy="uniform", values=[[0, 1], [0, 1]])), "secrets.values"),
        (dict(m=1, n=3, protocol="proposed", secrets=SecretsSpec(policy="forced_unequal")), "forced_unequal"),
        # Distinct secrets are drawn by redrawing all n: about 8.8e5 and 6.9e3
        # attempts per trial here.
        (dict(m=4, n=16, secrets=SecretsSpec(policy="forced_unequal")), "secrets.policy"),
        (dict(m=4, n=14, secrets=SecretsSpec(policy="forced_unequal")), "secrets.policy"),
        (dict(adversary=AdversarySpec(kind="alien")), "adversary"),
        (dict(n=3, adversary=AdversarySpec("eve_intercept_resend", {"links": [7]})), "links"),
        (dict(adversary=AdversarySpec("eve_intercept_resend", {"links": [1], "victim": 9})), "victim"),
        (dict(adversary=AdversarySpec("participant_infer", {"victim": 9})), "victim"),
        (dict(adversary=AdversarySpec("participant_infer", {"attacker": 2, "victim": 2})), "attacker"),
        (dict(decoy_tolerance="x"), "decoy_tolerance"),
        (dict(adversary=AdversarySpec("classical_position_tamper", {"count": -3})), "count"),
        (dict(trials=True), "trials"),
        (dict(m=True), "`m`"),
        (dict(secrets=SecretsSpec(policy="explicit", values=[1, 2])), "secrets.values"),
        (dict(secrets=SecretsSpec(policy="explicit", values=[[True, False], [0, 1]])), "secrets.values"),
        (dict(announce_r_vectors="no"), "announce_r_vectors"),
        (dict(adversary=AdversarySpec("participant_infer", {"counterfactual": "false"})), "counterfactual"),
        (dict(adversary=AdversarySpec("none", "x")), "adversary.params"),
        (dict(n=3, adversary=AdversarySpec("tp1_fake_result", {"pairs": [[1, 7]]})), "pairs"),
        (dict(n=3, adversary=AdversarySpec("tp2_fake_result", {"pairs": [[2, 2]]})), "pairs"),
        (dict(adversary=AdversarySpec("tp2_fake_result", {"pairs": [["a", 2]]})), "pairs"),
        (dict(adversary=AdversarySpec("tp1_fake_result", {"pairs": "some"})), "pairs"),
        (dict(adversary=AdversarySpec("tp1_fake_result", {"pairs": [[1, 2, 3]]})), "pairs"),
        # States: booleans and floats are not bits, and a state must have n particles.
        (dict(n=3, adversary=AdversarySpec(FAKE_STATE, {"true_state": {"q": [False, True, 1.7], "delta": 0}})),
         "true_state"),
        (dict(n=3, adversary=AdversarySpec(FAKE_STATE, {"true_state": {"q": [0, 1, 1.0], "delta": 0}})), "true_state"),
        (dict(n=3, adversary=AdversarySpec(FAKE_STATE, {"claimed": {"q": "011", "delta": True}})), "claimed"),
        (dict(n=3, adversary=AdversarySpec(FAKE_STATE, {"claimed": {"q": "0x1", "delta": 0}})), "claimed"),
        (dict(n=3, adversary=AdversarySpec(TAMPER, {"pair": [{"q": [0, True, 1], "delta": 0}, ZEROS3]})), r"pair\[0\]"),
        (dict(n=3, adversary=AdversarySpec(TAMPER, {"pair": [ZEROS3, {"q": "011", "delta": 0.0}]})), r"pair\[1\]"),
        (dict(n=3, adversary=AdversarySpec(FAKE_STATE, {"true_state": {"q": "00", "delta": 0}})), "true_state"),
        (dict(n=3, adversary=AdversarySpec(FAKE_STATE, {"claimed": {"q": "0000", "delta": 0}})), "claimed"),
        (dict(n=3, adversary=AdversarySpec(TAMPER, {"pair": [ZEROS3, {"q": "0110", "delta": 0}]})), r"pair\[1\]"),
        # The baseline's check positions ride the participants' authenticated
        # channel, its runner publishes no result vectors, and it has no TP2.
        (dict(protocol="zhang_baseline", adversary=AdversarySpec(TAMPER)), "adversary.kind"),
        (dict(protocol="zhang_baseline", adversary=AdversarySpec("tp2_fake_result")), "adversary.kind"),
        (dict(protocol="zhang_baseline", adversary=AdversarySpec("tp2_intercept")), "adversary.kind"),
        (dict(protocol="zhang_baseline", n=3), "`n`"),
        (dict(protocol="zhang_baseline", check_rounds=-1), "check_rounds"),
        (dict(protocol="zhang_baseline", variant="tp2_relay"), "variant"),
        (dict(protocol="zhang_baseline", announce_r_vectors=True), "announce_r_vectors"),
    ]
    # A transcript's replay checks its scenario as a run does.
    for overrides, needle in cases:
        for entry in (Scenario.validate, lambda scenario: run_trial(scenario, 0)):
            with pytest.raises(ConfigError, match=needle):
                entry(small_scenario(**overrides))
    # About 323 and 416 expected attempts per trial, and the largest m, still validate.
    for n, m in ((12, 4), (8, 3), (20, MAX_M)):
        small_scenario(n=n, m=m, secrets=SecretsSpec(policy="forced_unequal")).validate()


# Each size field at its bound validates, and one past it exits 1 naming it.
# check_rounds is bounded on its own only for the baseline (the proposed
# protocol caps it at m).
_SIZE_BOUNDS = [
    ({}, "m", MAX_M),
    ({}, "decoy_count", MAX_DECOY_COUNT),
    ({"protocol": "zhang_baseline", "n": 2}, "check_rounds", MAX_CHECK_ROUNDS),
    ({}, "trials", MAX_TRIALS),
]


@pytest.mark.parametrize("base, field, bound", _SIZE_BOUNDS, ids=[case[1] for case in _SIZE_BOUNDS])
def test_size_fields_are_bounded(base, field, bound):
    doc = {"schema_version": 1, **base}
    scenario = scenario_from_config({**doc, field: bound})
    assert getattr(scenario, field) == bound
    with pytest.raises(ConfigError, match=f"`{field}`"):
        scenario_from_config({**doc, field: bound + 1})


def test_the_default_decoy_count_lies_inside_its_bound():
    # The default 2m decoys reach the bound an explicit decoy_count has at the largest m.
    scenario = Scenario(m=MAX_M)
    scenario.validate()
    assert scenario.effective_decoy_count() == MAX_DECOY_COUNT
    assert scenario_from_config({"schema_version": 1, "m": MAX_M, "decoy_count": MAX_DECOY_COUNT}).m == MAX_M


def test_zhang_requires_two_participants():
    with pytest.raises(ConfigError, match="`n`"):
        Scenario(protocol="zhang_baseline", n=3, m=2, trials=5, seed=1).validate()
    Scenario(protocol="zhang_baseline", n=2, m=2, trials=5, seed=1).validate()


def test_scenario_from_config_rejects_unknown_keys():
    base = {"schema_version": 1, "protocol": "proposed", "n": 2, "m": 2, "trials": 5, "seed": 1}
    scenario_from_config(dict(base))
    with pytest.raises(ConfigError, match="`turbo`"):
        scenario_from_config({**base, "turbo": True})
    with pytest.raises(ConfigError, match="adversary.power"):
        scenario_from_config({**base, "adversary": {"kind": "none", "power": 9}})
    with pytest.raises(ConfigError, match="secrets.value"):
        scenario_from_config({**base, "secrets": {"policy": "uniform", "value": []}})
    with pytest.raises(ConfigError, match="output.mode"):
        scenario_from_config({**base, "output": {"mode": "loud"}})
    with pytest.raises(ConfigError, match="adversary.params"):
        scenario_from_config({**base, "adversary": {"kind": "none", "params": "x"}})
    with pytest.raises(ConfigError, match="`adversary`"):
        scenario_from_config({**base, "adversary": 5})
    with pytest.raises(ConfigError, match="output.format"):
        scenario_from_config({**base, "output": {"format": "xml"}})
    with pytest.raises(ConfigError, match="output.path"):
        scenario_from_config({**base, "output": {"path": 5}})
    with pytest.raises(ConfigError, match="schema_version"):
        scenario_from_config({**base, "schema_version": 99})
    with pytest.raises(ConfigError, match="config document"):
        scenario_from_config([1, 2])


def _stored_configs():
    """(name, document, Scenario the document stands for or None): a small
    scenario, every suite template, every shipped config and the scenario of
    every golden result."""
    root = Path(__file__).resolve().parent.parent
    small = small_scenario(adversary=AdversarySpec("eve_intercept_resend", {"links": [1]}))
    yield "small", small.to_config(), small
    for key, (_, template) in suites._SCENARIOS.items():
        yield key, template.to_config(), template
    for path in sorted((root / "configs").glob("*.json")):
        yield path.name, json.loads(path.read_text()), None
    for path in sorted((root / "tests" / "data" / "golden").glob("*.json")):
        doc = json.loads(path.read_text())
        if "scenario" in doc:
            yield path.name, doc["scenario"], None


def test_scenario_config_round_trip():
    for name, doc, expected in _stored_configs():
        scenario = scenario_from_config(doc)
        assert expected is None or scenario == expected, name
        config = scenario.to_config()
        assert scenario_from_config(config) == scenario, name
        # to_config writes every field; each field the document has keeps its bytes.
        stored = {key: value for key, value in doc.items() if key != "output"}
        written = {key: config[key] for key in stored}
        assert json.dumps(written, sort_keys=True) == json.dumps(stored, sort_keys=True), name


# ---------------------------------------------------------------------------
# Determinism and aggregation
# ---------------------------------------------------------------------------


def test_same_seed_same_stats_and_jobs_invariance():
    scenario = small_scenario(trials=120, m=4, n=3)
    a = run_scenario(scenario, jobs=1)
    b = run_scenario(scenario, jobs=1)
    c = run_scenario(scenario, jobs=3)
    assert a.to_json() == b.to_json() == c.to_json()
    assert a.to_csv() == c.to_csv()


def _no_worker(*args, **kwargs):
    raise AssertionError("a worker was started")


# A start context that starts no worker.
_NO_WORKERS = SimpleNamespace(Pipe=_no_worker, Process=_no_worker)


def forbid_workers(monkeypatch):
    """Make any share sent to a trial worker fail the test: hide the workers
    that earlier calls left idle and forbid starting a new one."""
    monkeypatch.setattr(qpcsim.harness, "_workers", [])
    monkeypatch.setattr(qpcsim.harness, "_CONTEXT", _NO_WORKERS)


def test_jobs_must_be_a_positive_int(monkeypatch):
    forbid_workers(monkeypatch)
    monkeypatch.setattr(qpcsim.harness, "_run_block", _no_worker)
    for jobs in (0, -1, True, 1.5, MAX_JOBS + 1):
        with pytest.raises(ValueError, match="jobs"):
            run_scenario(small_scenario(), jobs=jobs)


def test_max_jobs_is_allowed(monkeypatch):
    # One trial is one share, which this process runs.
    forbid_workers(monkeypatch)
    assert run_scenario(small_scenario(trials=1), jobs=MAX_JOBS).counters["trials"] == 1


@contextlib.contextmanager
def _within(seconds):
    """Fail, rather than hang, if the block takes longer than ``seconds``."""

    def expire(*args):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(params=["fork", "forkserver", "spawn"])
def start_method(request, monkeypatch):
    """Start the test's workers by each start method, with none left idle
    from before the test and none left after it."""
    monkeypatch.setattr(qpcsim.harness, "_CONTEXT", multiprocessing.get_context(request.param))
    qpcsim.harness._stop_workers()
    yield request.param
    qpcsim.harness._stop_workers()


def test_worker_exception_reaches_the_caller(start_method):
    with _within(30), pytest.raises(ValueError, match="^boom$"):
        run_scenario(FailingScenario(n=2, m=2, trials=9, seed=7, in_worker=boom), jobs=3)
    assert multiprocessing.active_children() == []


def test_worker_that_exits_without_sending_is_an_error(start_method):
    with _within(30), pytest.raises(RuntimeError, match="exited with code 3"):
        run_scenario(FailingScenario(n=2, m=2, trials=4, seed=7, in_worker=exit_3), jobs=2)
    assert multiprocessing.active_children() == []


def test_caller_share_error_terminates_the_workers(start_method):
    scenario = FailingScenario(n=2, m=2, trials=4, seed=7, in_worker=sleep_60, in_caller=caller_fails)
    with _within(30), pytest.raises(KeyError, match="caller share"):
        run_scenario(scenario, jobs=2)
    assert multiprocessing.active_children() == []


def test_workers_are_reused_across_calls(start_method, monkeypatch):
    scenario = small_scenario(trials=8, n=3)
    with _within(30):
        first = run_scenario(scenario, jobs=2)
        monkeypatch.setattr(qpcsim.harness, "_CONTEXT", _NO_WORKERS)
        second = run_scenario(dataclasses.replace(scenario, seed=8), jobs=2)
    assert first.to_json() == run_scenario(scenario).to_json()
    assert second.to_json() == run_scenario(dataclasses.replace(scenario, seed=8)).to_json()


def test_a_failed_call_stops_idle_workers_too(start_method):
    with _within(30):
        run_scenario(small_scenario(trials=6), jobs=3)
        assert len(multiprocessing.active_children()) >= 2
        # One worker fails; the other stays idle during the call.
        with pytest.raises(ValueError, match="^boom$"):
            run_scenario(FailingScenario(n=2, m=2, trials=4, seed=7, in_worker=boom), jobs=2)
    assert multiprocessing.active_children() == []


def test_an_idle_worker_survives_ctrl_c(start_method, monkeypatch):
    scenario = small_scenario(trials=4)
    with _within(30):
        run_scenario(scenario, jobs=2)
        # Ctrl-C in a terminal signals the whole process group.
        for worker in multiprocessing.active_children():
            os.kill(worker.pid, signal.SIGINT)
        time.sleep(0.2)
        monkeypatch.setattr(qpcsim.harness, "_CONTEXT", _NO_WORKERS)
        assert run_scenario(scenario, jobs=2).to_json() == run_scenario(scenario).to_json()


@pytest.mark.parametrize("reaped", [True, False], ids=["reaped", "dying"])
@pytest.mark.parametrize("method", ["fork", "forkserver", "spawn"])
def test_a_killed_idle_worker_is_reported_and_replaced(monkeypatch, method, reaped):
    # A worker already gone breaks its pipe on the next send; one still
    # dying, as a rule, resets it on the next receive instead.  Either way
    # it is reported as a worker that exited.
    monkeypatch.setattr(qpcsim.harness, "_CONTEXT", multiprocessing.get_context(method))
    qpcsim.harness._stop_workers()
    scenario = small_scenario(trials=4)
    try:
        with _within(60):
            run_scenario(scenario, jobs=2)
            ((_, killed),) = qpcsim.harness._workers
            os.kill(killed.pid, signal.SIGKILL)
            if reaped:
                killed.join()
            with pytest.raises(RuntimeError, match="exited with code -9"):
                run_scenario(scenario, jobs=2)
            assert qpcsim.harness._workers == []
            assert run_scenario(scenario, jobs=2).to_json() == run_scenario(scenario).to_json()
            ((_, fresh),) = qpcsim.harness._workers
            assert fresh.pid != killed.pid and fresh.is_alive()
    finally:
        qpcsim.harness._stop_workers()


@pytest.mark.parametrize("method", ["fork", "forkserver", "spawn"])
def test_jobs_2_gives_the_bytes_of_jobs_1_under_each_start_method(monkeypatch, method):
    # A worker started by forkserver or spawn imports qpcsim afresh.  The
    # fake preparation runs through the block engine, Eve through the
    # per-trial loop.
    monkeypatch.setattr(qpcsim.harness, "_CONTEXT", multiprocessing.get_context(method))
    qpcsim.harness._stop_workers()
    try:
        with _within(120):
            for key in ("fake_c8", "eve_l10"):
                offset, template = suites._SCENARIOS[key]
                scenario = dataclasses.replace(template, trials=301, seed=offset)
                assert run_scenario(scenario, jobs=2).to_json() == run_scenario(scenario).to_json(), key
            ((_, worker),) = qpcsim.harness._workers
            assert isinstance(worker, multiprocessing.get_context(method).Process)
    finally:
        qpcsim.harness._stop_workers()


_CALL_AND_WAIT = """
import multiprocessing, sys
from qpcsim.harness import Scenario, run_scenario
run_scenario(Scenario(n=2, m=2, trials=6, seed=1), jobs=3)
print(*(p.pid for p in multiprocessing.active_children()), flush=True)
sys.stdin.readline()
"""


def _running(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


@pytest.mark.parametrize("end", ["sigkill", "exit"])
def test_no_worker_outlives_its_parent(end):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    pids = []
    with subprocess.Popen(
        [sys.executable, "-c", _CALL_AND_WAIT], env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
    ) as parent:
        try:
            with _within(30):
                pids = [int(pid) for pid in parent.stdout.readline().split()]
            assert len(pids) == 2
            if end == "sigkill":
                parent.kill()
            else:
                parent.stdin.close()
            parent.wait(timeout=30)
            deadline = time.monotonic() + 10
            running = pids
            while running and time.monotonic() < deadline:
                time.sleep(0.05)
                running = [pid for pid in running if _running(pid)]
            assert running == [], f"workers still running 10 s after their parent ended ({end})"
        finally:
            parent.kill()
            for pid in pids:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)


def test_different_seeds_differ():
    a = run_scenario(small_scenario(seed=1, adversary=AdversarySpec("eve_intercept_resend", {"links": [1]})))
    b = run_scenario(small_scenario(seed=2, adversary=AdversarySpec("eve_intercept_resend", {"links": [1]})))
    assert a.counters != b.counters


def test_counter_accounting():
    scenario = small_scenario(
        trials=200, decoy_count=3, adversary=AdversarySpec("eve_intercept_resend", {"links": [1]})
    )
    stats = run_scenario(scenario)
    counters = stats.counters
    assert counters["trials"] == 200
    assert counters.get("aborted", 0) + counters.get("completed", 0) == 200
    steps = sum(counters.get(f"abort_step{s}", 0) for s in (2, 3, 7))
    assert steps == counters.get("aborted", 0)
    row = stats.row("detected_step2_rate")
    assert row.ci_low <= row.estimate <= row.ci_high
    assert row.target == closed_form("intercept_detection", 3)


@pytest.mark.parametrize("kind", ["eve_intercept_resend", "tp2_intercept"])
@pytest.mark.parametrize("links", [(1,), (1, 3), (1, 2, 3)])
@pytest.mark.parametrize("tolerance", [0, 1, 2])
def test_step2_target_counts_tapped_links_and_tolerance(kind, links, tolerance):
    # Each tapped link's check fails iff more than `tolerance` of its 4
    # decoys mismatch, each with probability 1/4.
    scenario = small_scenario(
        n=3, decoy_count=4, decoy_tolerance=tolerance, adversary=AdversarySpec(kind, {"links": list(links)})
    )
    target = 1 - scipy_stats.binom.cdf(tolerance, 4, 0.25) ** len(links)
    targets = scenario.validate().targets(scenario)
    assert float(targets["detected_step2_rate"]) == pytest.approx(target, abs=1e-12)
    twice = small_scenario(
        n=3, decoy_count=4, decoy_tolerance=tolerance, adversary=AdversarySpec(kind, {"links": list(links) * 2})
    )
    assert twice.validate().targets(twice) == targets


def test_step2_target_matches_the_measured_rate():
    scenario = small_scenario(
        n=3, m=1, trials=3000, decoy_count=2, decoy_tolerance=1,
        adversary=AdversarySpec("eve_intercept_resend", {"links": [1, 2]}),
    )
    row = run_scenario(scenario).row("detected_step2_rate")
    assert row.target == 1 - (15 / 16) ** 2
    assert abs(row.estimate - row.target) <= 3 * (row.target * (1 - row.target) / row.count) ** 0.5


def test_secret_policies():
    equal = run_scenario(small_scenario(trials=40, secrets=SecretsSpec(policy="forced_equal")))
    assert equal.row("verdict_correct_rate").estimate == 1.0
    stats = run_scenario(small_scenario(trials=40, m=4, secrets=SecretsSpec(policy="forced_unequal")))
    assert stats.row("verdict_correct_rate").estimate == 1.0
    explicit = run_scenario(
        small_scenario(trials=10, secrets=SecretsSpec(policy="explicit", values=[[0, 1], [0, 1]]))
    )
    assert explicit.row("verdict_correct_rate").estimate == 1.0


def test_explicit_secrets_flow_into_run():
    scenario = small_scenario(
        trials=1, m=2, secrets=SecretsSpec(policy="explicit", values=[[0, 1], [1, 1]])
    )
    transcript = run_trial(scenario, 0)
    assert transcript.comps[1] == tuple(a ^ b for a, b in zip(transcript.keys[1], (0, 1)))
    assert transcript.pair_results[(1, 2)]["ground_truth"] == "different"
    assert transcript.events


# ---------------------------------------------------------------------------
# Statistics helpers
# ---------------------------------------------------------------------------


def test_closed_form_values():
    assert closed_form("intercept_detection", 1) == 0.25
    assert closed_form("intercept_detection", 0) == 0.0
    assert abs(closed_form("intercept_detection", 10) - (1 - 0.75**10)) < 1e-15
    assert closed_form("tamper_detection", 1) == 0.5
    assert closed_form("tamper_detection", 3) == 0.875
    with pytest.raises(ValueError, match="unknown closed-form kind"):
        closed_form("mind_reading", 2)
    with pytest.raises(ValueError):
        closed_form("intercept_detection", -1)


def test_wilson_interval_properties():
    lo, hi = wilson_interval(0, 0)
    assert (lo, hi) == (0.0, 1.0)
    for successes, count in ((0, 50), (25, 50), (50, 50), (9999, 10000)):
        lo, hi = wilson_interval(successes, count)
        assert 0.0 <= lo <= successes / count <= hi <= 1.0
    narrow = wilson_interval(500, 1000)
    wide = wilson_interval(5, 10)
    assert (narrow[1] - narrow[0]) < (wide[1] - wide[0])


# ---------------------------------------------------------------------------
# Emission round-trips
# ---------------------------------------------------------------------------


def test_json_round_trip():
    stats = run_scenario(small_scenario(trials=30))
    text = stats.to_json()
    again = TrialStats.from_json(text)
    assert again.to_json() == text
    assert again.scenario == stats.scenario
    assert again.counters == stats.counters


def test_csv_round_trip():
    stats = run_scenario(
        small_scenario(trials=30, adversary=AdversarySpec("eve_intercept_resend", {"links": [1]}))
    )
    rows = TrialStats.rows_from_csv(stats.to_csv())
    assert rows == stats.rows


def test_run_trial_respects_seed_stream():
    scenario = small_scenario(trials=2)
    t1 = run_trial(scenario, 0)
    t2 = run_trial(scenario, 0)
    t3 = run_trial(scenario, 1)
    assert t1.to_json() == t2.to_json() != t3.to_json()


def test_the_readme_library_example_runs():
    # README's "Library use" block, run as written, so that it follows the API.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    example = readme.split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(example, "README.md", "exec"), {})


def test_run_trial_rejects_a_trial_its_scenario_does_not_have(monkeypatch):
    scenario = small_scenario(trials=5)
    assert not run_trial(scenario, 4).aborted
    monkeypatch.setattr(qpcsim.harness, "_bit_generator", None)  # no trial's stream is made
    for trial in (-1, 5, 2**70, 1.5, True):
        with pytest.raises(ValueError, match=r"trial must be an integer in 0\.\.4, got"):
            run_trial(scenario, trial)


def test_broken_pair_law_is_caught_by_correctness_metrics(monkeypatch):
    # Mutation check: if the pairwise XOR pad were computed wrongly, the
    # exactness and verdict metrics would go red immediately.
    import qpcsim.protocol as proto

    pads = proto._pads
    monkeypatch.setattr(proto, "_pads", lambda specs: [tuple(b ^ 1 for b in column) for column in pads(specs)])
    stats = run_scenario(small_scenario(trials=30, m=4, n=3))
    assert stats.row("r_exact_rate").estimate < 1.0
    assert stats.row("verdict_correct_rate").estimate < 1.0
