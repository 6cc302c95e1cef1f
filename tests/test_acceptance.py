"""Acceptance gate: every headline claim at its stated tolerance.

Runs the built-in ``paper_tables`` battery once (which itself re-runs at a
second parallelism level for the reproducibility check) and asserts each
criterion row.  One PASS/FAIL line per criterion is printed; run with
``pytest -s tests/test_acceptance.py`` to see them all, or use
``qpcsim suite paper_tables`` for the same table from the command line.

Known red: criterion 6's records-assisted third-party row asserts the
idealized 0.5 target, which basic measurement mechanics place at 0.75
instead (see the failure message).  It is kept failing deliberately rather
than weakened.
"""

import csv
import hashlib

import pytest

from qpcsim.suites import DEFAULT_SEED, paper_tables_with_determinism

CRITERION_BOUNDS_SECONDS = {"1": 30.0, "2": 60.0, "7": 120.0}

# sha256 of the battery's JSON, the bytes `qpcsim suite paper_tables --out`
# writes.  Like the files under tests/data/golden/, it changes only with a
# deliberate change to the order of random draws, or with added or redefined
# rows.
SUITE_JSON_SHA256 = "1a2c2ac01cb56e653a1d8d69fa3999ecbba121dcc5cd914370ab8b09a2285bff"


@pytest.fixture(scope="module")
def battery():
    result = paper_tables_with_determinism(seed=DEFAULT_SEED, jobs=1)
    print()
    print(result.format_table())
    return result


def report(result, row_ids):
    lines = []
    for row_id in row_ids:
        row = result.row(row_id)
        target = "" if row.target is None else f" target={row.target:.6f}"
        lines.append(
            f"CRITERION {row.id}: {'PASS' if row.passed else 'FAIL'} "
            f"measured={row.measured:.6f}{target} ({row.tolerance})"
        )
    text = "\n".join(lines)
    print(text)
    return text


def test_criterion_1_honest_correctness(battery):
    rows = ["1.n2", "1.n3", "1.n4", "1.n5"]
    text = report(battery, rows)
    assert all(battery.row(r).passed for r in rows), text
    assert battery.durations["1"] < CRITERION_BOUNDS_SECONDS["1"]


def test_criterion_2_outsider_detection(battery):
    rows = ["2.l1", "2.l5", "2.l10", "2.l20"]
    text = report(battery, rows)
    assert battery.row("2.l1").target == 0.25
    assert all(battery.row(r).passed for r in rows), text
    assert battery.durations["2"] < CRITERION_BOUNDS_SECONDS["2"]


def test_criterion_3_fake_result_detectability(battery):
    rows = ["3.tp1_flip", "3.tp2_flip", "3.baseline_flip"]
    text = report(battery, rows)
    assert all(battery.row(r).passed for r in rows), text


def test_criterion_4_fake_initial_state_detection(battery):
    rows = ["4.c4", "4.c8", "4.c16", "4.x_round", "4.z_round", "4.strangers", "4.acquainted"]
    text = report(battery, rows)
    assert all(battery.row(r).passed for r in rows), text


def test_criterion_5_position_tamper_detection(battery):
    rows = ["5.l1", "5.l4", "5.l8", "5.relay"]
    text = report(battery, rows)
    assert all(battery.row(r).passed for r in rows), text


def test_criterion_6_privacy_participant_and_legit_view(battery):
    rows = ["6.case1", "6.case1_counterfactual", "6.case3_legit_view"]
    text = report(battery, rows)
    assert all(battery.row(r).passed for r in rows), text
    # The stated sample size: at least 10^4 victim bits behind each rate.
    for row_id in ("6.case1", "6.case3_legit_view"):
        bits = int(battery.row(row_id).info.split()[0])
        assert bits >= 10_000


def test_criterion_6_records_assisted_third_party(battery):
    row = battery.row("6.case3")
    report(battery, ["6.case3"])
    assert row.passed, (
        "Stated target: an intercepting third party's per-bit guess accuracy on a "
        "victim secret in undetected runs is 1/2. Measured: "
        f"{row.measured:.4f} over {row.info.split()[0]} bits. This target is not "
        "attainable under projective-measurement mechanics: the interceptor measures "
        "every carrier in a random basis and forwards the measured eigenstate, so "
        "whenever it picked the key basis (probability 1/2) the victim's later "
        "key-basis measurement of the forwarded photon reproduces the intercepted bit "
        "exactly, and the masked comparison strings are public. Half the bits known "
        "plus half at chance gives 3/4. Conditioning on undetected runs does not help: "
        "decoy and cooperative-check outcomes are independent of the untouched "
        "retained registers that carry the keys. The protocol's actual defense is "
        "detection (the 1-(3/4)^l row family), not residual secrecy. This assertion "
        "is kept failing deliberately instead of being weakened; the companion row "
        "6.case3_legit_view shows the 1/2 rate does hold for guessing without the "
        "intercept records."
    )


def test_criterion_7_sampler_oracle_equivalence(battery):
    row = battery.row("7")
    report(battery, ["7"])
    assert row.passed, f"{row.measured:.0f} combinations where the register's distribution is not the oracle's: {row.info}"
    assert battery.durations["7"] < CRITERION_BOUNDS_SECONDS["7"]


def test_criterion_8_algebraic_invariants(battery):
    rows = ["8.roundtrip", "8.expansion", "8.pair_xor"]
    text = report(battery, rows)
    assert all(battery.row(r).passed for r in rows), text


def test_suite_json_is_byte_identical(battery):
    assert hashlib.sha256(battery.to_json().encode()).hexdigest() == SUITE_JSON_SHA256


def test_suite_csv_has_one_field_per_column(battery):
    # Row names such as "honest correctness, n=2" hold commas.
    lines = list(csv.reader(battery.to_csv().splitlines()))
    assert lines[0] == ["id", "name", "measured", "target", "tolerance", "passed", "info"]
    assert all(len(line) == 7 for line in lines)
    assert [(line[0], line[1], line[6]) for line in lines[1:]] == [(r.id, r.name, r.info) for r in battery.rows]


def test_criterion_9_determinism_across_jobs(battery):
    row = battery.row("9")
    report(battery, ["9"])
    assert row.passed, "result files must be byte-identical across --jobs settings"
