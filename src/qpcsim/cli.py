"""Command-line entry point: scenario runs, the acceptance suite, and
single-run transcript dumps.

Exit codes are a stable contract: 0 success, 1 usage/config error,
2 runtime error, 3 acceptance-suite failure.  Errors are emitted to stderr
as one-line JSON objects with a ``category`` field.
"""

from __future__ import annotations

import argparse
import json
import os
import secrets as _secrets
import sys
from functools import lru_cache
from pathlib import Path
from typing import Optional

from .errors import ConfigError, UsageError
from .harness import MAX_JOBS, run_scenario, run_trial, scenario_from_config
from .suites import DEFAULT_SEED, SUITE_NAMES, run_suite

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_SUITE = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse hook
        raise UsageError(message)


def _jobs(text: str) -> int:
    """Process count for the trials: at most one per CPU and at most MAX_JOBS."""
    limit = min(os.cpu_count() or 1, MAX_JOBS)
    try:
        jobs = int(text)
    except ValueError:
        jobs = 0
    if not 1 <= jobs <= limit:
        raise argparse.ArgumentTypeError(
            f"must be an integer in 1..{limit} (the CPU count, at most {MAX_JOBS}), got {text!r}"
        )
    return jobs


def _seed(text: str) -> int:
    """A seed given on the command line: an integer >= 0."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return seed


_JOBS_HELP = (
    "processes sharing the trials: this one and N-1 workers (1..CPU count, at most"
    f" {MAX_JOBS}).  Workers start on first need and are reused for the life of this"
    " process; each call sends them its scenario, they run the code as it was when"
    " they started, and they end at exit or on any failed call"
)


# Built once per process: parsing leaves a parser as it was, and --jobs
# reads the CPU count when it is parsed, not here.
@lru_cache(maxsize=None)
def build_parser() -> _Parser:
    parser = _Parser(prog="qpcsim", description="Quantum private comparison simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one scenario from a config document")
    run.add_argument("--config", required=True, help="path to a scenario config (JSON)")
    run.add_argument("--trials", type=int, help="override the config's trial count")
    run.add_argument("--seed", type=_seed, help="override the config's seed")
    run.add_argument("--jobs", type=_jobs, default=1, metavar="N", help=_JOBS_HELP)
    run.add_argument("--out", help="write results here instead of stdout")
    run.add_argument("--format", choices=("json", "csv"), help="output format (default json)")

    suite = sub.add_parser("suite", help="run a built-in experiment suite")
    suite.add_argument("name", help=f"suite name (available: {', '.join(SUITE_NAMES)})")
    suite.add_argument("--seed", type=_seed, help=f"suite seed (default {DEFAULT_SEED})")
    suite.add_argument("--jobs", type=_jobs, default=1, metavar="N", help=_JOBS_HELP)
    suite.add_argument("--out", help="write the result table here as well")
    suite.add_argument("--format", choices=("json", "csv"), default="json")

    transcript = sub.add_parser("transcript", help="dump one run's full transcript")
    transcript.add_argument("--config", required=True, help="path to a scenario config (JSON)")
    transcript.add_argument("--seed", type=_seed, help="override the config's seed")
    transcript.add_argument(
        "--trial", type=int, metavar="K", help="dump trial K of the config, 0 <= K < trials (default: trials must be 1)"
    )
    transcript.add_argument("--out", help="write the transcript here instead of stdout")

    return parser


def _fail(category: str, message: str) -> None:
    print(json.dumps({"category": category, "message": message}), file=sys.stderr)


def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config `{path}`: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config `{path}` is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config `{path}` must hold a JSON object")
    return doc


def _effective_seed(doc: dict, override: Optional[int]) -> None:
    """Resolve the run seed in place; invent and announce one if absent."""
    if override is not None:
        doc["seed"] = override
    elif doc.get("seed") is None:
        doc["seed"] = _secrets.randbits(48)
        print(f"seed: {doc['seed']} (drawn from the system; pass --seed to replay)", file=sys.stderr)


def _check_out(path: Optional[str], error: type, name: str) -> None:
    """Raise ``error`` naming ``name`` unless ``path`` is empty or a file
    that can be written in an existing directory: checked before any trial
    runs, not when the output is written."""
    if not path:
        return
    target = Path(path)
    if target.is_dir():
        raise error(f"{name} must name a file, not the directory {path!r}")
    if not target.parent.is_dir():
        raise error(f"{name} must name a file in an existing directory, got {path!r}")


def _write(text: str, out: Optional[str]) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def cmd_run(args) -> int:
    doc = _load_config(args.config)
    if args.trials is not None:
        doc["trials"] = args.trials
    _effective_seed(doc, args.seed)
    scenario = scenario_from_config(doc)
    output_doc = doc.get("output") or {}
    out = args.out or output_doc.get("path")
    if args.out:
        _check_out(out, UsageError, "--out")
    else:
        _check_out(out, ConfigError, "field `output.path`")
    stats = run_scenario(scenario, jobs=args.jobs)
    fmt = args.format or output_doc.get("format") or "json"
    _write(stats.to_json() if fmt == "json" else stats.to_csv(), out)
    return EXIT_OK


def cmd_suite(args) -> int:
    seed = DEFAULT_SEED if args.seed is None else args.seed
    _check_out(args.out, UsageError, "--out")
    result = run_suite(args.name, seed=seed, jobs=args.jobs)
    print(result.format_table())
    if args.out:
        _write(result.to_json() if args.format == "json" else result.to_csv(), args.out)
    return EXIT_OK if result.passed else EXIT_SUITE


def cmd_transcript(args) -> int:
    doc = _load_config(args.config)
    _effective_seed(doc, args.seed)
    scenario = scenario_from_config(doc)
    trial = args.trial
    if trial is None:
        if scenario.trials != 1:
            raise UsageError(f"transcript requires trials = 1 or --trial, config has {scenario.trials}")
        trial = 0
    elif not 0 <= trial < scenario.trials:
        raise UsageError(f"--trial must be in 0..{scenario.trials - 1} for {scenario.trials} trials, got {trial}")
    _check_out(args.out, UsageError, "--out")
    transcript = run_trial(scenario, scenario.strategy(), trial, record_events=True)
    _write(transcript.to_json(), args.out)
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        _fail("usage", str(exc))
        return EXIT_CONFIG
    except SystemExit as exc:  # --help and friends
        return EXIT_OK if exc.code in (0, None) else EXIT_CONFIG
    try:
        if args.command == "run":
            return cmd_run(args)
        if args.command == "suite":
            return cmd_suite(args)
        return cmd_transcript(args)
    except UsageError as exc:
        _fail("usage", str(exc))
        return EXIT_CONFIG
    except ConfigError as exc:
        _fail("config", str(exc))
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        _fail("runtime", f"{type(exc).__name__}: {exc}")
        return EXIT_RUNTIME


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
