"""Paired benchmark runs of two commits, written as BENCH_<label>*.json.

    python3 bench/pairs.py --parent REV --change REV --label NAME --workdir DIR

Clones the repository twice into DIR (fresh clones, one per commit), then
for each pair i and workload j runs ``perfbench/run.py --trace 0`` on both
sides at seed ``seed_base + 100 * j + i``: the parent first for even i, the
change first for odd i.  Then one ``--trace 1 --seed 1`` run of
``honest_full`` and ``attack_mix`` per side.  Writes
``bench/BENCH_<label>_parent.json`` and ``bench/BENCH_<label>.json`` and
prints, per workload and end-to-end metric, the medians, the parent's
interquartile range, the ratio and the change's wins.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("honest_full", "attack_mix", "cli_sweep_jobs2")
TRACED = ("honest_full", "attack_mix")
HIGHER = {"trials_per_s"}
PAIRS = 10  # a claimed gain must win 9 of at least 10 pairs
SECONDS = 20  # the timed length of each run


def run(clone: Path, workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=clone, capture_output=True, text=True, check=True).stdout
    path = next(line.split("record written to ", 1)[1] for line in out.splitlines() if "record written to" in line)
    return json.loads((clone / path).read_text())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--label", required=True)
    parser.add_argument("--workdir", required=True, type=Path)
    parser.add_argument("--seed-base", type=int, default=4001)
    args = parser.parse_args()

    sides = {}
    for side, rev in (("parent", args.parent), ("change", args.change)):
        clone = args.workdir / side
        subprocess.run(["git", "clone", "--quiet", str(ROOT), str(clone)], check=True)
        subprocess.run(["git", "checkout", "--quiet", rev], cwd=clone, check=True)
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=clone, capture_output=True, text=True,
                                check=True).stdout.strip()
        sides[side] = {"clone": clone, "commit": commit, "trace0": {w: [] for w in WORKLOADS}, "trace1": {}}

    for i in range(PAIRS):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for j, workload in enumerate(WORKLOADS):
            for side in order:
                record = run(sides[side]["clone"], workload, args.seed_base + 100 * j + i, 0)
                sides[side]["trace0"][workload].append(record)
                print(f"pair {i} {workload} {side}: trials_per_s {record['metrics']['trials_per_s']['value']:.1f}",
                      flush=True)
    for workload in TRACED:
        for side in ("parent", "change"):
            sides[side]["trace1"][workload] = run(sides[side]["clone"], workload, 1, 1)

    seeds = ", ".join(f"{args.seed_base + 100 * j}-{args.seed_base + 100 * j + PAIRS - 1}"
                      for j in range(len(WORKLOADS)))
    for side, name in (("parent", f"BENCH_{args.label}_parent.json"), ("change", f"BENCH_{args.label}.json")):
        data = sides[side]
        first = data["trace0"][WORKLOADS[0]][0]["provenance"]
        doc = {
            "command": "python3 perfbench/run.py --workload <workload> --seed <seed> --seconds "
                       f"{SECONDS} --trace 0|1",
            "commit": data["commit"],
            "machine": f"{first['nproc']} CPUs ({first['cpus_usable']} usable), Python {first['python']}, numpy "
                       f"{first['numpy']}; times scaled to nominal speed by perfbench/speed.py",
            "pairs": f"{PAIRS} per workload against the other side of the pair, run back to back from fresh "
                     f"clones; pair i (seeds {seeds}, in the order of {', '.join(WORKLOADS)}) ran the parent "
                     "first for even i and the change first for odd i",
            "side": side,
            "src_sha256": first["src_sha256"],
            "trace0": data["trace0"],
            "trace1": data["trace1"],
        }
        (ROOT / "bench" / name).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")

    for workload in WORKLOADS:
        parent = sides["parent"]["trace0"][workload]
        change = sides["change"]["trace0"][workload]
        for metric in parent[0]["metrics"]:
            a = [r["metrics"][metric]["value"] for r in parent]
            b = [r["metrics"][metric]["value"] for r in change]
            better = (lambda x, y: y > x) if metric in HIGHER else (lambda x, y: y < x)
            wins = sum(better(x, y) for x, y in zip(a, b))
            q1, _, q3 = statistics.quantiles(a, n=4)
            print(f"{workload} {metric}: parent {statistics.median(a):.4g} (IQR {q3 - q1:.3g}) -> change "
                  f"{statistics.median(b):.4g}, ratio {statistics.median(b) / statistics.median(a):.3f}, "
                  f"wins {wins}/{len(a)}")
        failed = sum(r["failed"] for r in parent), sum(r["failed"] for r in change)
        print(f"{workload} failed calls: parent {failed[0]}, change {failed[1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
