"""Layer-by-layer tracing for the benchmark's traced runs.

For the length of one traced pass, ``Tracer.installed`` wraps the public
functions and methods each qpcsim layer exposes, at the binding the caller
looks up (``qpcsim.protocol.interleave``, not only
``qpcsim.photons.interleave``), and restores every binding afterwards.
Nothing under ``src/`` changes.  Each wrapped call leaves a span: name,
start, end, parent span, and the benchmark call and trial it belongs to.
Spans are kept in memory as columns and written out at the end.  A span's
self time is its duration minus the durations of its child spans.

The layers are the modules: ``ghz``, ``photons``, ``protocol``,
``adversaries``, ``harness`` and ``cli``.  In the CLI workload the trials
run in pool worker processes, whose spans the parent cannot see, so only
the parent-side layers (``cli``, ``harness``) are traced there.
"""

from __future__ import annotations

import contextlib
import functools
import os
import statistics
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter_ns
from typing import Dict, List

import numpy as np

# Per-layer metrics: name -> (unit, better, repeats exactly at a fixed
# seed, the end-to-end metric and workload it should move).  The work-mix
# fractions and the exact counts describe the work, not its speed: they
# must not move unless the work itself changes.  "Per trial" divides by
# the trials of the traced calls, "per call" by the benchmark's calls.
PER_LAYER = {
    "ghz.measure.calls_per_trial": ("count/trial", "lower", True, "cpu_s_per_ktrial, trials_per_s on honest_full"),
    "ghz.measure.self_us_per_trial": ("us/trial", "lower", False, "cpu_s_per_ktrial, trials_per_s on honest_full (largest share), less on attack_mix"),
    "ghz.prepare.us_per_trial": ("us/trial", "lower", False, "cpu_s_per_ktrial, trials_per_s on honest_full"),
    "ghz.pair_xor.calls_per_trial": ("count/trial", "lower", True, "cpu_s_per_ktrial, trials_per_s on honest_full"),
    "ghz.pair_xor.us_per_trial": ("us/trial", "lower", False, "cpu_s_per_ktrial, trials_per_s on honest_full"),
    "ghz.particles_measured_frac": ("ratio", "higher", True, "trials_per_s on attack_mix only"),
    "photons.slot_measure.calls_per_trial": ("count/trial", "lower", True, "trials_per_s on honest_full and attack_mix"),
    "photons.slot_measure.self_us_per_trial": ("us/trial", "lower", False, "trials_per_s on honest_full and attack_mix"),
    "photons.interleave.us_per_trial": ("us/trial", "lower", False, "trials_per_s on honest_full and attack_mix"),
    "photons.generate_decoys.us_per_trial": ("us/trial", "lower", False, "trials_per_s on honest_full and attack_mix"),
    "photons.public_discussion.us_per_trial": ("us/trial", "lower", False, "trials_per_s on honest_full and attack_mix (decoy-heavy m=2 shapes)"),
    "photons.transmit.self_us_per_trial": ("us/trial", "lower", False, "trials_per_s on honest_full and attack_mix"),
    "protocol.run.us_per_trial": ("us/trial", "lower", False, "trials_per_s on honest_full (steps 4-7)"),
    "protocol.run.self_us_per_trial": ("us/trial", "lower", False, "trials_per_s on honest_full (steps 4-7)"),
    "protocol.step3_check.us_per_trial": ("us/trial", "lower", False, "trials_per_s on honest_full"),
    "protocol.cross_check.calls_per_trial": ("count/trial", "lower", True, "trials_per_s on honest_full"),
    "protocol.arbiter.us_per_trial": ("us/trial", "lower", False, "trials_per_s on attack_mix (verdict flips)"),
    "protocol.completed_frac": ("ratio", "higher", True, "work mix: no change anywhere"),
    "protocol.abort_step2_frac": ("ratio", "lower", True, "work mix: no change anywhere"),
    "protocol.abort_step3_frac": ("ratio", "lower", True, "work mix: no change anywhere"),
    "protocol.abort_step7_frac": ("ratio", "lower", True, "work mix: no change anywhere"),
    "adversaries.tap.us_per_trial": ("us/trial", "lower", False, "trials_per_s on attack_mix; no change on honest_full"),
    "adversaries.hooks.us_per_trial": ("us/trial", "lower", False, "trials_per_s on attack_mix; no change on honest_full"),
    "adversaries.finalize.us_per_trial": ("us/trial", "lower", False, "trials_per_s on attack_mix; no change on honest_full"),
    "harness.overhead_us_per_trial": ("us/trial", "lower", False, "us_per_trial.p50 on attack_mix"),
    "harness.rng_setup.calls_per_trial": ("count/trial", "lower", True, "us_per_trial.p50 on attack_mix"),
    "harness.rng_setup.us_per_trial": ("us/trial", "lower", False, "us_per_trial.p50 on attack_mix"),
    "harness.validate.us_per_call": ("us/call", "lower", False, "us_per_trial.p50 on attack_mix and cli_sweep_jobs2"),
    "harness.pool.start_ms_per_call": ("ms/call", "lower", False, "trials_per_s on cli_sweep_jobs2 only"),
    "harness.pool.blocks_per_call": ("count/call", "lower", True, "trials_per_s on cli_sweep_jobs2 only"),
    "harness.pool.busy_frac": ("ratio", "higher", False, "trials_per_s on cli_sweep_jobs2 only"),
    "cli.main.self_ms_per_call": ("ms/call", "lower", False, "us_per_trial.p50 on cli_sweep_jobs2"),
    "cli.calls": ("count", "higher", True, "us_per_trial.p50 on cli_sweep_jobs2"),
    "trace.overhead_frac": ("ratio", "lower", False, "none: the cost of tracing itself"),
}
EXACT = tuple(name for name, (_, _, exact, _) in PER_LAYER.items() if exact)

# Metrics of layers that only run inside trials, hence in pool workers on
# the CLI workload; and of the pool and CLI, which only that workload uses.
_TRIAL_SIDE = tuple(
    name for name in PER_LAYER
    if name.split(".")[0] in ("ghz", "photons", "adversaries")
    or name.startswith(("protocol.run", "protocol.step3", "protocol.cross", "protocol.arbiter",
                        "harness.overhead", "harness.rng_setup"))
)
_CLI_SIDE = tuple(name for name in PER_LAYER if name.startswith(("harness.pool.", "cli.")))


def unobserved(in_process: bool) -> List[str]:
    """Per-layer metrics a workload does not exercise in the traced process;
    they are reported as 0."""
    return list(_CLI_SIDE if in_process else _TRIAL_SIDE)


def _children_cpu() -> float:
    t = os.times()
    return t.children_user + t.children_system


class _Delegate:
    """Stands in for a module: a few names overridden, the rest delegated."""

    def __init__(self, target, **overrides) -> None:
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    """In-memory span store plus the probes that fill it."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.call = array("i")
        self.trial = array("i")
        self._stack = [-1]
        self.call_no = -1
        self.trial_no = -1
        self.counts: Counter = Counter()
        self.pool_child_cpu = 0.0
        self.pool_worker_seconds = 0.0

    # -- span store -------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.call.append(self.call_no)
        self.trial.append(self.trial_no)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self._stack.pop()

    def record(self, name: str, start: int, end: int) -> None:
        """Store an already finished span under the currently open one."""
        idx = self.open(self.name_id(name))
        self.start[idx] = start
        self.end[idx] = end
        self._stack.pop()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            call=np.frombuffer(self.call, dtype=np.int32),
            trial=np.frombuffer(self.trial, dtype=np.int32),
        )

    # -- probes -----------------------------------------------------------

    def _span(self, name: str, fn):
        nid = self.name_id(name)
        open_, close = self.open, self.close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

        return traced

    def _register_init(self, fn):
        traced = self._span("ghz.prepare", fn)
        counts = self.counts

        @functools.wraps(fn)
        def init(reg, *args, **kwargs):
            traced(reg, *args, **kwargs)
            counts["particles_prepared"] += reg.n

        return init

    def _register_measure(self, fn):
        traced = self._span("ghz.measure", fn)
        counts = self.counts

        @functools.wraps(fn)
        def measure(reg, positions, *args, **kwargs):
            positions = tuple(positions)
            counts["particles_measured"] += len(positions)
            return traced(reg, positions, *args, **kwargs)

        return measure

    def _seed_sequence(self, fn):
        traced = self._span("harness.seed_sequence", fn)

        # Every trial starts by deriving its random stream, so this is
        # where the trial tag moves on.
        def seed_sequence(*args, **kwargs):
            self.trial_no += 1
            return traced(*args, **kwargs)

        return seed_sequence

    def _taps(self, fn):
        wrap = self._span

        @functools.wraps(fn)
        def taps(handle, link):
            return tuple(wrap("adversaries.tap", tap) for tap in fn(handle, link))

        return taps

    def _pool_class(self, base):
        tracer = self

        class TracedPool(base):
            def __init__(self, max_workers=None, *args, **kwargs):
                self._trace_t0 = perf_counter_ns()
                self._trace_cpu0 = _children_cpu()
                self._trace_workers = max_workers or os.cpu_count()
                super().__init__(max_workers, *args, **kwargs)

            def map(self, fn, *iterables, **kwargs):
                iterables = [list(it) for it in iterables]
                result = super().map(fn, *iterables, **kwargs)
                # Submitting the first block starts the workers.
                tracer.record("harness.pool.start", self._trace_t0, perf_counter_ns())
                tracer.counts["pool_blocks"] += len(iterables[0])
                return result

            def __exit__(self, *exc):
                out = super().__exit__(*exc)
                end = perf_counter_ns()
                tracer.record("harness.pool", self._trace_t0, end)
                tracer.pool_child_cpu += _children_cpu() - self._trace_cpu0
                tracer.pool_worker_seconds += self._trace_workers * (end - self._trace_t0) / 1e9
                return out

        return TracedPool

    @contextlib.contextmanager
    def installed(self, in_process: bool):
        """Patch every probe in; restore every binding on the way out."""
        from qpcsim import adversaries, cli, ghz, harness, photons, protocol

        saved = []

        def current(owner, attr):
            # A class's own entry, not a bound or inherited one.
            return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

        def patch(owner, attr, value):
            saved.append((owner, attr, current(owner, attr)))
            setattr(owner, attr, value)

        def span(owner, attr, name):
            patch(owner, attr, self._span(name, current(owner, attr)))

        try:
            span(harness, "run_scenario", "harness.run_scenario")
            span(cli, "run_scenario", "harness.run_scenario")
            span(harness.Scenario, "validate", "harness.validate")
            span(cli, "main", "cli.main")
            patch(harness, "ProcessPoolExecutor", self._pool_class(harness.ProcessPoolExecutor))
            if in_process:
                rng = np.random
                patch(harness, "np", _Delegate(np, random=_Delegate(
                    rng,
                    SeedSequence=self._seed_sequence(rng.SeedSequence),
                    default_rng=self._span("harness.default_rng", rng.default_rng),
                )))
                for fn_name in ("run_proposed", "run_zhang_baseline"):
                    span(protocol, fn_name, "protocol.run")
                span(protocol, "step3_check", "protocol.step3_check")
                span(protocol, "cross_check", "protocol.cross_check")
                span(protocol, "arbiter_identify", "protocol.arbiter")
                span(protocol, "ghz_from_index", "ghz.prepare")
                span(protocol, "pair_xor", "ghz.pair_xor")
                span(adversaries, "pair_xor", "ghz.pair_xor")
                for cls in (ghz.GhzRegister, ghz.ProductRegister):
                    patch(cls, "__init__", self._register_init(current(cls, "__init__")))
                    patch(cls, "measure", self._register_measure(current(cls, "measure")))
                span(protocol, "interleave", "photons.interleave")
                span(protocol, "generate_decoys", "photons.generate_decoys")
                span(protocol, "public_discussion", "photons.public_discussion")
                span(photons.QuantumChannel, "transmit", "photons.transmit")
                span(photons.CarrierSlot, "measure", "photons.slot_measure")
                span(photons.DecoySlot, "measure", "photons.slot_measure")
                handles = [adversaries.RunHandle]
                for cls in handles:
                    handles.extend(cls.__subclasses__())
                    for attr in ("override_preparation", "tamper_positions", "flip_verdict"):
                        if attr in cls.__dict__:
                            span(cls, attr, "adversaries.hooks")
                    if "finalize" in cls.__dict__:
                        span(cls, "finalize", "adversaries.finalize")
                    if "taps" in cls.__dict__:
                        patch(cls, "taps", self._taps(current(cls, "taps")))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- per-layer metrics ------------------------------------------------

    def totals(self) -> Dict[str, tuple]:
        """name -> (span count, inclusive ns, self ns)."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        own = dur - child
        k = len(self.names)
        count = np.bincount(name, minlength=k)
        incl = np.bincount(name, weights=dur, minlength=k)
        self_ns = np.bincount(name, weights=own, minlength=k)
        return {n: (int(count[i]), float(incl[i]), float(self_ns[i])) for i, n in enumerate(self.names)}

    def layer_metrics(self, trials: int, calls: int, work_mix: Dict[str, float]) -> Dict[str, float]:
        """Per-layer metrics of one traced pass (all but trace.overhead_frac)."""
        t = self.totals()
        count = lambda n: t.get(n, (0, 0.0, 0.0))[0]  # noqa: E731
        incl = lambda n: t.get(n, (0, 0.0, 0.0))[1]  # noqa: E731
        own = lambda n: t.get(n, (0, 0.0, 0.0))[2]  # noqa: E731
        per_trial_us = lambda ns: ns / trials / 1e3  # noqa: E731
        prepared = self.counts["particles_prepared"]
        run_scenario_ns = incl("harness.run_scenario")
        out = {
            "ghz.measure.calls_per_trial": count("ghz.measure") / trials,
            "ghz.measure.self_us_per_trial": per_trial_us(own("ghz.measure")),
            "ghz.prepare.us_per_trial": per_trial_us(incl("ghz.prepare")),
            "ghz.pair_xor.calls_per_trial": count("ghz.pair_xor") / trials,
            "ghz.pair_xor.us_per_trial": per_trial_us(incl("ghz.pair_xor")),
            "ghz.particles_measured_frac": self.counts["particles_measured"] / prepared if prepared else 0.0,
            "photons.slot_measure.calls_per_trial": count("photons.slot_measure") / trials,
            "photons.slot_measure.self_us_per_trial": per_trial_us(own("photons.slot_measure")),
            "photons.interleave.us_per_trial": per_trial_us(incl("photons.interleave")),
            "photons.generate_decoys.us_per_trial": per_trial_us(incl("photons.generate_decoys")),
            "photons.public_discussion.us_per_trial": per_trial_us(incl("photons.public_discussion")),
            "photons.transmit.self_us_per_trial": per_trial_us(own("photons.transmit")),
            "protocol.run.us_per_trial": per_trial_us(incl("protocol.run")),
            "protocol.run.self_us_per_trial": per_trial_us(own("protocol.run")),
            "protocol.step3_check.us_per_trial": per_trial_us(incl("protocol.step3_check")),
            "protocol.cross_check.calls_per_trial": count("protocol.cross_check") / trials,
            "protocol.arbiter.us_per_trial": per_trial_us(incl("protocol.arbiter")),
            **work_mix,
            "adversaries.tap.us_per_trial": per_trial_us(incl("adversaries.tap")),
            "adversaries.hooks.us_per_trial": per_trial_us(incl("adversaries.hooks")),
            "adversaries.finalize.us_per_trial": per_trial_us(incl("adversaries.finalize")),
            "harness.overhead_us_per_trial": (
                per_trial_us(run_scenario_ns - incl("protocol.run")) if count("protocol.run") else 0.0
            ),
            "harness.rng_setup.calls_per_trial": count("harness.default_rng") / trials,
            "harness.rng_setup.us_per_trial": per_trial_us(incl("harness.seed_sequence") + incl("harness.default_rng")),
            "harness.validate.us_per_call": incl("harness.validate") / calls / 1e3,
            "harness.pool.start_ms_per_call": incl("harness.pool.start") / calls / 1e6,
            "harness.pool.blocks_per_call": self.counts["pool_blocks"] / calls,
            "harness.pool.busy_frac": (
                self.pool_child_cpu / self.pool_worker_seconds if self.pool_worker_seconds else 0.0
            ),
            "cli.main.self_ms_per_call": own("cli.main") / calls / 1e6,
            "cli.calls": float(count("cli.main")),
        }
        return out


def work_mix(outcomes) -> Dict[str, float]:
    """Completed and aborted-at-step shares of the trials run; these come
    from qpcsim's own counters, so every workload reports them."""
    totals = Counter()
    for outcome in outcomes:
        totals.update(outcome.counters or {})
    trials = totals["trials"] or 1
    return {
        "protocol.completed_frac": totals["completed"] / trials,
        "protocol.abort_step2_frac": totals["abort_step2"] / trials,
        "protocol.abort_step3_frac": totals["abort_step3"] / trials,
        "protocol.abort_step7_frac": totals["abort_step7"] / trials,
    }


def scale_times(metrics: Dict[str, float], factor: float) -> Dict[str, float]:
    """Express the time metrics at nominal machine speed (see speed.py)."""
    timed = {"us/trial", "us/call", "ms/call"}
    return {name: value * factor if PER_LAYER[name][0] in timed else value for name, value in metrics.items()}


def median_metrics(passes: List[Dict[str, float]]) -> Dict[str, float]:
    return {name: statistics.median(p[name] for p in passes) for name in passes[0]}
