"""A scenario that fails in a trial worker or in its caller, and the faults
it can raise.  Kept apart from the test modules: a worker that receives the
scenario imports this module to unpickle it, and a worker started by
forkserver or spawn imports it afresh, so it imports no more than qpcsim."""

import dataclasses
import os
import time
from typing import Callable, Optional

from qpcsim.adversaries import AdversaryStrategy
from qpcsim.harness import Scenario


@dataclasses.dataclass
class FailingScenario(Scenario):
    """An honest scenario whose trials call ``in_worker`` in any process
    but the one that made it, and ``in_caller`` in that one.  A worker
    receives it in each call's message, so it fails there however long ago
    the worker started."""

    in_worker: Optional[Callable[[], None]] = None
    in_caller: Optional[Callable[[], None]] = None
    caller_pid: int = dataclasses.field(default_factory=os.getpid)

    def validate(self) -> AdversaryStrategy:
        super().validate()
        return _FailingRun(self)


@dataclasses.dataclass
class _FailingRun(AdversaryStrategy):
    """No attack, but each share of trials the block engine runs calls its
    scenario's fault for the process it runs in, as the engine asks for the
    preparation; validating or scoring the scenario does not."""

    scenario: Optional[FailingScenario] = None
    kind = "failing_run"  # not "none", whose trials the per-trial program runs

    def override_preparation(self, n: int, count: int):
        scenario = self.scenario
        fail = scenario.in_caller if os.getpid() == scenario.caller_pid else scenario.in_worker
        if fail is not None:
            fail()
        return None


def boom():
    raise ValueError("boom")


def exit_3():
    os._exit(3)


def caller_fails():
    raise KeyError("caller share")


def sleep_60():
    time.sleep(60)
