"""The correctness oracle: expected rows from an in-process engine.

The oracle repeats the server's work, so a read workload's verification
spreads it over the box's cores — in worker processes this module
starts (``python -m benchmarks.e2e.oracle``, JSON over pipes) and waits
for, so nothing outlives the run.  ``multiprocessing`` is not used: its
resource-tracker child is never waited for and stays behind as a zombie
where pid 1 does not reap.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from typing import Dict, List, Optional, Tuple

from vidb.query.engine import QueryEngine
from vidb.query.execution import ExecutionOptions

from benchmarks.e2e import inputs
from benchmarks.e2e.nodes import REPO_ROOT, child_env

Rows = List[List[str]]
#: ``(query text, also check against the reference kernel)``
Task = Tuple[str, bool]
Answer = Tuple[Rows, Optional[Rows]]


def render_rows(answers) -> Rows:
    """Answer rows as the server's ``query`` reply renders them."""
    return [[str(value) for value in row] for row in answers.rows()]


class Oracle:
    """Expected rows from an in-process engine over the same records."""

    def __init__(self, records, rules: Optional[str]):
        self.engine = QueryEngine(inputs.build_database(records),
                                  rules=rules,
                                  use_stdlib_rules=rules is not None)
        self._rows: Dict[str, Rows] = {}

    def rows(self, text: str) -> Rows:
        if text not in self._rows:
            self._rows[text] = render_rows(self.engine.query(text))
        return self._rows[text]

    def reference_rows(self, text: str) -> Rows:
        """The same query under the semantic baseline: reference kernel,
        naive evaluation."""
        report = self.engine.execute(
            text, ExecutionOptions(kernel="reference", mode="naive"))
        return render_rows(report.answers)

    def answer(self, task: Task) -> Answer:
        text, with_reference = task
        return (self.rows(text),
                self.reference_rows(text) if with_reference else None)


def oracle_results(records, rules: Optional[str],
                   tasks: List[Task]) -> List[Answer]:
    """The oracle's answers to *tasks*, in order, computed by one worker
    process per core; every worker is waited for (killed first on an
    error) before this returns."""
    if not tasks:
        return []
    count = min(os.cpu_count() or 1, len(tasks))
    workers: List[subprocess.Popen] = []
    try:
        for _ in range(count):
            workers.append(subprocess.Popen(
                [sys.executable, "-m", "benchmarks.e2e.oracle"],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                env=child_env(), cwd=str(REPO_ROOT)))
        # A worker reads its whole request before it computes, so the
        # requests go out first and the answers are collected after.
        for index, worker in enumerate(workers):
            request = {"records": records, "rules": rules,
                       "tasks": tasks[index::count]}
            assert worker.stdin is not None
            worker.stdin.write(json.dumps(request).encode("utf-8"))
            worker.stdin.close()
        answers: List[Optional[Answer]] = [None] * len(tasks)
        for index, worker in enumerate(workers):
            assert worker.stdout is not None
            reply = worker.stdout.read()
            if worker.wait() != 0:
                raise RuntimeError(
                    f"oracle worker exited with code {worker.returncode}")
            for slot, (rows, reference) in zip(
                    range(index, len(tasks), count), json.loads(reply)):
                answers[slot] = (rows, reference)
        return answers  # type: ignore[return-value]
    finally:
        for worker in workers:
            if worker.poll() is None:
                worker.kill()
            worker.wait()
            for pipe in (worker.stdin, worker.stdout):
                if pipe is not None and not pipe.closed:
                    pipe.close()


def _worker_main() -> int:
    request = json.loads(sys.stdin.buffer.read())
    oracle = Oracle(request["records"], request["rules"])
    answers = [oracle.answer((text, bool(with_reference)))
               for text, with_reference in request["tasks"]]
    sys.stdout.write(json.dumps(answers))
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(_worker_main())
