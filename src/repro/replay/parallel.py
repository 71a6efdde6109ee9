"""Parallel, resumable sweep execution.

The paper's headline tables are grids of *independent* trace-replay
experiments, so a sweep parallelises embarrassingly: this module runs
sweep points across a ``multiprocessing`` worker pool while keeping the
serial path's determinism guarantees.

Guarantees:

* **Bit-identical results.** Every point's config is built by the same
  :func:`repro.replay.sweep.point_config` the serial path uses, each
  experiment constructs its own RNG registry from the config seed, and
  per-point seeds (``derive_seeds=True``) come from a stable hash of
  (base seed, label) — never from worker identity or scheduling order.
  A sweep run under :class:`ParallelSweepRunner` therefore produces
  metric-for-metric the same :class:`ExperimentResult` objects as
  ``sweep()``.
* **Crash/timeout containment.** Each point runs in its own process
  with a private result pipe: a worker that dies or overruns its
  ``timeout`` is killed and the point retried (``retries`` times)
  without corrupting any other point's transport.
* **Checkpointed resume.** With a ``checkpoint_dir``, every completed
  point is written atomically via :mod:`repro.replay.serialize` before
  it is reported, so an interrupted sweep (even a SIGKILL) restarts
  from the last completed point with ``resume=True``.

Example::

    from repro.replay import ParallelSweepRunner, sweep

    runner = ParallelSweepRunner(workers=4, checkpoint_dir="out/ckpt",
                                 resume=True, progress=print)
    results = sweep(base, points, runner=runner)
"""

from __future__ import annotations

import multiprocessing
import os
import re
import time
import traceback
from collections import deque
from typing import Callable, Dict, List, Optional, Sequence

from .experiment import ExperimentConfig, ExperimentResult, run_experiment
from .serialize import read_checkpoint, write_checkpoint
from .sweep import SweepPoint, SweepResult, point_config

__all__ = ["ParallelSweepRunner", "SweepPointFailed", "checkpoint_filename"]

#: Seconds between the parent's polls of its workers.
POLL_INTERVAL = 0.02


class SweepPointFailed(RuntimeError):
    """A sweep point could not be completed (error, crash or timeout)."""

    def __init__(self, label: str, message: str) -> None:
        super().__init__(f"sweep point {label!r}: {message}")
        self.label = label


def checkpoint_filename(index: int, label: str) -> str:
    """Stable checkpoint file name for point ``index`` labelled ``label``."""
    slug = re.sub(r"[^A-Za-z0-9._-]+", "-", label).strip("-") or "point"
    return f"point-{index:04d}-{slug[:60]}.json"


def _run_point(conn, config: ExperimentConfig, label: str,
               experiment_fn, checkpoint_path: Optional[str]) -> None:
    """Worker body: run one point, checkpoint it, ship the result back.

    The checkpoint is written *before* the result is sent so a parent
    that dies between the two still finds the completed point on resume.
    """
    try:
        result = experiment_fn(config)
        if checkpoint_path is not None:
            write_checkpoint(result, checkpoint_path, label=label)
        conn.send(("ok", result))
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        except Exception:
            pass  # parent gone or pipe broken; exit code tells the story
    finally:
        conn.close()


class _Slot:
    """One occupied worker slot: a live process plus its bookkeeping."""

    __slots__ = ("process", "conn", "index", "started")

    def __init__(self, process, conn, index: int, started: float) -> None:
        self.process = process
        self.conn = conn
        self.index = index
        self.started = started


class ParallelSweepRunner:
    """Executes sweep points across a pool of worker processes.

    Plug into :func:`repro.replay.sweep.sweep` via ``runner=``, or call
    :meth:`run_sweep` directly.

    Args:
        workers: concurrent worker processes (default: CPU count).
        timeout: per-point wall-clock budget in seconds; an overrunning
            worker is killed and the point retried.  ``None`` = no limit.
        retries: extra attempts granted to a point whose worker crashed
            or timed out.  Points that raise an ordinary Python exception
            fail immediately (they are deterministic).
        checkpoint_dir: directory for per-point checkpoint files; created
            on demand.  ``None`` disables checkpointing.
        resume: skip points that already have a matching checkpoint in
            ``checkpoint_dir`` (requires ``checkpoint_dir``).
        experiment_fn: the per-config experiment callable (injection
            point for tests); defaults to
            :func:`repro.replay.experiment.run_experiment`.
        progress: optional callable given one human-readable line per
            point event (completed / resumed / retried).

    Workers start with ``fork`` where available (configs need not be
    picklable), else with the platform's default start method.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        timeout: Optional[float] = None,
        retries: int = 1,
        checkpoint_dir: Optional[str] = None,
        resume: bool = False,
        experiment_fn: Callable[[ExperimentConfig], ExperimentResult] = run_experiment,
        progress: Optional[Callable[[str], None]] = None,
    ) -> None:
        if workers is not None and workers < 1:
            raise ValueError("workers must be >= 1")
        if timeout is not None and timeout <= 0:
            raise ValueError("timeout must be positive (or None)")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if resume and checkpoint_dir is None:
            raise ValueError("resume=True requires a checkpoint_dir")
        self.workers = workers or os.cpu_count() or 1
        self.timeout = timeout
        self.retries = retries
        self.checkpoint_dir = checkpoint_dir
        self.resume = resume
        self.experiment_fn = experiment_fn
        self.progress = progress
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else methods[0]
        )

    # -- internals ---------------------------------------------------------

    def _emit(self, line: str) -> None:
        if self.progress is not None:
            self.progress(line)

    def _checkpoint_path(self, index: int, label: str) -> Optional[str]:
        if self.checkpoint_dir is None:
            return None
        return os.path.join(self.checkpoint_dir, checkpoint_filename(index, label))

    def _load_checkpoints(
        self,
        points: Sequence[SweepPoint],
        configs: List[ExperimentConfig],
        results: List[Optional[SweepResult]],
    ) -> int:
        """Fill ``results`` from existing checkpoints; returns the count."""
        loaded = 0
        for index, (label, _overrides) in enumerate(points):
            path = self._checkpoint_path(index, label)
            if path is None or not os.path.exists(path):
                continue
            stored_label, result = read_checkpoint(path)
            if stored_label is not None and stored_label != label:
                raise SweepPointFailed(
                    label,
                    f"checkpoint {path} belongs to point {stored_label!r}; "
                    "clear the checkpoint directory or use a fresh one",
                )
            results[index] = SweepResult(
                label=label, config=configs[index], result=result
            )
            loaded += 1
            self._emit(f"[sweep] {label}: resumed from checkpoint ({path})")
        return loaded

    def _spawn(self, index: int, label: str, config: ExperimentConfig) -> _Slot:
        recv, send = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=_run_point,
            args=(send, config, label, self.experiment_fn,
                  self._checkpoint_path(index, label)),
            name=f"sweep-{label}",
            daemon=True,
        )
        process.start()
        # Close the parent's copy of the write end so EOF (worker death)
        # is observable on the read end.
        send.close()
        return _Slot(process, recv, index, time.monotonic())

    @staticmethod
    def _shutdown(slot: _Slot) -> None:
        if slot.process.is_alive():
            slot.process.terminate()
        slot.process.join()
        slot.conn.close()

    # -- execution ---------------------------------------------------------

    def run_sweep(
        self,
        base: ExperimentConfig,
        points: Sequence[SweepPoint],
        derive_seeds: bool = False,
    ) -> List[SweepResult]:
        """Run every point; returns results in ``points`` order.

        Raises :class:`SweepPointFailed` once a point exhausts its
        attempts; other in-flight points are terminated (their completed
        peers' checkpoints remain usable for a resumed run).
        """
        points = list(points)
        # Build (and validate) every config up front so a bad override
        # fails fast with its label, before any worker starts.
        configs = [
            point_config(base, label, overrides, derive_seeds=derive_seeds)
            for label, overrides in points
        ]
        results: List[Optional[SweepResult]] = [None] * len(points)
        if self.checkpoint_dir is not None:
            os.makedirs(self.checkpoint_dir, exist_ok=True)
        if self.resume:
            self._load_checkpoints(points, configs, results)

        pending = deque(i for i, r in enumerate(results) if r is None)
        attempts: Dict[int, int] = {i: 0 for i in pending}
        slots: Dict[int, _Slot] = {}
        completed = len(points) - len(pending)

        def fail(label: str, message: str) -> "SweepPointFailed":
            for slot in slots.values():
                self._shutdown(slot)
            slots.clear()
            return SweepPointFailed(label, message)

        try:
            while pending or slots:
                # Fill free worker slots.
                for worker_id in range(self.workers):
                    if not pending:
                        break
                    if worker_id in slots:
                        continue
                    index = pending.popleft()
                    label = points[index][0]
                    attempts[index] += 1
                    slots[worker_id] = self._spawn(index, label, configs[index])

                made_progress = False
                for worker_id, slot in list(slots.items()):
                    index, label = slot.index, points[slot.index][0]
                    wall = time.monotonic() - slot.started
                    if slot.conn.poll():
                        try:
                            status, payload = slot.conn.recv()
                        except (EOFError, OSError):
                            status, payload = "crash", "result pipe closed early"
                        del slots[worker_id]
                        slot.process.join()
                        slot.conn.close()
                        made_progress = True
                        if status == "ok":
                            completed += 1
                            results[index] = SweepResult(
                                label=label, config=configs[index], result=payload
                            )
                            self._emit(
                                f"[sweep] {label}: ok worker={worker_id} "
                                f"wall={wall:.2f}s ({completed}/{len(points)})"
                            )
                        elif status == "error":
                            raise fail(label, f"experiment raised:\n{payload}")
                        else:
                            self._retry_or_fail(
                                pending, attempts, fail, index, label,
                                f"worker crashed ({payload})", worker_id,
                            )
                    elif not slot.process.is_alive():
                        # Dead without a message: give the pipe one last
                        # look (data can land just before death), then
                        # treat as a crash.
                        if slot.conn.poll(0.2):
                            continue  # handled on the next loop pass
                        exitcode = slot.process.exitcode
                        del slots[worker_id]
                        slot.conn.close()
                        made_progress = True
                        self._retry_or_fail(
                            pending, attempts, fail, index, label,
                            f"worker exited with code {exitcode} before "
                            "reporting a result", worker_id,
                        )
                    elif self.timeout is not None and wall > self.timeout:
                        del slots[worker_id]
                        self._shutdown(slot)
                        made_progress = True
                        self._retry_or_fail(
                            pending, attempts, fail, index, label,
                            f"timed out after {wall:.2f}s "
                            f"(timeout={self.timeout:g}s)", worker_id,
                        )
                if not made_progress and slots:
                    time.sleep(POLL_INTERVAL)
        except BaseException:
            for slot in slots.values():
                self._shutdown(slot)
            slots.clear()
            raise
        return [r for r in results if r is not None]

    def _retry_or_fail(self, pending, attempts, fail, index: int, label: str,
                       message: str, worker_id: int) -> None:
        if attempts[index] > self.retries:
            raise fail(
                label, f"{message}; gave up after {attempts[index]} attempt(s)"
            )
        self._emit(
            f"[sweep] {label}: {message}; retrying "
            f"(attempt {attempts[index] + 1}/{self.retries + 1}) "
            f"worker={worker_id}"
        )
        pending.append(index)
