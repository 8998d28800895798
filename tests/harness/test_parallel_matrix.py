"""The crash matrix judges its points across forked processes and writes the
report one process writes: the same report, point for point, whatever the
split; and a child that fails can neither hang the run, nor drop a point,
nor outlive it.

The worker count follows the CPU affinity mask; these tests set it through
``crashmatrix._processes`` so that a one-CPU runner forks too.
"""

import os
import signal
import time
from contextlib import contextmanager

import pytest

from repro.harness import crashmatrix
from repro.harness.crashmatrix import CrashMatrixSpec, run_crash_matrix


def _spec(**kw):
    defaults = dict(
        store="efactory",
        seed=7,
        ops_per_client=20,
        max_per_site=2,
        recovery_points=2,
        replay=True,
        sites=("nvm.persist", "bg.cleaner.compress", "rpc.dispatch"),
    )
    defaults.update(kw)
    return CrashMatrixSpec(**defaults)


def _processes(monkeypatch, n):
    monkeypatch.setattr(crashmatrix, "_processes", lambda jobs: min(jobs, n))


def _assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """The pids this process forks while the test runs."""
    pids = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return pids


def _run(monkeypatch, spec, n):
    _processes(monkeypatch, n)
    return run_crash_matrix(spec)


def _assert_same(one, many):
    assert many.as_dict() == one.as_dict()
    assert [(r.crash_summary, r.recovery, r.digest) for r in many.results] == [
        (r.crash_summary, r.recovery, r.digest) for r in one.results
    ]


# -- parallel == one process ---------------------------------------------------------


@pytest.mark.parametrize(
    "spec,n",
    [
        (_spec(), 2),
        (_spec(), 3),
        (_spec(replay=False), 2),
        (_spec(store="saw"), 2),
    ],
    ids=["efactory-replay-2", "efactory-replay-3", "efactory-scratch-2", "saw-2"],
)
def test_parallel_report_equals_the_one_process_report(monkeypatch, forks, spec, n):
    one = _run(monkeypatch, spec, 1)
    assert forks == []
    many = _run(monkeypatch, spec, n)
    assert len(forks) >= n - 1  # each round forks up to n - 1 children
    assert one.total_points >= 4 and any(r.phase == "recovery" for r in one.results)
    _assert_same(one, many)
    _assert_no_children()


def test_a_strayed_armed_pass_is_reported_the_same_in_parallel(monkeypatch, forks):
    real = crashmatrix._Instance._take_capsule

    def take_capsule(self, capsules, site):
        real(self, capsules, site)
        if len(capsules) == 1:
            self.injector.fire("bg.verifier")  # a visit the counting pass never made

    monkeypatch.setattr(crashmatrix._Instance, "_take_capsule", take_capsule)
    one = _run(monkeypatch, _spec(), 1)
    many = _run(monkeypatch, _spec(), 2)
    assert forks
    crashed = [r for r in many.results if r.crashed]
    assert crashed and not any(r.replay_identical for r in crashed)
    assert not any(r.replay_identical for r in one.results if r.crashed)
    _assert_same(one, many)


# -- failures ----------------------------------------------------------------------


def _failing_at(monkeypatch, bad_job):
    """``_judge_point`` raises at the ``bad_job``-th point of the first round
    (with two processes, odd jobs are the child's)."""
    real = crashmatrix._judge_point
    spec = _spec(recovery_points=0)
    with pytest.MonkeyPatch.context() as mp:
        _processes(mp, 1)
        points = [(r.site, r.op_index) for r in run_crash_matrix(spec).results]
    bad = points[bad_job]

    def judge_point(spec, point, *rest, **kw):
        if point == bad:
            raise RuntimeError(f"judging {point} failed")
        return real(spec, point, *rest, **kw)

    monkeypatch.setattr(crashmatrix, "_judge_point", judge_point)
    return spec


def test_a_point_that_raises_in_a_child_raises_as_in_one_process(monkeypatch, forks):
    spec = _failing_at(monkeypatch, 1)
    _processes(monkeypatch, 1)
    with pytest.raises(RuntimeError) as serial:
        run_crash_matrix(spec)
    assert forks == []
    _processes(monkeypatch, 2)
    with pytest.raises(RuntimeError) as parallel:
        run_crash_matrix(spec)
    assert forks
    assert str(parallel.value) == str(serial.value)
    _assert_no_children()


def test_a_child_that_exits_without_results_costs_no_point(monkeypatch, forks):
    one = _run(monkeypatch, _spec(), 1)
    parent, real = os.getpid(), crashmatrix._judge_point

    def judge_point(*args, **kw):
        if os.getpid() != parent:
            os._exit(1)
        return real(*args, **kw)

    monkeypatch.setattr(crashmatrix, "_judge_point", judge_point)
    many = _run(monkeypatch, _spec(), 2)
    assert forks
    assert all(isinstance(r, crashmatrix.CrashPointResult) for r in many.results)
    _assert_same(one, many)
    _assert_no_children()


class _Hung(Exception):
    pass


@contextmanager
def _host_budget(seconds):
    """Fail the block with :class:`_Hung` if it runs ``seconds`` of host time."""

    def expire(_signum, _frame):
        raise _Hung(f"still running after {seconds} s of host time")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_the_parent_raising_in_its_share_leaves_no_child(monkeypatch, forks):
    """The child is still judging when the parent's own share raises: the
    parent kills it rather than wait for it."""
    parent, real = os.getpid(), crashmatrix._judge_point

    def judge_point(*args, **kw):
        if os.getpid() == parent:
            raise RuntimeError("the parent's share failed")
        time.sleep(120)
        return real(*args, **kw)

    monkeypatch.setattr(crashmatrix, "_judge_point", judge_point)
    with _host_budget(20), pytest.raises(RuntimeError, match="the parent's share failed"):
        _run(monkeypatch, _spec(), 2)
    assert forks
    _assert_no_children()
