"""The spectral engine's per-component steps on threads that live for one
call: the same bits at any worker count, no nested parallelism, no thread
left behind, and a forked child that can still run them."""

import concurrent.futures
import os
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from fracfield import spectral
from fracfield.fields import GridSpec
from fracfield.spectral import (
    random_band_limited,
    spectral_frac_divergence,
    spectral_frac_gradient,
    spectral_riesz_potential,
    spectral_riesz_transform,
)
from fracfield.verify import run_suite

from _oracles import serial_apply_symbol

GRIDS = {  # n -> sample counts; n = 3 is not cubic
    1: (64,),
    2: (32, 16),
    3: (8, 16, 32),
}

# operator, its input kind, its (power, gradient) for the serial loop
OPERATORS = {
    "frac_gradient": (lambda f: spectral_frac_gradient(f, 0.3), False, (-0.7, True)),
    "frac_divergence": (lambda F: spectral_frac_divergence(F, 0.6), True, (-0.4, True)),
    "riesz_potential": (lambda f: spectral_riesz_potential(f, 0.5), False, (-0.5, False)),
    "riesz_transform": (spectral_riesz_transform, False, (-1.0, True)),
}


def _field(n: int, vector: bool):
    grid = GridSpec((-4.0,) * n, (4.0,) * n, GRIDS[n])
    return random_band_limited(grid, 3, seed=10 * n + vector, vector=vector)


@pytest.fixture
def executors(monkeypatch):
    """The worker counts of the executors `_fan_out` opens, in order."""
    opened = []

    class Recording(ThreadPoolExecutor):
        def __init__(self, max_workers, *args, **kwargs):
            opened.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recording)
    return opened


@pytest.fixture(params=["marked", "cpus1", "cpus2", "cpus3"])
def workers(request, monkeypatch):
    """The fan-out from a marked caller (steps inline), or with 1, 2 or 3
    usable CPUs."""
    if request.param == "marked":
        monkeypatch.setattr(spectral._fan_out_thread, "worker", True, raising=False)
    else:
        monkeypatch.setattr(spectral, "_cpus", lambda: int(request.param[-1]))


@pytest.mark.parametrize("n", sorted(GRIDS))
@pytest.mark.parametrize("op", sorted(OPERATORS))
def test_operators_match_the_serial_loop_bit_for_bit(workers, op, n):
    apply, vector, (power, gradient) = OPERATORS[op]
    f = _field(n, vector)
    got = apply(f).data
    want = serial_apply_symbol(f, power, gradient).data
    assert got.shape == want.shape
    assert np.array_equal(got, want)


def _spy_irfft(monkeypatch) -> list:
    """The names of the threads that run each np.fft.irfft from now on."""
    seen = []
    irfft = np.fft.irfft

    def spy(*args, **kwargs):
        seen.append(threading.current_thread().name)
        return irfft(*args, **kwargs)

    monkeypatch.setattr(np.fft, "irfft", spy)
    return seen


def test_steps_run_on_the_fan_out_threads(monkeypatch):
    """With two or more components every step runs on a fan-out thread; a
    single component runs on the caller's thread."""
    monkeypatch.setattr(spectral, "_cpus", lambda: 2)
    seen = _spy_irfft(monkeypatch)
    spectral_frac_gradient(_field(3, False), 0.5)
    assert len(seen) == 3 and all(name.startswith("fracfield-fft") for name in seen)
    seen.clear()
    spectral_frac_gradient(_field(1, False), 0.5)
    assert seen == [threading.current_thread().name]


def test_concurrent_callers_keep_their_bits(monkeypatch):
    """Eight unmarked threads, more than the cores, call the engine at once,
    each fanning out on threads of its own: every result equals the serial
    loop's."""
    monkeypatch.setattr(spectral, "_cpus", lambda: 2)
    fields = [_field(3, False), _field(3, True)] * 4
    start = threading.Barrier(len(fields))
    results = [None] * len(fields)

    def caller(i):
        start.wait(timeout=30)
        op = spectral_frac_divergence if fields[i].vector else spectral_frac_gradient
        results[i] = op(fields[i], 0.5).data

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller, args=(i,)) for i in range(len(fields))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    for f, got in zip(fields, results):
        assert np.array_equal(got, serial_apply_symbol(f, -0.5, True).data)


@pytest.mark.parametrize("cpus,n,expected", [(3, 2, 2), (2, 3, 2), (3, 3, 3)])
def test_fan_out_takes_a_thread_per_step_up_to_the_usable_cpus(monkeypatch, executors,
                                                                cpus, n, expected):
    monkeypatch.setattr(spectral, "_cpus", lambda: cpus)
    assert spectral._fan_out(lambda j: j * j, n) == [j * j for j in range(n)]
    assert executors == [expected]


def test_one_cpu_runs_inline_without_threads(monkeypatch, executors):
    monkeypatch.setattr(spectral, "_cpus", lambda: 1)
    seen = _spy_irfft(monkeypatch)
    spectral_frac_gradient(_field(2, False), 0.5)
    assert seen == [threading.current_thread().name] * 2
    assert executors == []


def test_a_marked_thread_runs_its_steps_inline(monkeypatch, executors):
    """A thread marked by `_serial_thread` (run_suite's workers, the
    fan-out's own) runs its steps inline: parallelism never nests."""
    monkeypatch.setattr(spectral, "_cpus", lambda: 2)
    f = _field(2, False)
    seen = _spy_irfft(monkeypatch)
    with ThreadPoolExecutor(1, thread_name_prefix="outer",
                            initializer=spectral._serial_thread) as outer:
        got = outer.submit(spectral_frac_gradient, f, 0.5).result(timeout=60)
    assert len(seen) == 2 and all(name.startswith("outer") for name in seen)
    assert executors == []
    assert np.array_equal(got.data, serial_apply_symbol(f, -0.5, True).data)


def test_a_step_error_reaches_the_caller(monkeypatch):
    monkeypatch.setattr(spectral, "_cpus", lambda: 2)

    def step(j):
        if j == 1:
            raise ValueError("step 1")

    with pytest.raises(ValueError, match="step 1"):
        spectral._fan_out(step, 2)


@pytest.mark.parametrize("fails", [False, True], ids=["succeeds", "raises"])
def test_no_thread_outlives_a_fanned_out_call(monkeypatch, executors, fails):
    """The threads are joined before `_fan_out` returns or raises, even
    while another step is still running when one raises."""
    monkeypatch.setattr(spectral, "_cpus", lambda: 3)

    def step(j):
        if j == 0 and fails:
            raise ValueError("step 0")
        time.sleep(0.05)
        return j

    before = threading.active_count()
    if fails:
        with pytest.raises(ValueError, match="step 0"):
            spectral._fan_out(step, 3)
    else:
        assert spectral._fan_out(step, 3) == [0, 1, 2]
    assert executors == [3]
    assert threading.active_count() == before


def test_usable_cpus_without_an_affinity_call(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert spectral._cpus() == 1
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert spectral._cpus() == 4


@pytest.mark.filterwarnings("ignore::DeprecationWarning")  # fork with threads, Python >= 3.12
def test_forked_child_runs_a_threaded_call(monkeypatch):
    """A child forked after the parent fanned out runs a fanned-out call of
    its own and gets the parent's bits."""
    monkeypatch.setattr(spectral, "_cpus", lambda: 2)
    f = _field(2, False)
    want = spectral_frac_gradient(f, 0.5).data
    pid = os.fork()
    if pid == 0:  # the child: exit 0 only on the right answer, die on a hang
        code = 1
        try:
            signal.alarm(10)
            code = 0 if np.array_equal(spectral_frac_gradient(f, 0.5).data, want) else 1
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0, status


def test_import_starts_no_thread_and_loads_no_executor():
    code = ("import sys, threading, fracfield.spectral; "
            "assert 'concurrent.futures' not in sys.modules, 'executor loaded'; "
            "assert threading.active_count() == 1")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=60)


SPECTRAL_CHECKS = ["spectral", "symbol_factorization", "riesz_square", "cross_engine",
                   "decay_smooth_pinf", "leibniz_pointwise", "ball_ibp_r1.0"]


def test_run_suite_reports_do_not_depend_on_jobs(cfg):
    """jobs=1 fans each check's transforms out over threads, jobs=2 runs
    them on the check's own thread; the reports agree apart from seconds."""
    runs = {}
    for jobs in (1, 2):
        spectral._cached_frac_derivative.cache_clear()
        runs[jobs] = [replace(r, seconds=0.0)
                      for r in run_suite(cfg, jobs=jobs, names=SPECTRAL_CHECKS)]
    assert len(runs[1]) == 8
    assert [repr(r) for r in runs[1]] == [repr(r) for r in runs[2]]


def test_run_suite_workers_never_fan_out(cfg, monkeypatch, executors):
    monkeypatch.setattr(spectral, "_cpus", lambda: 2)
    reports = run_suite(cfg, jobs=2, names=["riesz_square", "symbol_factorization"])
    assert len(reports) == 2 and all(r.passed for r in reports)
    assert executors == []
