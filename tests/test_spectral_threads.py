"""The spectral engine's per-component steps on the thread pool: the same
bits at any worker count, no nested parallelism, and a forked child that
can still run them."""

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


@pytest.fixture(params=["inline", "pool1", "pool2", "pool3"])
def workers(request, monkeypatch):
    """The fan-out as one CPU (steps inline), or as a fresh pool of 1, 2 or
    3 workers; yields the pool, or None."""
    pool = None
    if request.param == "inline":
        monkeypatch.setattr(spectral, "_cpus", lambda: 1)
        monkeypatch.setattr(spectral, "_pool", None)
    else:
        pool = ThreadPoolExecutor(int(request.param[-1]), initializer=spectral._serial_thread)
        monkeypatch.setattr(spectral, "_pool", pool)
    yield pool
    if pool is not None:
        pool.shutdown()


@pytest.mark.parametrize("n", sorted(GRIDS))
@pytest.mark.parametrize("op", sorted(OPERATORS))
def test_operators_match_the_serial_loop_bit_for_bit(workers, op, n):
    apply, vector, (power, gradient) = OPERATORS[op]
    f = _field(n, vector)
    got = apply(f).data
    want = serial_apply_symbol(f, power, gradient).data
    assert got.shape == want.shape
    assert np.array_equal(got, want)


def test_steps_run_on_the_pool_threads(monkeypatch):
    """With two or more components every step runs on a pool worker; a
    single component runs on the caller's thread."""
    pool = ThreadPoolExecutor(2, thread_name_prefix="probe", initializer=spectral._serial_thread)
    monkeypatch.setattr(spectral, "_pool", pool)
    seen = []
    irfft = np.fft.irfft

    def spy(*args, **kwargs):
        seen.append(threading.current_thread().name)
        return irfft(*args, **kwargs)

    monkeypatch.setattr(np.fft, "irfft", spy)
    try:
        spectral_frac_gradient(_field(3, False), 0.5)
        assert len(seen) == 3 and all(name.startswith("probe") for name in seen)
        seen.clear()
        spectral_frac_gradient(_field(1, False), 0.5)
        assert seen == [threading.current_thread().name]
    finally:
        pool.shutdown()


def test_concurrent_callers_share_one_pool_and_keep_their_bits(monkeypatch):
    """Eight unmarked threads, more than the cores, race to build the pool
    and then call the engine at once: one pool is built, and every result
    equals the serial loop's."""
    def slow_cpus():  # widens the window a check-then-act race would need
        time.sleep(0.002)
        return 2

    monkeypatch.setattr(spectral, "_cpus", slow_cpus)
    monkeypatch.setattr(spectral, "_pool", None)
    fields = [_field(3, False), _field(3, True)] * 4
    start = threading.Barrier(len(fields))
    pools, results = [None] * len(fields), [None] * len(fields)

    def caller(i):
        start.wait(timeout=30)
        pools[i] = spectral._executor()
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
    try:
        assert pools[0] is not None and all(p is pools[0] for p in pools)
        for f, got in zip(fields, results):
            assert np.array_equal(got, serial_apply_symbol(f, -0.5, True).data)
    finally:
        pools[0].shutdown()


def test_pool_is_sized_by_usable_cpus_and_built_once(monkeypatch):
    monkeypatch.setattr(spectral, "_cpus", lambda: 3)
    monkeypatch.setattr(spectral, "_pool", None)
    pool = spectral._executor()
    try:
        assert pool._max_workers == 3
        assert spectral._executor() is pool
    finally:
        pool.shutdown()


def test_one_cpu_runs_inline_without_a_pool(monkeypatch):
    monkeypatch.setattr(spectral, "_cpus", lambda: 1)
    monkeypatch.setattr(spectral, "_pool", None)
    spectral_frac_gradient(_field(2, False), 0.5)
    assert spectral._pool is False and spectral._executor() is None


def test_a_marked_thread_never_starts_the_pool(monkeypatch):
    """A thread marked by `_serial_thread` (run_suite's workers, the pool's
    own) runs its steps inline: parallelism never nests."""
    monkeypatch.setattr(spectral, "_cpus", lambda: 2)
    monkeypatch.setattr(spectral, "_pool", None)
    f = _field(2, False)
    with ThreadPoolExecutor(1, initializer=spectral._serial_thread) as outer:
        got = outer.submit(spectral_frac_gradient, f, 0.5).result(timeout=60)
    assert spectral._pool is None
    assert np.array_equal(got.data, serial_apply_symbol(f, -0.5, True).data)


def test_a_step_error_reaches_the_caller(monkeypatch):
    pool = ThreadPoolExecutor(2, initializer=spectral._serial_thread)
    monkeypatch.setattr(spectral, "_pool", pool)

    def step(j):
        if j == 1:
            raise ValueError("step 1")

    try:
        with pytest.raises(ValueError, match="step 1"):
            spectral._fan_out(step, 2)
    finally:
        pool.shutdown()


def test_usable_cpus_without_an_affinity_call(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert spectral._cpus() == 1
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert spectral._cpus() == 4


@pytest.mark.filterwarnings("ignore::DeprecationWarning")  # fork with threads, Python >= 3.12
def test_forked_child_runs_a_threaded_call(monkeypatch):
    """The parent's pool threads do not exist in a forked child; the child
    builds its own pool, and its first spectral call returns."""
    monkeypatch.setattr(spectral, "_cpus", lambda: 2)
    monkeypatch.setattr(spectral, "_pool", None)
    f = _field(2, False)
    want = spectral_frac_gradient(f, 0.5).data
    try:
        both = threading.Barrier(2)  # the parent's pool runs two workers ...
        list(spectral._pool.map(lambda _: both.wait(timeout=10), range(2)))
        time.sleep(0.2)  # ... both idle: a stale pool would queue the child's work to them
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
    finally:
        spectral._pool.shutdown()


def test_import_starts_no_thread_and_loads_no_executor():
    code = ("import sys, threading, fracfield.spectral as s; "
            "assert 'concurrent.futures' not in sys.modules, 'executor loaded'; "
            "assert threading.active_count() == 1 and s._pool is None")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=60)


SPECTRAL_CHECKS = ["spectral", "symbol_factorization", "riesz_square", "cross_engine",
                   "decay_smooth_pinf", "leibniz_pointwise", "ball_ibp_r1.0"]


def test_run_suite_reports_do_not_depend_on_jobs(cfg):
    """jobs=1 fans each check's transforms out over the pool, jobs=2 runs
    them on the check's own thread; the reports agree apart from seconds."""
    runs = {}
    for jobs in (1, 2):
        spectral._cached_frac_derivative.cache_clear()
        runs[jobs] = [replace(r, seconds=0.0)
                      for r in run_suite(cfg, jobs=jobs, names=SPECTRAL_CHECKS)]
    assert len(runs[1]) == 8
    assert [repr(r) for r in runs[1]] == [repr(r) for r in runs[2]]


def test_run_suite_workers_never_start_the_pool(cfg, monkeypatch):
    monkeypatch.setattr(spectral, "_cpus", lambda: 2)
    monkeypatch.setattr(spectral, "_pool", None)
    reports = run_suite(cfg, jobs=2, names=["riesz_square", "symbol_factorization"])
    assert len(reports) == 2 and all(r.passed for r in reports)
    assert spectral._pool is None
