import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import roughmf._accel as accel
from roughmf._accel import (
    _linear_flow_maps_nb,
    _linear_flow_maps_np,
    _pair_sup_first_nb,
    _pair_sup_first_np,
    _pair_sup_second_diff_nb,
    _pair_sup_second_diff_np,
    _pair_sup_second_nb,
    _pair_sup_second_np,
)
from roughmf.roughpath import _pair_blocks

BENCH_KERNELS = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_kernels.py"


def pair_case(seed, M=64, d=2):
    rng = np.random.default_rng(seed)
    times = np.sort(rng.uniform(0, 1, M + 1))
    times[0], times[-1] = 0.0, 1.0
    X = np.cumsum(rng.normal(size=(M + 1, d)) * 0.1, axis=0)
    A = np.cumsum(rng.normal(size=(M + 1, d, d)) * 0.01, axis=0)
    ii, jj = (np.concatenate(b) for b in zip(*_pair_blocks(M)))
    return X, A, times, ii, jj


def test_active_kernels_match_numpy_reference():
    # when numba is importable the module exports the jitted loops; either
    # way the active kernels must agree with the numpy reference bitwise-ish
    for seed in range(3):
        X, A, times, ii, jj = pair_case(seed)
        assert np.isclose(
            accel.pair_sup_first(X, times, ii, jj, 0.4),
            _pair_sup_first_np(X, times, ii, jj, 0.4),
            rtol=1e-13,
        )
        assert np.isclose(
            accel.pair_sup_second(X, A, times, ii, jj, 0.4),
            _pair_sup_second_np(X, A, times, ii, jj, 0.4),
            rtol=1e-13,
        )
        X2, A2, *_ = pair_case(seed + 100)
        assert np.isclose(
            accel.pair_sup_second_diff(X, A, X2, A2, times, ii, jj, 0.4),
            _pair_sup_second_diff_np(X, A, X2, A2, times, ii, jj, 0.4),
            rtol=1e-13,
        )


def flow_case(seed=5, n=32, d=3):
    rng = np.random.default_rng(seed)
    dX = rng.normal(size=(n, d)) * 0.1
    XX = rng.normal(size=(n, d, d)) * 0.01
    a0 = rng.normal(size=(d, d, d)) * 0.3
    a1 = rng.normal(size=(n, d, d))
    return dX, XX, a0, a1


def test_linear_flow_maps_match():
    dX, XX, a0, a1 = flow_case()
    M1, v1 = accel.linear_flow_maps(dX, XX, a0, a1)
    M2, v2 = _linear_flow_maps_np(dX, XX, a0, a1)
    assert np.max(np.abs(M1 - M2)) <= 1e-12
    assert np.max(np.abs(v1 - v2)) <= 1e-12


def test_loop_kernels_match_numpy_twins():
    # the scalar loops are what numba compiles; without numba they run as
    # plain Python, so they are checked here whichever backend is active
    for seed in range(2):
        X, A, times, ii, jj = pair_case(seed, M=32)
        X2, A2, *_ = pair_case(seed + 100, M=32)
        for loop, ref, args in (
            (_pair_sup_first_nb, _pair_sup_first_np, (X, times, ii, jj, 0.4)),
            (_pair_sup_second_nb, _pair_sup_second_np, (X, A, times, ii, jj, 0.4)),
            (_pair_sup_second_diff_nb, _pair_sup_second_diff_np,
             (X, A, X2, A2, times, ii, jj, 0.4)),
        ):
            assert np.isclose(loop(*args), ref(*args), rtol=1e-13), loop.__name__
    # a0 with zero entries exercises the loop's skip of zero coefficients
    dX, XX, a0, a1 = flow_case(n=8)
    a0[0, 1] = 0.0
    M1, v1 = _linear_flow_maps_nb(dX, XX, a0, a1)
    M2, v2 = _linear_flow_maps_np(dX, XX, a0, a1)
    assert np.max(np.abs(M1 - M2)) <= 1e-12
    assert np.max(np.abs(v1 - v2)) <= 1e-12


def test_env_flag_selects_numpy_path():
    code = (
        "import os; os.environ['ROUGHMF_NO_NUMBA'] = '1'; "
        "import roughmf._accel as a; "
        "assert not a.HAVE_NUMBA; "
        "assert a.pair_sup_first is a._pair_sup_first_np"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_bench_kernels_runs_on_active_backend():
    # guards the script's kernel calls against signature changes
    proc = subprocess.run(
        [sys.executable, str(BENCH_KERNELS), "--cells", "16", "--repeats", "1"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "linear_flow_maps:" in proc.stdout


@pytest.mark.skipif(accel.HAVE_NUMBA, reason="numba is present, so --both has two backends")
def test_bench_kernels_both_refuses_without_numba():
    proc = subprocess.run(
        [sys.executable, str(BENCH_KERNELS), "--both", "--cells", "16", "--repeats", "1"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "numba is not available" in proc.stderr
    assert proc.stdout == ""  # no timing table


def test_numba_path_available_by_default():
    code = (
        "import roughmf._accel as a; "
        "import sys; sys.exit(0 if a.HAVE_NUMBA else 1)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, "numba path should be active by default here"
