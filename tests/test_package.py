"""The package namespace loads lazily, and the command line runs one BLAS thread.

The thread checks run in fresh interpreters with an explicit environment:
this test process may have imported ``entdyn.cli`` already, which sets
``OPENBLAS_NUM_THREADS`` in ``os.environ`` for every child started after it.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import entdyn

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _run(code: str, **user_env) -> list[str]:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = str(Path(entdyn.__file__).parents[1])
    env.update(user_env)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def _usable_cores() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


# the BLAS value the command line leaves, and the number of tasks (threads) of
# a process that has loaded numpy, once OpenBLAS has started its threads
PROBE_CLI = (
    "import os, entdyn.cli, numpy; "
    "print(os.environ.get('OPENBLAS_NUM_THREADS')); "
    "print(len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else -1)"
)


def test_import_loads_no_numpy_and_sets_no_thread_variable():
    code = ("import os, sys, entdyn; print('numpy' in sys.modules); "
            "from entdyn import GmeProblem, c0; print('numpy' in sys.modules); "
            "print(any(k in os.environ for k in %r))" % (THREAD_VARS,))
    assert _run(code) == ["False", "True", "False"]


def test_every_exported_name_is_its_submodule_object():
    assert len(entdyn.__all__) == len(set(entdyn.__all__))
    listed = dir(entdyn)
    for name in entdyn.__all__:
        module = importlib.import_module(f"entdyn.{entdyn._MODULE_OF[name]}")
        assert getattr(entdyn, name) is getattr(module, name), name
        assert name in listed, name
    with pytest.raises(AttributeError, match="no_such_name"):
        entdyn.no_such_name  # noqa: B018


def test_cli_defaults_to_one_blas_thread():
    value, tasks = _run(PROBE_CLI)
    assert value == "1"
    if int(tasks) < 0 or _usable_cores() < 2:
        pytest.skip("task count needs /proc and at least 2 usable cores")
    assert int(tasks) == 1


@pytest.mark.parametrize("user_env, value", [
    ({"OPENBLAS_NUM_THREADS": "2"}, "2"),
    ({"OMP_NUM_THREADS": "2"}, "None"),
])
def test_cli_keeps_the_users_thread_count(user_env, value):
    got, tasks = _run(PROBE_CLI, **user_env)
    assert got == value
    if int(tasks) < 0 or _usable_cores() < 2:
        pytest.skip("task count needs /proc and at least 2 usable cores")
    assert int(tasks) == 2
