"""The daemon shuts down cleanly on SIGINT and SIGTERM.

A shell starts a background job (``repro-serve ... &``) with SIGINT
ignored, and Python then never turns SIGINT into ``KeyboardInterrupt``
on its own. Each case here starts a real ``repro-serve`` process the
same way, signals it once it is serving, and expects exit status 0
with the shutdown path run to its end (the ``--trace`` stage report is
printed only after the store and the pipeline result are closed).
"""

import os
import selectors
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)
STARTUP_S = 60.0
SHUTDOWN_S = 5.0


def _ignore_sigint() -> None:
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _wait_until_serving(proc: subprocess.Popen) -> None:
    selector = selectors.DefaultSelector()
    selector.register(proc.stderr, selectors.EVENT_READ)
    seen = b""
    while b"serving world=" not in seen:
        if not selector.select(STARTUP_S):
            raise AssertionError(f"daemon did not start: {seen!r}")
        chunk = os.read(proc.stderr.fileno(), 4096)
        if not chunk:
            raise AssertionError(f"daemon exited early: {seen!r}")
        seen += chunk
    selector.close()


@pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM],
                         ids=["SIGINT", "SIGTERM"])
def test_signal_with_sigint_ignored_exits_zero(tmp_path, signum):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.serve.cli", "--world", "small",
         "--port", "0", "--store", str(tmp_path / "store.ck"), "--trace"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        preexec_fn=_ignore_sigint,
    )
    try:
        _wait_until_serving(proc)
        proc.send_signal(signum)
        stdout, _ = proc.communicate(timeout=SHUTDOWN_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 0
    assert b"serve stage report" in stdout
