"""Child processes: the lucbat CLI of this checkout, one child at a time."""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD_TIMEOUT_S = 150.0


def checkout_ok() -> bool:
    return (SRC / "lucbat" / "__init__.py").is_file()


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


@dataclass
class Child:
    status: int
    wall_s: float
    max_rss_kb: int
    stdout: str
    stderr: str


def read_text(path: Path) -> str:
    try:
        return path.read_text("utf-8", errors="replace")
    except FileNotFoundError:
        return ""


def run(args: list[str], cwd: Path) -> Child:
    """Run ``python <args>`` in ``cwd``; wall time and max RSS from wait4."""
    out_path, err_path = cwd / "child.stdout", cwd / "child.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=cwd, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_maxrss,
                 read_text(out_path), read_text(err_path))


def lucbat(argv: list[str], cwd: Path) -> Child:
    return run(["-m", "lucbat", *argv], cwd)
