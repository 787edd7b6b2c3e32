"""Locate the checkout the benchmark runs in and import the program from it."""
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"


class MissingSource(RuntimeError):
    """The checkout holds no program source to benchmark."""


def use_source() -> None:
    """Put the checkout's own src/ first on sys.path, never an installed copy."""
    if not (SRC / "spptag" / "__init__.py").is_file():
        raise MissingSource(f"no program source at {SRC / 'spptag'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import spptag

    if Path(spptag.__file__).resolve().parent != SRC / "spptag":
        raise MissingSource(f"spptag resolved to {spptag.__file__}, not {SRC}")


def child_env() -> dict:
    """Environment for every process the benchmark starts.

    The checkout's src/ comes first on PYTHONPATH, and numeric libraries get
    at most one thread per CPU this process may run on.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env
