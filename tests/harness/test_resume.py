"""Kill-and-resume: a cached grid that dies mid-run resumes where it stopped.

The grid runner publishes each point to the result cache as soon as it
finishes, so a ``python -m repro fig2 --cache-dir D`` that is SIGKILLed part
way through loses only the points still running.  A rerun over the same
cache must simulate exactly the missing points and export the same bytes as
an uncached direct run.

The killed process is the real CLI with one change: the grid's third point
never finishes (its simulation parks forever), so the kill always lands
mid-grid, whatever the machine's speed.  The test detects publication by
polling the cache directory for entries, then kills.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.__main__ import main
from repro.harness.bench import SMOKE_SCALE
from repro.harness.cache import ResultCache
from repro.harness.export import to_json
from repro.harness.figures import fig2, fig2_grid

SEED = 3
CLI_ARGS = ["fig2", "--scale", repr(SMOKE_SCALE), "--seed", str(SEED)]
PARKED_POINT = 2

#: Runs ``python -m repro <argv>`` with the grid's PARKED_POINT-th point
#: blocked forever, in the serial loop and in forked pool workers alike.
_PARKED_CLI = f"""
import multiprocessing
import sys
import threading

from repro.__main__ import main
from repro.harness import parallel
from repro.harness.figures import fig2_grid

multiprocessing.set_start_method("fork", force=True)
parked = fig2_grid(True, {SMOKE_SCALE!r}, {SEED}).pop({PARKED_POINT}).spec
simulate = parallel.run_experiment


def run_experiment(spec, label=None):
    if spec == parked:
        threading.Event().wait()
    return simulate(spec, label)


parallel.run_experiment = run_experiment
sys.exit(main(sys.argv[1:]))
"""

#: How long the killed run may take to publish its first point.
PUBLISH_DEADLINE_S = 60.0


def entries(root: Path) -> list:
    """Published cache entries (never the ``*.tmp`` staging files)."""
    return sorted(root.glob("*/*.json"))


def kill_after_first_publication(cache_dir: Path, jobs: int) -> int:
    """Run the parked CLI, SIGKILL it once a point is in the cache, and
    return how many points were published."""
    env = dict(os.environ)
    src = str(Path(repro.__file__).parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", _PARKED_CLI, *CLI_ARGS,
         "--jobs", str(jobs), "--cache-dir", str(cache_dir)],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    try:
        deadline = time.monotonic() + PUBLISH_DEADLINE_S
        while not entries(cache_dir):
            assert proc.poll() is None, "the run exited before it was killed"
            assert time.monotonic() < deadline, (
                f"no point was published within {PUBLISH_DEADLINE_S:.0f} s"
            )
            time.sleep(0.01)
    finally:
        # The whole session: pool workers die with the parent.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    assert proc.returncode == -signal.SIGKILL
    return len(entries(cache_dir))


@pytest.fixture(scope="module")
def direct_export(tmp_path_factory) -> bytes:
    path = tmp_path_factory.mktemp("direct") / "direct.json"
    assert main([*CLI_ARGS, "--json", str(path)]) == 0
    return path.read_bytes()


@pytest.mark.parametrize("jobs", [1, 2])
def test_killed_run_resumes_with_only_missing_points(
    tmp_path, jobs, direct_export
):
    cache_dir = tmp_path / "cache"
    points = fig2_grid(True, SMOKE_SCALE, SEED)
    published = kill_after_first_publication(cache_dir, jobs)
    assert 1 <= published < len(points)

    cache = ResultCache(cache_dir)
    parked = cache.path_for(
        cache.fingerprint(points[PARKED_POINT].spec, points[PARKED_POINT].label)
    )
    assert not parked.exists()
    # A kill during a put leaves a torn staging file; it is not an entry.
    parked.parent.mkdir(parents=True, exist_ok=True)
    parked.with_name(f"{parked.name}.999.0.tmp").write_text('{"result": {')
    assert len(entries(cache_dir)) == published

    figure = fig2(quick=True, scale=SMOKE_SCALE, seed=SEED, cache=cache)
    assert cache.stats.simulations == len(points) - published
    assert cache.stats.hits == published
    assert len(entries(cache_dir)) == len(points)
    assert to_json([figure]).encode("utf-8") == direct_export
