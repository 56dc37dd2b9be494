"""The quartic pins hold under other BLAS kernels and SIMD dispatch levels.

Each setting below re-runs the 21 quartic trajectory pins, the shortened
``table1`` sweep and the ablation finals of ``test_golden`` in a child
process whose environment picks other kernels: OpenBLAS's Haswell or
Sandybridge kernels (``OPENBLAS_CORETYPE``, honoured by a DYNAMIC_ARCH
build and ignored by others), or numpy's own dispatch lowered from
AVX-512 to AVX2 (``NPY_DISABLE_CPU_FEATURES``). A setting runs only when
this CPU has the instructions it needs, as numpy reports them in
``__cpu_features__``; a setting it cannot run is skipped, and the skip
names it. The children run two at a time.

A child that gets another trajectory hash says where its bits parted:
the first logged k at which its log leaves the in-process run's, and the
first iterate x^k and aggregate v^k that differ, from
``run(..., capture_states=True)`` on both sides.

The softmax pins are not run here: their matmuls, ``exp`` and ``log``
round differently under other kernels and dispatch levels.

Run as a script, ``python tests/test_portability.py OUT`` is the child:
it writes its hashes to ``OUT/hashes.json`` and its logs to
``OUT/logs.npz``.
"""

import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest
from numpy._core._multiarray_umath import __cpu_features__

from byzsim.engine import run
from byzsim.harness import parse_config
from test_golden import (ABLATION_FINALS, GOLDEN, TABLE1_SWEEP, ablation_finals_sha256,
                         golden_config, records_sha256, table1_sweep_sha256)

QUARTIC_PINS = sorted(name for name in GOLDEN if not name.startswith("softmax"))
PINS = {**{name: GOLDEN[name] for name in QUARTIC_PINS},
        "TABLE1_SWEEP": TABLE1_SWEEP, "ABLATION_FINALS": ABLATION_FINALS}

# Setting id -> (its environment, the CPU features it needs: those an
# OpenBLAS kernel runs on, or the AVX-512 base level numpy's dispatch is
# lowered from, which AVX512_ICL and AVX512_SPR build on).
SETTINGS = {
    "openblas-haswell": ({"OPENBLAS_CORETYPE": "Haswell"}, ("AVX2", "FMA3")),
    "openblas-sandybridge": ({"OPENBLAS_CORETYPE": "Sandybridge"}, ("AVX",)),
    "numpy-avx2": ({"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}, ("X86_V4",)),
}
SRC = Path(__file__).resolve().parent.parent / "src"


def _missing(setting: str) -> list[str]:
    """The CPU features the setting needs that this CPU lacks."""
    return [f for f in SETTINGS[setting][1] if not __cpu_features__.get(f, False)]


def _trajectory(name: str):
    return run(parse_config(golden_config(name)), capture_states=True)


def _logs(result) -> dict[str, np.ndarray]:
    return {"records": np.array([astuple(r) for r in result.records]),
            "states": np.array(result.states), "aggregates": np.array(result.aggregates)}


def child(out: Path) -> None:
    """Hash every pin in this process; write the hashes and each
    trajectory's captured log under out."""
    hashes, logs = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name in QUARTIC_PINS:
            result = _trajectory(name)
            hashes[name] = records_sha256(result.records, tmp)
            logs.update({f"{name}/{key}": a for key, a in _logs(result).items()})
        (tmp / "table1").mkdir()
        (tmp / "ablation").mkdir()
        hashes["TABLE1_SWEEP"] = table1_sweep_sha256(tmp / "table1")
        hashes["ABLATION_FINALS"] = ablation_finals_sha256(tmp / "ablation")
    np.savez(out / "logs.npz", **logs)
    (out / "hashes.json").write_text(json.dumps(hashes))


def _first_difference(here: np.ndarray, there: np.ndarray) -> int | None:
    """The first row index at which the two arrays differ in any bit,
    or at which one ends; None if they are the same."""
    common = min(len(here), len(there))
    diff = np.flatnonzero((here[:common].view(np.uint64) != there[:common].view(np.uint64))
                          .reshape(common, -1).any(axis=1))
    if len(diff):
        return int(diff[0])
    return None if len(here) == len(there) else common


def parting(name: str, there: dict[str, np.ndarray]) -> str:
    """Where the logs ``there`` of the pin ``name`` leave the in-process run."""
    here = _logs(_trajectory(name))
    parts = []
    i = _first_difference(here["records"], there["records"])
    if i is not None:
        row = here["records"][i] if i < len(here["records"]) else there["records"][i]
        parts.append(f"the log parts at logged k={int(row[0])}")
    i = _first_difference(here["states"], there["states"])
    parts.append("every iterate agrees" if i is None else f"the iterates part at x^{i}")
    i = _first_difference(here["aggregates"], there["aggregates"])
    parts.append("every aggregate agrees" if i is None else f"the aggregates part at v^{i + 1}")
    return ", ".join(parts)


def _run_child(setting: str, out: Path) -> subprocess.CompletedProcess:
    env = {**os.environ, **SETTINGS[setting][0],
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, __file__, str(out)], env=env, capture_output=True,
                          text=True, timeout=600)


@pytest.fixture(scope="module")
def children(tmp_path_factory):
    """Setting id -> (child process, its output directory), for every
    setting this CPU can run, two children at a time."""
    outs = {s: tmp_path_factory.mktemp(s) for s in SETTINGS if not _missing(s)}
    with ThreadPoolExecutor(max_workers=2) as pool:
        procs = dict(zip(outs, pool.map(_run_child, outs, outs.values())))
    return {s: (procs[s], outs[s]) for s in outs}


@pytest.mark.parametrize("setting", sorted(SETTINGS))
def test_quartic_pins_hold_under(setting, children):
    if setting not in children:
        env = " ".join(f"{k}={v}" for k, v in SETTINGS[setting][0].items())
        pytest.skip(f"{setting} ({env}) not run: this CPU lacks {', '.join(_missing(setting))}")
    proc, out = children[setting]
    assert proc.returncode == 0, proc.stderr
    hashes = json.loads((out / "hashes.json").read_text())
    moved = [name for name, pin in PINS.items() if hashes[name] != pin]
    if moved:
        with np.load(out / "logs.npz") as npz:
            logs = {name: {key: npz[f"{name}/{key}"] for key in ("records", "states", "aggregates")}
                    for name in QUARTIC_PINS}
        lines = [f"{name}: {hashes[name][:16]} != pin {PINS[name][:16]}"
                 + (f"; {parting(name, logs[name])}" if name in logs else "") for name in moved]
        pytest.fail(f"{len(moved)} of {len(PINS)} pins moved under {setting}:\n"
                    + "\n".join(lines))


if __name__ == "__main__":
    child(Path(sys.argv[1]))
