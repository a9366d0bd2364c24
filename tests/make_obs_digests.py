"""Regenerate the sha256 digests of two observed CLI runs' artifacts.

Run from the repo root after an *intentional* change to what an observed
run writes (trace, metrics, flight recorder or HTML report)::

    PYTHONPATH=src python tests/make_obs_digests.py

Each entry of :data:`OBS_RUNS` is one ``python -m repro`` argv that
writes the four observer artifacts named in :data:`ARTIFACTS`. The runs
happen in a subprocess with ``PYTHONHASHSEED=0`` and a scratch working
directory, and the digests land in ``tests/data/golden_obs_digests.json``.
``tests/test_obs_digests.py`` recomputes and compares them.

* ``demo`` sets tight SLOs, so burn-rate alerts fire next to the demo's
  switch faults and failovers;
* ``replan`` kills a decode server mid-migration, so replan events,
  requeues and a transition rollback are recorded.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "data", "golden_obs_digests.json")
SRC = os.path.join(os.path.dirname(HERE), "src")

#: artifact flag -> file name written in the scratch directory
ARTIFACTS = {
    "--trace-out": "trace.json",
    "--metrics-out": "metrics.json",
    "--flight-out": "flight.jsonl",
    "--out": "report.html",
}

#: run name -> argv of ``python -m repro`` (artifact flags appended)
OBS_RUNS = {
    "demo": ["demo", "--slo-ttft", "0.3", "--slo-tpot", "0.05"],
    "replan": ["replan", "--mid-fault", "server", "--duration", "40"],
}


def run_digests(name: str, workdir: str) -> dict[str, str]:
    """``{artifact file: sha256}`` of one run of :data:`OBS_RUNS`."""
    argv = list(OBS_RUNS[name])
    for flag, fname in ARTIFACTS.items():
        argv += [flag, fname]
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=SRC)
    subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        cwd=workdir,
        env=env,
        check=True,
        stdout=subprocess.DEVNULL,
    )
    out = {}
    for fname in ARTIFACTS.values():
        with open(os.path.join(workdir, fname), "rb") as fh:
            out[fname] = hashlib.sha256(fh.read()).hexdigest()
    return out


def read_digests() -> dict[str, dict[str, str]]:
    with open(OUT) as fh:
        return json.load(fh)


def main() -> None:
    digests = {}
    for name in OBS_RUNS:
        with tempfile.TemporaryDirectory() as tmp:
            digests[name] = run_digests(name, tmp)
    with open(OUT, "w") as fh:
        json.dump(digests, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
