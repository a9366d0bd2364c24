"""Regenerate the byte-exact stdout goldens of the run subcommands.

Run from the repo root after an *intentional* change to what a CLI run
prints::

    PYTHONPATH=src python tests/make_cli_goldens.py

Each entry of :data:`CLI_GOLDENS` is one ``python -m repro`` argv; its
stdout lands in ``tests/data/golden_cli_<name>.txt``. Commands run in a
scratch working directory (``demo``/``replan``/``report`` write their
default output files there), and every ``wrote ...`` line is scrubbed
to ``wrote <path>`` by :func:`scrub` so a test may point ``--out`` at a
temporary file and still compare byte for byte. ``tests/test_cli.py``
compares each command against its golden.
"""

import contextlib
import io
import os
import re
import tempfile

DATA = os.path.join(os.path.dirname(__file__), "data")

#: golden name -> argv of ``python -m repro``
CLI_GOLDENS = {
    "quickstart": ["quickstart", "--rate", "0.4", "--duration", "20"],
    "compare": ["compare", "--rate", "0.8", "--duration", "20"],
    "fleet": ["fleet"],
    "report": ["report", "--rate", "1.0", "--duration", "30", "--seed", "0"],
    "explain": [
        "explain", "--rate", "1.0", "--duration", "30", "--seed", "0",
        "--slowest", "5",
    ],
    "demo": ["demo"],
    "replan": ["replan", "--mid-fault", "server"],
    "whatif": ["whatif", "--topology", "testbed"],
}

_WROTE = re.compile(r"^wrote .*$", re.MULTILINE)


def scrub(text: str) -> str:
    """Replace output-path lines with a placeholder."""
    return _WROTE.sub("wrote <path>", text)


def golden_path(name: str) -> str:
    return os.path.join(DATA, f"golden_cli_{name}.txt")


def read_golden(name: str) -> str:
    with open(golden_path(name)) as fh:
        return fh.read()


def run_cli(argv: list[str]) -> str:
    """Scrubbed stdout of one CLI run (exit status must be 0)."""
    from repro.__main__ import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = main(list(argv))
    assert status == 0, (argv, status)
    return scrub(buf.getvalue())


def main() -> None:
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            outputs = {
                name: run_cli(argv) for name, argv in CLI_GOLDENS.items()
            }
        finally:
            os.chdir(cwd)
    for name, text in outputs.items():
        with open(golden_path(name), "w") as fh:
            fh.write(text)
        print(f"wrote {golden_path(name)}")


if __name__ == "__main__":
    main()
