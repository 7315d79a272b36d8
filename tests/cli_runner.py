"""Run a ``catsize`` command line in this process (``run_cli``) or in a new
interpreter (``spawn_cli``, for tests of the process itself); both return a
``subprocess.CompletedProcess``."""

import contextlib
import io
import json
import re
import subprocess
import sys
from pathlib import Path

import catsize
from catsize.cli import main

CLI = [sys.executable, "-m", "catsize.cli"]
SCHEMA = json.loads((Path(catsize.__file__).parent / "data" / "envelope.schema.json").read_text())


def run_cli(*args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(args))
        except SystemExit as exc:  # argparse's usage error
            code = exc.code
    return subprocess.CompletedProcess(list(args), code, out.getvalue(), err.getvalue())


def spawn_cli(*args, stdout=subprocess.PIPE, **kwargs):
    return subprocess.run([*CLI, *args], stdout=stdout, stderr=subprocess.PIPE,
                          text=True, **kwargs)


def strip_timing(text):
    return re.sub(r'"timing_ms": \d+', '"timing_ms": 0', text)
