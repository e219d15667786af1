"""README outcome check (untimed): run every `qsu2 ...` example in the
README's CLI block once, plus the extra invocations below, and report
each exit code.

    python3 perfbench/readme_check.py

Examples run in order, in one temporary directory inside the repository,
so that later examples find the files earlier ones wrote (out/...).
Exits 1 if an invocation fails that is not a known defect.
"""

from __future__ import annotations

import contextlib
import io
import os
import shlex
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Invocations outside the README that the benchmark also tracks.
EXTRA = [
    "qsu2 hopf --outdir out",
    "qsu2 rep --s 0.01 --c 1e6 --basis=0:400 --verify --outdir out",
]

# Known defects at the time the benchmark was defined: command -> (exit code, reason).
# The timed mixes draw only from invocations that succeed.
KNOWN_DEFECTS = {
    "qsu2 hopf --alpha 3 --profile sech --c 1.0 --outdir out":
        (2, "no unitary truncation at this anchor: min |N|^2 = -0.611"),
    "qsu2 hopf --outdir out":
        (2, "all defaults: no unitary truncation at this anchor: min |N|^2 = -6.19"),
    "qsu2 rep --s 0.01 --c 1e6 --basis=0:400 --verify --outdir out":
        (3, "a 3.4e-10 residual on entries of order 1e6 exceeds the absolute 1e-10 bound"),
}


def readme_examples(text: str) -> list[str]:
    """`qsu2 ...` lines of the README's sh blocks, comments stripped."""
    out, in_sh = [], False
    for line in text.splitlines():
        if line.startswith("```"):
            in_sh = line.strip() == "```sh"
            continue
        line = line.split("#", 1)[0].strip()
        if in_sh and line.startswith("qsu2 "):
            out.append(line)
    return out


def run_all(commands: list[str]) -> list[tuple[str, int]]:
    import qsu2.cli

    results = []
    work = Path(tempfile.mkdtemp(prefix=".perfbench_readme_", dir=ROOT))
    cwd = os.getcwd()
    try:
        os.chdir(work)
        for command in commands:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                rc = qsu2.cli.main(shlex.split(command)[1:])
            results.append((command, rc))
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)
    return results


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    commands = readme_examples((ROOT / "README.md").read_text(encoding="utf-8")) + EXTRA
    unexpected = 0
    for command, rc in run_all(commands):
        known = KNOWN_DEFECTS.get(command)
        if rc == 0:
            status = "ok" + (" (known defect now fixed)" if known else "")
        elif known and known[0] == rc:
            status = f"known defect: {known[1]}"
        else:
            status = "UNEXPECTED FAILURE"
            unexpected += 1
        print(f"exit {rc}  {command}  [{status}]")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
