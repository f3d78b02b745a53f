from typing import NamedTuple

import pytest

from dyadnet.cli import main


class CliRun(NamedTuple):
    """One in-process run of the command line."""
    code: int
    stdout: bytes
    stderr: str


@pytest.fixture()
def cli(capsysbinary):
    """Run `dyadnet.cli.main(args)` in this process and return its exit
    code, stdout bytes and stderr text.

    `main` writes its output through `sys.stdout.buffer`, as in a process,
    and ends with `SystemExit`; any other exception propagates with its
    traceback.
    """
    def invoke(args) -> CliRun:
        with pytest.raises(SystemExit) as exit_:
            main(args)
        out, err = capsysbinary.readouterr()
        return CliRun(exit_.value.code, out, err.decode())
    return invoke
