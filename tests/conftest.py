import re
import sys
from pathlib import Path

import pytest

import subchains
from subchains import chains
from subchains.cli import main

# The directory that holds the package, for a subprocess's PYTHONPATH or sys.path.
SRC = Path(subchains.__file__).resolve().parents[1]

# elapsed_ms in text (key=value), JSON ("key":value) and CSV (the field after the method).
TIMING = re.compile(r'(elapsed_ms[=":]+|,(?:recurrence|oracle),)[0-9.]+')


def mask(text: str) -> str:
    """The output with every elapsed_ms value replaced by <ms>."""
    return TIMING.sub(r"\1<ms>", text)


def run_cli(argv, capsys):
    """(exit code, stdout, stderr) of one in-process request."""
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture(autouse=True)
def cold_engine():
    """Every test starts from a cold engine, whatever the tests before it computed."""
    chains.clear_caches()


@pytest.fixture
def pulls():
    """The bases of the ranks pulled from chains._triangle, one entry per rank, while the test runs.

    A test reads the engine's reuse from how many ranks a call pulls: none for
    a rank it keeps, n + 1 for a rank n it starts again from rank 0. The patch
    is its own, so a test's monkeypatch.undo() leaves the count running.
    """
    pulled = []
    triangle = chains._triangle

    def counted(p):
        for b in triangle(p):
            pulled.append(p)
            yield b

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(chains, "_triangle", counted)
        yield pulled


@pytest.fixture
def off_at_rank(monkeypatch):
    """A fault in chains._triangle, through the test's monkeypatch: off_at_rank(rank, error) patches it.

    The patched triangle yields b_rank + error at every base, every other rank
    unchanged; an exception for error is raised at that rank instead. It wraps
    chains._triangle as the test sees it, so the pulls fixture still counts.
    """

    def patch(rank, error):
        triangle = chains._triangle

        def off(p):
            for m, b in enumerate(triangle(p)):
                if m == rank:
                    if not isinstance(error, int):
                        raise error
                    b += error
                yield b

        monkeypatch.setattr(chains, "_triangle", off)

    return patch


@pytest.fixture
def digit_limit():
    """digit_limit(limit) sets the int-to-str digit limit for the test, 0 lifting it; the caller's is restored after.

    cli.main lifts the limit only while it runs, so a test that turns the counts
    main printed back into ints past 4,300 digits lifts it itself. Where the
    interpreter has no such limit, setting it does nothing.
    """
    if not hasattr(sys, "set_int_max_str_digits"):
        yield lambda limit: None
        return
    before = sys.get_int_max_str_digits()
    try:
        yield sys.set_int_max_str_digits
    finally:
        sys.set_int_max_str_digits(before)
