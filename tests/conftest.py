import sys

import pytest

from subchains import chains


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
