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
