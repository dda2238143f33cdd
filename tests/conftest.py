import pytest


def _first_difference(got: str, want: str, context: int = 60) -> str:
    at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
              min(len(got), len(want)))
    lo = max(0, at - context)
    return (f"texts differ at offset {at} (lengths {len(got)} and "
            f"{len(want)}):\n  got:  {got[lo:at + context]!r}\n"
            f"  want: {want[lo:at + context]!r}")


def _assert_same_text(got: str, want: str):
    # compared outside the assert, so that a failure reports the first
    # differing offset instead of pytest's diff, which takes minutes on
    # multi-megabyte strings
    same = got == want
    assert same, _first_difference(got, want)


@pytest.fixture
def assert_same_text():
    """assert_same_text(got, want): got == want, failing fast with the first
    differing offset and its context."""
    return _assert_same_text
