import warnings

import pytest

from helpers import SequenceStream

# The hypothesis plugin imports this module when a Hypothesis test fails, to
# write a patch; its libcst import emits a DeprecationWarning (from
# mypy_extensions.TypedDict) which, under warnings-as-errors, ends the run with
# an INTERNALERROR in place of the falsifying example.  Imported once here,
# with that warning ignored, it is already loaded when a test fails.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # libcst is not installed: the plugin then writes no patch
        pass


@pytest.fixture
def sequence_stream():
    return SequenceStream
